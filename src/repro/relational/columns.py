"""Interned-int column storage mirrored onto relations.

A :class:`ColumnStore` is the columnar face of one
:class:`~repro.relational.instance.Relation`: the same tuples, kept as one
``array('q')`` of :class:`~repro.relational.values.ValueCatalog` codes per
attribute position.  The batch join kernels of
:mod:`repro.engine.columnar` operate on these code columns — probing a
cached *group index* (code key → row slots), then gathering whole columns
at once — instead of matching tuple-at-a-time through Python dicts.

Stores are built **lazily** on first columnar access (a relation that is
never matched by the columnar engine pays nothing, and snapshot restores
that assign rows wholesale rebuild columns on first use) and from then on
maintained incrementally by ``Relation.add``/``discard``/``add_many``.
Deletion uses swap-remove so the columns stay dense.

Group indexes are maintained by **delta merge**, not invalidation: an
append (single or bulk via :meth:`ColumnStore.extend`) inserts the new
slots into the already-built buckets, and a swap-remove discard patches
exactly the two touched buckets.  The chase relies on this — every round
bulk-inserts derived facts into relations whose group indexes the next
round's joins probe again, and rebuilding them per round would make the
batched trigger path O(data) instead of O(delta).  Each merge is counted
process-wide (:func:`index_delta_merge_count`) so evaluators can report
``index_delta_merges`` in their stats.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .values import value_catalog

#: process-wide count of group-index delta merges (incremental updates of
#: an already-built index, where the pre-PR store invalidated and rebuilt);
#: evaluators sample it before/after a run to report ``index_delta_merges``
_INDEX_DELTA_MERGES = 0


def index_delta_merge_count() -> int:
    """The process-wide group-index delta-merge counter (monotone)."""
    return _INDEX_DELTA_MERGES


Row = Tuple[Any, ...]


class _GroupIndex:
    """One maintained group index: code key → slots carrying it.

    Buckets are plain lists of slots (cheap to patch incrementally); the
    join kernels read them in place, so treat a returned bucket as
    read-only.
    """

    __slots__ = ("_buckets",)

    def __init__(self, buckets: Dict[Any, List[int]]):
        self._buckets = buckets

    def get(self, key: Any, default: Any = None) -> Any:
        return self._buckets.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        found = self.get(key)
        if found is None:
            raise KeyError(key)
        return found

    def __contains__(self, key: Any) -> bool:
        return key in self._buckets

    def __iter__(self):
        return iter(self._buckets)

    def __len__(self) -> int:
        return len(self._buckets)

    # -- delta maintenance (driven by the owning ColumnStore) ----------------

    def _add(self, key: Any, slot: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [slot]
        else:
            bucket.append(slot)

    def _remove(self, key: Any, slot: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(slot)
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def _relocate(self, key: Any, old_slot: int, new_slot: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket[bucket.index(old_slot)] = new_slot
        except ValueError:
            return


def _group_key(codes: Sequence[int], positions: Tuple[int, ...]) -> Any:
    """The bucket key of one row's codes under a positions index."""
    if len(positions) == 1:
        return codes[positions[0]]
    return tuple(codes[p] for p in positions)


class ColumnStore:
    """Dense code columns over one relation's tuples (see module docstring)."""

    __slots__ = ("arity", "_columns", "_rows", "_pos", "_groups")

    def __init__(self, arity: int):
        self.arity = arity
        #: one array('q') of catalog codes per attribute position
        self._columns: List[array] = [array("q") for _ in range(arity)]
        #: slot -> row (parallel to the columns)
        self._rows: List[Row] = []
        #: row -> slot (drives swap-remove deletion)
        self._pos: Dict[Row, int] = {}
        #: positions tuple -> maintained group index (delta-merged, not
        #: rebuilt: see module docstring)
        self._groups: Dict[Tuple[int, ...], _GroupIndex] = {}

    @classmethod
    def build(cls, arity: int, rows: Iterable[Row]) -> "ColumnStore":
        """Encode ``rows`` into a fresh store (bulk path, no invalidation)."""
        store = cls(arity)
        code = value_catalog().code
        columns = store._columns
        slot_of = store._pos
        slots = store._rows
        for row in rows:  # per-tuple: ok — one-time bulk encode of a fresh store
            slot_of[row] = len(slots)
            slots.append(row)
            for position in range(arity):
                columns[position].append(code(row[position]))
        return store

    # -- mutation (driven by Relation.add/discard/add_many) ------------------

    def append(self, row: Row) -> None:
        """Append one (guaranteed-new) row's codes."""
        code = value_catalog().code
        slot = len(self._rows)
        self._pos[row] = slot
        self._rows.append(row)
        codes = [code(value) for value in row]
        for position, column in enumerate(self._columns):
            column.append(codes[position])
        if self._groups:
            global _INDEX_DELTA_MERGES
            for positions, index in self._groups.items():
                _INDEX_DELTA_MERGES += 1
                index._add(_group_key(codes, positions), slot)

    def extend(self, rows: Sequence[Row],
               code_rows: Optional[Sequence[Sequence[int]]] = None) -> None:
        """Append many (guaranteed-new, distinct) rows in one bulk pass.

        ``code_rows`` — the rows' catalog codes, positionally aligned — lets
        callers that already encoded the batch (the batched trigger path
        instantiates heads as code arrays) skip re-encoding here.  Group
        indexes are delta-merged with the new slots.
        """
        if not rows:
            return
        if code_rows is None:
            code = value_catalog().code
            code_rows = [tuple(code(value) for value in row) for row in rows]
        base = len(self._rows)
        slot_of = self._pos
        stored = self._rows
        for offset, row in enumerate(rows):  # per-tuple: ok — slot bookkeeping, O(batch)
            slot_of[row] = base + offset
            stored.append(row)
        for position, column in enumerate(self._columns):
            column.extend([codes[position] for codes in code_rows])
        if self._groups:
            global _INDEX_DELTA_MERGES
            for positions, index in self._groups.items():
                _INDEX_DELTA_MERGES += 1
                for offset, codes in enumerate(code_rows):
                    index._add(_group_key(codes, positions), base + offset)

    def discard(self, row: Row) -> None:
        """Swap-remove one (guaranteed-present) row, keeping columns dense."""
        slot = self._pos.pop(row)
        last = len(self._rows) - 1
        groups = self._groups
        removed_codes = [column[slot] for column in self._columns] \
            if groups else None
        moved_codes = [column[last] for column in self._columns] \
            if groups and slot != last else None
        if slot != last:
            moved = self._rows[last]
            self._rows[slot] = moved
            self._pos[moved] = slot
            for column in self._columns:
                column[slot] = column[last]
        self._rows.pop()
        for column in self._columns:
            column.pop()
        if groups:
            global _INDEX_DELTA_MERGES
            for positions, index in groups.items():
                _INDEX_DELTA_MERGES += 1
                index._remove(_group_key(removed_codes, positions), slot)
                if moved_codes is not None:
                    index._relocate(_group_key(moved_codes, positions),
                                    last, slot)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def column(self, position: int) -> array:
        """The raw code column at ``position`` (treat as read-only)."""
        return self._columns[position]

    def group_index(self, positions: Tuple[int, ...]) -> _GroupIndex:
        """Code key at ``positions`` → slots carrying it (maintained).

        The columnar analogue of ``Relation.index_on``: one dict probe per
        binding row answers "which stored rows agree with these codes".
        Keys are a bare int for single-position indexes, a code tuple
        otherwise; slot buckets come back as plain lists.  Built once by a
        full scan, then kept consistent by the mutation hooks (delta merge),
        so the build cost is paid once per (store, positions) instead of
        once per mutation burst.
        """
        index = self._groups.get(positions)
        if index is None:
            buckets: Dict[Any, List[int]] = {}
            if len(positions) == 1:
                for slot, code in enumerate(self._columns[positions[0]]):
                    bucket = buckets.get(code)
                    if bucket is None:
                        buckets[code] = [slot]
                    else:
                        bucket.append(slot)
            else:
                columns = [self._columns[p] for p in positions]
                for slot, key in enumerate(zip(*columns)):
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [slot]
                    else:
                        bucket.append(slot)
            index = _GroupIndex(buckets)
            self._groups[positions] = index
        return index

    def copy(self) -> "ColumnStore":
        """An independent copy (C-level array/dict duplication)."""
        clone = ColumnStore(self.arity)
        clone._columns = [array("q", column) for column in self._columns]
        clone._rows = list(self._rows)
        clone._pos = dict(self._pos)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStore(arity={self.arity}, rows={len(self._rows)})"
