"""Relation and database instances.

Instances are in-memory, set-based (duplicate-free) collections of tuples.
They are the extensional layer on which the relational algebra, the chase
and the query-answering algorithms operate.

Design notes
------------
* Tuples are stored as plain Python tuples.  Values may be ordinary constants
  or labeled :class:`~repro.relational.values.Null` objects.
* A :class:`Relation` keeps insertion order (useful for readable reports) but
  membership and equality are set semantics.
* A :class:`Relation` builds **hash indexes on demand**: per-position-pattern
  indexes (``index_on``/``probe``) used by the engine's matching layer to
  look up rows by their bound positions, and a **null-occurrence index**
  (``rows_with_value``) used by EGD merges to rewrite only affected rows.
  Indexes are maintained incrementally on ``add``/``discard`` and dropped on
  ``clear``; a relation that is never probed pays nothing.
* A :class:`DatabaseInstance` couples a :class:`DatabaseSchema` with one
  :class:`Relation` per declared relation; tuples can only be inserted into
  declared relations and must match the declared arity.

See ``docs/ARCHITECTURE.md`` for how this storage layer sits under the
matching and evaluation layers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import UnknownRelationError
from .schema import DatabaseSchema, RelationSchema
from .values import Null, value_sort_key

Row = Tuple[Any, ...]


class Relation:
    """A duplicate-free, insertion-ordered set of tuples under one schema."""

    def __init__(self, schema: RelationSchema, rows: Iterable[Sequence[Any]] = ()):
        self.schema = schema
        self._rows: Dict[Row, None] = {}
        #: position-pattern indexes: (positions...) -> key values -> rows
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Any, ...], Dict[Row, None]]] = {}
        #: value-occurrence index (built on demand): value -> rows containing it
        self._value_index: Optional[Dict[Any, Dict[Row, None]]] = None
        #: interned-int column mirror (built on demand by the columnar engine)
        self._column_store: Optional["ColumnStore"] = None
        #: bumped on every effective mutation; versions the snapshot cache
        self._mutations = 0
        #: (mutation stamp, clone) of the last snapshot — shared while valid
        self._snapshot_cache: Optional[Tuple[int, "Relation"]] = None
        for row in rows:
            self.add(row)

    # -- mutation -----------------------------------------------------------

    def add(self, row: Sequence[Any]) -> bool:
        """Insert ``row``; return ``True`` if it was not already present."""
        self.schema.check_arity(row)
        key = tuple(row)
        if key in self._rows:
            return False
        self._rows[key] = None
        self._mutations += 1
        if self._indexes:
            for positions, index in self._indexes.items():
                index.setdefault(tuple(key[p] for p in positions), {})[key] = None
        if self._value_index is not None:
            for value in set(key):
                self._value_index.setdefault(value, {})[key] = None
        if self._column_store is not None:
            self._column_store.append(key)
        return True

    def add_all(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert every row of ``rows``; return how many were new."""
        return sum(self.add_many(rows))

    def add_many(self, rows: Iterable[Sequence[Any]],
                 code_rows: Optional[Sequence[Sequence[int]]] = None
                 ) -> List[bool]:
        """Bulk insert; return the per-row novelty mask, in order.

        The batch form of :meth:`add`: membership is decided row by row
        (so in-batch duplicates report novel once, like repeated ``add``
        calls), but every index structure — pattern indexes, the occurrence
        index and the column store — is updated once for the whole batch of
        novel rows, and the mutation counter advances once instead of once
        per row.  ``code_rows`` optionally carries the rows'
        :class:`~repro.relational.values.ValueCatalog` codes (positionally
        aligned with ``rows``) so an already-encoded batch — the chase's
        batched trigger application — skips re-encoding in the column
        store.

        The returned mask is what delta-driven callers consume: the novel
        rows *are* the next round's delta, with no re-probing.
        """
        rows_map = self._rows
        check_arity = self.schema.check_arity
        novel: List[bool] = []
        new_rows: List[Row] = []
        new_codes: Optional[List[Sequence[int]]] = \
            [] if code_rows is not None else None
        for index, row in enumerate(rows):
            key = tuple(row)
            check_arity(key)
            if key in rows_map:
                novel.append(False)
                continue
            rows_map[key] = None
            novel.append(True)
            new_rows.append(key)
            if new_codes is not None:
                new_codes.append(code_rows[index])
        if not new_rows:
            return novel
        self._mutations += 1
        if self._indexes:
            for positions, index in self._indexes.items():
                for key in new_rows:
                    index.setdefault(
                        tuple(key[p] for p in positions), {})[key] = None
        if self._value_index is not None:
            for key in new_rows:
                for value in set(key):
                    self._value_index.setdefault(value, {})[key] = None
        if self._column_store is not None:
            self._column_store.extend(new_rows, new_codes)
        return novel

    def bulk_load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Wholesale-assign ``rows`` into an empty, index-free relation.

        The restore fast path (snapshot decode, CSV ingestion of a fresh
        relation): rows go straight into the row dictionary via
        ``dict.fromkeys`` — one C-level pass, no per-row index maintenance
        because there is nothing to maintain yet — after a single arity
        scan.  Falls back to :meth:`add_many` when the relation already
        holds rows or built indexes.  Returns how many rows were loaded.
        """
        if self._rows or self._indexes or self._value_index is not None \
                or self._column_store is not None:
            return sum(self.add_many(rows))
        keyed = list(map(tuple, rows))
        if set(map(len, keyed)) - {self.schema.arity}:
            for row in keyed:
                self.schema.check_arity(row)
        self._rows = dict.fromkeys(keyed)
        self._mutations += 1
        return len(self._rows)

    def discard(self, row: Sequence[Any]) -> bool:
        """Remove ``row`` if present; return whether it was present."""
        key = tuple(row)
        if key in self._rows:
            del self._rows[key]
            self._mutations += 1
            if self._column_store is not None:
                self._column_store.discard(key)
            if self._indexes:
                for positions, index in self._indexes.items():
                    bucket_key = tuple(key[p] for p in positions)
                    bucket = index.get(bucket_key)
                    if bucket is not None:
                        bucket.pop(key, None)
                        if not bucket:
                            del index[bucket_key]
            if self._value_index is not None:
                for value in set(key):
                    bucket = self._value_index.get(value)
                    if bucket is not None:
                        bucket.pop(key, None)
                        if not bucket:
                            del self._value_index[value]
            return True
        return False

    def clear(self) -> None:
        """Remove all tuples (and drop any indexes built over them)."""
        self._rows.clear()
        self._indexes.clear()
        self._value_index = None
        self._column_store = None
        self._mutations += 1

    # -- indexing -----------------------------------------------------------

    def index_on(self, positions: Tuple[int, ...]) -> Dict[Tuple[Any, ...], Dict[Row, None]]:
        """The hash index over ``positions`` (built lazily, then maintained).

        The index maps the tuple of values at ``positions`` to the rows
        carrying those values.  Once built it is kept up to date by
        ``add``/``discard``, so repeated probes cost one dict lookup.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self._rows:
                index.setdefault(tuple(row[p] for p in positions), {})[row] = None
            self._indexes[positions] = index
        return index

    def probe(self, positions: Tuple[int, ...], key: Tuple[Any, ...]) -> List[Row]:
        """Rows whose values at ``positions`` equal ``key`` (via the index)."""
        bucket = self.index_on(positions).get(key)
        return list(bucket) if bucket else []

    def rows_with_value(self, value: Any) -> List[Row]:
        """Rows containing ``value`` at any position (via the occurrence index).

        This is the null-occurrence index the chase uses for EGD merges: when
        a labeled null is equated with another value, only the rows returned
        here need to be rewritten instead of rescanning the whole relation.
        """
        if self._value_index is None:
            self._value_index = {}
            for row in self._rows:
                for row_value in set(row):
                    self._value_index.setdefault(row_value, {})[row] = None
        bucket = self._value_index.get(value)
        return list(bucket) if bucket else []

    def index_count(self) -> int:
        """How many pattern indexes are currently materialized (for stats)."""
        return len(self._indexes) + (1 if self._value_index is not None else 0)

    def column_store(self) -> "ColumnStore":
        """The interned-int column mirror (built lazily, then maintained).

        The columnar engine's batch kernels operate on this store; relations
        never touched by the columnar engine don't build one.  Snapshot
        restores assign rows wholesale to *fresh* relations, so a restored
        relation simply rebuilds its columns here on first columnar access.
        """
        store = self._column_store
        if store is None:
            from .columns import ColumnStore
            store = ColumnStore.build(self.schema.arity, self._rows)
            self._column_store = store
        return store

    # -- inspection ---------------------------------------------------------

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def rows(self) -> List[Row]:
        """All tuples, in insertion order."""
        return list(self._rows)

    def sorted_rows(self) -> List[Row]:
        """All tuples, in a deterministic total order (for reports/tests)."""
        return sorted(self._rows, key=lambda row: tuple(value_sort_key(v) for v in row))

    def column(self, attribute: str) -> List[Any]:
        """Values of ``attribute`` across all tuples (with duplicates)."""
        position = self.schema.position_of(attribute)
        return [row[position] for row in self._rows]

    def active_domain(self) -> Set[Any]:
        """The set of all values (constants and nulls) appearing in tuples."""
        return {value for row in self._rows for value in row}

    def constants(self) -> Set[Any]:
        """The set of non-null values appearing in tuples."""
        return {value for row in self._rows for value in row if not isinstance(value, Null)}

    def nulls(self) -> Set[Null]:
        """The set of labeled nulls appearing in tuples."""
        return {value for row in self._rows for value in row if isinstance(value, Null)}

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Tuples as attribute→value dictionaries (handy for reports)."""
        return [dict(zip(self.schema.attributes, row)) for row in self._rows]

    def copy(self) -> "Relation":
        """Return an independent copy with the same schema and tuples."""
        return Relation(self.schema, self._rows)

    def snapshot(self) -> "Relation":
        """A fast structural copy for version publication.

        Unlike :meth:`copy` (which re-inserts row by row), the snapshot
        duplicates the row dictionary, the already-built position-pattern
        indexes and the column store at the C level, so probes against the
        snapshot keep costing one dict lookup without a rebuild.  The
        occurrence index is dropped: it only serves EGD merges, which never
        run on published versions.

        Snapshots are **copy-on-write across publications**: the clone is
        cached with the relation's mutation stamp, and as long as the
        relation has not been mutated since, the *same* clone object is
        returned — publishing an untouched relation costs one counter
        comparison instead of re-copying every index bucket.  Sharing is
        safe because a clone is mutated only through
        :meth:`advance_snapshot`, which keeps it equal to this relation
        (see :meth:`DatabaseInstance.attach` for who may call it).
        """
        cached = self._snapshot_cache
        if cached is not None and cached[0] == self._mutations:
            return cached[1]
        clone = Relation.__new__(Relation)
        clone.schema = self.schema
        clone._rows = dict(self._rows)
        clone._indexes = {
            positions: {key: dict(bucket) for key, bucket in index.items()}
            for positions, index in self._indexes.items()
        }
        clone._value_index = None
        clone._column_store = None if self._column_store is None \
            else self._column_store.copy()
        clone._mutations = 0
        clone._snapshot_cache = None
        self._snapshot_cache = (self._mutations, clone)
        return clone

    def advance_snapshot(self, twin: "Relation",
                         removed: Iterable[Row], added: Iterable[Row]) -> bool:
        """Bring ``twin`` — an earlier :meth:`snapshot` of this relation —
        up to this relation's state in place, in O(delta).

        ``removed``/``added`` are the rows this relation lost and gained
        since ``twin`` last equalled it (a row in both was removed, then
        re-added); they are replayed in that order through ``twin``'s
        normal mutation hooks, so its pattern indexes and column store
        follow.  Returns ``False`` when the sizes then disagree — the
        delta was not exact and the caller must take a fresh
        :meth:`snapshot`; on success ``twin`` becomes the cached snapshot
        again.  Only the version store calls this, and only on a twin no
        pinned reader can reach.
        """
        for row in removed:
            twin.discard(row)
        twin.add_many(added)
        if len(twin._rows) != len(self._rows):
            return False
        self._snapshot_cache = (self._mutations, twin)
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and set(self._rows) == set(other._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.schema}, {len(self)} tuples)"

    def pretty(self, limit: Optional[int] = None) -> str:
        """An aligned, human-readable rendering of the relation."""
        rows = self.sorted_rows()
        if limit is not None:
            rows = rows[:limit]
        header = list(self.schema.attributes)
        cells = [[str(v) for v in row] for row in rows]
        widths = [len(h) for h in header]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(row: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines = [self.schema.name, fmt(header), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in cells)
        if limit is not None and len(self) > limit:
            lines.append(f"... ({len(self) - limit} more)")
        return "\n".join(lines)


class DatabaseInstance:
    """A database instance: one :class:`Relation` per schema relation."""

    def __init__(self, schema: Optional[DatabaseSchema] = None):
        self.schema = schema if schema is not None else DatabaseSchema()
        self._relations: Dict[str, Relation] = {
            rel.name: Relation(rel) for rel in self.schema
        }

    # -- schema-level operations --------------------------------------------

    def declare(self, name: str, attributes: Sequence[str]) -> Relation:
        """Declare a relation in the schema (if new) and return its instance."""
        rel_schema = self.schema.add(RelationSchema(name, attributes))
        if name not in self._relations:
            self._relations[name] = Relation(rel_schema)
        return self._relations[name]

    def attach(self, relation: Relation) -> Relation:
        """Register ``relation`` under its schema name, **sharing** the object.

        This is the copy-on-write primitive of the versioning layer
        (:mod:`repro.engine.versioning`): a published instance version
        attaches the previous version's relation objects for relations an
        update did not touch, so their rows and pattern indexes are reused
        instead of copied.  Attached relations are read-only for everyone
        but the version store, which may advance one in place
        (:meth:`Relation.advance_snapshot`) while no pinned version
        attaches it.
        """
        self.schema.add(relation.schema)
        self._relations[relation.schema.name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        """Return the :class:`Relation` registered under ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"unknown relation {name!r}; known relations: {sorted(self._relations)}"
            ) from None

    def has_relation(self, name: str) -> bool:
        """Return ``True`` if a relation of that name exists."""
        return name in self._relations

    def relations(self) -> List[Relation]:
        """All relation instances, in declaration order."""
        return list(self._relations.values())

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    # -- tuple-level operations ---------------------------------------------

    def add(self, name: str, row: Sequence[Any]) -> bool:
        """Insert ``row`` into relation ``name``; the relation must exist."""
        return self.relation(name).add(row)

    def add_fact(self, name: str, *values: Any) -> bool:
        """Insert a fact given positionally, declaring nothing implicitly."""
        return self.add(name, values)

    def add_all(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows into relation ``name``; return how many were new."""
        return self.relation(name).add_all(rows)

    def facts(self) -> Iterator[Tuple[str, Row]]:
        """Iterate over all facts as ``(relation_name, row)`` pairs."""
        for relation in self._relations.values():
            for row in relation:
                yield relation.schema.name, row

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    def active_domain(self) -> Set[Any]:
        """Union of the active domains of all relations."""
        domain: Set[Any] = set()
        for relation in self._relations.values():
            domain |= relation.active_domain()
        return domain

    def constants(self) -> Set[Any]:
        """Union of the constants of all relations."""
        values: Set[Any] = set()
        for relation in self._relations.values():
            values |= relation.constants()
        return values

    def nulls(self) -> Set[Null]:
        """Union of the labeled nulls of all relations."""
        values: Set[Null] = set()
        for relation in self._relations.values():
            values |= relation.nulls()
        return values

    def copy(self) -> "DatabaseInstance":
        """Deep-ish copy: fresh relations, shared immutable schemas."""
        clone = DatabaseInstance(self.schema.copy())
        for name, relation in self._relations.items():
            clone._relations[name] = relation.copy()
        return clone

    def merge(self, other: "DatabaseInstance") -> "DatabaseInstance":
        """Return a new instance holding the union of both instances."""
        merged = DatabaseInstance(self.schema.merge(other.schema))
        for name, relation in self._relations.items():
            merged.relation(name).add_all(relation)
        for name, relation in other._relations.items():
            merged.relation(name).add_all(relation)
        return merged

    def load(self, data: Mapping[str, Iterable[Sequence[Any]]]) -> "DatabaseInstance":
        """Bulk-load ``{relation_name: [rows...]}``; relations must exist."""
        for name, rows in data.items():
            self.add_all(name, rows)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseInstance):
            return NotImplemented
        if set(self._relations) != set(other._relations):
            return False
        return all(
            set(self._relations[name]) == set(other._relations[name])
            for name in self._relations
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in self._relations.items())
        return f"DatabaseInstance({parts})"

    def pretty(self, limit: Optional[int] = None) -> str:
        """Readable rendering of all non-empty relations."""
        blocks = [
            relation.pretty(limit=limit)
            for relation in self._relations.values()
            if len(relation)
        ]
        return "\n\n".join(blocks) if blocks else "(empty instance)"
