"""Value domain for the relational substrate.

Relations store ordinary Python values (strings, numbers, dates encoded as
strings, ...) plus *labeled nulls*.  Labeled nulls are the marked null values
introduced by the chase when a tuple-generating dependency has existentially
quantified variables: they denote unknown-but-possibly-equal values and are
compared by identity of their label.

The module also provides :class:`NullFactory`, a deterministic generator of
fresh nulls, so chase runs are reproducible; :class:`ValueInterner` /
:func:`intern_value`, the dictionary encoding applied to constants at
ingestion so equal values share one object (tuple hashing and equality on
the matching hot path then hit CPython's pointer-identity fast paths, and
duplicated constants stop costing memory per row); and a handful of small
helpers shared by the storage layer and the Datalog± engine.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Null:
    """A labeled (marked) null value.

    Two nulls are equal exactly when their labels are equal.  Nulls are
    hashable and totally ordered (by label) so they can live in sets, dict
    keys and sorted outputs alongside ordinary values.
    """

    label: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Null({self.label!r})"

    def __str__(self) -> str:
        return f"⊥{self.label}"


class NullFactory:
    """Deterministic factory of fresh labeled nulls.

    Each factory owns an independent counter; a chase run (or any other
    data-generating procedure) creates one factory and draws nulls from it,
    which makes generated instances reproducible across runs.

    Parameters
    ----------
    prefix:
        Prepended to every generated label.  Useful to distinguish nulls
        produced by different subsystems (``"n"`` for the chase, ``"u"`` for
        unit placeholders in downward navigation, ...).
    start:
        First label index to hand out.  Snapshot restoration uses this to
        resume a persisted factory exactly where it stopped, so nulls
        invented after a restore never collide with persisted labels.
    """

    def __init__(self, prefix: str = "n", start: int = 1):
        self.prefix = prefix
        self._next = start

    @property
    def next_index(self) -> int:
        """The index the next :meth:`fresh` call will use (serializable state)."""
        return self._next

    def fresh(self) -> Null:
        """Return a new null, never seen before from this factory."""
        label = f"{self.prefix}{self._next}"
        self._next += 1
        return Null(label)

    def fresh_many(self, count: int) -> list[Null]:
        """Return ``count`` distinct fresh nulls."""
        return [self.fresh() for _ in range(count)]


class ValueInterner:
    """Dictionary-encode constants so equal values share one object.

    Ingestion paths (snapshot restores) pass every decoded
    constant through :meth:`intern`.  Strings go through :func:`sys.intern`
    — the process-wide table with the cheapest lookup, and entries CPython
    reclaims when the last reference dies — and every other hashable value
    through a per-interner canonical table, so the *first* object seen for
    a value becomes the one stored everywhere.  The payoff is on the
    matching hot path: CPython's tuple hashing reuses each string's cached
    hash, and equality checks between row values short-cut on pointer
    identity before ever comparing contents.  Unhashable values pass
    through untouched.

    The non-string table holds strong references, so it is **bounded**
    (``max_entries``): once full, unseen values pass through uninterned —
    correctness never depends on interning, only deduplication does — and
    a long-lived process churning through many unrelated datasets cannot
    leak memory proportional to every constant it ever decoded.
    """

    __slots__ = ("_table", "max_entries")

    def __init__(self, max_entries: int = 1 << 20):
        self._table: Dict[Any, Any] = {}
        self.max_entries = max_entries

    def intern(self, value: Any) -> Any:
        """The canonical object equal to ``value`` (registering it if new)."""
        if type(value) is str:
            return sys.intern(value)
        try:
            canonical = self._table.get(value)
            if canonical is not None:
                return canonical
            if len(self._table) >= self.max_entries:
                return value
            self._table[value] = value
            return value
        except TypeError:  # unhashable: cannot be a stored constant anyway
            return value

    def intern_row(self, row: Iterable[Any]) -> Tuple[Any, ...]:
        """Intern every value of one row."""
        return tuple(self.intern(value) for value in row)

    def __len__(self) -> int:
        return len(self._table)


#: the process-wide interner used by the ingestion paths
_INTERNER = ValueInterner()


def intern_value(value: Any) -> Any:
    """Intern ``value`` in the process-wide :class:`ValueInterner`."""
    return _INTERNER.intern(value)


class ValueCatalog:
    """Bijective value ↔ dense-int dictionary encoding for columnar storage.

    Every distinct stored value (constants and labeled nulls alike) is
    assigned one small integer *code*; column stores
    (:mod:`repro.relational.columns`) keep rows as parallel arrays of codes,
    so the batch join kernels compare machine integers instead of hashing
    Python objects.  Codes are process-wide and **append-only**: once a
    value has a code, the pair never changes, which is what lets compiled
    join functions bake constant codes into their probe keys and lets
    column stores built at different times join against each other.

    Equality follows Python value equality (the same semantics the row
    dictionaries already use), so ``1``, ``1.0`` and ``True`` share one
    code whose canonical value is whichever object registered first —
    exactly mirroring :class:`ValueInterner`'s canonicalization.

    Registration is guarded by a lock (the serving daemon matches from
    several threads); the hot read path is a single unlocked ``dict.get``.
    """

    __slots__ = ("_codes", "_values", "_null_flags", "_lock")

    def __init__(self):
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        #: parallel to ``_values``: 1 where the value is a labeled null
        self._null_flags = bytearray()
        self._lock = threading.Lock()

    def code(self, value: Any) -> int:
        """The code of ``value``, registering it if unseen."""
        found = self._codes.get(value)
        if found is not None:
            return found
        with self._lock:
            found = self._codes.get(value)
            if found is None:
                found = len(self._values)
                self._values.append(value)
                self._null_flags.append(1 if isinstance(value, Null) else 0)
                self._codes[value] = found
            return found

    def register_many(self, values: Iterable[Any]) -> List[int]:
        """The codes of ``values``, registering the unseen ones in one append.

        The bulk form of :meth:`code`: batched trigger application invents
        hundreds of labeled nulls per chase round, and registering them one
        lock acquisition at a time would serialize the batch on the catalog
        lock.  One locked pass appends every unseen value and returns the
        codes positionally.
        """
        codes = self._codes
        items = values if isinstance(values, (list, tuple)) else list(values)
        out: List[int] = [codes.get(value, -1) for value in items]
        if -1 not in out:
            return out
        with self._lock:
            for index, found in enumerate(out):
                if found < 0:
                    value = items[index]
                    found = codes.get(value)
                    if found is None:
                        found = len(self._values)
                        self._values.append(value)
                        self._null_flags.append(
                            1 if isinstance(value, Null) else 0)
                        codes[value] = found
                    out[index] = found
        return out

    def try_code(self, value: Any) -> Optional[int]:
        """The code of ``value`` if it is registered, else ``None``."""
        return self._codes.get(value)

    def value(self, code: int) -> Any:
        """The canonical value registered under ``code``."""
        return self._values[code]

    def values(self) -> List[Any]:
        """The code → value decode table (treat as read-only; index by code)."""
        return self._values

    def null_flags(self) -> bytearray:
        """Per-code null flags (treat as read-only; index by code)."""
        return self._null_flags

    def is_null_code(self, code: int) -> bool:
        """``True`` if ``code`` encodes a labeled null."""
        return bool(self._null_flags[code])

    def __len__(self) -> int:
        return len(self._values)


#: the process-wide catalog shared by every column store and join kernel
_CATALOG = ValueCatalog()


def value_catalog() -> ValueCatalog:
    """The process-wide :class:`ValueCatalog`."""
    return _CATALOG


def is_null(value: Any) -> bool:
    """Return ``True`` if ``value`` is a labeled null."""
    return isinstance(value, Null)


def is_ground(value: Any) -> bool:
    """Return ``True`` if ``value`` is an ordinary (non-null) constant."""
    return not isinstance(value, Null)


def ground_values(values: Iterable[Any]) -> Iterator[Any]:
    """Yield only the non-null values of ``values``."""
    for value in values:
        if not isinstance(value, Null):
            yield value


def value_sort_key(value: Any) -> tuple:
    """A total order over mixed-type values (constants and nulls).

    Python refuses to compare, say, ``int`` with ``str``; benchmark and
    report code, and the snapshot's canonical value dictionary, nevertheless
    want deterministic orderings.  The key is a type bucket followed by the
    value itself, compared natively within the bucket: numbers (``bool``
    among them, consistent with ``True == 1``), then ``None``, then NaN,
    then strings, then labeled nulls by label, then any other type by
    name and ``repr``.  For numbers, ``None``, strings and nulls, two keys
    are equal exactly when the values are (NaN, equal to nothing, aside).
    """
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, (int, float)):
        return (0, value) if value == value else (2,)
    if value is None:
        return (1,)
    if isinstance(value, Null):
        return (4, value.label)
    return (5, type(value).__name__, repr(value))
