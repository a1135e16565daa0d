"""The columnar matcher: batch joins over interned-int columns + codegen.

This is the third matching engine (``engine="columnar"``), layered on the
same :class:`~repro.relational.instance.DatabaseInstance` as the indexed
engine but evaluating conjunctions **set-at-a-time**: bindings live in a
:class:`BindingTable` (one code column per variable, backed by the
process-wide :class:`~repro.relational.values.ValueCatalog`), and each body
atom extends the table with one *probe step* — probe the relation's cached
group index with the bound codes, gather the matching slots, filter
repeated-variable positions — instead of one Python-level backtracking call
per candidate row.  With numpy available the gathers and filters are
vectorized ``int64`` operations; without it the same kernels run over plain
lists (same semantics, exercised by the differential suite).

The probe pipeline of a conjunction is additionally **compiled**: the step
descriptors (key positions, baked constant codes, gather targets) are
derived once per (atom order, bound variables) signature and baked into a
generated straight-line join function, cached process-wide — the steady
state of the delta chase and of IVM maintenance replays one specialized
function per (rule, pivot) with zero per-call classification
(``codegen_cache_hits`` counts the replays).

Consumers reach the batch path through three surfaces:

* :meth:`ColumnarMatcher.find_homomorphisms` — the generic matcher
  interface; joins in batch, then decodes one substitution per result row
  (the chase's trigger loop needs the dicts anyway);
* :meth:`ColumnarMatcher.answer_counts` — the query-answering fast path:
  join, project onto the answer variables and count distinct valuations
  *without ever materializing substitutions*
  (:func:`repro.datalog.answering.evaluate_query_counts` dispatches here);
* :meth:`ColumnarMatcher.delta_substitutions` /
  :meth:`ColumnarMatcher.batch_delta_counts` — the delta-pivot join of
  :class:`~repro.engine.matching.DeltaJoinPlan`, seeding the table with
  *all* delta rows of a pivot at once (the chase and the session layer's
  counting IVM replay these per update).

Semantics match the reference engines, with one documented nuance
inherited from :class:`~repro.relational.values.ValueCatalog` (and from
:class:`~repro.relational.values.ValueInterner` before it): values equal
under Python ``==`` share one code, so answers decode to the canonical
(first-registered) representative — e.g. ``1`` for ``1.0``.
"""

from __future__ import annotations

from itertools import repeat
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..datalog.atoms import Atom, Comparison
from ..datalog.terms import Variable, term_value, to_term
from ..datalog.unify import Substitution, comparison_bindings
from ..relational import columns as _cols
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, value_catalog
from .matching import COLUMNAR, DeltaJoinPlan, DeltaLike, IndexedMatcher

__all__ = ["BindingTable", "ColumnarMatcher", "codegen_cache_size"]


class BindingTable:
    """A batch of variable bindings: one code column per variable.

    ``columns`` maps each bound :class:`Variable` to a column of
    :class:`~repro.relational.values.ValueCatalog` codes — an ``int64``
    ndarray on the numpy path, a plain list on the fallback — all of
    ``length`` entries.  A unit table (``length == 1`` with no columns) is
    the seed of an unconstrained join.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[Variable, Any], length: int):
        self.columns = columns
        self.length = length

    @classmethod
    def seed(cls, substitution: Substitution) -> "BindingTable":
        """A one-row table carrying a ground substitution's bindings."""
        catalog = value_catalog()
        np = _cols._np
        columns: Dict[Variable, Any] = {}
        for variable, term in substitution.items():
            code = catalog.code(term_value(term))
            columns[variable] = np.asarray([code], dtype=np.int64) \
                if np is not None else [code]
        return cls(columns, 1)

    def empty_like(self, extra: Sequence[Variable] = ()) -> "BindingTable":
        """An empty table over this table's variables plus ``extra``."""
        np = _cols._np
        blank = np.empty(0, dtype=np.int64) if np is not None else []
        columns = {variable: blank for variable in self.columns}
        for variable in extra:
            columns[variable] = blank
        return BindingTable(columns, 0)

    def _column_lists(self, variables: Sequence[Variable]) -> List[List[int]]:
        out = []
        for variable in variables:
            column = self.columns[variable]
            out.append(column.tolist() if hasattr(column, "tolist")
                       else column)
        return out

    def substitutions(self) -> Iterator[Substitution]:
        """Decode one substitution per row (for Substitution consumers)."""
        if not self.length:
            return
        values = value_catalog().values()
        variables = list(self.columns)
        lists = self._column_lists(variables)
        for i in range(self.length):
            yield {variable: to_term(values[lists[j][i]])
                   for j, variable in enumerate(variables)}

    def code_rows(self, variables: Sequence[Variable]) -> List[Tuple[int, ...]]:
        """The rows projected onto ``variables``, as code tuples."""
        if not self.length:
            return []
        if not variables:
            return [()] * self.length
        return list(zip(*self._column_lists(variables)))

    def projected_counts(self, variables: Sequence[Variable]
                         ) -> Dict[Tuple[Any, ...], int]:
        """Decoded row → multiplicity after projecting onto ``variables``.

        Each table row is one distinct body valuation (set semantics make
        row combinations biject with valuations), so the projection counts
        are exactly the support counts of
        :func:`repro.datalog.answering.evaluate_query_counts`.
        """
        if not self.length:
            return {}
        if not variables:
            return {(): self.length}
        np = _cols._np
        counts: Dict[Tuple[Any, ...], int] = {}
        if np is not None:
            matrix = np.stack([np.asarray(self.columns[v], dtype=np.int64)
                               for v in variables], axis=1)
            unique, multiplicity = _grouped_counts(np, matrix)
            # per-tuple: ok — unique answer rows, O(result) not O(data)
            for row, count in zip(_decoded_rows(unique),
                                  multiplicity.tolist()):
                counts[row] = count
        else:
            values = value_catalog().values()
            for codes in zip(*self._column_lists(variables)):
                row = tuple(values[code] for code in codes)
                counts[row] = counts.get(row, 0) + 1
        return counts


#: cached object-dtype decode table mirroring the append-only ValueCatalog
#: (grown in place on demand; only new codes pay a Python-level assignment)
_DECODE_STATE: List[Any] = [None, 0]


def _decode_array():
    """The catalog's code → value table as an object ndarray (numpy path).

    Fancy-indexing this array decodes whole unique-row matrices in C
    instead of one ``values[code]`` lookup per cell.  The catalog is
    append-only, so the cached array is only ever extended.
    """
    np = _cols._np
    values = value_catalog().values()
    total = len(values)
    cached, known = _DECODE_STATE
    if cached is None or len(cached) < total:
        grown = np.empty(max(total * 2, 1024), dtype=object)
        if cached is not None and known:
            grown[:known] = cached[:known]
        cached = grown
    if known < total:
        for code in range(known, total):
            cached[code] = values[code]
        _DECODE_STATE[0] = cached
        _DECODE_STATE[1] = total
    return cached


def _decoded_rows(matrix) -> Iterator[Tuple[Any, ...]]:
    """Decode an (n, k) code matrix into value tuples (vectorized gather)."""
    decode = _decode_array()
    columns = [decode[matrix[:, j]].tolist()
               for j in range(matrix.shape[1])]
    return zip(*columns)


def _grouped_counts(np, matrix):
    """``(unique rows, multiplicities)`` of an int64 code-row matrix.

    ``np.unique(..., axis=0)`` sorts through a structured-void view — a
    generic-comparison sort that dominates the whole batch-count profile.
    Codes are dense (< catalog size ``K``), so multi-column rows pack
    collision-free into one mixed-radix int64 key whenever ``K**columns``
    fits; the unique then runs on a flat int64 sort and the unique keys
    decode back by divmod.  Falls back to ``axis=0`` when packing would
    overflow (catalogs nowhere near that size in practice).
    """
    n, width = matrix.shape
    if width == 1:
        uniq, counts = np.unique(matrix[:, 0], return_counts=True)
        return uniq.reshape(-1, 1), counts
    radix = len(value_catalog())
    if radix ** width < (1 << 62):
        keys = matrix[:, 0].astype(np.int64, copy=True)
        for j in range(1, width):
            keys *= radix
            keys += matrix[:, j]
        uniq_keys, counts = np.unique(keys, return_counts=True)
        rows = np.empty((uniq_keys.shape[0], width), dtype=np.int64)
        rest = uniq_keys
        for j in range(width - 1, 0, -1):
            rows[:, j] = rest % radix
            rest = rest // radix
        rows[:, 0] = rest
        return rows, counts
    return np.unique(matrix, axis=0, return_counts=True)


def _unique_rows(np, matrix, return_index: bool = False):
    """The distinct rows of an int64 code matrix (mixed-radix packed sort).

    Same packing trick as :func:`_grouped_counts` (codes are dense, so
    multi-column rows pack collision-free into one int64 key when the
    catalog size allows), but returning the distinct rows themselves.
    With ``return_index`` also returns, per distinct row, the index of one
    representative occurrence in ``matrix`` — the batched trigger path
    decodes a provenance witness from that representative.
    """
    n, width = matrix.shape
    if width == 1:
        if return_index:
            uniq, first = np.unique(matrix[:, 0], return_index=True)
            return uniq.reshape(-1, 1), first
        return np.unique(matrix[:, 0]).reshape(-1, 1)
    radix = len(value_catalog())
    if radix ** width < (1 << 62):
        keys = matrix[:, 0].astype(np.int64, copy=True)
        for j in range(1, width):
            keys *= radix
            keys += matrix[:, j]
        if return_index:
            uniq_keys, first = np.unique(keys, return_index=True)
        else:
            uniq_keys, first = np.unique(keys), None
        rows = np.empty((uniq_keys.shape[0], width), dtype=np.int64)
        rest = uniq_keys
        for j in range(width - 1, 0, -1):
            rows[:, j] = rest % radix
            rest = rest // radix
        rows[:, 0] = rest
        return (rows, first) if return_index else rows
    if return_index:
        return np.unique(matrix, axis=0, return_index=True)
    return np.unique(matrix, axis=0)


# -- probe-step compilation ---------------------------------------------------

#: A compiled probe step:
#: (predicate, key_items, new_vars, dup_checks) where
#:   key_items:  ((position, is_const, code_or_variable), ...) — the probe key
#:   new_vars:   ((variable, position), ...) — first occurrences to gather
#:   dup_checks: ((position, variable), ...) — repeated in-atom occurrences
Step = Tuple[str, tuple, tuple, tuple]


def _compile_step(atom: Atom, bound: Set[Variable]) -> Step:
    catalog = value_catalog()
    key_items: List[Tuple[int, bool, Any]] = []
    new_vars: List[Tuple[Variable, int]] = []
    dup_checks: List[Tuple[int, Variable]] = []
    local: Set[Variable] = set()
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term in bound:
                key_items.append((position, False, term))
            elif term in local:
                dup_checks.append((position, term))
            else:
                local.add(term)
                new_vars.append((term, position))
        else:
            key_items.append((position, True, catalog.code(term_value(term))))
    return (atom.predicate, tuple(key_items), tuple(new_vars),
            tuple(dup_checks))


def _compile_steps(atoms: Sequence[Atom],
                   bound: Set[Variable]) -> Tuple[Step, ...]:
    bound = set(bound)
    steps = []
    for atom in atoms:
        steps.append(_compile_step(atom, bound))
        bound.update(term for term in atom.terms
                     if isinstance(term, Variable))
    return tuple(steps)


# -- probe-step kernels -------------------------------------------------------

def _step_relation(matcher, instance, predicate):
    if not instance.has_relation(predicate):
        matcher.stats.empty_lookups += 1
        return None
    relation = instance.relation(predicate)
    if not relation:
        matcher.stats.empty_lookups += 1
        return None
    return relation


def _probe_keys(table: BindingTable, key_items: tuple, length: int):
    """Per-row probe keys (an iterable), or a single key if constant."""
    if all(is_const for _, is_const, _ in key_items):
        if len(key_items) == 1:
            return key_items[0][2], None
        return tuple(item[2] for item in key_items), None
    if len(key_items) == 1:
        column = table.columns[key_items[0][2]]
        return None, (column.tolist() if hasattr(column, "tolist")
                      else column)
    sources = []
    for _, is_const, payload in key_items:
        if is_const:
            sources.append(repeat(payload, length))
        else:
            column = table.columns[payload]
            sources.append(column.tolist() if hasattr(column, "tolist")
                           else column)
    return None, zip(*sources)


def _probe_step_np(matcher, table: BindingTable, instance: DatabaseInstance,
                   step: Step) -> BindingTable:
    """One vectorized probe → gather → filter step (numpy path)."""
    np = _cols._np
    predicate, key_items, new_vars, dup_checks = step
    stats = matcher.stats
    relation = _step_relation(matcher, instance, predicate)
    if relation is None:
        return table.empty_like([variable for variable, _ in new_vars])
    store = relation.column_store()
    stats.batch_joins += 1
    n = table.length
    if key_items:
        key_positions = tuple(item[0] for item in key_items)
        groups = store.group_index(key_positions)
        const_key, keys = _probe_keys(table, key_items, n)
        if keys is None:  # every row probes the same constant key
            stats.index_probes += 1
            bucket = groups.get(const_key)
            if bucket is None:
                return table.empty_like([v for v, _ in new_vars])
            bucket = np.asarray(bucket, dtype=np.int64)
            repeat_index = np.repeat(np.arange(n), len(bucket))
            slots = np.tile(bucket, n)
        else:
            stats.index_probes += n
            counts = np.empty(n, dtype=np.int64)
            chunks = []
            for i, key in enumerate(keys):
                bucket = groups.get(key)
                if bucket is None:
                    counts[i] = 0
                else:
                    counts[i] = len(bucket)
                    chunks.append(bucket)
            if not chunks:
                return table.empty_like([v for v, _ in new_vars])
            repeat_index = np.repeat(np.arange(n), counts)
            slots = np.concatenate(chunks) if len(chunks) > 1 \
                else np.asarray(chunks[0], dtype=np.int64)
    else:  # unconstrained: cross join against the whole store
        span = np.arange(len(store), dtype=np.int64)
        repeat_index = np.repeat(np.arange(n), len(store))
        slots = np.tile(span, n)
    total = len(slots)
    stats.rows_batch_scanned += total
    if not total:
        return table.empty_like([v for v, _ in new_vars])
    store_columns = store.np_columns()
    if n == 1:
        columns = {variable: np.full(total, column[0], dtype=np.int64)
                   for variable, column in table.columns.items()}
    else:
        columns = {variable: column[repeat_index]
                   for variable, column in table.columns.items()}
    for variable, position in new_vars:
        columns[variable] = store_columns[position][slots]
    if dup_checks:
        mask = None
        for position, variable in dup_checks:
            equal = store_columns[position][slots] == columns[variable]
            mask = equal if mask is None else (mask & equal)
        if not mask.all():
            slots_kept = int(mask.sum())
            columns = {variable: column[mask]
                       for variable, column in columns.items()}
            return BindingTable(columns, slots_kept)
    return BindingTable(columns, total)


def _probe_step_py(matcher, table: BindingTable, instance: DatabaseInstance,
                   step: Step) -> BindingTable:
    """The same probe step over plain lists (no-numpy fallback)."""
    predicate, key_items, new_vars, dup_checks = step
    stats = matcher.stats
    relation = _step_relation(matcher, instance, predicate)
    if relation is None:
        return table.empty_like([variable for variable, _ in new_vars])
    store = relation.column_store()
    stats.batch_joins += 1
    n = table.length
    gather_index: List[int] = []
    slots: List[int] = []
    if key_items:
        key_positions = tuple(item[0] for item in key_items)
        groups = store.group_index(key_positions)
        const_key, keys = _probe_keys(table, key_items, n)
        if keys is None:
            stats.index_probes += 1
            bucket = groups.get(const_key)
            if bucket is not None:
                for i in range(n):
                    for slot in bucket:
                        gather_index.append(i)
                        slots.append(slot)
        else:
            stats.index_probes += n
            for i, key in enumerate(keys):
                bucket = groups.get(key)
                if bucket is not None:
                    for slot in bucket:
                        gather_index.append(i)
                        slots.append(slot)
    else:
        span = range(len(store))
        for i in range(n):
            for slot in span:
                gather_index.append(i)
                slots.append(slot)
    stats.rows_batch_scanned += len(slots)
    if not slots:
        return table.empty_like([variable for variable, _ in new_vars])
    columns: Dict[Variable, Any] = {}
    for variable, column in table.columns.items():
        columns[variable] = [column[i] for i in gather_index]
    for variable, position in new_vars:
        source = store.column(position)
        columns[variable] = [source[slot] for slot in slots]
    if dup_checks:
        keep = list(range(len(slots)))
        for position, variable in dup_checks:
            source = store.column(position)
            bound_column = columns[variable]
            keep = [i for i in keep if source[slots[i]] == bound_column[i]]
        if len(keep) != len(slots):
            columns = {variable: [column[i] for i in keep]
                       for variable, column in columns.items()}
            return BindingTable(columns, len(keep))
    return BindingTable(columns, len(slots))


def _active_kernel():
    return _probe_step_np if _cols._np is not None else _probe_step_py


# -- specialized join codegen -------------------------------------------------

#: signature -> generated straight-line join function
_CODEGEN_CACHE: Dict[tuple, Any] = {}


def codegen_cache_size() -> int:
    """How many specialized join functions are cached (for tests/reports)."""
    return len(_CODEGEN_CACHE)


def _join_signature(atoms: Sequence[Atom], bound: Set[Variable]) -> tuple:
    catalog = value_catalog()
    parts: List[Any] = [tuple(sorted(variable.name for variable in bound))]
    for atom in atoms:
        terms = tuple(
            ("v", term.name) if isinstance(term, Variable)
            else ("k", catalog.code(term_value(term)))
            for term in atom.terms)
        parts.append((atom.predicate, terms))
    return tuple(parts)


def compiled_join(atoms: Sequence[Atom], bound: Set[Variable], stats):
    """The specialized join function for (``atoms``, ``bound``), cached.

    The generated function is straight-line Python — one kernel call per
    body atom with its step descriptor baked in (probe positions, constant
    codes, gather targets), an early return on an empty intermediate —
    compiled once per structural signature and replayed by every later
    evaluation of the same shape (one per (rule, pivot) in the steady-state
    chase; ``codegen_cache_hits`` counts the replays).  Constant codes are
    safe to bake because the :class:`ValueCatalog` is append-only.
    """
    signature = _join_signature(atoms, bound)
    fn = _CODEGEN_CACHE.get(signature)
    if fn is not None:
        stats.codegen_cache_hits += 1
        return fn
    steps = _compile_steps(atoms, bound)
    lines = ["def _specialized(matcher, table, instance):",
             "    kernel = _active_kernel()"]
    for index in range(len(steps)):
        lines.append(f"    table = kernel(matcher, table, instance, "
                     f"_steps[{index}])")
        lines.append("    if not table.length:")
        lines.append("        return table")
    lines.append("    return table")
    namespace = {"_steps": steps, "_active_kernel": _active_kernel}
    exec(compile("\n".join(lines),  # noqa: S102 - generated from our own AST
                 f"<columnar-join-{len(_CODEGEN_CACHE)}>", "exec"), namespace)
    fn = namespace["_specialized"]
    _CODEGEN_CACHE[signature] = fn
    return fn


# -- the matcher --------------------------------------------------------------

class ColumnarMatcher(IndexedMatcher):
    """Batch columnar matcher (see module docstring).

    Inherits the indexed engine's single-atom probing, planning and
    existence checks (``has_homomorphism`` stays lazily early-exiting —
    batch-joining everything to answer "is there one?" would be wasted
    work); conjunction enumeration, answer counting and the delta-pivot
    joins run set-at-a-time.
    """

    name = COLUMNAR

    def __init__(self, stats=None):
        super().__init__(stats)
        #: memo of the last delta's normalized/encoded form (see
        #: :meth:`_delta_encodings`)
        self._delta_memo = None

    # -- batch join driver ---------------------------------------------------

    def _join_ordered(self, table: BindingTable, ordered: Sequence[Atom],
                      instance: DatabaseInstance,
                      comparisons: Sequence[Comparison]) -> BindingTable:
        """Extend ``table`` through ``ordered`` atoms, negation, comparisons."""
        positive = [atom for atom in ordered if not atom.negated]
        negative = [atom for atom in ordered if atom.negated]
        if positive and table.length:
            fn = compiled_join(positive, set(table.columns), self.stats)
            table = fn(self, table, instance)
        for atom in negative:
            if not table.length:
                break
            table = self._negation_filter(table, atom, instance)
        if comparisons and table.length:
            table = _comparison_filter(table, comparisons)
        return table

    def _join(self, atoms: Sequence[Atom], instance: DatabaseInstance,
              initial: Substitution,
              comparisons: Sequence[Comparison]) -> BindingTable:
        return self._join_ordered(BindingTable.seed(initial), atoms, instance,
                                  comparisons)

    def _negation_filter(self, table: BindingTable, atom: Atom,
                         instance: DatabaseInstance) -> BindingTable:
        """Reference negation semantics, applied to the whole table.

        Safe negation (an unbound variable under negation kills every
        binding), cautious over labeled nulls (a grounding containing a
        null is never *certainly* absent), then an anti-membership check.
        """
        catalog = value_catalog()
        sources: List[Tuple[bool, Any]] = []  # (is_column, payload)
        for term in atom.positive().terms:
            if isinstance(term, Variable):
                column = table.columns.get(term)
                if column is None:  # unsafe negation: no certain match at all
                    return table.empty_like()
                sources.append((True, column.tolist()
                                if hasattr(column, "tolist") else column))
            else:
                value = term_value(term)
                if isinstance(value, Null):  # cautious: reject everything
                    return table.empty_like()
                sources.append((False, value))
        values = catalog.values()
        null_flags = catalog.null_flags()
        relation = instance.relation(atom.predicate) \
            if instance.has_relation(atom.predicate) else None
        keep = []
        for i in range(table.length):
            grounded = []
            certain = True
            for is_column, payload in sources:
                if is_column:
                    code = payload[i]
                    if null_flags[code]:
                        certain = False  # cautious null: reject this binding
                        break
                    grounded.append(values[code])
                else:
                    grounded.append(payload)
            if not certain:
                continue
            if relation is not None and tuple(grounded) in relation:
                continue
            keep.append(i)
        return _take_rows(table, keep)


    # -- matcher interface ---------------------------------------------------

    def find_homomorphisms(self, atoms: Sequence[Atom],
                           instance: DatabaseInstance,
                           substitution: Optional[Substitution] = None,
                           comparisons: Sequence[Comparison] = (),
                           preordered: bool = False) -> Iterator[Substitution]:
        """Batch-join the conjunction, then decode one dict per result row."""
        initial = dict(substitution or {})
        if comparisons:
            initial = comparison_bindings(comparisons, initial)
        if any(isinstance(term, Variable) for term in initial.values()):
            # Variable-to-variable seeds (unification residue) fall back to
            # the tuple-at-a-time path; codes only encode ground bindings.
            yield from IndexedMatcher.find_homomorphisms(
                self, atoms, instance, substitution=substitution,
                comparisons=comparisons, preordered=preordered)
            return
        ordered = list(atoms) if preordered else \
            self.plan(atoms, instance, bound=initial)
        table = self._join(ordered, instance, initial, comparisons)
        yield from table.substitutions()

    def has_homomorphism(self, atoms: Sequence[Atom],
                         instance: DatabaseInstance,
                         substitution: Optional[Substitution] = None) -> bool:
        """Existence check via the *indexed* path — it exits on first match,
        where a batch join would enumerate everything just to throw it away
        (the chase's ``_head_satisfied`` calls this in its inner loop)."""
        for _ in IndexedMatcher.find_homomorphisms(self, atoms, instance,
                                                   substitution=substitution):
            return True
        return False

    # -- batch answering -----------------------------------------------------

    def answer_counts(self, atoms: Sequence[Atom], instance: DatabaseInstance,
                      answer_variables: Sequence[Variable],
                      comparisons: Sequence[Comparison] = (),
                      preordered: bool = False,
                      substitution: Optional[Substitution] = None
                      ) -> Optional[Dict[Tuple[Any, ...], int]]:
        """Support counts of a query in one batch (no substitution dicts).

        Returns ``None`` when the seed cannot be encoded (variable-valued
        substitution), signalling the caller to take the generic path.
        """
        initial = dict(substitution or {})
        if comparisons:
            initial = comparison_bindings(comparisons, initial)
        if any(isinstance(term, Variable) for term in initial.values()):
            return None
        ordered = list(atoms) if preordered else \
            self.plan(atoms, instance, bound=initial)
        table = self._join(ordered, instance, initial, comparisons)
        return table.projected_counts(tuple(answer_variables))

    # -- batch trigger surface (engine.triggers consumes these) --------------

    def binding_table(self, atoms: Sequence[Atom],
                      instance: DatabaseInstance,
                      substitution: Optional[Substitution] = None,
                      comparisons: Sequence[Comparison] = ()
                      ) -> Optional[BindingTable]:
        """The joined binding table of a conjunction, kept columnar.

        The table form of :meth:`find_homomorphisms`: rows biject with the
        distinct homomorphisms (set semantics), so the batched trigger path
        can group and project them without ever decoding a substitution.
        Returns ``None`` when the seed cannot be encoded (variable-valued
        substitution) — the caller falls back to the tuple-at-a-time path.
        """
        initial = dict(substitution or {})
        if comparisons:
            initial = comparison_bindings(comparisons, initial)
        if any(isinstance(term, Variable) for term in initial.values()):
            return None
        ordered = self.plan(atoms, instance, bound=initial)
        return self._join(ordered, instance, initial, comparisons)

    def delta_binding_table(self, plan: DeltaJoinPlan,
                            instance: DatabaseInstance,
                            delta: DeltaLike) -> BindingTable:
        """All distinct delta-join valuations as one table over the plan's
        variables.

        The table form of :meth:`delta_substitutions`: each pivot's joined
        table already holds distinct valuations (deduped delta rows ×
        distinct join extensions), so a single-pivot delta returns its
        table as-is; multiple pivots are concatenated and deduplicated on
        the code rows (codes biject with value-equality classes).
        """
        variables = list(plan.variables)
        tables = [table
                  for table in self._delta_tables(plan, instance, delta)
                  if table.length]
        np = _cols._np
        if not tables or not variables:
            # No variables: the one possible valuation is the empty one,
            # present iff any pivot joined at all.
            length = 1 if tables else 0
            blank = np.empty(length, dtype=np.int64) if np is not None else []
            return BindingTable({variable: blank for variable in variables},
                                length)
        if len(tables) == 1:
            return tables[0]
        if np is not None:
            stacked = np.concatenate(
                [np.stack([np.asarray(table.columns[variable],
                                      dtype=np.int64)
                           for variable in variables], axis=1)
                 for table in tables])
            matrix, first = _unique_rows(np, stacked, return_index=True)
            # First-occurrence order (np.unique sorts): keeps downstream
            # batch inserts deterministic and kernel-independent.
            matrix = matrix[np.argsort(first, kind="stable")]
            columns = {variable: matrix[:, j]
                       for j, variable in enumerate(variables)}
            return BindingTable(columns, int(matrix.shape[0]))
        seen: Dict[Tuple[int, ...], None] = {}
        for table in tables:
            for key in table.code_rows(variables):
                if key not in seen:
                    seen[key] = None
        rows = list(seen)
        columns = {variable: [key[j] for key in rows]
                   for j, variable in enumerate(variables)}
        return BindingTable(columns, len(rows))

    # -- batch delta-pivot joins (DeltaJoinPlan dispatches here) -------------

    def _delta_encodings(self, instance: DatabaseInstance, delta: DeltaLike):
        """``(grouped, encoded)`` view of ``delta`` against ``instance``.

        Session maintenance and the delta chase replay the *same* delta
        through one plan per maintained query, so normalizing the delta and
        encoding its live rows is memoized across plans (one-entry memo on
        the matcher).  The memo is only trusted while the delta is the same
        list object with the same length and every touched relation is the
        same object with an unchanged mutation counter — any instance
        update or delta rebuild falls back to a fresh encode.
        """
        memo = self._delta_memo
        if (memo is not None and memo[0] is delta and memo[1] is instance
                and isinstance(delta, (list, tuple))
                and memo[2] == len(delta)):
            grouped, stamps, encoded = memo[3], memo[4], memo[5]
            for predicate, relation, mutations in stamps:
                if relation is None:
                    if instance.has_relation(predicate):
                        break
                elif (not instance.has_relation(predicate)
                      or instance.relation(predicate) is not relation
                      or relation._mutations != mutations):
                    break
            else:
                return grouped, encoded
        grouped = DeltaJoinPlan._delta_rows(delta)
        encoded: Dict[str, Any] = {}
        if isinstance(delta, (list, tuple)):
            stamps = []
            for predicate in grouped:
                if instance.has_relation(predicate):
                    relation = instance.relation(predicate)
                    stamps.append((predicate, relation, relation._mutations))
                else:
                    stamps.append((predicate, None, None))
            self._delta_memo = (delta, instance, len(delta), grouped,
                                tuple(stamps), encoded)
        return grouped, encoded

    def _delta_tables(self, plan: DeltaJoinPlan, instance: DatabaseInstance,
                      delta: DeltaLike) -> Iterator[BindingTable]:
        """One joined table per pivot whose predicate appears in the delta."""
        grouped, encoded = self._delta_encodings(instance, delta)
        if not grouped:
            return
        for pivot, pivot_atom in enumerate(plan.body):
            if pivot_atom.negated:
                continue
            predicate = pivot_atom.predicate
            rows = grouped.get(predicate)
            if not rows or not instance.has_relation(predicate):
                continue
            if predicate not in encoded:
                encoded[predicate] = self._encode_delta(
                    rows, instance.relation(predicate))
            if encoded[predicate] is None:
                continue
            seed = self._pivot_seed(pivot_atom, encoded[predicate])
            if not seed.length:
                continue
            rest = plan._rest[pivot]
            ordered = plan._plan_for(pivot, instance) if rest else []
            yield self._join_ordered(seed, ordered, instance,
                                     plan.comparisons)

    def _encode_delta(self, rows: Sequence[Tuple[Any, ...]], live):
        """The live delta rows of one predicate as code rows, encoded once.

        Several pivots (within a body and across a session's plans) share a
        predicate; encoding per predicate instead of per pivot keeps the
        per-pivot seeding purely columnar.  Returns an ``(n, arity)`` int64
        matrix on the numpy path, a list of code tuples on the fallback,
        ``None`` when no delta row is live.
        """
        code = value_catalog().code
        # per-tuple: ok — delta rows are O(update), not O(data).  Repeated
        # delta rows are one fact: dedupe here so one pivot's joined table
        # holds each valuation once (batch_delta_counts relies on this).
        kept = list(dict.fromkeys(row for row in rows if row in live))
        self.stats.rows_scanned += len(kept)
        if not kept:
            return None
        np = _cols._np
        if np is not None:
            return np.asarray([[code(value) for value in row]
                               for row in kept], dtype=np.int64)
        return [tuple(code(value) for value in row) for row in kept]

    def _pivot_seed(self, pivot_atom: Atom, encoded) -> BindingTable:
        """Bind the pivot atom's variables over one predicate's encoded delta."""
        catalog = value_catalog()
        np = _cols._np
        var_items: List[Tuple[Variable, int]] = []
        const_checks: List[Tuple[int, int]] = []
        dup_checks: List[Tuple[int, int]] = []
        seen: Dict[Variable, int] = {}
        empty = None
        for position, term in enumerate(pivot_atom.terms):
            if isinstance(term, Variable):
                if term in seen:
                    dup_checks.append((position, seen[term]))
                else:
                    seen[term] = position
                    var_items.append((term, position))
            else:
                code = catalog.try_code(term_value(term))
                if code is None:
                    empty = True  # constant never stored: no live row matches
                const_checks.append((position, code))
        arity = len(encoded[0]) if np is None else encoded.shape[1]
        if empty or arity != pivot_atom.arity:
            blank = np.empty(0, dtype=np.int64) if np is not None else []
            return BindingTable(
                {variable: blank for variable, _ in var_items}, 0)
        if np is not None:
            matrix = encoded
            mask = None
            for position, code in const_checks:
                hit = matrix[:, position] == code
                mask = hit if mask is None else mask & hit
            for position, first in dup_checks:
                hit = matrix[:, position] == matrix[:, first]
                mask = hit if mask is None else mask & hit
            if mask is not None and not mask.all():
                matrix = matrix[mask]
            columns = {variable: matrix[:, position]
                       for variable, position in var_items}
            return BindingTable(columns, int(matrix.shape[0]))
        keep = [row for row in encoded
                if all(row[position] == code
                       for position, code in const_checks)
                and all(row[position] == row[first]
                        for position, first in dup_checks)]
        columns = {variable: [row[position] for row in keep]
                   for variable, position in var_items}
        return BindingTable(columns, len(keep))

    def delta_substitutions(self, plan: DeltaJoinPlan,
                            instance: DatabaseInstance,
                            delta: DeltaLike) -> Iterator[Substitution]:
        """Batch form of :meth:`DeltaJoinPlan.homomorphisms`.

        Joins *all* delta rows of each pivot in one pass; valuations
        reachable through several pivots are yielded once, keyed by their
        code tuple over the plan's variables (codes are bijective with
        value-equality classes, so this matches the reference's value-based
        key).
        """
        variables = plan.variables
        seen: Set[Tuple[int, ...]] = set()
        for table in self._delta_tables(plan, instance, delta):
            keys = table.code_rows(variables)
            take = []
            for i, key in enumerate(keys):
                if key not in seen:
                    seen.add(key)
                    take.append(i)
            if take:
                yield from _take_rows(table, take).substitutions()

    def batch_delta_counts(self, plan: DeltaJoinPlan,
                           instance: DatabaseInstance, delta: DeltaLike,
                           project: Sequence[Variable]
                           ) -> Dict[Tuple[Any, ...], int]:
        """Batch form of :meth:`DeltaJoinPlan.projected_counts`.

        Distinct valuations (over the plan's variables, deduplicated across
        pivots) are counted per projection onto ``project`` without ever
        decoding a substitution — the session layer's counting IVM applies
        the result as a bulk ±count per answer row.
        """
        variables = plan.variables
        index = {variable: j for j, variable in enumerate(variables)}
        projection = [index[variable] for variable in project]
        counts: Dict[Tuple[Any, ...], int] = {}
        np = _cols._np
        if np is not None and variables:
            tables = [table
                      for table in self._delta_tables(plan, instance, delta)
                      if table.length]
            if not tables:
                return counts
            if len(tables) == 1:
                # One pivot: its rows already are the distinct valuations
                # (deduped delta rows × distinct join extensions), so group
                # directly on the projection columns.
                table = tables[0]
                if not projection:
                    counts[()] = table.length
                    return counts
                matrix = np.stack(
                    [np.asarray(table.columns[variable], dtype=np.int64)
                     for variable in project], axis=1)
                rows, multiplicity = _grouped_counts(np, matrix)
            else:
                stacked = np.concatenate(
                    [np.stack([np.asarray(table.columns[variable],
                                          dtype=np.int64)
                               for variable in variables], axis=1)
                     for table in tables])
                # dedupe valuations reachable through several pivots
                distinct, _ = _grouped_counts(np, stacked)
                if not projection:
                    counts[()] = int(distinct.shape[0])
                    return counts
                rows, multiplicity = _grouped_counts(
                    np, distinct[:, projection])
            # per-tuple: ok — unique answer rows, O(result) not O(data)
            for row, count in zip(_decoded_rows(rows),
                                  multiplicity.tolist()):
                counts[row] = count
            return counts
        values = value_catalog().values()
        seen: Set[Tuple[int, ...]] = set()
        for table in self._delta_tables(plan, instance, delta):
            for key in table.code_rows(variables):
                if key in seen:
                    continue
                seen.add(key)
                row = tuple(values[key[j]] for j in projection)
                counts[row] = counts.get(row, 0) + 1
        return counts


# -- shared helpers -----------------------------------------------------------

def _take_rows(table: BindingTable, keep: Sequence[int]) -> BindingTable:
    """The sub-table holding exactly the rows at indexes ``keep``."""
    if len(keep) == table.length:
        return table
    if not keep:
        return table.empty_like()
    np = _cols._np
    if np is not None:
        index = np.asarray(keep, dtype=np.int64)
        columns = {variable: np.asarray(column, dtype=np.int64)[index]
                   for variable, column in table.columns.items()}
    else:
        columns = {variable: [column[i] for i in keep]
                   for variable, column in table.columns.items()}
    return BindingTable(columns, len(keep))


def _comparison_filter(table: BindingTable,
                       comparisons: Sequence[Comparison]) -> BindingTable:
    """Apply the final comparison filter.

    ``=``/``==``/``!=`` act directly on the code columns: catalog codes
    biject with Python-equality classes (nulls included — label equality is
    ``Null.__eq__``), so code (in)equality *is* the reference semantics, and
    on the numpy path the whole comparison is one vectorized mask.  Ordering
    operators must decode — their ``TypeError`` → string-order fallback
    depends on the actual values — but they gate only the few rows that
    survive the joins and the equality masks.  A comparison over a variable
    the table never bound fails every row, matching the reference's "both
    sides must be ground" rule.
    """
    catalog = value_catalog()
    equalities: List[Tuple[bool, Any, Any]] = []
    ordering: List[Comparison] = []
    for comparison in comparisons:
        sides = []
        for term in (comparison.left, comparison.right):
            if isinstance(term, Variable):
                column = table.columns.get(term)
                if column is None:
                    return table.empty_like()
                sides.append((True, column))
            else:
                sides.append((False, term_value(term)))
        if comparison.op not in ("=", "==", "!="):
            ordering.append(comparison)
            continue
        want_equal = comparison.op != "!="
        if not sides[0][0] and not sides[1][0]:
            # two constants: one static decision for the whole table
            if not comparison.evaluate(sides[0][1], sides[1][1]):
                return table.empty_like()
            continue
        codes = []
        missing = False
        for is_column, payload in sides:
            if is_column:
                codes.append(payload)
            else:
                code = catalog.try_code(payload)
                missing = missing or code is None
                codes.append(code)
        if missing:
            # a never-interned constant equals no stored value
            if want_equal:
                return table.empty_like()
            continue
        equalities.append((want_equal, codes[0], codes[1]))
    np = _cols._np
    if equalities and table.length:
        if np is not None:
            mask = None
            for want_equal, left, right in equalities:
                lhs = left if isinstance(left, int) \
                    else np.asarray(left, dtype=np.int64)
                rhs = right if isinstance(right, int) \
                    else np.asarray(right, dtype=np.int64)
                hit = (lhs == rhs) if want_equal else (lhs != rhs)
                mask = hit if mask is None else (mask & hit)
            if not mask.all():
                columns = {variable: np.asarray(column, dtype=np.int64)[mask]
                           for variable, column in table.columns.items()}
                table = BindingTable(columns, int(mask.sum()))
        else:
            keep = []
            for i in range(table.length):
                for want_equal, left, right in equalities:
                    left_code = left if isinstance(left, int) else left[i]
                    right_code = right if isinstance(right, int) else right[i]
                    if (left_code == right_code) != want_equal:
                        break
                else:
                    keep.append(i)
            table = _take_rows(table, keep)
    if not ordering or not table.length:
        return table
    values = catalog.values()
    sides = []
    for comparison in ordering:
        resolved = []
        for term in (comparison.left, comparison.right):
            if isinstance(term, Variable):
                column = table.columns[term]  # bound: checked above
                resolved.append(column.tolist()
                                if hasattr(column, "tolist") else column)
            else:
                resolved.append(term_value(term))
        sides.append((comparison, resolved[0], resolved[1]))
    keep = []
    for i in range(table.length):
        for comparison, left, right in sides:
            left_value = values[left[i]] if isinstance(left, list) else left
            right_value = values[right[i]] if isinstance(right, list) \
                else right
            if not comparison.evaluate(left_value, right_value):
                break
        else:
            keep.append(i)
    return _take_rows(table, keep)
