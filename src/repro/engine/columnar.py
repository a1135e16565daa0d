"""The columnar matcher: batch joins over interned-int columns + codegen.

This is the third matching engine (``engine="columnar"``), layered on the
same :class:`~repro.relational.instance.DatabaseInstance` as the indexed
engine but evaluating conjunctions **set-at-a-time**: bindings live in a
:class:`BindingTable` (one code column per variable, backed by the
process-wide :class:`~repro.relational.values.ValueCatalog`), and each body
atom extends the table with one *probe step* — probe the relation's cached
group index with the bound codes, gather the matching slots, filter
repeated-variable positions — instead of one Python-level backtracking call
per candidate row.  Code columns are plain Python lists, and the gathers
and filters run as C-level ``map``/``zip`` passes over them.

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

from collections import Counter
from itertools import chain, repeat
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..datalog.atoms import Atom, Comparison
from ..datalog.terms import Variable, term_value, to_term
from ..datalog.unify import Substitution, comparison_bindings
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, value_catalog
from .matching import COLUMNAR, DeltaJoinPlan, DeltaLike, IndexedMatcher

__all__ = ["BindingTable", "ColumnarMatcher", "codegen_cache_size"]


class BindingTable:
    """A batch of variable bindings: one code column per variable.

    ``columns`` maps each bound :class:`Variable` to a column of
    :class:`~repro.relational.values.ValueCatalog` codes (a plain list),
    all of ``length`` entries.  A unit table (``length == 1`` with no
    columns) is the seed of an unconstrained join.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[Variable, Any], length: int):
        self.columns = columns
        self.length = length

    @classmethod
    def seed(cls, substitution: Substitution) -> "BindingTable":
        """A one-row table carrying a ground substitution's bindings."""
        catalog = value_catalog()
        columns: Dict[Variable, Any] = {
            variable: [catalog.code(term_value(term))]
            for variable, term in substitution.items()}
        return cls(columns, 1)

    def empty_like(self, extra: Sequence[Variable] = ()) -> "BindingTable":
        """An empty table over this table's variables plus ``extra``."""
        blank: List[int] = []
        columns = {variable: blank for variable in self.columns}
        for variable in extra:
            columns[variable] = blank
        return BindingTable(columns, 0)

    def substitutions(self) -> Iterator[Substitution]:
        """Decode one substitution per row (for Substitution consumers)."""
        if not self.length:
            return
        values = value_catalog().values()
        variables = list(self.columns)
        lists = [self.columns[variable] for variable in variables]
        for i in range(self.length):
            yield {variable: to_term(values[lists[j][i]])
                   for j, variable in enumerate(variables)}

    def code_rows(self, variables: Sequence[Variable]) -> List[Tuple[int, ...]]:
        """The rows projected onto ``variables``, as code tuples."""
        if not self.length:
            return []
        if not variables:
            return [()] * self.length
        return list(zip(*(self.columns[variable] for variable in variables)))

    def projected_counts(self, variables: Sequence[Variable]
                         ) -> Dict[Tuple[Any, ...], int]:
        """Decoded row → multiplicity after projecting onto ``variables``.

        Each table row is one distinct body valuation (set semantics make
        row combinations biject with valuations), so the projection counts
        are exactly the support counts of
        :func:`repro.datalog.answering.evaluate_query_counts`.  Columns
        are decoded before counting: codes biject with value-equality
        classes, so counting decoded rows gives the same multiplicities.
        """
        if not self.length:
            return {}
        if not variables:
            return {(): self.length}
        decode = value_catalog().values().__getitem__
        return dict(Counter(zip(*(map(decode, self.columns[variable])
                                  for variable in variables))))


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
        return None, table.columns[key_items[0][2]]
    return None, zip(*(repeat(payload, length) if is_const
                       else table.columns[payload]
                       for _, is_const, payload in key_items))


def _probe_step(matcher, table: BindingTable, instance: DatabaseInstance,
                step: Step) -> BindingTable:
    """One probe → gather → filter step."""
    predicate, key_items, new_vars, dup_checks = step
    stats = matcher.stats
    relation = _step_relation(matcher, instance, predicate)
    if relation is None:
        return table.empty_like([variable for variable, _ in new_vars])
    store = relation.column_store()
    stats.batch_joins += 1
    n = table.length
    if key_items:
        groups = store.group_index(tuple(item[0] for item in key_items))
        const_key, keys = _probe_keys(table, key_items, n)
        if keys is None:  # every row probes the same constant key
            stats.index_probes += 1
            buckets = [groups.get(const_key, ())] * n
        else:
            stats.index_probes += n
            buckets = [groups.get(key, ()) for key in keys]
    else:  # unconstrained: cross join against the whole store
        buckets = [range(len(store))] * n
    if n == 1:
        # The one-row seed every plain query starts from: broadcast its
        # bindings and gather the new columns in one pass each.
        slots = buckets[0]
        total = len(slots)
        columns: Dict[Variable, Any] = {
            variable: [column[0]] * total
            for variable, column in table.columns.items()}
        for variable, position in new_vars:
            source = store.column(position)
            columns[variable] = list(map(source.__getitem__, slots)) \
                if key_items else source.tolist()
    else:
        slots = list(chain.from_iterable(buckets))
        total = len(slots)
        gather_index = list(chain.from_iterable(
            repeat(i, len(bucket)) for i, bucket in enumerate(buckets)))
        columns = {variable: list(map(column.__getitem__, gather_index))
                   for variable, column in table.columns.items()}
        for variable, position in new_vars:
            columns[variable] = list(map(store.column(position).__getitem__,
                                         slots))
    stats.rows_batch_scanned += total
    if not total:
        return table.empty_like([variable for variable, _ in new_vars])
    joined = BindingTable(columns, total)
    if dup_checks:
        keep = range(total)
        for position, variable in dup_checks:
            source = store.column(position)
            bound_column = columns[variable]
            keep = [i for i in keep if source[slots[i]] == bound_column[i]]
        joined = _take_rows(joined, keep)
    return joined


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
    lines = ["def _specialized(matcher, table, instance):"]
    for index in range(len(steps)):
        lines.append(f"    table = _probe_step(matcher, table, instance, "
                     f"_steps[{index}])")
        lines.append("    if not table.length:")
        lines.append("        return table")
    lines.append("    return table")
    namespace = {"_steps": steps, "_probe_step": _probe_step}
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
                sources.append((True, column))
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
        if not tables or not variables:
            # No variables: the one possible valuation is the empty one,
            # present iff any pivot joined at all.
            return BindingTable({variable: [] for variable in variables},
                                1 if tables else 0)
        if len(tables) == 1:
            return tables[0]
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
        per-pivot seeding purely columnar.  Returns a list of code tuples,
        or ``None`` when no delta row is live.
        """
        code = value_catalog().code
        # per-tuple: ok — delta rows are O(update), not O(data).  Repeated
        # delta rows are one fact: dedupe here so one pivot's joined table
        # holds each valuation once (batch_delta_counts relies on this).
        kept = list(dict.fromkeys(row for row in rows if row in live))
        self.stats.rows_scanned += len(kept)
        if not kept:
            return None
        return [tuple(code(value) for value in row) for row in kept]

    def _pivot_seed(self, pivot_atom: Atom, encoded) -> BindingTable:
        """Bind the pivot atom's variables over one predicate's encoded delta."""
        catalog = value_catalog()
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
        if empty or len(encoded[0]) != pivot_atom.arity:
            return BindingTable({variable: [] for variable, _ in var_items},
                                0)
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
    columns = {variable: list(map(column.__getitem__, keep))
               for variable, column in table.columns.items()}
    return BindingTable(columns, len(keep))


def _comparison_filter(table: BindingTable,
                       comparisons: Sequence[Comparison]) -> BindingTable:
    """Apply the final comparison filter.

    ``=``/``==``/``!=`` act directly on the code columns: catalog codes
    biject with Python-equality classes (nulls included — label equality is
    ``Null.__eq__``), so code (in)equality *is* the reference semantics.
    Ordering operators must decode — their ``TypeError`` → string-order fallback
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
    if equalities and table.length:
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
                resolved.append(table.columns[term])  # bound: checked above
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
