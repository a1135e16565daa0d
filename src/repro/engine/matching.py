"""The matching layer: indexed and naive atom/body matchers.

Both matchers implement the same three operations over a
:class:`~repro.relational.instance.DatabaseInstance`:

* ``match_atom(atom, instance, substitution)`` — every extension of the
  substitution matching one atom;
* ``find_homomorphisms(atoms, instance, substitution, comparisons)`` — every
  homomorphism from a conjunction into the instance (safe negation and
  built-in comparisons applied last, as in :mod:`repro.datalog.unify`);
* ``has_homomorphism(atoms, instance, substitution)`` — existence check.

The :class:`NaiveMatcher` delegates to the row-by-row reference
implementation in :mod:`repro.datalog.unify` and exists as the oracle that
the indexed engine is differentially tested against.

The :class:`IndexedMatcher` is the production path:

* **index probes** — an atom with bound positions (constants, nulls, or
  variables already bound by the substitution) is matched by probing the
  relation's hash index over exactly those positions, so only rows that
  agree on the bound values are touched; a fully bound atom becomes an O(1)
  membership test;
* **selectivity ordering** — the positive body atoms are reordered greedily
  before the backtracking join: at each step the atom with the fewest
  unbound positions is chosen (ties broken by smaller relation), so highly
  constrained atoms prune the search early and empty relations short-circuit
  immediately.  The ordering is exposed as :meth:`Matcher.plan` so callers
  that evaluate the same conjunction many times (the delta chase pinning a
  rule to one pivot atom, a query session answering a cached query) can
  compute it once and replay it with ``preordered=True``.

The module also hosts the **delta-pivot join** shared by the delta-driven
chase and the session layer's answer maintenance: each body atom in turn
is pinned to the delta and the remaining atoms are joined against the full
instance, with the join order hoisted out of the per-row loop (one plan
per pivot, since bound-ness depends only on the pivot atom, not on the
delta row).  The compiled form
is :class:`DeltaJoinPlan` — a reusable object the session layer caches per
query so repeated updates replay the same pivot plans — and
:func:`iter_delta_joins` is the one-shot wrapper the chase calls per
(rule, round).

Matchers optionally record their work in an
:class:`~repro.engine.stats.EngineStats` object.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from ..datalog.atoms import Atom, Comparison
from ..datalog.terms import Variable, term_value
from ..datalog.unify import (Substitution, apply_to_term, match_atom_against_row)
from ..datalog import unify as _naive
from ..relational.instance import DatabaseInstance
from .stats import EngineStats

INDEXED = "indexed"
NAIVE = "naive"
COLUMNAR = "columnar"

_ENGINES = (INDEXED, NAIVE, COLUMNAR)


def resolve_engine(engine: Optional[str]) -> str:
    """Resolve an ``engine=`` argument: ``None`` means ``INDEXED``."""
    if engine is None:
        return INDEXED
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known engines: {_ENGINES}")
    return engine


class Matcher:
    """Common interface of the matching engines."""

    name: str = "abstract"

    def __init__(self, stats: Optional[EngineStats] = None):
        self.stats = stats if stats is not None else EngineStats(engine=self.name)

    # -- interface -----------------------------------------------------------

    def match_atom(self, atom: Atom, instance: DatabaseInstance,
                   substitution: Optional[Substitution] = None
                   ) -> Iterator[Substitution]:
        raise NotImplementedError

    def find_homomorphisms(self, atoms: Sequence[Atom], instance: DatabaseInstance,
                           substitution: Optional[Substitution] = None,
                           comparisons: Sequence[Comparison] = (),
                           preordered: bool = False) -> Iterator[Substitution]:
        raise NotImplementedError

    def plan(self, atoms: Sequence[Atom], instance: DatabaseInstance,
             bound: Iterable[Variable] = ()) -> List[Atom]:
        """A join order for ``atoms`` given already-``bound`` variables.

        The returned list can be replayed through
        ``find_homomorphisms(..., preordered=True)``; computing it once per
        (rule, pivot) pair or per cached query amortizes the ordering work.
        The naive matcher preserves the given order (its reference semantics
        evaluate atoms as written).
        """
        return list(atoms)

    def has_homomorphism(self, atoms: Sequence[Atom], instance: DatabaseInstance,
                         substitution: Optional[Substitution] = None) -> bool:
        """``True`` iff at least one homomorphism exists."""
        for _ in self.find_homomorphisms(atoms, instance, substitution):
            return True
        return False


class NaiveMatcher(Matcher):
    """Row-by-row reference matcher (wraps :mod:`repro.datalog.unify`)."""

    name = NAIVE

    def match_atom(self, atom: Atom, instance: DatabaseInstance,
                   substitution: Optional[Substitution] = None
                   ) -> Iterator[Substitution]:
        """Row-by-row scan, billing only the rows actually iterated.

        Same semantics as :func:`repro.datalog.unify.match_atom`; the scan
        is restated here so early-exiting consumers (``has_homomorphism``,
        boolean queries) are charged for the prefix they touched, not the
        whole relation.
        """
        if not instance.has_relation(atom.predicate):
            self.stats.empty_lookups += 1
            return
        for row in instance.relation(atom.predicate):  # per-tuple: ok — the naive oracle is row-at-a-time by definition
            self.stats.rows_scanned += 1
            matched = match_atom_against_row(atom, row, substitution)
            if matched is not None:
                yield matched

    def find_homomorphisms(self, atoms: Sequence[Atom], instance: DatabaseInstance,
                           substitution: Optional[Substitution] = None,
                           comparisons: Sequence[Comparison] = (),
                           preordered: bool = False) -> Iterator[Substitution]:
        """Delegates to the canonical :func:`repro.datalog.unify.find_homomorphisms`,
        injecting the counting :meth:`match_atom` so the negation/comparison
        semantics are not duplicated here.  ``preordered`` is accepted for
        interface compatibility; the naive matcher never reorders anyway."""
        yield from _naive.find_homomorphisms(atoms, instance,
                                             substitution=substitution,
                                             comparisons=comparisons,
                                             match=self.match_atom)


class IndexedMatcher(Matcher):
    """Index-probing matcher with selectivity-ordered backtracking joins."""

    name = INDEXED

    # -- single-atom matching -------------------------------------------------

    def match_atom(self, atom: Atom, instance: DatabaseInstance,
                   substitution: Optional[Substitution] = None
                   ) -> Iterator[Substitution]:
        """Yield every extension of ``substitution`` matching ``atom``.

        The positions of ``atom`` that are ground under the substitution are
        used as an index key; only rows agreeing on those values are
        scanned.  Repeated variables within the atom are handled by the
        per-row matcher (the first occurrence binds, later ones filter).
        """
        if not instance.has_relation(atom.predicate):
            self.stats.empty_lookups += 1
            return
        relation = instance.relation(atom.predicate)
        if not relation:
            self.stats.empty_lookups += 1
            return
        current = dict(substitution or {})
        bound_positions: List[int] = []
        bound_values: List[Any] = []
        for position, term in enumerate(atom.terms):
            term = apply_to_term(current, term)
            if not isinstance(term, Variable):
                bound_positions.append(position)
                bound_values.append(term_value(term))
        if len(bound_positions) == atom.arity:
            # Fully bound: O(1) membership test.
            self.stats.index_probes += 1
            if tuple(bound_values) in relation:
                yield current
            return
        if bound_positions:
            self.stats.index_probes += 1
            candidates: Sequence[Tuple[Any, ...]] = relation.probe(
                tuple(bound_positions), tuple(bound_values))
        else:
            candidates = relation.rows()
        for row in candidates:  # per-tuple: ok — single-atom probe, candidates already index-narrowed
            self.stats.rows_scanned += 1
            matched = match_atom_against_row(atom, row, current)
            if matched is not None:
                yield matched

    # -- conjunction matching -------------------------------------------------

    def find_homomorphisms(self, atoms: Sequence[Atom], instance: DatabaseInstance,
                           substitution: Optional[Substitution] = None,
                           comparisons: Sequence[Comparison] = (),
                           preordered: bool = False) -> Iterator[Substitution]:
        """Yield every homomorphism from ``atoms`` into ``instance``.

        Same contract as :func:`repro.datalog.unify.find_homomorphisms`:
        positive atoms joined with backtracking, negated atoms checked after
        all positive atoms are matched (cautious over labeled nulls),
        comparisons applied last.  The positive atoms are joined in
        selectivity order instead of the order given — unless ``preordered``
        is set, in which case ``atoms`` is taken to be a :meth:`plan` and
        replayed as given.  The join/negation semantics themselves are
        delegated to the canonical implementation (with this matcher's
        index-probing :meth:`match_atom` injected), so they live only in
        :mod:`repro.datalog.unify`.
        """
        initial = dict(substitution or {})
        if comparisons:
            # Equality comparisons bind variables to ground terms; seeing
            # them bound lets the planner order (and the probes key) on them.
            initial = _naive.comparison_bindings(comparisons, initial)
        ordered = list(atoms) if preordered else self.plan(atoms, instance,
                                                           bound=initial)
        yield from _naive.find_homomorphisms(ordered, instance,
                                             substitution=initial,
                                             comparisons=comparisons,
                                             match=self.match_atom)

    def plan(self, atoms: Sequence[Atom], instance: DatabaseInstance,
             bound: Iterable[Variable] = ()) -> List[Atom]:
        """Greedy join order: most-bound atom first, smaller relation on ties.

        Negated atoms always go last (they are checks, not generators);
        ``bound`` names variables that will already be bound when the plan
        is replayed (e.g. by a delta-pivot seed or an outer substitution).
        """
        positive = [atom for atom in atoms if not atom.negated]
        negative = [atom for atom in atoms if atom.negated]
        if len(positive) <= 1:
            return positive + negative
        remaining = positive
        bound_vars: Set[Variable] = set(bound)
        ordered: List[Atom] = []

        def cost(atom: Atom) -> Tuple[int, int]:
            unbound = {term for term in atom.terms
                       if isinstance(term, Variable) and term not in bound_vars}
            size = (len(instance.relation(atom.predicate))
                    if instance.has_relation(atom.predicate) else 0)
            return (len(unbound), size)

        while remaining:
            best = min(remaining, key=cost)
            remaining.remove(best)
            ordered.append(best)
            bound_vars.update(term for term in best.terms
                              if isinstance(term, Variable))
        return ordered + negative


#: An instance-level delta: either a :class:`DatabaseInstance` holding the
#: changed rows (the chase's round deltas) or a flat iterable of
#: ``(predicate, row)`` facts (the session layer's update deltas).
DeltaLike = Union[DatabaseInstance, Iterable[Tuple[str, Tuple[Any, ...]]]]


class DeltaJoinPlan:
    """A compiled delta-pivot join for one conjunction of positive atoms.

    Compiling hoists everything that does not depend on the delta rows out
    of the per-update loop: for each body atom (the *pivot*), the join
    order of the remaining atoms is computed once — bound-ness depends only
    on which atom is pinned, not on the pinned row — and cached on the
    plan.  Per-pivot plans are compiled lazily on first use, so a pivot
    whose predicate never appears in a delta costs nothing (the chase's
    common case).

    :meth:`homomorphisms` then enumerates, for a given instance and delta,
    every homomorphism from the body into the instance that uses at least
    one delta fact.  Delta rows not present in the instance (e.g. rewritten
    away by a later EGD merge, or bogus facts) are skipped.  Optional
    ``comparisons`` are applied with the same semantics as
    :func:`repro.datalog.unify.find_homomorphisms` — equality comparisons
    seed index probes, all comparisons filter the final bindings.

    The plan is valid for the lifetime of the conjunction: the cached join
    orders are a heuristic (selectivity at compile time), never a
    correctness requirement, so a plan compiled against one instance can be
    replayed against old or new versions of it.  The session layer caches
    one plan per maintained query; the chase compiles one per (rule, round)
    via :func:`iter_delta_joins`.
    """

    __slots__ = ("matcher", "body", "variables", "comparisons", "_rest",
                 "_plans")

    def __init__(self, matcher: Matcher, body: Sequence[Atom],
                 variables: Optional[Sequence[Variable]] = None,
                 comparisons: Sequence[Comparison] = ()):
        self.matcher = matcher
        self.body: Tuple[Atom, ...] = tuple(body)
        if variables is None:
            seen: List[Variable] = []
            for atom in self.body:
                for term in atom.terms:
                    if isinstance(term, Variable) and term not in seen:
                        seen.append(term)
            variables = seen
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.comparisons: Tuple[Comparison, ...] = tuple(comparisons)
        self._rest: List[List[Atom]] = [
            [atom for position, atom in enumerate(self.body) if position != pivot]
            for pivot in range(len(self.body))]
        #: pivot index -> hoisted join order of the remaining atoms
        self._plans: Dict[int, List[Atom]] = {}

    def _plan_for(self, pivot: int, instance: DatabaseInstance) -> List[Atom]:
        plan = self._plans.get(pivot)
        if plan is None:
            plan = self.matcher.plan(
                self._rest[pivot], instance,
                bound=(term for term in self.body[pivot].terms
                       if isinstance(term, Variable)))
            self._plans[pivot] = plan
        return plan

    @staticmethod
    def _delta_rows(delta: DeltaLike) -> Dict[str, List[Tuple[Any, ...]]]:
        """Normalize a delta into ``predicate -> rows`` (non-empty only)."""
        if isinstance(delta, DatabaseInstance):
            return {relation.schema.name: relation.rows()
                    for relation in delta if len(relation)}
        grouped: Dict[str, List[Tuple[Any, ...]]] = {}
        for predicate, row in delta:  # per-tuple: ok — delta rows are O(update), not O(data)
            grouped.setdefault(predicate, []).append(tuple(row))
        return grouped

    def homomorphisms(self, instance: DatabaseInstance,
                      delta: DeltaLike) -> Iterator[Substitution]:
        """Homomorphisms from the body into ``instance`` using ≥ 1 delta fact.

        Homomorphisms reachable through several pivots are yielded once,
        keyed by the bindings of the plan's ``variables`` — with
        ``variables`` covering every body variable, each distinct valuation
        is yielded exactly once, which is what counting-based answer
        maintenance requires.
        """
        matcher = self.matcher
        batch = getattr(matcher, "delta_substitutions", None)
        if batch is not None:
            # The columnar matcher joins all delta rows of a pivot at once
            # (set-at-a-time) instead of running the per-row loop below.
            yield from batch(self, instance, delta)
            return
        grouped = self._delta_rows(delta)
        if not grouped:
            return
        seen: Set[frozenset] = set()
        for pivot, pivot_atom in enumerate(self.body):
            rows = grouped.get(pivot_atom.predicate)
            if not rows or not instance.has_relation(pivot_atom.predicate):
                continue
            live_relation = instance.relation(pivot_atom.predicate)
            rest = self._rest[pivot]
            plan = self._plan_for(pivot, instance) if rest else []
            for row in rows:  # per-tuple: ok — tuple-at-a-time engines pivot row by row
                if row not in live_relation:
                    continue
                matcher.stats.rows_scanned += 1
                seed = match_atom_against_row(pivot_atom, row)
                if seed is None:
                    continue
                candidates = matcher.find_homomorphisms(
                    plan, instance, substitution=seed,
                    comparisons=self.comparisons, preordered=True) \
                    if rest or self.comparisons else [seed]
                for homomorphism in candidates:
                    key = frozenset(
                        (variable.name,
                         term_value(apply_to_term(homomorphism, variable)))
                        for variable in self.variables)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield homomorphism

    def projected_counts(self, instance: DatabaseInstance, delta: DeltaLike,
                         project: Optional[Sequence[Variable]] = None
                         ) -> Dict[Tuple[Any, ...], int]:
        """Deduplicated delta homomorphisms, counted per projected row.

        The counting form of :meth:`homomorphisms`: each distinct valuation
        of the plan's ``variables`` contributes 1 to the count of its
        projection onto ``project`` (default: the plan's variables).  This
        is exactly the bulk ±support the session layer's counting IVM
        applies per answer row; the columnar matcher computes it without
        materializing substitutions, other engines fall back to the
        homomorphism loop.
        """
        projection = tuple(project) if project is not None else self.variables
        batch = getattr(self.matcher, "batch_delta_counts", None)
        if batch is not None:
            return batch(self, instance, delta, projection)
        counts: Dict[Tuple[Any, ...], int] = {}
        for homomorphism in self.homomorphisms(instance, delta):
            row = tuple(term_value(apply_to_term(homomorphism, variable))
                        for variable in projection)
            counts[row] = counts.get(row, 0) + 1
        return counts


def iter_delta_joins(matcher: Matcher, body: Sequence[Atom],
                     variables: Sequence[Variable], instance: DatabaseInstance,
                     delta: Optional[DatabaseInstance]
                     ) -> Iterator[Substitution]:
    """Homomorphisms from ``body`` into ``instance`` using ≥ 1 delta fact.

    One-shot wrapper over :class:`DeltaJoinPlan` for the delta-driven
    chase.  When ``delta`` is ``None`` (a first
    round) every homomorphism is enumerated; otherwise a plan is compiled
    for this call (per-pivot orders are still hoisted out of the row loop)
    and replayed over the delta.  Callers that evaluate the same
    conjunction across many deltas — the session layer maintaining cached
    answers — hold a :class:`DeltaJoinPlan` directly instead.
    """
    if delta is None:
        yield from matcher.find_homomorphisms(body, instance)
        return
    plan = DeltaJoinPlan(matcher, body, variables=variables)
    yield from plan.homomorphisms(instance, delta)


def matcher_for(engine: Optional[str] = None,
                stats: Optional[EngineStats] = None) -> Matcher:
    """Build a matcher for ``engine`` (``None`` = process default)."""
    resolved = resolve_engine(engine)
    if stats is not None:
        stats.engine = resolved
    if resolved == NAIVE:
        return NaiveMatcher(stats)
    if resolved == COLUMNAR:
        from .columnar import ColumnarMatcher  # lazy: avoids an import cycle
        return ColumnarMatcher(stats)
    return IndexedMatcher(stats)
