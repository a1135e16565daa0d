"""The chase procedure for Datalog± programs.

The chase takes an extensional database and a set of dependencies and
repairs the database until every dependency is satisfied:

* an applicable **TGD** trigger adds the (ground) head atoms, inventing a
  fresh labeled null for each existential variable;
* an applicable **EGD** trigger equates two values — replacing a labeled
  null by the other value, or failing hard when two distinct constants
  would have to be equated;
* **negative constraints** are checked on the final result (or eagerly,
  when ``fail_fast`` is set) and produce :class:`InconsistencyError`.

Two flavours are provided (ablation experiment E10 in the benchmark suite):

* the **restricted** (standard) chase only fires a TGD trigger when the head
  is not already satisfied by some extension of the trigger homomorphism;
* the **oblivious** chase fires every trigger exactly once regardless.

Independently of the flavour, two **engines** are available (see
``docs/ARCHITECTURE.md`` for the storage → matching → evaluator layering):

* ``engine="indexed"`` (the default) matches rule bodies through the hash
  indexes of :mod:`repro.engine.matching` and runs **delta-driven** rounds:
  after the first round, a rule is only re-evaluated when its body shares a
  predicate with the facts added (or rewritten by EGD merges) in the
  previous round, and its triggers are enumerated semi-naively — one body
  atom pinned to the delta, the rest joined against the full instance.
  EGD merges use the null-occurrence index so only affected rows are
  rewritten.
* ``engine="naive"`` recomputes every trigger from scratch each round with
  the row-scanning reference matcher — slow, but the oracle the indexed
  engine is differentially tested against.

An :class:`~repro.engine.stats.EngineStats` object describing the work done
(rows scanned, index probes, triggers fired, ...) is attached to the
returned :class:`ChaseResult`.

For the paper's MD ontologies the restricted chase terminates: dimensional
rules of forms (1)–(4) invent nulls only at non-categorical positions and
form (10) only finitely many member nulls (Section III).  Arbitrary user
programs may not terminate, so the engine enforces a step budget and raises
:class:`ChaseNonTerminationError` when it is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..engine.matching import (NAIVE, Matcher, iter_delta_joins, matcher_for,
                               resolve_engine)
from ..engine.stats import EngineStats
from ..errors import ChaseNonTerminationError, EGDConflictError, InconsistencyError
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, NullFactory
from .atoms import Atom
from .program import DatalogProgram
from .rules import EGD, NegativeConstraint, TGD
from .terms import Variable, term_value
from .unify import (Substitution, apply_to_atom, apply_to_term,
                    match_atom_against_row)

RESTRICTED = "restricted"
OBLIVIOUS = "oblivious"

#: A stored fact, as ``(predicate, row)`` — the vocabulary of provenance
#: records and of the session layer's update APIs.
Fact = Tuple[str, Tuple[Any, ...]]

#: Provenance of derived facts: each fact the chase added maps to the
#: grounded body facts of the trigger that first derived it.  EGD merges
#: rewrite rows in place and make recorded provenance stale — the chase
#: reports merges so sessions can fall back to a full re-chase.
Provenance = Dict[Fact, Tuple[Fact, ...]]


@dataclass
class ConstraintViolation:
    """A witnessed violation of a negative constraint."""

    constraint: NegativeConstraint
    witness: Dict[str, object]

    def __str__(self) -> str:
        bindings = ", ".join(f"{var}={val}" for var, val in sorted(self.witness.items()))
        return f"violation of [{self.constraint}] with {bindings}"


@dataclass
class ChaseResult:
    """Outcome of a chase run."""

    instance: DatabaseInstance
    steps: int
    rounds: int
    terminated: bool
    mode: str
    egd_merges: int = 0
    violations: List[ConstraintViolation] = field(default_factory=list)
    engine: str = "indexed"
    stats: EngineStats = field(default_factory=EngineStats)
    #: derived-fact provenance, recorded when the caller asked for it
    #: (``record_provenance=True``); ``None`` otherwise
    provenance: Optional[Provenance] = None

    @property
    def is_consistent(self) -> bool:
        """``True`` when no negative constraint was violated."""
        return not self.violations

    def generated_nulls(self) -> Set[Null]:
        """Labeled nulls present in the chased instance."""
        return self.instance.nulls()


class ChaseEngine:
    """Configurable chase runner.

    Parameters
    ----------
    mode:
        ``"restricted"`` (default) or ``"oblivious"``.
    max_steps:
        Budget on the number of applied TGD triggers; exceeding it raises
        :class:`ChaseNonTerminationError`.
    check_constraints:
        When ``True`` (default), negative constraints are evaluated on the
        chased instance and collected as violations.
    fail_fast:
        When ``True``, the first constraint violation or hard EGD conflict
        raises immediately instead of being collected.
    null_prefix:
        Prefix for the labels of invented nulls.
    engine:
        ``"indexed"`` (delta-driven, index-probing; the default) or
        ``"naive"`` (full recomputation with the reference matcher).
        ``None`` uses the process-wide default of :mod:`repro.engine`.
    """

    def __init__(self, mode: str = RESTRICTED, max_steps: int = 100_000,
                 check_constraints: bool = True, fail_fast: bool = False,
                 null_prefix: str = "n", engine: Optional[str] = None):
        if mode not in (RESTRICTED, OBLIVIOUS):
            raise ValueError(f"unknown chase mode {mode!r}")
        self.mode = mode
        self.max_steps = max_steps
        self.check_constraints = check_constraints
        self.fail_fast = fail_fast
        self.null_prefix = null_prefix
        self.engine = resolve_engine(engine)

    # -- public API ---------------------------------------------------------

    def run(self, program: DatalogProgram, copy: bool = True,
            nulls: Optional[NullFactory] = None,
            record_provenance: bool = False,
            provenance: Optional[Provenance] = None) -> ChaseResult:
        """Chase ``program``'s database.

        With ``copy`` (the default) the input program is not mutated; a
        materialization session passes ``copy=False`` to chase its own
        program's database in place.  A shared ``nulls`` factory keeps null
        labels unique across resumed runs.  With ``record_provenance`` the
        result carries a :data:`Provenance` mapping each derived fact to the
        grounded body facts of the trigger that first derived it; callers
        that maintain indexes over the provenance may supply their own
        (possibly instrumented) ``provenance`` mapping instead.
        """
        if copy:
            program = program.copy()
        program.ensure_relations()
        instance = program.database
        nulls = nulls if nulls is not None else NullFactory(self.null_prefix)
        if provenance is None and record_provenance:
            provenance = {}
        stats = EngineStats(engine=self.engine)
        matcher = matcher_for(self.engine, stats)
        merge_counter = self._index_merge_counter(matcher)
        merge_base = merge_counter() if merge_counter else 0

        if self.engine == NAIVE:
            steps, rounds, egd_merges = self._run_naive(
                program, instance, nulls, matcher, provenance)
        else:
            steps, rounds, egd_merges = self._run_delta(
                program, instance, nulls, matcher, provenance)

        stats.triggers_fired = steps
        stats.rounds = rounds
        stats.egd_merges = egd_merges
        if merge_counter:
            stats.index_delta_merges = merge_counter() - merge_base

        violations = self._check_constraints(program.constraints, instance, matcher) \
            if self.check_constraints else []
        return ChaseResult(
            instance=instance,
            steps=steps,
            rounds=rounds,
            terminated=True,
            mode=self.mode,
            egd_merges=egd_merges,
            violations=violations,
            engine=self.engine,
            stats=stats,
            provenance=provenance,
        )

    def continue_chase(self, program: DatalogProgram, seed: Iterable[Fact],
                       nulls: NullFactory,
                       provenance: Optional[Provenance] = None) -> ChaseResult:
        """Re-enter the chase on an already-chased ``program.database``.

        ``seed`` names the facts that changed since the last fixpoint (e.g.
        freshly inserted EDB facts); the delta-driven engine evaluates only
        rules whose bodies can see them, the naive engine re-checks every
        trigger.  The database is updated **in place**; the returned result
        counts only the work of this continuation.  Only the restricted
        chase can be resumed: the oblivious chase would need its
        fired-trigger memory carried across calls.
        """
        if self.mode != RESTRICTED:
            raise ValueError("only the restricted chase supports continuation")
        instance = program.database
        stats = EngineStats(engine=self.engine)
        matcher = matcher_for(self.engine, stats)
        merge_counter = self._index_merge_counter(matcher)
        merge_base = merge_counter() if merge_counter else 0

        if self.engine == NAIVE:
            steps, rounds, egd_merges = self._run_naive(
                program, instance, nulls, matcher, provenance)
        else:
            seed_delta: List[Fact] = [(predicate, tuple(row))
                                      for predicate, row in seed]
            steps, rounds, egd_merges = self._run_delta(
                program, instance, nulls, matcher, provenance,
                initial_delta=seed_delta)

        stats.triggers_fired = steps
        stats.rounds = rounds
        stats.egd_merges = egd_merges
        if merge_counter:
            stats.index_delta_merges = merge_counter() - merge_base
        return ChaseResult(
            instance=instance, steps=steps, rounds=rounds, terminated=True,
            mode=self.mode, egd_merges=egd_merges, violations=[],
            engine=self.engine, stats=stats, provenance=provenance,
        )

    def repair_after_deletion(self, program: DatalogProgram,
                              deleted: Iterable[Fact], nulls: NullFactory,
                              provenance: Optional[Provenance] = None
                              ) -> ChaseResult:
        """Restore the fixpoint after the ``deleted`` facts were removed.

        Deleting a fact can leave a TGD trigger newly unsatisfied: the
        restricted chase had skipped it because the deleted fact witnessed
        its head.  Any such trigger's head atom unifies with the deleted
        fact on its universal positions, so the repair enumerates, per
        (deleted fact, rule head atom) pair, only the body homomorphisms
        extending that unification — with the head variables bound the join
        probes indexes instead of scanning — fires the ones whose heads are
        no longer satisfied, and lets a normal delta-driven continuation
        propagate.  Rules whose heads cannot produce a deleted fact are
        never touched.
        """
        if self.mode != RESTRICTED:
            raise ValueError("only the restricted chase supports repair")
        instance = program.database
        stats = EngineStats(engine=self.engine)
        matcher = matcher_for(self.engine, stats)
        merge_counter = self._index_merge_counter(matcher)
        merge_base = merge_counter() if merge_counter else 0

        if self.engine == NAIVE:
            steps, rounds, egd_merges = self._run_naive(
                program, instance, nulls, matcher, provenance)
        else:
            steps = 0
            seed_delta: List[Fact] = []
            heads_by_predicate: Dict[str, List[Tuple[TGD, Atom, Set[Variable]]]] = {}
            for tgd in program.tgds:
                existentials = set(tgd.existential_variables())
                for atom in tgd.head:
                    heads_by_predicate.setdefault(atom.predicate, []).append(
                        (tgd, atom, existentials))
            # per-tuple: ok — deleted facts are O(update), not O(data)
            for predicate, row in deleted:
                for tgd, head_atom, existentials in \
                        heads_by_predicate.get(predicate, ()):
                    unified = match_atom_against_row(head_atom, row)
                    if unified is None:
                        continue
                    # Existential positions of the head are witnessed by *any*
                    # value; only the universal bindings constrain the body.
                    seed = {variable: term for variable, term in unified.items()
                            if variable not in existentials}
                    triggers = list(matcher.find_homomorphisms(
                        tgd.body, instance, substitution=seed))
                    for homomorphism in triggers:
                        if self._head_satisfied(tgd, homomorphism, instance,
                                                matcher):
                            continue
                        seed_delta.extend(self._apply_tgd(
                            tgd, homomorphism, instance, nulls, provenance))
                        steps += 1
                        self._check_budget(steps)
            more_steps, rounds, egd_merges = self._run_delta(
                program, instance, nulls, matcher, provenance,
                initial_delta=seed_delta) if seed_delta else (0, 0, 0)
            steps += more_steps

        stats.triggers_fired = steps
        stats.rounds = rounds
        stats.egd_merges = egd_merges
        if merge_counter:
            stats.index_delta_merges = merge_counter() - merge_base
        return ChaseResult(
            instance=instance, steps=steps, rounds=rounds, terminated=True,
            mode=self.mode, egd_merges=egd_merges, violations=[],
            engine=self.engine, stats=stats, provenance=provenance,
        )

    # -- naive engine: recompute every trigger each round ---------------------

    def _run_naive(self, program: DatalogProgram, instance: DatabaseInstance,
                   nulls: NullFactory, matcher: Matcher,
                   provenance: Optional[Provenance] = None) -> Tuple[int, int, int]:
        steps = 0
        rounds = 0
        egd_merges = 0
        applied_triggers: Set[Tuple[int, Tuple]] = set()

        changed = True
        while changed:
            rounds += 1
            changed = False

            # EGDs first: they may merge nulls and unblock/blot out TGD triggers.
            merges = self._apply_egds_naive(program.egds, instance, matcher)
            if merges:
                egd_merges += merges
                changed = True

            for index, tgd in enumerate(program.tgds):
                triggers = list(matcher.find_homomorphisms(tgd.body, instance))
                for homomorphism in triggers:
                    if self.mode == OBLIVIOUS:
                        # Only the oblivious chase needs fired-trigger memory;
                        # the restricted chase dedupes via head satisfaction.
                        trigger_key = self._trigger_key(index, tgd, homomorphism)
                        if trigger_key in applied_triggers:
                            continue
                        applied_triggers.add(trigger_key)
                    elif self._head_satisfied(tgd, homomorphism, instance, matcher):
                        continue
                    self._apply_tgd(tgd, homomorphism, instance, nulls, provenance)
                    steps += 1
                    changed = True
                    self._check_budget(steps)
        return steps, rounds, egd_merges

    def _apply_egds_naive(self, egds: Sequence[EGD], instance: DatabaseInstance,
                          matcher: Matcher) -> int:
        """Apply EGDs to a fixpoint by full recomputation; return merge count."""
        merges = 0
        changed = True
        while changed:
            changed = False
            for egd in egds:
                for homomorphism in list(matcher.find_homomorphisms(egd.body, instance)):
                    keep_drop = self._egd_decision(egd, homomorphism)
                    if keep_drop is None:
                        continue
                    keep, drop = keep_drop
                    self._replace_value_naive(instance, drop, keep, matcher.stats)
                    merges += 1
                    changed = True
        return merges

    @staticmethod
    def _replace_value_naive(instance: DatabaseInstance, old: object, new: object,
                             stats: EngineStats) -> None:
        for relation in instance:
            stats.rows_scanned += len(relation)
            affected = [row for row in relation.rows() if old in row]
            for row in affected:  # per-tuple: ok — naive engine, reference semantics
                relation.discard(row)
                relation.add(tuple(new if value == old else value for value in row))
                stats.rows_rewritten += 1

    # -- indexed engine: delta-driven rounds ----------------------------------

    def _batcher(self, matcher: Matcher, nulls: NullFactory):
        """A batched trigger applier, when the engine can feed one.

        Only the columnar matcher exposes the binding-table surface, and only
        the restricted chase has batch-exact semantics (the oblivious chase
        needs per-trigger fired memory).  Imported lazily so the indexed
        engine never pays the columnar import.
        """
        if self.mode != RESTRICTED or not hasattr(matcher, "delta_binding_table"):
            return None
        from ..engine.triggers import TriggerBatcher
        return TriggerBatcher(matcher, nulls)

    def _run_delta(self, program: DatalogProgram, instance: DatabaseInstance,
                   nulls: NullFactory, matcher: Matcher,
                   provenance: Optional[Provenance] = None,
                   initial_delta: Optional[List[Fact]] = None
                   ) -> Tuple[int, int, int]:
        steps = 0
        rounds = 0
        egd_merges = 0
        applied_triggers: Set[Tuple[int, Tuple]] = set()
        tgds = list(program.tgds)
        tgd_body_preds = [tgd.body_predicates() for tgd in tgds]
        egd_body_preds = [egd.body_predicates() for egd in program.egds]
        batcher = self._batcher(matcher, nulls)

        # ``delta`` holds the facts that became true (or were rewritten by EGD
        # merges) in the previous round; ``None`` means "first round, evaluate
        # everything".  A continuation passes ``initial_delta`` — the facts
        # that changed since the last fixpoint — so even the first round is
        # delta-driven.  A rule whose body shares no predicate with the delta
        # cannot have gained a new trigger and is skipped.
        delta: Optional[List[Fact]] = initial_delta
        while True:
            rounds += 1
            new_delta: List[Fact] = []
            delta_preds = None if delta is None else \
                {predicate for predicate, _ in delta}

            merges = self._apply_egds_delta(program.egds, egd_body_preds, instance,
                                            delta, delta_preds, new_delta, matcher,
                                            batcher)
            egd_merges += merges

            produced = 0
            for index, tgd in enumerate(tgds):
                if delta_preds is not None and not (tgd_body_preds[index] & delta_preds):
                    matcher.stats.rules_skipped_by_delta += 1
                    continue
                if batcher is not None:
                    outcome = batcher.apply(index, tgd, instance, delta,
                                            provenance)
                    if outcome is not None:
                        steps += outcome.fired
                        produced += outcome.fired
                        new_delta.extend(outcome.novel)
                        if outcome.fired:
                            self._check_budget(steps)
                        continue
                triggers = list(iter_delta_joins(
                    matcher, tgd.body, tgd.body_variables(), instance, delta))
                for homomorphism in triggers:
                    if self.mode == OBLIVIOUS:
                        # Only the oblivious chase needs fired-trigger memory;
                        # the restricted chase dedupes via head satisfaction.
                        trigger_key = self._trigger_key(index, tgd, homomorphism)
                        if trigger_key in applied_triggers:
                            continue
                        applied_triggers.add(trigger_key)
                    elif self._head_satisfied(tgd, homomorphism, instance, matcher):
                        continue
                    # per-tuple: ok — fallback path for batch-ineligible rules
                    for predicate, row in self._apply_tgd(
                            tgd, homomorphism, instance, nulls, provenance):
                        new_delta.append((predicate, row))
                    steps += 1
                    produced += 1
                    self._check_budget(steps)

            if merges == 0 and produced == 0:
                break
            delta = new_delta
        return steps, rounds, egd_merges

    def _apply_egds_delta(self, egds: Sequence[EGD], egd_body_preds: Sequence[Set[str]],
                          instance: DatabaseInstance, delta: Optional[List[Fact]],
                          delta_preds: Optional[Set[str]], new_delta: List[Fact],
                          matcher: Matcher, batcher=None) -> int:
        """Apply EGDs to a fixpoint, delta-driven; rewritten rows feed both the
        inner fixpoint and the caller's round delta.

        With a batcher the candidate triggers are pre-filtered on the code
        columns (only bindings whose two sides actually differ are decoded);
        the merges themselves stay per-merge — they are rare and rewrite
        arbitrary rows through the null-occurrence index.
        """
        if not egds:
            return 0
        merges = 0
        current_delta = delta
        current_preds = delta_preds
        while True:
            pass_merges = 0
            local_delta: List[Fact] = []
            for index, egd in enumerate(egds):
                if current_preds is not None and not (egd_body_preds[index] & current_preds):
                    matcher.stats.rules_skipped_by_delta += 1
                    continue
                triggers = batcher.egd_candidates(egd, instance, current_delta) \
                    if batcher is not None else None
                if triggers is None:
                    triggers = list(iter_delta_joins(
                        matcher, egd.body, egd.body_variables(), instance,
                        current_delta))
                for homomorphism in triggers:
                    # Earlier merges may have rewritten this trigger's facts;
                    # the rewritten facts are in the local delta and will be
                    # re-derived, so a stale trigger is simply skipped.
                    if not self._trigger_live(egd.body, homomorphism, instance, matcher):
                        continue
                    keep_drop = self._egd_decision(egd, homomorphism)
                    if keep_drop is None:
                        continue
                    keep, drop = keep_drop
                    # per-tuple: ok — rewritten rows are O(merge), not O(data)
                    for predicate, row in self._replace_value_indexed(
                            instance, drop, keep, matcher.stats):
                        local_delta.append((predicate, row))
                        new_delta.append((predicate, row))
                    pass_merges += 1
            if pass_merges == 0:
                break
            merges += pass_merges
            current_delta = local_delta
            current_preds = {predicate for predicate, _ in local_delta}
        return merges

    @staticmethod
    def _trigger_live(body: Sequence[Atom], homomorphism: Substitution,
                      instance: DatabaseInstance, matcher: Matcher) -> bool:
        """``True`` iff every grounded body fact of the trigger still exists."""
        for atom in body:
            grounded = apply_to_atom(homomorphism, atom)
            matcher.stats.index_probes += 1
            if grounded.to_fact_row() not in instance.relation(grounded.predicate):
                return False
        return True

    @staticmethod
    def _replace_value_indexed(instance: DatabaseInstance, old: object, new: object,
                               stats: EngineStats) -> List[Tuple[str, Tuple]]:
        """Rewrite ``old`` to ``new`` touching only rows that contain ``old``
        (found through the per-relation occurrence index)."""
        rewritten: List[Tuple[str, Tuple]] = []
        for relation in instance:
            stats.index_probes += 1
            # per-tuple: ok — only rows holding the merged value (occurrence index)
            for row in relation.rows_with_value(old):
                relation.discard(row)
                new_row = tuple(new if value == old else value for value in row)
                relation.add(new_row)
                stats.rows_rewritten += 1
                rewritten.append((relation.schema.name, new_row))
        return rewritten

    # -- shared pieces --------------------------------------------------------

    @staticmethod
    def _index_merge_counter(matcher: Matcher):
        """The process-wide group-index delta-merge counter, when the engine
        maintains group indexes (columnar only — sampled before/after a run
        to report ``index_delta_merges``).  Imported lazily so the other
        engines never load the columns module at all."""
        if not hasattr(matcher, "delta_binding_table"):
            return None
        from ..relational.columns import index_delta_merge_count
        return index_delta_merge_count

    def _check_budget(self, steps: int) -> None:
        if steps > self.max_steps:
            raise ChaseNonTerminationError(
                f"chase exceeded the budget of {self.max_steps} trigger applications; "
                "the program may have a non-terminating chase")

    def _egd_decision(self, egd: EGD,
                      homomorphism: Substitution) -> Optional[Tuple[object, object]]:
        """Decide an EGD trigger: ``None`` (already equal), ``(keep, drop)``,
        or raise on a hard conflict between distinct constants."""
        left = term_value(apply_to_term(homomorphism, egd.left))
        right = term_value(apply_to_term(homomorphism, egd.right))
        if left == right:
            return None
        if not isinstance(left, Null) and not isinstance(right, Null):
            raise EGDConflictError(
                f"EGD [{egd}] requires equating distinct constants "
                f"{left!r} and {right!r}",
                constraint=egd,
                witness={v.name: term_value(apply_to_term(homomorphism, v))
                         for v in egd.body_variables()})
        # Replace the null by the other value (prefer keeping constants).
        if isinstance(left, Null) and not isinstance(right, Null):
            return right, left
        if isinstance(right, Null) and not isinstance(left, Null):
            return left, right
        # two nulls: keep the lexicographically smaller label
        keep, drop = sorted((left, right), key=lambda n: n.label)
        return keep, drop

    @staticmethod
    def _trigger_key(index: int, tgd: TGD, homomorphism: Substitution) -> Tuple[int, Tuple]:
        relevant = tuple(
            (variable.name, term_value(apply_to_term(homomorphism, variable)))
            for variable in sorted(tgd.body_variables(), key=lambda v: v.name)
        )
        return (index, relevant)

    @staticmethod
    def _head_satisfied(tgd: TGD, homomorphism: Substitution,
                        instance: DatabaseInstance, matcher: Matcher) -> bool:
        """Check if the head already holds under some extension of the trigger."""
        partial_head = [apply_to_atom(homomorphism, atom) for atom in tgd.head]
        return matcher.has_homomorphism(partial_head, instance)

    def _apply_tgd(self, tgd: TGD, homomorphism: Substitution,
                   instance: DatabaseInstance, nulls: NullFactory,
                   provenance: Optional[Provenance] = None) -> List[Fact]:
        """Fire a trigger; return the head facts that were actually new."""
        extended: Substitution = dict(homomorphism)
        for variable in tgd.existential_variables():
            extended[variable] = nulls.fresh()
        added: List[Fact] = []
        for atom in tgd.head:
            grounded = apply_to_atom(extended, atom)
            row = grounded.to_fact_row()
            if instance.add(grounded.predicate, row):
                added.append((grounded.predicate, row))
        if provenance is not None and added:
            body_facts = tuple(
                (grounded_body.predicate, grounded_body.to_fact_row())
                for grounded_body in
                (apply_to_atom(homomorphism, atom) for atom in tgd.body))
            for fact in added:
                provenance.setdefault(fact, body_facts)
        return added

    # -- negative constraints ------------------------------------------------

    def _check_constraints(self, constraints: Sequence[NegativeConstraint],
                           instance: DatabaseInstance,
                           matcher: Matcher) -> List[ConstraintViolation]:
        violations: List[ConstraintViolation] = []
        for constraint in constraints:
            for homomorphism in matcher.find_homomorphisms(
                    constraint.body, instance, comparisons=constraint.comparisons):
                witness = {
                    variable.name: term_value(apply_to_term(homomorphism, variable))
                    for variable in constraint.body_variables()
                }
                violation = ConstraintViolation(constraint, witness)
                if self.fail_fast:
                    raise InconsistencyError(
                        f"negative constraint violated: {violation}",
                        constraint=constraint, witness=witness)
                violations.append(violation)
                break  # one witness per constraint is enough for reporting
        return violations


def chase(program: DatalogProgram, mode: str = RESTRICTED,
          max_steps: int = 100_000, check_constraints: bool = True,
          fail_fast: bool = False, engine: Optional[str] = None) -> ChaseResult:
    """Convenience wrapper: run the chase with a one-off engine."""
    runner = ChaseEngine(mode=mode, max_steps=max_steps,
                         check_constraints=check_constraints, fail_fast=fail_fast,
                         engine=engine)
    return runner.run(program)
