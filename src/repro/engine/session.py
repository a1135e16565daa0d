"""Materialization sessions: chase once, answer many, update in deltas.

The paper's workload is session-shaped: one MD ontology (or assembled
quality context) is chased once, then many certain-answer queries run
against the same materialization while the underlying extensional database
receives small updates.  This module keeps that materialization alive
between calls instead of re-running the chase per call:

* :class:`MaterializedProgram` owns a chased
  :class:`~repro.relational.instance.DatabaseInstance` and supports
  **incremental EDB updates**: :meth:`~MaterializedProgram.add_facts`
  re-enters the delta-driven chase seeded only with the inserted facts;
  :meth:`~MaterializedProgram.retract_facts` deletes the retracted facts
  plus the cone of derived facts recorded against them in the chase's
  provenance, re-fires only the rules whose heads lost facts, and falls
  back to a full re-chase when provenance is ambiguous (EGD merges have
  rewritten rows, or provenance was not recorded).
* :class:`QuerySession` answers conjunctive queries over a materialized
  program, caching parsed queries and answers by query text;
  :meth:`~QuerySession.answer_many` batches a whole workload and reports
  the :class:`~repro.engine.stats.EngineStats` delta of the batch.
* Cached answers are **maintained, not recomputed**: each answered query
  keeps a :class:`MaintainedAnswers` entry — counting-based incremental
  view maintenance state mapping every answer row to the number of body
  valuations deriving it — and every update propagates its exact fact
  delta through a compiled
  :class:`~repro.engine.matching.DeltaJoinPlan`, inserting and decrementing
  answers in place.  Only updates whose delta is unknowable (EGD merges,
  full re-chases) fall back to dropping the entry, mirroring the
  materialization's own full-rechase fallback.
* Updates are **routed**: the session indexes its cached queries by body
  predicate and bound constant, so a delta fact refreshes (or drops) only
  the entries it can match — a point query on another constant is never
  joined, whatever the number of cached queries.

Every update and batch returns its own stats delta; the session objects
accumulate lifetime totals, including cache hits/misses and the
incremental-vs-full decision counters.  See ``docs/ARCHITECTURE.md`` for
the session lifecycle.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..datalog.answering import (AnswerCounts, answer_sort_key,
                                 evaluate_query_counts, sorted_rows_and_keys)
from ..datalog.chase import ChaseEngine, ChaseResult, Fact, RESTRICTED
from ..datalog.parser import parse_query
from ..datalog.program import DatalogProgram
from ..datalog.rules import ConjunctiveQuery
from ..datalog.terms import Variable, term_value
from ..datalog.unify import comparison_bindings
from ..errors import UnknownRelationError
from ..relational.instance import DatabaseInstance
from ..relational.values import Null, NullFactory
from .matching import DeltaJoinPlan, Matcher, matcher_for
from .stats import EngineStats
from .versioning import (InstanceVersion, ReadTransaction, RelationDeltas,
                         VersionStore)

AnswerTuple = Tuple[Any, ...]
Answers = Tuple[AnswerTuple, ...]
QueryLike = Union[ConjunctiveQuery, str]

INCREMENTAL = "incremental"
FULL = "full"
NOOP = "noop"


@dataclass
class UpdateResult:
    """Outcome of one :class:`MaterializedProgram` update."""

    #: ``"add"`` or ``"retract"``
    action: str
    #: ``"incremental"`` (delta re-chase), ``"full"`` (from-scratch re-chase)
    #: or ``"noop"`` (no EDB fact actually changed)
    strategy: str
    #: the EDB facts that were actually inserted / removed
    applied: List[Fact] = field(default_factory=list)
    #: predicates whose extension changed (EDB and derived); ``None`` means
    #: unknown — treat as "possibly all" (e.g. after EGD merges)
    changed_predicates: Optional[Set[str]] = None
    #: the exact instance-level fact delta of this update (EDB and derived):
    #: facts that became true / stopped being true.  ``None`` means the
    #: delta is unknown (EGD merges rewrote rows, or a full re-chase ran) —
    #: answer maintenance must fall back to re-answering.  A fact may appear
    #: in both lists (retracted from a deletion cone, then re-derived by the
    #: repair chase); counting maintenance nets such survivors out exactly.
    added_facts: Optional[List[Fact]] = None
    removed_facts: Optional[List[Fact]] = None
    #: TGD triggers fired by the maintenance chase
    steps: int = 0
    #: the work done by this update alone (an :class:`EngineStats` delta)
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def is_incremental(self) -> bool:
        return self.strategy == INCREMENTAL

    def touched(self, predicate: str) -> bool:
        """``True`` if ``predicate``'s extension may have changed."""
        return self.changed_predicates is None or \
            predicate in self.changed_predicates


class _ProvenanceLog(dict):
    """A provenance mapping that logs newly recorded facts.

    The chase records first derivations with ``setdefault``; logging the
    genuinely new keys lets the session learn an update's derived facts —
    and maintain its inverted dependents index — in O(delta) instead of
    snapshotting the whole mapping per update.
    """

    def __init__(self):
        super().__init__()
        self.added: List[Fact] = []

    def setdefault(self, key, default=None):
        if key not in self:
            self.added.append(key)
        return super().setdefault(key, default)

    def drain(self) -> List[Fact]:
        added, self.added = self.added, []
        return added


class MaintainedAnswers:
    """Support-counted answers of one cached query (counting-based IVM).

    ``counts`` maps every answer row — projected from the body valuations,
    labeled nulls included — to the number of distinct valuations deriving
    it.  An update's fact delta moves the counts by ±1 per affected
    valuation (:meth:`QuerySession._maintain_entries`); a row is an answer
    while its count is positive, so both certain answers (nulls dropped)
    and raw answers derive from the same entry without re-joining.

    Entries are immutable once installed: maintenance builds a *fresh*
    entry and swaps it in under the version store's lock, stamped with the
    version it belongs to — a reader pinned at ``version >= stamp`` may
    serve from the entry, because any later update whose delta reaches the
    query (see :class:`_RoutingIndex`) would have replaced (or dropped) it,
    and an update reaching no body atom cannot move its counts.  The
    compiled :class:`~repro.engine.matching.DeltaJoinPlan` and the query
    text ``key`` are carried across swaps so repeated updates replay the
    same hoisted pivot plans and never re-render the query, and the sorted
    answer rows are carried *patched* (:meth:`_patch_rows`): only the rows
    whose support crossed zero move, so an update never pays a full
    key-building sort over a large cached answer set.
    """

    __slots__ = ("cq", "key", "counts", "version", "plan", "_rows")

    def __init__(self, cq: ConjunctiveQuery, counts: AnswerCounts,
                 version: int, plan: Optional[DeltaJoinPlan] = None,
                 key: Optional[str] = None):
        self.cq = cq
        self.key = str(cq) if key is None else key
        self.counts = counts
        self.version = version
        self.plan = plan
        #: per flavour: (sorted answer rows, their parallel sort keys)
        self._rows: Dict[bool, Tuple[Answers, Tuple[Tuple[str, ...], ...]]] = {}

    def rows(self, allow_nulls: bool = False) -> Answers:
        """The (sorted, immutable) answer rows; memoized per flavour."""
        cached = self._rows.get(allow_nulls)
        if cached is None:
            cached = sorted_rows_and_keys(self.counts, allow_nulls)
            self._rows[allow_nulls] = cached
        return cached[0]

    def _patch_rows(self, previous: "MaintainedAnswers",
                    vanished: Set[AnswerTuple],
                    appeared: Sequence[AnswerTuple]) -> None:
        """Carry ``previous``'s sorted rows over, moved by the zero
        crossings of one maintenance pass.

        ``vanished`` rows lost their last support (deleted at their sort
        position), ``appeared`` rows gained their first (inserted at
        theirs), both found by bisecting the parallel key list.  A row in
        both keeps its old position.  Cost is two C-level list copies plus
        O(delta) binary searches — never a Python-level pass over the
        answers, let alone a full sort with per-row key building.

        ``previous`` may belong to a live session whose readers memoize
        further flavours concurrently (``rows()`` runs lock-free), so the
        flavour dict is snapshot atomically (a single C-level copy under
        the GIL) before iterating; a flavour memoized after the snapshot
        is simply recomputed on the fresh entry's first read.
        """
        both = vanished.intersection(appeared)
        moved = [(row, answer_sort_key(row), True) for row in vanished - both]
        moved += [(row, answer_sort_key(row), False) for row in appeared
                  if row not in both]
        for flavor, (rows, keys) in list(previous._rows.items()):
            if not moved:
                self._rows[flavor] = (rows, keys)
                continue
            new_rows = list(rows)
            new_keys = list(keys)
            for row, key, gone in moved:
                if not flavor and \
                        any(isinstance(value, Null) for value in row):
                    continue  # never listed among the certain answers
                at = bisect_left(new_keys, key)
                if gone:  # distinct rows may share a key: find this one
                    while at < len(new_rows) and new_rows[at] != row:
                        at += 1
                    if at == len(new_rows):
                        # listed as an equal row of other types (``1`` for
                        # ``1.0``), which sorts under another key
                        at = new_rows.index(row)
                    del new_rows[at], new_keys[at]
                else:
                    new_keys.insert(at, key)
                    new_rows.insert(at, row)
            self._rows[flavor] = (tuple(new_rows), tuple(new_keys))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MaintainedAnswers({self.key!r}, {len(self.counts)} rows, "
                f"v{self.version})")


#: the constants of one body atom past its first: ``(position, value)``
_Checks = Tuple[Tuple[int, Any], ...]


class _RoutingIndex:
    """Which cached queries an update's fact delta can reach.

    The constant tests of a Rete alpha network, applied to cached answers.
    Each filed query key sits under every predicate of its body
    (:meth:`under`) and, per body atom, once more for :meth:`reached`: an
    atom without constants under its predicate alone, any other atom
    under ``(predicate, position, value)`` of its first constant (labeled
    nulls in a query count as constants), its further constants kept as
    checks run on a hit.  A fact reaches a query iff it agrees with one of
    the query's atoms on every constant position; a query no delta fact
    reaches has no homomorphism using a delta fact, so its answers did not
    move.

    Values are found by dict lookup and checked by identity-or-equality,
    the semantics of the matchers' value indexes (``1``/``1.0``/``True``
    collide, a NaN matches only itself, nulls compare by label): a row
    value reaches a constant whenever any engine could match the two.
    The owning session mutates and reads the index under the version
    store's lock only.
    """

    def __init__(self):
        self._queries: Dict[str, ConjunctiveQuery] = {}
        #: predicate -> keys with any body atom over it
        self._under: Dict[str, Set[str]] = {}
        #: predicate -> keys with a constant-free body atom over it
        self._unbound: Dict[str, Set[str]] = {}
        #: predicate -> position -> value -> key -> one check tuple per atom
        self._bound: Dict[str, Dict[int, Dict[Any, Dict[str, List[_Checks]]]]] = {}

    @staticmethod
    def _atoms(cq: ConjunctiveQuery):
        for atom in cq.body:
            yield atom.predicate, [(position, term_value(term))
                                   for position, term in enumerate(atom.terms)
                                   if not isinstance(term, Variable)]

    def __iter__(self):
        return iter(self._queries)

    def add(self, key: str, cq: ConjunctiveQuery) -> None:
        """File ``cq`` under ``key`` (a no-op when ``key`` is filed)."""
        if key in self._queries:
            return
        self._queries[key] = cq
        for predicate, constants in self._atoms(cq):
            self._under.setdefault(predicate, set()).add(key)
            if not constants:
                self._unbound.setdefault(predicate, set()).add(key)
                continue
            (position, value), checks = constants[0], tuple(constants[1:])
            self._bound.setdefault(predicate, {}).setdefault(position, {}) \
                .setdefault(value, {}).setdefault(key, []).append(checks)

    def discard(self, key: str) -> None:
        cq = self._queries.pop(key, None)
        if cq is None:
            return
        for predicate, constants in self._atoms(cq):
            _discard_key(self._under, predicate, key)
            if not constants:
                _discard_key(self._unbound, predicate, key)
                continue
            position, value = constants[0]
            positions = self._bound.get(predicate, {})
            values = positions.get(position, {})
            slot = values.get(value)
            if slot is None:  # an earlier atom of the query emptied it
                continue
            slot.pop(key, None)
            if not slot:
                del values[value]
                if not values:
                    del positions[position]
                    if not positions:
                        del self._bound[predicate]

    def clear(self) -> None:
        for index in (self._queries, self._under, self._unbound, self._bound):
            index.clear()

    def under(self, predicates: Iterable[str]) -> Set[str]:
        """Keys with a body atom over any of ``predicates``."""
        under = self._under
        return set().union(*[under[predicate] for predicate in predicates
                             if predicate in under])

    def reached(self, facts: Iterable[Fact]) -> Set[str]:
        """Keys with a body atom some fact of ``facts`` agrees with on
        every constant position."""
        hit: Set[str] = set()
        unbound, bound = self._unbound, self._bound
        for predicate, row in facts:
            keys = unbound.get(predicate)
            if keys:
                hit |= keys
            positions = bound.get(predicate)
            if positions is None:
                continue
            width = len(row)
            for position, values in positions.items():
                slot = values.get(row[position]) if position < width else None
                if not slot:
                    continue
                for key, atoms in slot.items():
                    if key not in hit and any(
                            all(at < width and (row[at] is value
                                                or row[at] == value)
                                for at, value in checks)
                            for checks in atoms):
                        hit.add(key)
        return hit


def _discard_key(index: Dict[str, Set[str]], predicate: str,
                 key: str) -> None:
    keys = index.get(predicate)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del index[predicate]


@dataclass
class BatchAnswers:
    """Answers of one :meth:`QuerySession.answer_many` batch."""

    #: one (immutable) answer tuple per query, in the order given
    answers: List[Answers]
    #: the matching work done by this batch alone
    stats: EngineStats = field(default_factory=EngineStats)

    def __iter__(self):
        return iter(self.answers)

    def __len__(self) -> int:
        return len(self.answers)


class MaterializedProgram:
    """A Datalog± program kept chased across queries and EDB updates.

    Parameters
    ----------
    program:
        The program to materialize.  Its rules are shared; its database is
        copied (twice: the pristine EDB for re-chases, and the instance the
        chase materializes into).
    engine:
        Matching engine (``"indexed"``/``"naive"``/``"columnar"``;
        ``None`` = process default).
    max_steps:
        Trigger budget per chase/maintenance run.
    record_provenance:
        Record, for every derived fact, the grounded body facts of the
        trigger that first derived it.  Needed for incremental retraction;
        one-shot wrappers switch it off to keep their cost unchanged.

    The session always runs the **restricted** chase (the oblivious chase
    cannot be resumed without its fired-trigger memory) and never checks
    negative constraints — check them on :attr:`result` explicitly if
    needed.
    """

    def __init__(self, program: DatalogProgram, engine: Optional[str] = None,
                 max_steps: int = 100_000, null_prefix: str = "n",
                 record_provenance: bool = True):
        self._chaser = ChaseEngine(mode=RESTRICTED, max_steps=max_steps,
                                   check_constraints=False,
                                   null_prefix=null_prefix, engine=engine)
        self.engine = self._chaser.engine
        self.record_provenance = record_provenance
        self._tgds = list(program.tgds)
        self._egds = list(program.egds)
        self._constraints = list(program.constraints)
        self._edb = program.database.copy()
        #: bumped on every effective update; session caches key on it
        self.version = 0
        #: lifetime work counters (materialization + every update)
        self.stats = EngineStats(engine=self.engine)
        self._queries: Optional["QuerySession"] = None
        self._sessions: List["QuerySession"] = []
        #: maintained answer state restored from a snapshot, adopted by the
        #: first query session created over this program (then cleared)
        self._restored_maintained: Optional[
            List[Tuple[ConjunctiveQuery, AnswerCounts]]] = None
        #: the ``meta`` mapping of the snapshot this program was restored
        #: from (``{}`` for a freshly chased program) — the serving layer
        #: stores the checkpoint's write-ahead-log position here
        self.snapshot_meta: Dict[str, Any] = {}
        #: serializes writers (updates); readers never take this lock
        self._write_lock = threading.RLock()
        #: published instance versions readers pin (MVCC; see versioning.py)
        self.versions = VersionStore()
        self.result: ChaseResult = self._materialize()
        self.stats.merge(self.result.stats)
        self.result.stats = self.stats
        self.versions.publish(self.version, self.instance, changed=None,
                              stats=self.stats)

    # -- state --------------------------------------------------------------

    @property
    def instance(self) -> DatabaseInstance:
        """The chased (materialized) database instance."""
        return self._program.database

    @property
    def edb(self) -> DatabaseInstance:
        """The pristine extensional database the materialization started from."""
        return self._edb

    def edb_program(self) -> DatalogProgram:
        """A program view over the *extensional* database (for top-down solvers)."""
        return DatalogProgram(tgds=self._tgds, egds=self._egds,
                              constraints=self._constraints, database=self._edb)

    def _materialize(self) -> ChaseResult:
        self._program = DatalogProgram(tgds=self._tgds, egds=self._egds,
                                       constraints=self._constraints,
                                       database=self._edb.copy())
        self._nulls = NullFactory(self._chaser.null_prefix)
        provenance = _ProvenanceLog() if self.record_provenance else None
        result = self._chaser.run(self._program, copy=False, nulls=self._nulls,
                                  provenance=provenance)
        self._provenance: Optional[_ProvenanceLog] = provenance
        self._ambiguous = result.egd_merges > 0
        #: inverted provenance: body fact -> derived facts recorded against it
        self._dependents: Dict[Fact, List[Fact]] = {}
        if provenance is not None:
            for derived in provenance.drain():
                for body_fact in provenance[derived]:
                    self._dependents.setdefault(body_fact, []).append(derived)
        return result

    # -- updates ------------------------------------------------------------

    def add_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        """Insert EDB facts and restore the fixpoint incrementally.

        The delta-driven chase is re-entered seeded only with the facts that
        were actually new; rules whose bodies cannot see them are skipped.
        Returns the facts applied, the predicates whose extension changed,
        and the stats delta of the maintenance run.  Writers are serialized
        on the program's write lock; concurrent readers keep answering
        against the previously published version throughout.
        """
        with self._write_lock:
            return self._add_facts(facts)

    def _add_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        applied: List[Fact] = []
        for predicate, row in facts:
            row = tuple(row)
            if not self._edb.has_relation(predicate):
                if not self.instance.has_relation(predicate):
                    # An unknown predicate is almost always a typo; refusing
                    # matches DatabaseInstance.add instead of silently
                    # declaring a relation no rule can ever see.
                    raise UnknownRelationError(
                        f"unknown relation {predicate!r}; known relations: "
                        f"{sorted(r.schema.name for r in self.instance)}")
                # An intensional predicate receiving its first extensional
                # fact: declare it in the EDB with the program's schema.
                self._edb.declare(
                    predicate,
                    list(self.instance.relation(predicate).schema.attributes))
            if self._edb.add(predicate, row):
                applied.append((predicate, row))
        if not applied:
            return UpdateResult(action="add", strategy=NOOP,
                                changed_predicates=set(),
                                stats=EngineStats(engine=self.engine))
        self.version += 1

        instance = self.instance
        seed: List[Fact] = []
        for fact in applied:
            predicate, row = fact
            if instance.add(predicate, row):
                seed.append(fact)
            elif self._provenance is not None:
                # The fact existed as a derived fact; it is extensional now
                # and must survive retraction of its former support.
                self._provenance.pop(fact, None)

        result = self._chaser.continue_chase(self._program, seed, self._nulls,
                                             self._provenance)
        # ``seed`` (not ``applied``) drives invalidation and maintenance: an
        # inserted fact that already existed as a derived fact changes the
        # EDB but not the materialized instance, so cached answers for it
        # stay valid.
        return self._finish_update("add", INCREMENTAL, applied, result,
                                   added_seed=seed, removed=[])

    def retract_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        """Remove EDB facts and restore the fixpoint.

        The incremental path deletes the retracted facts plus the **cone**
        of derived facts whose recorded derivation depends on them, then
        re-evaluates only the rules whose heads mention a deleted predicate
        (the restricted chase had skipped their triggers while the heads
        were satisfied) and lets a delta-driven continuation propagate.
        When provenance is ambiguous — EGD merges rewrote rows since the
        last full chase, or provenance was not recorded — the session falls
        back to a full re-chase of the updated EDB.
        """
        with self._write_lock:
            return self._retract_facts(facts)

    def _retract_facts(self, facts: Iterable[Fact]) -> UpdateResult:
        applied: List[Fact] = []
        for predicate, row in facts:
            row = tuple(row)
            if self._edb.has_relation(predicate) and \
                    self._edb.relation(predicate).discard(row):
                applied.append((predicate, row))
        if not applied:
            return UpdateResult(action="retract", strategy=NOOP,
                                changed_predicates=set(),
                                stats=EngineStats(engine=self.engine))
        self.version += 1

        if self._provenance is None or self._ambiguous:
            return self._full_update("retract", applied)

        # The deletion cone over the maintained inverted index.  Entries may
        # point at facts whose provenance was popped by an earlier update
        # (facts that became extensional, earlier cones); filtering against
        # the live provenance keeps the traversal exact.
        cone: Set[Fact] = set()
        frontier: List[Fact] = list(applied)
        while frontier:
            fact = frontier.pop()
            for dependent in self._dependents.pop(fact, ()):
                if dependent not in cone and dependent in self._provenance:
                    cone.add(dependent)
                    frontier.append(dependent)

        instance = self.instance
        removed: List[Fact] = []
        for predicate, row in applied:
            if instance.has_relation(predicate) and \
                    instance.relation(predicate).discard(row):
                removed.append((predicate, row))
        for fact in cone:
            predicate, row = fact
            instance.relation(predicate).discard(row)
            self._provenance.pop(fact, None)
            removed.append(fact)

        result = self._chaser.repair_after_deletion(
            self._program, list(applied) + sorted(cone, key=str), self._nulls,
            self._provenance)
        update = self._finish_update("retract", INCREMENTAL, applied, result,
                                     added_seed=[], removed=removed)
        return update

    def _finish_update(self, action: str, strategy: str, applied: List[Fact],
                       result: ChaseResult, added_seed: List[Fact],
                       removed: List[Fact]) -> UpdateResult:
        """Close an incremental update: derive its exact instance delta.

        ``added_seed`` are the facts the update itself inserted into the
        instance, ``removed`` the facts it discarded (retractions plus their
        provenance cone); the facts the maintenance chase derived are
        drained from the provenance log on top.  When EGD merges ran (or no
        provenance is recorded) the delta is unreconstructable and reported
        as ``None`` — sessions then drop cached answers instead of
        maintaining them.
        """
        if result.egd_merges:
            self._ambiguous = True
        derived = [] if self._provenance is None else self._provenance.drain()
        for fact in derived:  # keep the inverted index in O(delta) step
            for body_fact in self._provenance[fact]:
                self._dependents.setdefault(body_fact, []).append(fact)
        changed: Optional[Set[str]]
        added_facts: Optional[List[Fact]]
        removed_facts: Optional[List[Fact]]
        if result.egd_merges or self._provenance is None:
            changed = None  # merges rewrite arbitrary rows: treat as "all"
            added_facts = None
            removed_facts = None
        else:
            added_facts = added_seed + derived
            removed_facts = removed
            changed = {predicate for predicate, _ in added_facts}
            changed |= {predicate for predicate, _ in removed_facts}
        update_stats = result.stats
        update_stats.incremental_updates += 1
        self.result.steps += result.steps
        self.result.rounds += result.rounds
        self.result.egd_merges += result.egd_merges
        update = UpdateResult(action=action, strategy=strategy, applied=applied,
                              changed_predicates=changed, steps=result.steps,
                              stats=update_stats, added_facts=added_facts,
                              removed_facts=removed_facts)
        self._publish(update)
        self.stats.merge(update_stats)  # after: publish counts into it
        return update

    def _full_update(self, action: str, applied: List[Fact]) -> UpdateResult:
        result = self._materialize()
        update_stats = result.stats
        update_stats.full_rechases += 1
        self.result = result
        self.result.stats = self.stats
        update = UpdateResult(action=action, strategy=FULL, applied=applied,
                              changed_predicates=None, steps=result.steps,
                              stats=update_stats)
        self._publish(update)
        self.stats.merge(update_stats)  # after: publish counts into it
        return update

    # -- persistence --------------------------------------------------------

    def save(self, path: Union[str, Path],
             meta: Optional[Dict[str, Any]] = None) -> Path:
        """Write a durable snapshot of this materialization to ``path``.

        The snapshot (see :mod:`repro.engine.snapshot`) captures the EDB,
        the chased instance, the labeled-null state, the provenance graph
        and the lifetime stats — everything needed to :meth:`load` a fully
        live session in another process without re-chasing.  ``meta`` is an
        optional JSON-serializable mapping stored with the snapshot and
        exposed as :attr:`snapshot_meta` after a restore; the save runs
        under the write lock, so the mapping describes a
        checkpoint-consistent cut (no update can interleave between
        computing ``meta`` and serializing the state it describes when the
        caller holds the same lock — see the serving daemon's checkpoint).
        """
        from .snapshot import save_program
        with self._write_lock:
            return save_program(self, path, meta=meta)

    @classmethod
    def load(cls, path: Union[str, Path], program: Optional[DatalogProgram] = None,
             engine: Optional[str] = None) -> "MaterializedProgram":
        """Restore a :meth:`save`-d materialization from ``path``.

        When ``program`` is supplied, its rules and extensional facts are
        verified against the snapshot (raising
        :class:`~repro.errors.SnapshotMismatchError` on a stale snapshot);
        otherwise the rules are reconstructed from the snapshot itself.
        Restoring skips the chase entirely — see benchmark E13.
        """
        from .snapshot import load_program
        return load_program(path, program=program, engine=engine)

    def _publish(self, update: UpdateResult) -> None:
        """Maintain (or drop) session answers and publish the new version.

        The expensive work — the relation copies a publication still needs
        and the delta joins that maintain cached answers — runs *before*
        the store lock is taken (the single writer holds the program's
        write lock, so the working instance cannot move underneath).  Under
        the lock, every session atomically swaps in its maintained answers
        (or drops what could not be maintained) together with the
        publication of the new version, so a reader can never pin the new
        version while a cache still serves the old version's answers, nor
        store stale answers after the swap — the reader-side counterpart is
        ``QuerySession._entry_at``.  Deletion deltas are joined against
        the *previous published version* (where the removed facts still
        exist) — which is why that join runs before ``publish`` advances
        the previous version's relations in place by the update's fact
        delta; insertion deltas against the post-update working instance.
        """
        if self._restored_maintained:
            # Snapshot-restored answer counts nobody has adopted yet cannot
            # be maintained through this update; keep only the entries the
            # update provably did not touch, so a session created later
            # never adopts counts that predate an unmaintained change.
            changed = update.changed_predicates
            if changed is None:
                self._restored_maintained = None
            elif changed:
                kept = [(cq, counts)
                        for cq, counts in self._restored_maintained
                        if not (cq.body_predicates() & changed)]
                self._restored_maintained = kept or None
        deltas: Optional[RelationDeltas] = None
        if update.added_facts is not None and \
                update.removed_facts is not None:
            deltas = {}
            for predicate, row in update.removed_facts:
                deltas.setdefault(predicate, ([], []))[0].append(row)
            for predicate, row in update.added_facts:
                deltas.setdefault(predicate, ([], []))[1].append(row)
        copies = self.versions.prepare(self.instance,
                                       update.changed_predicates, deltas)
        previous = self.versions.latest_instance()  # unpinned: writer-only
        sessions = list(self._sessions)
        maintained = [(session,
                       session._maintain_entries(update, previous,
                                                 self.instance, self.version))
                      for session in sessions]
        with self.versions.lock:
            for session, refreshed in maintained:
                session._note_update(update, refreshed)
            self.versions.publish(self.version, self.instance,
                                  update.changed_predicates, copies=copies,
                                  deltas=deltas, stats=update.stats)

    # -- answering ----------------------------------------------------------

    def queries(self) -> "QuerySession":
        """The default query session over this materialization (lazy).

        Double-checked under the write lock: two concurrent first readers
        must not each build (and register) a session — the loser would
        stay in ``_sessions`` and be maintained on every update forever.
        """
        if self._queries is None:
            with self._write_lock:
                if self._queries is None:
                    self._queries = QuerySession(self)
        return self._queries

    def certain_answers(self, query: QueryLike) -> Answers:
        """Certain answers of ``query`` over the materialized instance."""
        return self.queries().answers(query)

    def holds(self, query: QueryLike) -> bool:
        """Boolean certain answer of ``query``."""
        return self.queries().holds(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MaterializedProgram({len(self._tgds)} TGDs, "
                f"{self.instance.total_tuples()} facts, "
                f"version={self.version}, engine={self.engine!r})")


class QuerySession:
    """Answer many queries over one materialization, caching the plumbing.

    Two caches, both keyed by query text:

    * **parsed queries** — parse once per distinct query;
    * **maintained answers** — one :class:`MaintainedAnswers` entry per
      answered query: support counts seeded by the first read and updated
      *in place* from every update's fact delta (the owning
      :class:`MaterializedProgram` drives maintenance through
      ``_maintain_entries``/``_note_update``), so a cache hit costs one
      dictionary lookup and re-answering happens only when an update was
      too ambiguous to maintain (EGD merges, full re-chases) — tracked by
      the ``answers_maintained``/``maintenance_fallbacks`` stats counters.

    An update refreshes or drops only the entries its fact delta can
    reach, found through a routing index over the cached queries' body
    predicates and bound constants (:class:`_RoutingIndex`).  An update
    whose delta is unknown falls back to dropping every entry under a
    changed predicate, and one with unknown impact (EGD merges) drops
    everything.
    """

    def __init__(self, materialized: MaterializedProgram):
        self.materialized = materialized
        self.engine = materialized.engine
        #: lifetime matching work + cache counters of this session
        self.stats = EngineStats(engine=self.engine)
        self._matcher: Matcher = matcher_for(self.engine, self.stats)
        self._parsed: Dict[str, ConjunctiveQuery] = {}
        #: maintained support counts per query text: an entry is valid for
        #: every reader at version >= its stamp, because the owning program
        #: would have replaced (or dropped) it had a later update's delta
        #: reached the query
        self._maintained: Dict[str, MaintainedAnswers] = {}
        #: routes update deltas to the query texts of ``_maintained``; both
        #: move together, under the version store's lock
        self._routes = _RoutingIndex()
        self._ws_solver = None
        self._ws_version: Optional[Tuple[int, Optional[int]]] = None
        materialized._sessions.append(self)
        self._adopt_restored()

    def _adopt_restored(self) -> None:
        """Adopt maintained answers restored from a snapshot (first session).

        A snapshot persists the support counts of the saved session's
        maintained queries; the first query session created over the
        restored program installs them, stamped with the restored version,
        so answering (and maintenance) continues without a single re-join.
        """
        restored = self.materialized._restored_maintained
        if not restored:
            return
        self.materialized._restored_maintained = None
        version = self.materialized.version
        with self.materialized.versions.lock:
            for cq, counts in restored:
                entry = MaintainedAnswers(cq, counts, version)
                self._maintained[entry.key] = entry
                self._routes.add(entry.key, cq)
                self._parsed.setdefault(entry.key, cq)

    # -- caches -------------------------------------------------------------

    def query(self, query: QueryLike) -> ConjunctiveQuery:
        """Parse ``query`` (cached by source text)."""
        if isinstance(query, ConjunctiveQuery):
            return query
        cached = self._parsed.get(query)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        parsed = parse_query(query)
        self._parsed[query] = parsed
        return parsed

    def _maintain_entries(self, update: UpdateResult,
                          previous: DatabaseInstance,
                          working: DatabaseInstance,
                          version: int) -> List[MaintainedAnswers]:
        """Propagate ``update``'s fact delta through the maintained counts.

        Runs on the writer thread *before* the store lock is taken — the
        delta joins must not stall readers; ``_note_update`` installs the
        returned fresh entries under the lock, atomically with the
        publication of ``version``.  Only the entries the delta reaches
        are joined (the routing index is read under the lock for a moment,
        since readers file new entries in it); an entry under a changed
        predicate that no delta fact reaches keeps its counts and is
        counted in ``stats.answers_unreached``.  Counting maintenance:
        homomorphisms lost are enumerated by pivoting the removed facts
        against ``previous`` (the last published version, where they still
        exist), homomorphisms gained by pivoting the added facts against
        ``working`` (the post-update instance); each one moves its
        projected answer row's support count by ±1.  Facts retracted and
        re-derived within one update net out exactly.  An update whose
        delta is unknown (EGD merges, no provenance) cannot be maintained:
        every entry under a changed predicate is left for ``_note_update``
        to drop, and each fallback is counted in
        ``stats.maintenance_fallbacks``.
        """
        if not self._maintained:
            return []
        changed = update.changed_predicates
        if changed is not None and not changed:
            return []
        with self.materialized.versions.lock:
            if changed is None:
                self.stats.maintenance_fallbacks += len(self._maintained)
                return []
            under = self._maintained.keys() & self._routes.under(changed)
            if update.added_facts is None or update.removed_facts is None:
                self.stats.maintenance_fallbacks += len(under)
                return []
            reached = self._routes.reached(
                chain(update.removed_facts, update.added_facts))
            entries = [self._maintained[key] for key in under & reached]
        self.stats.answers_unreached += len(under) - len(entries)
        refreshed: List[MaintainedAnswers] = []
        for entry in entries:
            cq = entry.cq
            plan = entry.plan
            if plan is None:
                plan = DeltaJoinPlan(self._matcher, cq.body,
                                     variables=cq.body_variables(),
                                     comparisons=cq.comparisons)
            counts = dict(entry.counts)
            #: rows whose support crossed zero this pass (drives the sorted
            #: row patching — rows that merely changed support don't move)
            vanished: Set[AnswerTuple] = set()
            appeared: Dict[AnswerTuple, None] = {}
            consistent = True
            # Bulk ± per answer row: projected_counts deduplicates the delta
            # homomorphisms and pre-aggregates them per projection (the
            # columnar engine computes this without materializing a single
            # substitution; other engines loop internally).
            for row, lost in plan.projected_counts(
                    previous, update.removed_facts,
                    cq.answer_variables).items():
                support = counts.get(row, 0) - lost
                if support < 0:
                    consistent = False  # counts out of sync: never serve them
                    break
                if support:
                    counts[row] = support
                else:
                    del counts[row]
                    vanished.add(row)
            if not consistent:
                self.stats.maintenance_fallbacks += 1
                continue
            for row, gained in plan.projected_counts(
                    working, update.added_facts,
                    cq.answer_variables).items():
                support = counts.get(row, 0)
                if support == 0:
                    appeared[row] = None
                counts[row] = support + gained
            fresh = MaintainedAnswers(cq, counts, version, plan, entry.key)
            fresh._patch_rows(entry, vanished, list(appeared))
            fresh.rows()  # warm the certain flavour outside the lock
            refreshed.append(fresh)
            self.stats.answers_maintained += 1
        return refreshed

    def _note_update(self, update: UpdateResult,
                     refreshed: Sequence[MaintainedAnswers] = ()) -> None:
        """Swap in maintained answers; drop what could not be kept.

        Called under the version store's lock, atomically with the
        publication of the new version.  Every entry the update's delta
        reaches is dropped — re-routed here, under the lock, so an entry a
        reader filed after ``_maintain_entries`` ran is caught too — then
        the entries ``_maintain_entries`` refreshed are installed in their
        place.  A delta that is unknown drops every entry under a changed
        predicate, unknown impact (``changed_predicates is None``)
        everything.  Updates whose delta is empty (``changed_predicates ==
        set()``, e.g. inserting a fact that already existed as a derived
        fact) touch nothing and drop nothing — cached answers keep hitting.
        """
        changed = update.changed_predicates
        if changed is not None and not changed:
            return
        if changed is None:
            dropped = set(self._routes)
        elif update.added_facts is None or update.removed_facts is None:
            dropped = self._routes.under(changed)
        else:
            dropped = self._routes.reached(
                chain(update.removed_facts, update.added_facts))
        for key in dropped:
            self._maintained.pop(key, None)
        for entry in refreshed:
            self._maintained[entry.key] = entry
            self._routes.add(entry.key, entry.cq)
        for key in dropped:
            if key not in self._maintained:
                self._routes.discard(key)

    # -- answering ----------------------------------------------------------

    def read(self, version: Optional[int] = None) -> ReadTransaction:
        """Open a read transaction pinning one published version.

        Every ``answers``/``holds`` call on the transaction observes exactly
        the pinned version, regardless of concurrent updates; the pin also
        shields the version from garbage collection until the transaction
        closes.  ``version=None`` pins the latest published version.
        """
        return ReadTransaction(self.materialized.versions, session=self,
                               version=version)

    def answers(self, query: QueryLike,
                allow_nulls: bool = False) -> Answers:
        """Answers of ``query`` over the latest published version.

        ``allow_nulls=False`` (the default) is the certain-answer
        semantics: tuples containing labeled nulls are dropped.  The result
        is an **immutable tuple**, shared across cache hits — a hit costs
        one dictionary lookup, never a copy of the answer set.  Each call
        is its own (single-read) transaction; hold an explicit
        :meth:`read` transaction to keep several reads on one version.
        """
        with self.read() as transaction:
            return transaction.answers(query, allow_nulls=allow_nulls)

    def _entry_at(self, pinned: InstanceVersion, query: QueryLike,
                  allow_nulls: bool) -> MaintainedAnswers:
        """The maintained entry of ``query`` valid at ``pinned``.

        A miss answers the query over the pinned instance and seeds a fresh
        entry, its ``allow_nulls`` rows sorted before the store lock is
        taken.  The entry is filed only when this read still sees the
        latest version; the check-and-store runs under the store lock,
        which the writer holds across answer maintenance + publication, so
        a reader of an old version can never re-introduce answers a newer
        update replaced.
        """
        cq = self.query(query)
        key = str(cq)
        entry = self._maintained.get(key)
        if entry is not None and entry.version <= pinned.version:
            self.stats.cache_hits += 1
            return entry
        self.stats.cache_misses += 1
        instance = pinned.instance
        plan = self._matcher.plan(cq.body, instance,
                                  bound=comparison_bindings(cq.comparisons))
        counts = evaluate_query_counts(cq, instance, matcher=self._matcher,
                                       plan=plan)
        fresh = MaintainedAnswers(cq, counts, pinned.version, key=key)
        fresh.rows(allow_nulls)
        store = self.materialized.versions
        with store.lock:
            if store.latest().version == pinned.version:
                existing = self._maintained.get(key)
                if existing is None or existing.version <= pinned.version:
                    self._maintained[key] = fresh
                    self._routes.add(key, cq)
        return fresh

    def _answers_at(self, pinned: InstanceVersion, query: QueryLike,
                    allow_nulls: bool = False) -> Answers:
        return self._entry_at(pinned, query, allow_nulls).rows(allow_nulls)

    def holds(self, query: QueryLike) -> bool:
        """``True`` iff the (boolean) query body matches the materialization."""
        with self.read() as transaction:
            return transaction.holds(query)

    def _holds_at(self, pinned: InstanceVersion, query: QueryLike) -> bool:
        """Boolean reads ride the counted maintenance path.

        ``holds`` is true iff the query body has at least one homomorphism,
        i.e. iff the maintained support counts are non-empty (nulls
        included) — so a boolean read is served from the same
        :class:`MaintainedAnswers` entry as ``answers``, and updates move
        it by delta instead of re-running the join.
        """
        return bool(self._entry_at(pinned, query, allow_nulls=True).counts)

    def answer_many(self, queries: Sequence[QueryLike],
                    allow_nulls: bool = False) -> BatchAnswers:
        """Answer a whole batch; the result carries the batch's stats delta."""
        before = self.stats.snapshot()
        answers = [self.answers(query, allow_nulls=allow_nulls)
                   for query in queries]
        return BatchAnswers(answers=answers, stats=self.stats.delta(before))

    def ws_answers(self, query: QueryLike,
                   max_depth: Optional[int] = None) -> Answers:
        """Answers via the deterministic weakly-sticky solver (Section IV).

        The solver (with its rules-by-head index) is cached and rebuilt only
        when the EDB version changes.
        """
        from ..datalog.ws_qa import DeterministicWSQAns
        key = (self.materialized.version, max_depth)
        if self._ws_solver is None or self._ws_version != key:
            self.stats.cache_misses += 1
            self._ws_solver = DeterministicWSQAns(
                self.materialized.edb_program(), max_depth=max_depth,
                engine=self.engine)
            self._ws_version = key
        else:
            self.stats.cache_hits += 1
        return self._ws_solver.answers(self.query(query))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QuerySession({self.materialized!r}, "
                f"{len(self._parsed)} parsed, {len(self._maintained)} answered)")
