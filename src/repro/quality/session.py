"""Quality-assessment sessions: keep quality versions materialized.

A :class:`QualitySession` is the session-shaped counterpart of the one-shot
:class:`~repro.quality.context.Context` methods: the assembled context
program is chased **once** into a
:class:`~repro.engine.session.MaterializedProgram`, and then

* quality versions are extracted only on request, cached, and re-extracted
  only for relations an update actually touched;
* the assessment keeps ``|R ∩ R_q|`` per assessed relation, moved by every
  update's fact delta, so :meth:`~QualitySession.assess` reads counters
  instead of comparing tuple sets;
* quality (clean) query answering caches the ``Q -> Q^q`` rewriting per
  query and evaluates through a :class:`~repro.engine.session.QuerySession`,
  so quality-version queries ride the same counting-based answer
  maintenance as plain queries: an update moves the cached quality answers
  by its fact delta instead of re-running the rewritten join;
* :meth:`add_facts` / :meth:`retract_facts` apply an update to the instance
  under assessment (or to any other EDB relation of the context program —
  external sources, dimensional data) and maintain the materialization
  incrementally through the delta-driven chase.

Every update returns the underlying
:class:`~repro.engine.session.UpdateResult`, whose ``changed_predicates``
and fact delta drive the version tracking and the counts.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Set, Union

from ..datalog.chase import ChaseResult
from ..engine.session import (AnswerTuple, BatchAnswers, MaterializedProgram,
                              QueryLike, QuerySession, UpdateResult)
from ..engine.stats import EngineStats
from ..engine.versioning import ReadTransaction
from ..relational.instance import DatabaseInstance, Relation
from .assessment import DatabaseAssessment, RelationAssessment
from .cleaning import rewrite_query_to_quality
from .context import Context


class QualitySession:
    """A context materialized against one instance, updatable in deltas."""

    def __init__(self, context: Context, instance: DatabaseInstance,
                 engine: Optional[str] = None, max_steps: int = 100_000,
                 record_provenance: bool = True):
        self.context = context
        #: private copy of the instance under assessment, kept in sync with
        #: the materialization across updates
        self.instance = instance.copy()
        self.materialized = MaterializedProgram(
            context.assemble(self.instance), engine=engine, max_steps=max_steps,
            record_provenance=record_provenance)
        self._init_caches()

    def _init_caches(self) -> None:
        """Caches and counts, shared by construction and :meth:`load`."""
        self.query_session = QuerySession(self.materialized)
        #: cache counters of this session's quality-layer caches (the chase
        #: and matching work is counted by ``materialized.stats``)
        self.stats = EngineStats(engine=self.materialized.engine)
        self._rewritten: Dict[str, object] = {}
        self._versions: Dict[str, Relation] = {}
        self._dirty_versions: Set[str] = set(self.context.quality_versions)
        #: assessed relation -> ``|R ∩ R_q|`` at the latest version; ``None``
        #: until the first :meth:`assess` and after an unknown delta
        self._kept: Optional[Dict[str, int]] = None

    # -- materialization state ----------------------------------------------

    def chase_result(self) -> ChaseResult:
        """The live chase result (for legacy ``chase_result=`` parameters)."""
        return self.materialized.result

    def read(self, version: Optional[int] = None) -> ReadTransaction:
        """A read transaction pinning one published materialization version.

        Quality-version extraction and clean query answering both run
        against published versions, so readers holding a transaction keep a
        consistent view while updates publish newer versions.
        """
        return self.query_session.read(version)

    def quality_version(self, relation: str) -> Relation:
        """The (cached) quality version of one assessed relation."""
        if relation in self._dirty_versions or relation not in self._versions:
            self.stats.cache_misses += 1
            # Extract from the latest *published* version, not the working
            # instance a concurrent update may be mutating — and pinned, so
            # the next publication cannot advance it in place meanwhile.
            with self.read() as transaction:
                self._versions[relation] = \
                    self.context.materialize_quality_version(
                        transaction.instance, self.instance, relation)
            self._dirty_versions.discard(relation)
        else:
            self.stats.cache_hits += 1
        return self._versions[relation]

    def quality_versions(self) -> Dict[str, Relation]:
        """Every declared quality version (re-extracting only stale ones)."""
        return {relation: self.quality_version(relation)
                for relation in sorted(self.context.quality_versions)}

    # -- assessment ---------------------------------------------------------

    def assess(self) -> DatabaseAssessment:
        """Assess every relation from counters, extracting no quality version:
        ``kept`` is counted by probing ``R`` with each row of the published
        ``R_q`` once, then moved by delta (:meth:`_mark_dirty`); under the
        write lock, so the counts and the pinned version always agree."""
        with self.materialized._write_lock, self.read() as transaction:
            if self._kept is None:
                self._kept = {
                    relation: sum(map(
                        self.instance.relation(relation).__contains__,
                        self.context.chased_quality_relation(
                            transaction.instance, self.instance, relation)))
                    for relation in sorted(self.context.quality_versions)}
                self.stats.cache_misses += len(self._kept)
            else:
                self.stats.cache_hits += len(self._kept)
            assessment = DatabaseAssessment()
            for relation, kept in self._kept.items():
                total = len(self.instance.relation(relation))
                quality = len(transaction.instance.relation(
                    self.context.quality_relation_name(relation)))
                assessment.add(RelationAssessment(relation, total, quality,
                                                  kept, quality - kept))
        return assessment

    # -- clean query answering ----------------------------------------------

    def quality_answers(self, query: QueryLike) -> Sequence[AnswerTuple]:
        """Quality answers of ``query`` (rewriting cached per query text).

        Answers are an immutable tuple served from the underlying query
        session's maintained cache; updates move them by delta rather than
        dropping them (see :mod:`repro.engine.session`).
        """
        key = query if isinstance(query, str) else str(query)
        rewritten = self._rewritten.get(key)
        if rewritten is None:
            self.stats.cache_misses += 1
            rewritten = rewrite_query_to_quality(query, self.context)
            self._rewritten[key] = rewritten
        else:
            self.stats.cache_hits += 1
        return self.query_session.answers(rewritten)

    def answer_many(self, queries: Sequence[QueryLike]) -> BatchAnswers:
        """Quality answers for a whole batch, with the batch's stats delta."""
        before = self.query_session.stats.snapshot()
        answers = [self.quality_answers(query) for query in queries]
        return BatchAnswers(answers=answers,
                            stats=self.query_session.stats.delta(before))

    # -- persistence ----------------------------------------------------------

    def save(self, path: Union[str, Path],
             meta: Optional[Dict] = None) -> Path:
        """Snapshot the materialized context *and* the instance under
        assessment to ``path`` (one file, restorable with :meth:`load`).

        ``meta`` rides along in the snapshot payload exactly as for
        :meth:`MaterializedProgram.save` — the serving daemon records its
        write-ahead-log position there."""
        from ..engine.snapshot import save_program
        with self.materialized._write_lock:  # never serialize mid-update
            return save_program(self.materialized, path,
                                extras={"assessment": self.instance},
                                meta=meta)

    @classmethod
    def load(cls, context: Context, path: Union[str, Path],
             engine: Optional[str] = None) -> "QualitySession":
        """Restore a :meth:`save`-d quality session without re-chasing.

        The context is re-assembled against the persisted instance under
        assessment and verified against the snapshot's program hash, so a
        session restored against a changed context specification is
        rejected (:class:`~repro.errors.SnapshotMismatchError`) instead of
        silently assessing with stale rules.
        """
        from ..engine.snapshot import load_extras, load_program, read_document
        from ..errors import SnapshotFormatError
        document = read_document(path)
        extras = load_extras(path, document=document)
        if "assessment" not in extras:
            raise SnapshotFormatError(
                f"snapshot {path} has no instance under assessment; it was "
                "saved by MaterializedProgram.save, not QualitySession.save "
                "— restore it with MaterializedProgram.load instead")
        instance = extras["assessment"]
        program = context.assemble(instance)
        # check_data=False: the session may have absorbed updates to *any*
        # EDB relation (external sources, dimensional data), so its
        # persisted EDB legitimately diverges from the freshly assembled
        # context data — the snapshot is the authority for the data, the
        # program hash still rejects a changed context specification.
        materialized = load_program(path, program=program, engine=engine,
                                    document=document, check_data=False)
        session = cls.__new__(cls)
        session.context = context
        session.instance = instance
        session.materialized = materialized
        session._init_caches()
        return session

    # -- incremental updates ------------------------------------------------

    def add_facts(self, relation: str,
                  rows: Iterable[Sequence]) -> UpdateResult:
        """Insert rows into an EDB relation and refresh the materialization."""
        return self._update(self.materialized.add_facts, relation, rows)

    def retract_facts(self, relation: str,
                      rows: Iterable[Sequence]) -> UpdateResult:
        """Remove rows from an EDB relation and refresh the materialization."""
        return self._update(self.materialized.retract_facts, relation, rows)

    def _update(self, apply, relation: str,
                rows: Iterable[Sequence]) -> UpdateResult:
        """Apply, mirror and count one update under the program's write lock,
        so the counts move against exactly the version it published."""
        with self.materialized._write_lock:
            update = apply((relation, tuple(row)) for row in rows)
            for predicate, row in update.applied:
                if not self.instance.has_relation(predicate):
                    continue  # contextual/ontology relation, not under assessment
                if update.action == "retract":
                    self.instance.relation(predicate).discard(row)
                else:
                    self.instance.add(predicate, row)
            self._mark_dirty(update)
        return update

    def _mark_dirty(self, update: UpdateResult) -> None:
        """Stale the touched quality versions; move ``kept`` by ``after -
        before`` per row of ``R`` or ``R_q`` in the delta, ``after`` probed in
        the instance and the ``R_q`` this update published (pinned).  An
        unknown delta (EGD merges, full re-chase) drops the counts instead."""
        if update.strategy == "noop":
            return
        for assessed in self.context.quality_versions:
            if update.touched(self.context.quality_relation_name(assessed)):
                self._dirty_versions.add(assessed)
        if self._kept is None:
            return
        if update.added_facts is None or update.removed_facts is None:
            self.stats.maintenance_fallbacks += len(self._kept)
            self._kept = None
            return
        added, removed = set(update.added_facts), set(update.removed_facts)
        with self.read() as transaction:
            for assessed in self._kept:
                quality = self.context.quality_relation_name(assessed)
                sides = {assessed: self.instance.relation(assessed),
                         quality: transaction.instance.relation(quality)}
                candidates = {row for name, row in chain(added, removed)
                              if name in sides}
                if candidates:
                    self.stats.answers_maintained += 1
                for row in candidates:
                    # before: a removed row was present (also when re-derived
                    # into both lists), a row only added was absent
                    self._kept[assessed] += all(
                        row in relation for relation in sides.values()) - all(
                        (name, row) in removed or
                        ((name, row) not in added and row in relation)
                        for name, relation in sides.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QualitySession({self.context.name!r}, "
                f"version={self.materialized.version}, "
                f"dirty={sorted(self._dirty_versions)})")

