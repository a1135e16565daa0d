"""Instrumentation counters for the evaluation engine.

An :class:`EngineStats` object is threaded through the matching layer and
the evaluators built on it.  The counters answer the questions one asks when
profiling a chase, a query batch or a materialization session: how many
stored rows were actually scanned, how many lookups were answered by an
index probe instead, how many triggers fired, how much work the delta
discipline avoided, how often session caches hit, and how often an update
could be served incrementally instead of re-chasing from scratch.

Counters are declared exactly once — as dataclass fields.  ``merge`` and
``as_dict`` are derived from :func:`dataclasses.fields`, so adding a counter
is a one-line change.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple


@dataclass
class EngineStats:
    """Counters describing one evaluation (chase run, query batch, update, ...)."""

    #: which engine produced these numbers ("indexed" or "naive")
    engine: str = "indexed"
    #: stored rows iterated during atom matching (full or candidate scans)
    rows_scanned: int = 0
    #: hash-index lookups (pattern probes and full-row membership tests)
    index_probes: int = 0
    #: atom-match calls answered without touching the relation (empty/missing)
    empty_lookups: int = 0
    #: TGD triggers applied (facts derived) by the chase / fixpoint
    triggers_fired: int = 0
    #: EGD value merges applied
    egd_merges: int = 0
    #: fixpoint rounds executed
    rounds: int = 0
    #: rule evaluations skipped because the rule body was disjoint from the delta
    rules_skipped_by_delta: int = 0
    #: rows rewritten by EGD merges (touched via the null-occurrence index)
    rows_rewritten: int = 0
    #: session-cache lookups answered from the cache (parsed queries,
    #: maintained answers, quality rewritings, cached assessments)
    cache_hits: int = 0
    #: session-cache lookups that had to compute and store a fresh entry
    cache_misses: int = 0
    #: EDB updates served by the incremental delta path of a session
    incremental_updates: int = 0
    #: EDB updates that fell back to a full from-scratch re-chase
    full_rechases: int = 0
    #: cached answer sets updated in place from an update's fact delta
    #: (counting-based incremental view maintenance) instead of re-answered
    answers_maintained: int = 0
    #: cached answer sets dropped because an update was too ambiguous to
    #: maintain (EGD merges, full re-chases, missing fact deltas) — the next
    #: read re-answers from scratch
    maintenance_fallbacks: int = 0
    #: maintained answer sets under a changed predicate that no fact of the
    #: update's delta reached (constant tests ruled every fact out): kept
    #: as they were, with no delta join run
    answers_unreached: int = 0
    #: batch probe steps executed by the columnar engine (one per body atom
    #: per set-at-a-time join, instead of one probe per candidate row)
    batch_joins: int = 0
    #: candidate rows gathered by batch probe steps (the columnar analogue
    #: of ``rows_scanned``: gathered in bulk, not iterated in Python)
    rows_batch_scanned: int = 0
    #: specialized join functions replayed from the columnar codegen cache
    codegen_cache_hits: int = 0
    #: TGD triggers applied through the batched (set-at-a-time) trigger
    #: path: grouped head instantiation + bulk insert, instead of one
    #: homomorphism at a time
    triggers_batched: int = 0
    #: labeled nulls invented in bulk (one factory reservation and one
    #: locked catalog append per trigger batch, not per trigger)
    nulls_bulk_allocated: int = 0
    #: group-index delta merges: an already-built column group index
    #: updated in place by a mutation instead of invalidated and rebuilt
    index_delta_merges: int = 0
    #: touched relations an MVCC publication advanced in place by the
    #: update's fact delta (O(delta), no copy)
    relations_patched: int = 0
    #: touched relations an MVCC publication snapshot-copied instead (the
    #: initial publication, a pinned reader sharing the twin, an unknown or
    #: oversized delta, a failed patch)
    relations_copied: int = 0
    #: rows held by those copies — the O(relation) work publications did
    rows_copied_by_publish: int = 0

    @classmethod
    def counter_names(cls) -> Tuple[str, ...]:
        """The names of the integer counters (every field except ``engine``)."""
        return tuple(f.name for f in fields(cls) if f.name != "engine")

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Accumulate ``other``'s counters into this object (in place)."""
        for name in self.counter_names():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def delta(self, since: "EngineStats") -> "EngineStats":
        """A new object holding this object's counters minus ``since``'s.

        Sessions use this to report the work of one update or one query
        batch out of a lifetime-accumulating stats object.
        """
        diff = EngineStats(engine=self.engine)
        for name in self.counter_names():
            setattr(diff, name, getattr(self, name) - getattr(since, name))
        return diff

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counter values."""
        return EngineStats(engine=self.engine).merge(self)

    def as_dict(self) -> Dict[str, Any]:
        """The counters as a plain mapping (for reports and JSON artifacts)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        parts = ", ".join(f"{key}={value}" for key, value in self.as_dict().items()
                          if key != "engine")
        return f"EngineStats[{self.engine}]({parts})"


@dataclass
class ServingStats:
    """Counters for the serving tier's durability, protection and
    replication paths.

    Lives here (next to :class:`EngineStats`) because the serving daemon
    and the replica daemon both surface these through the same ``stats``
    protocol request that carries the engine counters.  Declared once as
    dataclass fields; ``merge``/``as_dict`` are derived, so adding a
    counter is a one-line change.
    """

    #: update records made durable through the write-ahead log
    wal_records: int = 0
    #: fsyncs issued by the append path (group commit amortizes these:
    #: ``wal_records / wal_fsyncs`` is the effective batch size)
    wal_fsyncs: int = 0
    #: commit batches drained by group-commit leaders (1..N records each)
    commit_batches: int = 0
    #: records that shared their batch's fsync with at least one other
    #: writer (the grouped fraction of ``wal_records``)
    commit_grouped_records: int = 0
    #: backend applies that folded a contiguous same-op run of a commit
    #: batch into one session update (one MVCC publish for the whole run)
    apply_batches: int = 0
    #: commit batches that fell back to record-at-a-time application to
    #: isolate a poisoned record after a batched apply failed
    degraded_retries: int = 0
    #: write requests refused with a typed ``busy`` response because the
    #: bounded group-commit queue was at capacity (back-pressure shed load)
    busy_rejections: int = 0
    #: requests refused because they exceeded an admission size limit
    #: (facts per write) before any validation or logging happened
    oversized_rejections: int = 0
    #: write requests refused because their connection already had the
    #: maximum number of in-flight writes queued
    inflight_rejections: int = 0
    #: raw protocol lines shed at the socket boundary for exceeding
    #: ``max_request_bytes`` — drained and refused without being parsed
    requests_shed: int = 0
    #: operations refused by the shared-secret auth gate: missing or wrong
    #: credentials, replayed nonces, and unauthenticated requests alike
    auth_failures: int = 0
    #: WAL records replayed by a replica past its snapshot cut
    records_replayed: int = 0
    #: times a replica re-seeded itself from the primary's newest snapshot
    #: (fell behind pruned segments, or the shipped log changed under it)
    reseeds: int = 0
    #: shipped-log poll rounds executed by a replica
    polls: int = 0
    #: checkpoints completed (each one rotated the WAL to a fresh segment)
    checkpoints: int = 0
    #: wall milliseconds the last checkpoint held the writer lock, and the
    #: sum over all of them
    checkpoint_ms_last: float = 0.0
    checkpoint_ms_total: float = 0.0
    #: size of the snapshot file the last checkpoint wrote
    snapshot_bytes_last: int = 0

    @classmethod
    def counter_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def merge(self, other: "ServingStats") -> "ServingStats":
        """Accumulate ``other``'s counters into this object (in place)."""
        for name in self.counter_names():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, Any]:
        """The counters as a plain mapping (for stats responses and JSON)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{key}={value}"
                          for key, value in self.as_dict().items())
        return f"ServingStats({parts})"
