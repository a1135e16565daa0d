"""The serving daemon: snapshots + write-ahead log + a line-JSON protocol.

A :class:`ServingDaemon` owns one *backend* — a materialized program
(:class:`ProgramBackend`) or a quality session (:class:`QualityBackend`) —
and makes it durable and network-reachable:

* **Recovery** (:meth:`ServingDaemon.recover`): restore the newest
  snapshot in the data directory, truncate the WAL's torn tail, replay
  every record past the snapshot's cut through the backend's own
  maintained-answer update path, and reopen the log for appending.  A
  virgin directory bootstraps (chases) the backend and takes the initial
  checkpoint instead.
* **Writes**: each ``add_facts``/``retract_facts`` request is appended to
  the WAL (fsynced) *before* it is applied and acknowledged — an
  acknowledged update is always durable, and recovery can never know less
  than a client does.  Concurrent writers go through a **group-commit**
  queue (:meth:`ServingDaemon.apply_write`): a dedicated committer thread
  appends every queued frame with a single flush + fsync, applies in LSN
  order, then wakes the writers — N writers share one fsync instead of
  paying N.
* **Reads** run through the engine's MVCC read transactions: every request
  pins one published version, and clients may hold explicit pins
  (``pin``/``unpin``) to keep answering against a fixed version while
  writes continue.
* **Checkpoints** (:mod:`repro.serving.compaction`) run inline on the
  write path when the compaction policy fires, and on demand via the
  ``checkpoint`` request.

Protocol: one JSON object per line (UTF-8, ``\\n``-terminated) in both
directions.  Requests carry ``op`` plus arguments and an optional ``id``;
responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": ..., "error_type": ...}``, echoing the ``id``.  The
:mod:`repro.serving.client` module wraps this in the in-process session
API.

Run standalone with::

    python -m repro.serving.daemon --data-dir ./serving-data

which serves the hospital scenario's quality session by default (pass
``--program rules.dlg`` for a plain Datalog± program).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socketserver
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..datalog.chase import Fact
from ..datalog.parser import parse_program
from ..engine.session import MaterializedProgram, UpdateResult
from ..engine.snapshot import encode_row, load_program, wal_position
from ..engine.stats import ServingStats
from ..errors import (ArityError, AuthenticationError, DaemonShutdownError,
                      RequestTooLargeError, ServerBusyError, ServingError,
                      ServingProtocolError, UnknownRelationError,
                      WALCorruptionError)
from .admission import (UNAUTHENTICATED_OPS, AdmissionPolicy, Authenticator,
                        load_token)
from .compaction import (CompactionPolicy, address_path, latest_snapshot,
                         list_segments, prune_snapshots,
                         run_checkpoint, segment_path, snapshot_path)
from .wal import (OP_ADD, OP_RETRACT, AppendedFrame, WALRecord, WriteAheadLog,
                  decode_facts, maybe_crash, maybe_stall, scan_wal)

PathLike = Union[str, Path]
PROTOCOL_VERSION = 1


def _summarize(updates: List[UpdateResult], version: int) -> Dict[str, Any]:
    """A wire-friendly summary of the update(s) one record applied."""
    return {
        "applied": sum(len(update.applied) for update in updates),
        "strategies": sorted({update.strategy for update in updates}),
        "steps": sum(update.steps for update in updates),
        "version": version,
    }


def _check_arity(materialized: MaterializedProgram, predicate: str,
                 row: Tuple) -> None:
    """Reject a row of the wrong width before it reaches the WAL."""
    instance = materialized.instance if \
        materialized.instance.has_relation(predicate) else materialized.edb
    expected = instance.relation(predicate).schema.arity
    if len(row) != expected:
        raise ArityError(
            f"relation {predicate!r} has arity {expected}, got a row of "
            f"width {len(row)}")


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class _MaterializedBackend:
    """The serving surface both backends derive from their materialized
    program (``self.materialized`` is supplied by the subclass)."""

    @property
    def versions(self):
        return self.materialized.versions

    @property
    def version(self) -> int:
        return self.materialized.version

    @property
    def snapshot_meta(self) -> Dict[str, Any]:
        return self.materialized.snapshot_meta

    def knows(self, predicate: str) -> bool:
        return self.materialized.instance.has_relation(predicate) or \
            self.materialized.edb.has_relation(predicate)

    def check_arity(self, predicate: str, row: Tuple) -> None:
        _check_arity(self.materialized, predicate, row)


class ProgramBackend(_MaterializedBackend):
    """Serve a plain :class:`~repro.engine.session.MaterializedProgram`."""

    kind = "program"

    def __init__(self, program=None, engine: Optional[str] = None):
        self.program = program
        self.engine = engine
        self.materialized: Optional[MaterializedProgram] = None

    # -- lifecycle -----------------------------------------------------------

    def bootstrap(self) -> None:
        """Materialize from the configured program (virgin data dir)."""
        if self.program is None:
            raise ServingError(
                "the data directory holds no snapshot and no program was "
                "supplied to bootstrap from")
        self.materialized = MaterializedProgram(self.program,
                                                engine=self.engine)
        # Create the query session eagerly (single-threaded here): the
        # first concurrent readers must never race the lazy initializer.
        self.materialized.queries()

    def restore(self, path: PathLike) -> None:
        """Restore from a snapshot (rules verified when a program is set).

        ``check_data=False``: the served EDB legitimately diverges from the
        configured program's pristine data through absorbed updates — the
        snapshot is the authority for the data, the program hash still
        rejects a changed rule set.
        """
        self.materialized = load_program(path, program=self.program,
                                         engine=self.engine,
                                         check_data=False)
        # Adopt the snapshot's maintained answer counts *before* any WAL
        # record is replayed, so replay maintains them by delta and the
        # restored daemon answers without re-joining anything.
        self.materialized.queries()

    def save(self, path: PathLike, meta: Dict[str, Any]) -> Path:
        return self.materialized.save(path, meta=meta)

    # -- serving surface -----------------------------------------------------

    @property
    def session(self):
        return self.materialized.queries()

    def apply(self, record: WALRecord) -> Dict[str, Any]:
        if record.op == OP_ADD:
            update = self.materialized.add_facts(record.facts)
        else:
            update = self.materialized.retract_facts(record.facts)
        return _summarize([update], self.version)

    def apply_many(self, records: List[WALRecord]) -> Dict[str, Any]:
        """Apply a contiguous same-op run of records as one session update
        (one chase delta, one MVCC publish) — the apply half of group
        commit.  A failure may leave partial in-memory state; the daemon
        rebuilds from disk and retries record-at-a-time."""
        facts = [fact for record in records for fact in record.facts]
        if records[0].op == OP_ADD:
            update = self.materialized.add_facts(facts)
        else:
            update = self.materialized.retract_facts(facts)
        return _summarize([update], self.version)

    def stats(self) -> Dict[str, Any]:
        return {"program": self.materialized.stats.as_dict(),
                "session": self.session.stats.as_dict()}


class QualityBackend(_MaterializedBackend):
    """Serve a :class:`~repro.quality.session.QualitySession` (context +
    instance under assessment), adding the quality operations."""

    kind = "quality"

    def __init__(self, context, instance=None, engine: Optional[str] = None):
        self.context = context
        self.instance = instance
        self.engine = engine
        self.quality_session = None

    # -- lifecycle -----------------------------------------------------------

    def bootstrap(self) -> None:
        if self.instance is None:
            raise ServingError(
                "the data directory holds no snapshot and no instance under "
                "assessment was supplied to bootstrap from")
        self.quality_session = self.context.session(self.instance,
                                                    engine=self.engine)

    def restore(self, path: PathLike) -> None:
        from ..quality.session import QualitySession
        self.quality_session = QualitySession.load(self.context, path,
                                                   engine=self.engine)

    def save(self, path: PathLike, meta: Dict[str, Any]) -> Path:
        return self.quality_session.save(path, meta=meta)

    # -- serving surface -----------------------------------------------------

    @property
    def materialized(self) -> MaterializedProgram:
        return self.quality_session.materialized

    @property
    def session(self):
        return self.quality_session.query_session

    def apply(self, record: WALRecord) -> Dict[str, Any]:
        # Records go through the quality session (not the bare program) so
        # the instance under assessment and the dirty tracking stay in
        # sync.  Facts are grouped per relation in first-occurrence order —
        # the same deterministic order at live-apply and replay time.
        groups: Dict[str, List[Tuple]] = {}
        for predicate, row in record.facts:
            groups.setdefault(predicate, []).append(row)
        apply_one = self.quality_session.add_facts if record.op == OP_ADD \
            else self.quality_session.retract_facts
        updates = [apply_one(predicate, rows)
                   for predicate, rows in groups.items()]
        return _summarize(updates, self.version)

    def apply_many(self, records: List[WALRecord]) -> Dict[str, Any]:
        """Apply a contiguous same-op run of records in one pass: facts
        from the whole run are grouped per relation (first-occurrence
        order, as in :meth:`apply`) so each touched relation publishes
        once.  A failure may leave partial in-memory state; the daemon
        rebuilds from disk and retries record-at-a-time."""
        groups: Dict[str, List[Tuple]] = {}
        for record in records:
            for predicate, row in record.facts:
                groups.setdefault(predicate, []).append(row)
        apply_one = self.quality_session.add_facts if records[0].op == OP_ADD \
            else self.quality_session.retract_facts
        updates = [apply_one(predicate, rows)
                   for predicate, rows in groups.items()]
        return _summarize(updates, self.version)

    def quality_answers(self, query: str):
        return self.quality_session.quality_answers(query)

    def quality_version(self, relation: str):
        return self.quality_session.quality_version(relation).sorted_rows()

    def assess(self) -> Dict[str, Any]:
        assessment = self.quality_session.assess()
        return {"relations": assessment.as_rows(),
                "quality_ratio": assessment.quality_ratio,
                "departure": assessment.departure,
                "text": str(assessment)}

    def stats(self) -> Dict[str, Any]:
        return {"program": self.materialized.stats.as_dict(),
                "session": self.session.stats.as_dict(),
                "quality": self.quality_session.stats.as_dict()}


# ---------------------------------------------------------------------------
# Connection state (per-client pins)
# ---------------------------------------------------------------------------


class ConnectionState:
    """Per-connection serving state: the pins a client holds (released
    when the connection closes), its auth-handshake progress, and how
    many of its writes are currently queued or in flight."""

    def __init__(self, store):
        self._store = store
        self._pins: Dict[int, List[Any]] = {}
        self.closing = False
        #: set once the shared-secret handshake succeeds (or when the
        #: daemon requires no auth — the gate checks the requirement)
        self.authenticated = False
        #: the outstanding single-use auth nonce (``None`` = none issued,
        #: or the last one was consumed by an ``auth`` attempt)
        self.auth_nonce: Optional[str] = None
        #: writes from this connection sitting in (or moving through)
        #: the commit queue; bounded by the admission policy
        self.inflight_writes = 0

    def pin(self, version: Optional[int] = None) -> int:
        pinned = self._store.pin(version)
        self._pins.setdefault(pinned.version, []).append(pinned)
        return pinned.version

    def unpin(self, version: int) -> None:
        held = self._pins.get(version)
        if not held:
            raise ServingProtocolError(
                f"this connection holds no pin on version {version}")
        self._store.unpin(held.pop())
        if not held:
            del self._pins[version]

    def release_all(self) -> None:
        for held in self._pins.values():
            for pinned in held:
                try:
                    self._store.unpin(pinned)
                except Exception:  # pragma: no cover - store already gone
                    pass
        self._pins.clear()


def _error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """The wire shape of a refused/failed request.  Typed refusals carry
    their class name in ``error_type`` (the client re-raises them as the
    same class) and busy refusals additionally carry ``retry_after``."""
    response = {"ok": False, "id": request_id, "error": str(exc),
                "error_type": type(exc).__name__}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        response["retry_after"] = retry_after
    return response


def check_authenticated(daemon, op: str, connection: ConnectionState) -> None:
    """Refuse ``op`` on an unauthenticated connection (both daemons).

    Liveness (``ping``) and the handshake itself stay reachable; every
    other operation — reads, writes, pins, stats, quality — is refused
    with a typed :class:`~repro.errors.AuthenticationError` and counted.
    A daemon with no token configured requires nothing."""
    if not daemon.authenticator.required or connection.authenticated:
        return
    if op in UNAUTHENTICATED_OPS:
        return
    daemon.serving_stats.auth_failures += 1
    raise AuthenticationError(
        f"request {op!r} refused: this daemon requires authentication "
        "(complete the auth_challenge + auth handshake first)")


def handle_auth_op(daemon, op: str, request: Dict[str, Any],
                   connection: ConnectionState) -> Optional[Dict[str, Any]]:
    """Serve the two handshake operations; ``None`` for any other op.

    ``auth_challenge`` issues a fresh single-use nonce (replacing any
    outstanding one); ``auth`` verifies the client's HMAC over it in
    constant time.  The nonce is consumed by the attempt whatever the
    outcome, so a captured or replayed MAC never verifies twice."""
    if op == "auth_challenge":
        if not daemon.authenticator.required:
            return {"required": False, "nonce": None}
        connection.auth_nonce = daemon.authenticator.challenge()
        return {"required": True, "nonce": connection.auth_nonce}
    if op == "auth":
        if not daemon.authenticator.required:
            connection.authenticated = True
            return {"authenticated": True, "required": False}
        nonce, connection.auth_nonce = connection.auth_nonce, None
        if daemon.authenticator.verify(nonce, request.get("mac")):
            connection.authenticated = True
            return {"authenticated": True, "required": True}
        daemon.serving_stats.auth_failures += 1
        raise AuthenticationError(
            "authentication failed: missing, wrong or replayed credential; "
            "request a fresh auth_challenge and answer it with "
            "HMAC-SHA256(token, nonce)")
    return None


class _CommitEntry:
    """One writer's update waiting in (or moving through) the commit queue."""

    __slots__ = ("op", "facts", "event", "result", "error")

    def __init__(self, op: str, facts: List[Fact]):
        self.op = op
        self.facts = facts
        self.event = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class ServingDaemon:
    """Recover a backend from its data directory and serve it."""

    def __init__(self, backend, data_dir: PathLike, sync: bool = True,
                 policy: Optional[CompactionPolicy] = None,
                 commit_delay: float = 0.01,
                 admission: Optional[AdmissionPolicy] = None,
                 auth_token: Optional[Union[str, bytes]] = None):
        self.backend = backend
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.policy = policy or CompactionPolicy()
        #: upper bound on how long the committer waits for followers to
        #: fill a batch once concurrency has been observed (0 disables it)
        self.commit_delay = commit_delay
        #: per-request limits enforced before validation and logging
        self.admission = admission or AdmissionPolicy()
        #: the shared-secret gate (``auth_token=None`` leaves it open)
        self.authenticator = Authenticator(auth_token)
        #: serializes writers and checkpoints (readers never take it)
        self._lock = threading.RLock()
        self._wal: Optional[WriteAheadLog] = None
        self.last_lsn = 0
        self.records_since_checkpoint = 0
        self.last_checkpoint_error: Optional[str] = None
        #: durability/group-commit counters (surfaced by the stats op)
        self.serving_stats = ServingStats()
        #: the report of the last :meth:`recover` run
        self.recovery: Optional[Dict[str, Any]] = None
        self._server: Optional["_LineServer"] = None
        self._thread: Optional[threading.Thread] = None
        self._default_connection: Optional[ConnectionState] = None
        #: live socket connections (their pins are released on stop())
        self._connections: Dict[int, ConnectionState] = {}
        self._connections_lock = threading.Lock()
        # Group commit: writers enqueue under _commit_mutex and block on
        # their entry's event; a dedicated committer thread (started by
        # recover()) drains the queue in batches.  The committer must NOT
        # be a writer's own handler thread — a writer that led commits
        # inline could not answer its own client until the queue ran dry,
        # pinning that client out of the pool under sustained load.
        self._commit_mutex = threading.Lock()
        self._commit_ready = threading.Condition(self._commit_mutex)
        self._commit_queue: List[_CommitEntry] = []
        self._commit_thread: Optional[threading.Thread] = None
        self._commit_stop = False
        #: size of the last drained batch — the concurrency hint that
        #: decides whether the committer waits for followers at all
        self._last_batch_size = 1
        #: deepest the commit queue has been (surfaced by the stats op)
        self.queue_peak = 0
        #: wall seconds the last commit batch took end to end — the basis
        #: of the retry-after hint a busy refusal carries
        self._last_commit_seconds = 0.02

    # -- recovery ------------------------------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Restore snapshot ⊕ WAL (or bootstrap a virgin directory).

        Returns a report: where the state came from, how many records were
        replayed, and whether (and why) a torn WAL tail was truncated.
        """
        with self._lock:
            found = latest_snapshot(self.data_dir)
            if found is None:
                if list_segments(self.data_dir):
                    raise ServingError(
                        f"{self.data_dir} has write-ahead log segments but "
                        "no snapshot to replay them onto; restore a "
                        "snapshot into the directory (or move the logs "
                        "away) instead of silently discarding their "
                        "updates")
                self.backend.bootstrap()
                self.last_lsn = 0
                self.records_since_checkpoint = 0
                # The initial checkpoint: a crash right after boot recovers
                # to this same state instead of re-chasing.
                self.backend.save(
                    snapshot_path(self.data_dir, 0),
                    {"wal": {"lsn": 0,
                             "segment": segment_path(self.data_dir, 0).name}})
                self._wal = WriteAheadLog.create(
                    segment_path(self.data_dir, 0), base_lsn=0,
                    sync=self.sync)
                report: Dict[str, Any] = {
                    "bootstrapped": True, "snapshot": None, "base_lsn": 0,
                    "replayed_records": 0, "torn_tail": None,
                    "truncated_bytes": 0,
                }
            else:
                report = self._restore_from_disk()
            self._default_connection = ConnectionState(self.backend.versions)
            self.recovery = report
            self._start_committer()
            return report

    def _start_committer(self) -> None:
        """Start (or restart, after stop()) the group-commit thread."""
        with self._commit_ready:
            if self._commit_thread is not None:
                return
            self._commit_stop = False
            self._commit_thread = threading.Thread(
                target=self._commit_loop, name="repro-group-commit",
                daemon=True)
            self._commit_thread.start()

    def _restore_from_disk(self) -> Dict[str, Any]:
        """(Re)build the backend from the durable state on disk.

        Restores the newest snapshot, replays the WAL suffix past its cut,
        and (re)opens the log for appending.  Called under the lock —
        by :meth:`recover`, and by :meth:`apply_write` after a failed
        apply to discard whatever the aborted update mutated in memory.
        """
        lsn, path = latest_snapshot(self.data_dir)
        self.backend.restore(path)
        cut = wal_position(self.backend.snapshot_meta, default=lsn)
        report: Dict[str, Any] = {
            "bootstrapped": False, "snapshot": path.name, "base_lsn": cut,
            "replayed_records": 0, "torn_tail": None, "truncated_bytes": 0,
        }
        segments = list_segments(self.data_dir)
        if not segments:
            self._wal = WriteAheadLog.create(
                segment_path(self.data_dir, cut), base_lsn=cut,
                sync=self.sync)
            self.last_lsn = cut
            self.records_since_checkpoint = 0
            return report
        # Replay the segment chain past the snapshot's cut.  Segments whose
        # *successor* starts at or before the cut hold only folded-in
        # records and are skipped unread; the survivors must chain
        # contiguously (each base = predecessor's last record LSN) and only
        # the final segment may carry a torn tail — a tear anywhere else
        # means durable records after it were lost.
        applied = 0
        chained: Optional[int] = None
        for index, (base, seg_path) in enumerate(segments):
            is_last = index == len(segments) - 1
            if not is_last and segments[index + 1][0] <= cut:
                continue  # fully folded into the snapshot
            if is_last:
                recovered = WriteAheadLog.recover(seg_path, sync=self.sync)
                records = recovered.records
                report["torn_tail"] = recovered.torn_reason
                report["truncated_bytes"] = recovered.truncated_bytes
                self._wal = recovered.wal
            else:
                scan = scan_wal(seg_path)
                if scan.torn_reason is not None:
                    raise WALCorruptionError(
                        f"write-ahead log segment {seg_path.name} has a "
                        f"damaged tail ({scan.torn_reason}) but newer "
                        "segments exist; its lost records cannot be "
                        "skipped — restore a newer snapshot instead of "
                        "replaying this chain")
                records = scan.records
            if chained is None:
                if base > cut:
                    raise WALCorruptionError(
                        f"write-ahead log segment {seg_path.name} starts "
                        f"at LSN {base} but the newest snapshot stops at "
                        f"LSN {cut}; the records in between are gone — "
                        "restore the missing newer snapshot instead of "
                        "replaying this chain")
            elif base != chained:
                raise WALCorruptionError(
                    f"write-ahead log segment {seg_path.name} starts at "
                    f"LSN {base} but the previous segment ends at LSN "
                    f"{chained}; the records in between are gone — "
                    "restore from a newer snapshot instead of replaying "
                    "this chain")
            chained = records[-1].lsn if records else base
            for record in records:
                if record.lsn <= cut:
                    continue  # already folded into the snapshot
                self.backend.apply(record)
                applied += 1
        report["replayed_records"] = applied
        self.last_lsn = max(cut, self._wal.last_lsn)
        self.records_since_checkpoint = applied
        return report

    # -- writes --------------------------------------------------------------

    def apply_write(self, op: str, facts: List[Fact],
                    connection: Optional[ConnectionState] = None
                    ) -> Dict[str, Any]:
        """Log, apply and (maybe) checkpoint one update batch — through
        the **group-commit** queue, behind admission control.

        Admission runs first: a request carrying more facts than the
        policy admits is refused typed
        (:class:`~repro.errors.RequestTooLargeError`), a connection with
        too many writes already in flight or a full commit queue gets a
        typed :class:`~repro.errors.ServerBusyError` carrying a
        retry-after hint — nothing inadmissible is ever validated,
        logged or applied, and reads are never affected.

        Each writer validates its own request, enqueues a commit entry and
        blocks on the entry's event.  A dedicated committer thread drains
        the queue in batches: it appends every queued frame with **one**
        WAL flush + fsync
        (:meth:`~repro.serving.wal.WriteAheadLog.append_batch`), applies
        the records in LSN order — folding contiguous same-op runs into
        one session update — and only then wakes each writer.  An
        acknowledged update is therefore always durable, exactly as with
        record-at-a-time commits, but N concurrent writers share one fsync
        instead of paying N.

        If an apply fails after validation (e.g. a hard EGD conflict the
        chase only discovers mid-run), the failing record — and every
        unapplied record after it, none of them acknowledged — is rolled
        back out of the WAL, the in-memory state is rebuilt from disk, and
        the survivors are retried record-at-a-time to isolate the poisoned
        record: every record that stays in the log replays cleanly, so one
        poisoned request can never make the data directory unrecoverable.
        """
        facts = list(facts)
        if self._wal is None:
            raise ServingError("the daemon has not recovered yet; "
                               "call recover() before serving writes")
        # Admission runs before validation: an inadmissible request is
        # refused without the daemon spending per-fact work on it.
        try:
            self.admission.check_facts(len(facts))
        except ServingError:
            self.serving_stats.oversized_rejections += 1
            raise
        if op == OP_ADD:
            # Pre-validate so a record that cannot apply is never
            # logged (replay must succeed on everything in the WAL).
            for predicate, row in facts:
                if not self.backend.knows(predicate):
                    raise UnknownRelationError(
                        f"unknown relation {predicate!r}; the serving "
                        "vocabulary is fixed by the ontology")
                self.backend.check_arity(predicate, row)
        entry = _CommitEntry(op, facts)
        with self._commit_ready:
            if self._commit_thread is None or self._commit_stop:
                raise DaemonShutdownError(
                    "the daemon is stopped; writes are refused until the "
                    "next recover()")
            inflight_cap = self.admission.max_inflight_per_connection
            if connection is not None and inflight_cap and \
                    connection.inflight_writes >= inflight_cap:
                self.serving_stats.inflight_rejections += 1
                raise ServerBusyError(
                    f"this connection already has {connection.inflight_writes} "
                    f"writes in flight (cap {inflight_cap}); wait for them "
                    "before sending more", retry_after=self._retry_after())
            cap = self.admission.queue_cap
            if cap and len(self._commit_queue) >= cap:
                # Back-pressure: the queue is full, so shed this writer
                # with a typed refusal instead of letting the queue (and
                # every writer's latency) grow without bound.  Nothing
                # was logged — retrying after the hint is always safe.
                self.serving_stats.busy_rejections += 1
                raise ServerBusyError(
                    f"the commit queue is full ({cap} writes waiting); "
                    "back off and retry", retry_after=self._retry_after())
            self._commit_queue.append(entry)
            self.queue_peak = max(self.queue_peak, len(self._commit_queue))
            if connection is not None:
                connection.inflight_writes += 1
            self._commit_ready.notify()
        try:
            entry.event.wait()
        finally:
            if connection is not None:
                with self._commit_ready:
                    connection.inflight_writes -= 1
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _retry_after(self) -> float:
        """A busy refusal's backoff hint: roughly how long draining the
        current queue should take, from the last batch's measured commit
        time — an estimate for clients to use as a floor, not a promise."""
        backlog = max(1, len(self._commit_queue))
        batch = max(1, self._last_batch_size)
        estimate = self._last_commit_seconds * (backlog / batch)
        return round(min(2.0, max(0.01, estimate)), 4)

    def _commit_loop(self) -> None:
        """The committer thread: drain the queue in batches, forever.

        Entries that join the queue while a batch is committing form the
        next batch, so the effective batch size adapts to the arrival
        rate.  When the previous batch proved writers are arriving
        concurrently, the committer additionally waits for the queue to
        refill before draining (PostgreSQL's commit_delay /
        commit_siblings idea): acked writers need a moment to process
        their responses and send the next request, and draining too
        eagerly would degrade the batch size on a busy box.  A solo
        writer never pays the delay — its batches are size 1, so the
        hint stays 1."""
        while True:
            with self._commit_ready:
                while not self._commit_queue and not self._commit_stop:
                    self._commit_ready.wait()
                if self._commit_stop:
                    return  # stop() fails whatever is still queued
            self._wait_for_followers()
            with self._commit_ready:
                batch, self._commit_queue = self._commit_queue, []
            if not batch:
                continue
            self._last_batch_size = len(batch)
            started = time.monotonic()
            try:
                with self._lock:
                    self._commit_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - never strand a waiter
                for entry in batch:
                    if entry.result is None and entry.error is None:
                        entry.error = exc
            finally:
                # Feeds the retry-after hint busy refusals carry.
                self._last_commit_seconds = \
                    max(0.001, time.monotonic() - started)
                for entry in batch:
                    entry.event.set()

    def _wait_for_followers(self) -> None:
        """Give concurrent writers a moment to join the next batch.

        Only engages once a previous batch actually carried more than one
        entry (the concurrency hint).  Rather than guessing how many
        writers exist, the wait watches the queue *grow*: as long as new
        entries keep arriving within a short quiet window the batch is
        still filling; once arrivals stop — every live writer is in — it
        drains immediately.  :attr:`commit_delay` bounds the whole wait,
        so a straggler can only stretch a batch, never stall it."""
        if self.commit_delay <= 0 or self._last_batch_size < 2:
            return
        quiet_window = 0.001  # no-arrival window that ends the wait
        deadline = time.monotonic() + self.commit_delay
        seen = len(self._commit_queue)
        last_arrival = time.monotonic()
        while True:
            time.sleep(0.0002)
            now = time.monotonic()
            queued = len(self._commit_queue)
            if queued > seen:
                seen, last_arrival = queued, now
            elif now - last_arrival >= quiet_window:
                return
            if now >= deadline:
                return

    def _commit_batch(self, batch: List[_CommitEntry]) -> None:
        """Make one batch durable, apply it in LSN order, maybe checkpoint.

        Called under ``_lock``.  Fills each entry's ``result`` or
        ``error``; the caller wakes the writers."""
        # Overload injection: a stalled committer is how the back-pressure
        # suite fills a small queue deterministically (reads must keep
        # answering throughout — they never touch this path).
        maybe_stall("group-commit-stall")
        queue = list(batch)
        batched = True
        while queue:
            if self._wal is None:
                error = DaemonShutdownError("the daemon was stopped while "
                                            "the write was queued")
                for entry in queue:
                    entry.error = error
                return
            try:
                appended = self._wal.append_batch(
                    [(entry.op, entry.facts) for entry in queue])
            except Exception as exc:  # noqa: BLE001 - fail the whole batch
                for entry in queue:
                    entry.error = exc
                return
            self.serving_stats.commit_batches += 1
            self.serving_stats.wal_records += len(queue)
            if self.sync:
                self.serving_stats.wal_fsyncs += 1
            if len(queue) > 1:
                self.serving_stats.commit_grouped_records += len(queue)
            # Durable but not yet applied or acknowledged: a crash here
            # must recover every record of the batch without any writer
            # having been acked (the group-commit recovery tests drive it).
            maybe_crash("group-commit-durable")
            retry_from = self._apply_entries(queue, appended, batched)
            if retry_from is None:
                break
            # A batched apply failed somewhere in a same-op run: the run
            # (and everything after it) has been rolled out of the WAL and
            # memory rebuilt from disk.  Retry the survivors one record at
            # a time so only the genuinely poisoned record fails.
            queue = queue[retry_from:]
            batched = False
        applied = [entry for entry in batch if entry.result is not None]
        if applied and self.policy.due(self.records_since_checkpoint,
                                       self._wal.size_bytes):
            maybe_crash("pre-auto-checkpoint")
            summary = applied[-1].result
            try:
                self.checkpoint()
                summary["checkpointed"] = True
            except Exception as exc:  # noqa: BLE001 - write must win
                # The writes are durable and applied; a failed compaction
                # (snapshot error, disk full) must not fail them.  The
                # previous snapshot and the live segment are intact;
                # surface the problem and retry at the next trigger.
                self.last_checkpoint_error = str(exc)
                summary["checkpoint_error"] = str(exc)

    def _apply_entries(self, queue: List[_CommitEntry],
                       appended: List[AppendedFrame],
                       batched: bool) -> Optional[int]:
        """Apply a durable batch in LSN order; ``None`` on full success.

        With ``batched`` set, contiguous same-op runs are applied as one
        session update (one MVCC publish per run).  On an apply failure
        the failing run and the whole unapplied suffix are rolled back out
        of the WAL, the in-memory state is rebuilt from the durable
        prefix, and the index to retry from is returned (the failing
        record's own index when it was applied alone — its writer already
        holds the error)."""
        index = 0
        while index < len(queue):
            run = 1
            if batched:
                while index + run < len(queue) and \
                        queue[index + run].op == queue[index].op:
                    run += 1
            entries = queue[index:index + run]
            frames = appended[index:index + run]
            records = [WALRecord(lsn=frame.lsn, op=entry.op,
                                 facts=tuple(entry.facts))
                       for frame, entry in zip(frames, entries)]
            try:
                if run == 1:
                    summary = self.backend.apply(records[0])
                else:
                    summary = self.backend.apply_many(records)
                    self.serving_stats.apply_batches += 1
            except BaseException as exc:  # noqa: BLE001 - isolate + rebuild
                # The aborted apply may have left the in-memory state
                # partially mutated (an EGD conflict aborts the chase
                # mid-run; a multi-relation quality batch may have applied
                # its first groups).  Roll the unapplied suffix out of the
                # log — none of it was acknowledged — and rebuild from the
                # durable state, so live answers, later checkpoints and
                # recovery all agree the failed update never happened.
                self._wal.rollback_to(frames[0].lsn - 1, frames[0].offset)
                self._wal.close()
                self._restore_from_disk()
                self._default_connection = \
                    ConnectionState(self.backend.versions)
                if run == 1:
                    entries[0].error = exc
                    return index + 1
                self.serving_stats.degraded_retries += 1
                return index
            for frame, entry in zip(frames, entries):
                result = dict(summary)
                result["lsn"] = frame.lsn
                result["checkpointed"] = False
                entry.result = result
            self.last_lsn = frames[-1].lsn
            self.records_since_checkpoint += run
            index += run
        return None

    def checkpoint(self) -> Dict[str, Any]:
        """Take a snapshot at the current cut and rotate the WAL."""
        with self._lock:
            if self._wal is None:
                raise ServingError("the daemon has not recovered yet")
            maybe_stall("checkpoint-stall")
            existing = latest_snapshot(self.data_dir)
            if existing is not None and existing[0] == self.last_lsn:
                prune_snapshots(self.data_dir, self.policy.keep_snapshots)
                return {"checkpointed": False, "snapshot_lsn": self.last_lsn,
                        "reason": "no records since the last checkpoint"}
            started = time.perf_counter()
            self._wal = run_checkpoint(
                self.data_dir, self.backend.save, self._wal, self.last_lsn,
                keep_snapshots=self.policy.keep_snapshots, sync=self.sync)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            stats = self.serving_stats
            stats.checkpoints += 1
            stats.checkpoint_ms_last = elapsed_ms
            stats.checkpoint_ms_total += elapsed_ms
            stats.snapshot_bytes_last = \
                snapshot_path(self.data_dir, self.last_lsn).stat().st_size
            self.records_since_checkpoint = 0
            self.last_checkpoint_error = None
            return {"checkpointed": True, "snapshot_lsn": self.last_lsn}

    # -- request dispatch ----------------------------------------------------

    def handle(self, request: Dict[str, Any],
               connection: Optional[ConnectionState] = None) -> Dict[str, Any]:
        """Serve one protocol request; never raises (errors become
        ``{"ok": false}`` responses so a bad request cannot kill the
        daemon)."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict) or "op" not in request:
                raise ServingProtocolError(
                    'requests are JSON objects with an "op" field')
            result = self._dispatch(request,
                                    connection or self._default_connection)
            return {"ok": True, "id": request_id, "result": result}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return _error_response(request_id, exc)

    def _dispatch(self, request: Dict[str, Any],
                  connection: ConnectionState) -> Dict[str, Any]:
        op = request["op"]
        backend = self.backend
        check_authenticated(self, op, connection)
        handshake = handle_auth_op(self, op, request, connection)
        if handshake is not None:
            return handshake
        if op == "ping":
            return {"pong": True, "kind": backend.kind,
                    "protocol_version": PROTOCOL_VERSION,
                    "auth_required": self.authenticator.required,
                    "version": backend.version, "lsn": self.last_lsn}
        if op == "answers":
            with backend.session.read(request.get("version")) as txn:
                rows = txn.answers(request["query"],
                                   allow_nulls=bool(request.get("allow_nulls")))
                return {"rows": [encode_row(row) for row in rows],
                        "version": txn.version}
        if op == "holds":
            with backend.session.read(request.get("version")) as txn:
                return {"holds": txn.holds(request["query"]),
                        "version": txn.version}
        if op in ("add_facts", "retract_facts"):
            facts = decode_facts(request.get("facts") or [])
            return self.apply_write(
                OP_ADD if op == "add_facts" else OP_RETRACT, facts,
                connection=connection)
        if op == "pin":
            return {"version": connection.pin(request.get("version"))}
        if op == "unpin":
            connection.unpin(int(request["version"]))
            return {"unpinned": int(request["version"])}
        if op == "checkpoint":
            return self.checkpoint()
        if op == "stats":
            stats = backend.stats()
            with self._lock:
                stats["serving"] = {
                    "lsn": self.last_lsn,
                    "wal_base_lsn": self._wal.base_lsn if self._wal else None,
                    "wal_bytes": self._wal.size_bytes if self._wal else 0,
                    "wal_segments": len(list_segments(self.data_dir)),
                    "records_since_checkpoint": self.records_since_checkpoint,
                    "last_checkpoint_error": self.last_checkpoint_error,
                    "live_versions": backend.versions.live_versions(),
                    "group_commit": self.serving_stats.as_dict(),
                    "admission": {
                        "queue_depth": len(self._commit_queue),
                        "queue_peak": self.queue_peak,
                        "queue_cap": self.admission.queue_cap,
                        "max_request_bytes":
                            self.admission.max_request_bytes,
                        "max_facts_per_write":
                            self.admission.max_facts_per_write,
                        "max_inflight_per_connection":
                            self.admission.max_inflight_per_connection,
                        "auth_required": self.authenticator.required,
                    },
                }
            return stats
        if op == "recovery":
            return dict(self.recovery or {})
        if op == "quality_answers":
            self._require_quality(op)
            # Quality-layer reads serialize with writers: unlike the MVCC
            # answers/holds path, quality versions, assessments and the
            # instance under assessment are unversioned state that
            # apply_write mutates in place.
            with self._lock:
                rows = backend.quality_answers(request["query"])
            return {"rows": [encode_row(row) for row in rows]}
        if op == "quality_version":
            self._require_quality(op)
            with self._lock:
                rows = backend.quality_version(request["relation"])
            return {"rows": [encode_row(row) for row in rows]}
        if op == "assess":
            self._require_quality(op)
            with self._lock:
                return backend.assess()
        if op == "shutdown":
            connection.closing = True
            self._async_stop()
            return {"stopping": True}
        raise ServingProtocolError(f"unknown request op {op!r}")

    def _require_quality(self, op: str) -> None:
        if not hasattr(self.backend, "quality_answers"):
            raise ServingProtocolError(
                f"request {op!r} needs a quality backend, but this daemon "
                "serves a plain program (start it with --hospital or a "
                "QualityBackend)")

    # -- network lifecycle ---------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0
              ) -> Tuple[str, int]:
        """Bind, start serving in a background thread, and advertise the
        address in ``<data_dir>/daemon.json`` (atomic write)."""
        if self._server is not None:
            raise ServingError("the daemon is already serving")
        self._server = _LineServer((host, port), self)
        bound_host, bound_port = self._server.server_address[:2]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serving-daemon",
                                        daemon=True)
        self._thread.start()
        address = address_path(self.data_dir)
        temp = address.with_name(address.name + ".tmp")
        temp.write_text(json.dumps({
            "host": bound_host, "port": bound_port, "pid": os.getpid(),
            "kind": self.backend.kind, "role": "primary",
            "protocol_version": PROTOCOL_VERSION,
        }), encoding="utf-8")
        os.replace(temp, address)
        return bound_host, bound_port

    def wait(self) -> None:
        """Block until the serving thread exits (stop() from elsewhere)."""
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)

    def _async_stop(self) -> None:
        threading.Thread(target=self.stop, name="repro-serving-stop",
                         daemon=True).start()

    def _register_connection(self, connection: ConnectionState) -> None:
        with self._connections_lock:
            self._connections[id(connection)] = connection

    def _unregister_connection(self, connection: ConnectionState) -> None:
        with self._connections_lock:
            self._connections.pop(id(connection), None)

    def stop(self) -> None:
        """Stop serving, release every pin still held on the daemon's
        behalf, and close the WAL handle — exactly once (idempotent).

        Runs the same way whether called directly, from the ``shutdown``
        request, or from a ``finally`` after ``serve_forever`` exits via
        an exception: live connections' pins are released even when their
        handler threads never got to run their own cleanup, so no
        superseded version can stay pinned (and uncollectable) past
        stop()."""
        with self._commit_ready:
            self._commit_stop = True
            self._commit_ready.notify_all()
            committer, self._commit_thread = self._commit_thread, None
        if committer is not None and committer is not \
                threading.current_thread():
            committer.join(timeout=30.0)
        with self._commit_ready:
            stranded, self._commit_queue = self._commit_queue, []
        if stranded:
            # Typed, so a blocked writer can tell "the daemon went away"
            # from a failed apply; every queued waiter is woken — no
            # client thread is ever stranded on an event nobody sets.
            error = DaemonShutdownError("the daemon was stopped while the "
                                        "write was queued")
            for entry in stranded:
                entry.error = error
                entry.event.set()
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        try:
            address_path(self.data_dir).unlink()
        except OSError:
            pass
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.release_all()
        with self._lock:
            if self._default_connection is not None:
                self._default_connection.release_all()
            wal, self._wal = self._wal, None
            if wal is not None:
                wal.close()

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "ServingDaemon":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ServingDaemon({self.backend.kind!r}, "
                f"data_dir={str(self.data_dir)!r}, lsn={self.last_lsn})")


# ---------------------------------------------------------------------------
# Socket plumbing
# ---------------------------------------------------------------------------


class _LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], daemon: ServingDaemon):
        self.serving_daemon = daemon
        super().__init__(address, _LineHandler)


def _read_request_line(rfile, limit: int) -> Tuple[Optional[bytes], bool]:
    """One protocol line, reading at most ``limit`` bytes of it.

    Returns ``(line, oversized)``.  ``line is None`` means EOF (the
    client went away — a line cut short by EOF counts, since it can
    never complete).  An oversized line — longer than ``limit`` bytes
    including the newline — is **drained** in bounded chunks and
    reported as ``(None-content, True)``: the daemon never buffers more
    than ``limit`` bytes for one request, no matter what a poisoned
    client streams at it, and the connection stays usable afterwards."""
    line = rfile.readline(limit + 1) if limit else rfile.readline()
    if not line:
        return None, False
    if len(line) <= limit or not limit:
        if line.endswith(b"\n"):
            return line, False
        return None, False  # EOF mid-line: the request can never complete
    # Over the cap: throw away the rest of the line, chunk by chunk.
    while not line.endswith(b"\n"):
        line = rfile.readline(65536)
        if not line:
            break
    return b"", True


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon = self.server.serving_daemon
        connection = ConnectionState(daemon.backend.versions)
        daemon._register_connection(connection)
        try:
            while True:
                limit = daemon.admission.max_request_bytes
                raw, oversized = _read_request_line(self.rfile, limit)
                if oversized:
                    # Shed before parsing: one poisoned oversized request
                    # costs its own connection a refusal, never the
                    # daemon's memory or the other sessions' latency.
                    daemon.serving_stats.requests_shed += 1
                    response = _error_response(None, RequestTooLargeError(
                        f"request line exceeds this daemon's "
                        f"max_request_bytes={limit}; the line was "
                        "discarded unparsed"))
                elif raw is None:
                    break
                else:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        request = json.loads(line.decode("utf-8"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        response = {"ok": False, "id": None,
                                    "error": "request is not a JSON line",
                                    "error_type": "ServingProtocolError"}
                    else:
                        response = daemon.handle(request, connection)
                self.wfile.write(
                    (json.dumps(response, separators=(",", ":")) + "\n")
                    .encode("utf-8"))
                self.wfile.flush()
                if connection.closing:
                    break
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        finally:
            daemon._unregister_connection(connection)
            connection.release_all()


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.daemon",
        description="Serve a materialized Datalog± session over snapshots "
                    "and a write-ahead log.")
    parser.add_argument("--data-dir", required=True,
                        help="directory for snapshots + WAL (created if "
                             "missing); restart with the same directory to "
                             "recover")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 = pick a free port (advertised in "
                             "<data-dir>/daemon.json)")
    parser.add_argument("--program", metavar="FILE",
                        help="serve this Datalog± program text instead of "
                             "the default hospital quality session")
    parser.add_argument("--scenario", metavar="NAME",
                        help="serve a registered quality scenario "
                             "(hospital, sensornet, fincompliance); "
                             "mutually exclusive with --program")
    parser.add_argument("--engine", choices=("indexed", "naive", "columnar"))
    parser.add_argument("--no-sync", action="store_true",
                        help="skip fsync on WAL appends (faster; durable "
                             "against process crashes, not power loss)")
    parser.add_argument("--checkpoint-every", type=int, default=256,
                        metavar="N", help="checkpoint after N records")
    parser.add_argument("--max-wal-bytes", type=int, default=4 * 1024 * 1024)
    parser.add_argument("--keep-snapshots", type=int, default=2)
    parser.add_argument("--commit-delay", type=float, default=0.01,
                        metavar="SECONDS",
                        help="upper bound on how long the group committer "
                             "waits for concurrent writers to fill a batch "
                             "(0 disables the wait; solo writers never pay "
                             "it)")
    defaults = AdmissionPolicy()
    parser.add_argument("--max-request-bytes", type=int,
                        default=defaults.max_request_bytes, metavar="BYTES",
                        help="longest accepted protocol line; longer "
                             "requests are drained and refused unparsed "
                             "(0 disables the cap)")
    parser.add_argument("--max-facts-per-write", type=int,
                        default=defaults.max_facts_per_write, metavar="N",
                        help="most facts one add/retract request may carry "
                             "(0 disables the cap)")
    parser.add_argument("--max-inflight", type=int,
                        default=defaults.max_inflight_per_connection,
                        metavar="N",
                        help="most writes one connection may have queued at "
                             "once (0 disables the cap)")
    parser.add_argument("--queue-cap", type=int, default=defaults.queue_cap,
                        metavar="N",
                        help="commit-queue capacity; writers past it get a "
                             "typed busy refusal with a retry-after hint "
                             "instead of queueing (0 = unbounded)")
    parser.add_argument("--auth-token-file", metavar="FILE",
                        help="require the shared-secret auth handshake, "
                             "with the token read from FILE (whitespace "
                             "stripped); without it the daemon is open")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.program and args.scenario:
        raise SystemExit("--program and --scenario are mutually exclusive")
    if args.program:
        text = Path(args.program).read_text(encoding="utf-8")
        backend = ProgramBackend(parse_program(text), engine=args.engine)
    elif args.scenario:
        from ..scenarios import build_scenario
        backend = build_scenario(args.scenario).serving_backend(
            engine=args.engine)
    else:
        from ..hospital import HospitalScenario
        scenario = HospitalScenario()
        backend = QualityBackend(scenario.context, scenario.measurements,
                                 engine=args.engine)
    policy = CompactionPolicy(checkpoint_every_records=args.checkpoint_every,
                              max_wal_bytes=args.max_wal_bytes,
                              keep_snapshots=args.keep_snapshots)
    admission = AdmissionPolicy(
        max_request_bytes=args.max_request_bytes,
        max_facts_per_write=args.max_facts_per_write,
        max_inflight_per_connection=args.max_inflight,
        queue_cap=args.queue_cap)
    token = load_token(args.auth_token_file) if args.auth_token_file else None
    daemon = ServingDaemon(backend, args.data_dir, sync=not args.no_sync,
                           policy=policy, commit_delay=args.commit_delay,
                           admission=admission, auth_token=token)
    report = daemon.recover()
    host, port = daemon.start(args.host, args.port)
    if not args.quiet:
        origin = "bootstrapped" if report["bootstrapped"] else \
            (f"recovered from {report['snapshot']} + "
             f"{report['replayed_records']} WAL record(s)")
        print(f"repro serving daemon ({backend.kind}) on {host}:{port} — "
              f"{origin}; data dir {daemon.data_dir}", flush=True)
        if report.get("torn_tail"):
            print(f"  truncated torn WAL tail: {report['torn_tail']} "
                  f"({report['truncated_bytes']} bytes)", flush=True)

    def _stop(_signum, _frame):  # pragma: no cover - signal path
        daemon._async_stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        daemon.wait()
    finally:
        daemon.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
