"""Log-shipping read replicas: tail the primary's WAL segments, replay,
serve pinned-version reads.

A :class:`ReplicaDaemon` follows a primary's data directory — the
"shipped log" (in production the directory would be rsync'd or mounted;
here it is simply read in place).  It seeds itself from the primary's
newest snapshot, then **tails** the ``wal-<baselsn>.log`` segment chain
(:class:`ShippedLogReader`), replaying every record past its position
through the backend's own maintained-answer update path — the same path
the primary applies and recovers through, so a caught-up replica is
observationally identical to the primary at the same LSN.

Reads are served off the replica's own MVCC
:class:`~repro.engine.versioning.VersionStore` over the same line-JSON
protocol the primary speaks: ``answers``/``holds``/``pin``/``unpin`` work
unchanged (a pinned version stays frozen while replay advances), writes
are refused with a pointer back to the primary.  Replication lag — how
many durable primary records the replica has not yet applied — is
surfaced through the ``stats`` request.

The shipped files belong to the primary: the reader never truncates or
repairs them.  A torn tail on the live segment is simply "not shipped
yet"; if the primary rolls a never-acknowledged suffix back out of the
log under the reader's feet (or prunes segments the replica still
needs), the replica notices the mismatch and **re-seeds** itself from the
primary's newest snapshot — rolled-back records are never checkpointed,
so a reseed always converges back onto the primary's history.

Run standalone with::

    python -m repro.serving.replication \\
        --primary-data-dir ./serving-data --data-dir ./replica-data

which trusts the shipped snapshot for rules and data (pass ``--scenario
NAME`` to serve a registered quality scenario's quality requests too, or
``--program rules.dlg`` to verify the snapshots against a rule set).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..engine.snapshot import wal_position
from ..errors import (ServingError, ServingProtocolError, WALCorruptionError,
                      WALError)
from .admission import AdmissionPolicy, load_token
from .compaction import latest_snapshot, list_segments
from .core import WRITE, ConnectionState, ServingCore
from .daemon import backend_from_args, serving_parser
from .wal import MAGIC, OPS, WALRecord, _parse_frame, decode_facts

PathLike = Union[str, Path]


class ReplicationGapError(ServingError):
    """The shipped log no longer covers the replica's position (segments
    pruned, or the log rewritten under the reader); re-seed from the
    primary's newest snapshot."""


class ShippedLogReader:
    """Incrementally read a primary's segment chain, record by record.

    Tracks a position — the next LSN to deliver, plus the byte offset
    reached in the segment being tailed — and on each :meth:`poll` parses
    whatever complete frames have appeared past it, following rotations
    to newer segments.  Strictly read-only on the shipped files.

    Raises :class:`ReplicationGapError` when the chain no longer covers
    the position and :class:`~repro.errors.WALCorruptionError` when the
    bytes at the position stop matching the expected records (both mean:
    re-seed).
    """

    def __init__(self, primary_dir: PathLike, start_lsn: int):
        self.primary_dir = Path(primary_dir)
        #: the next record LSN to deliver
        self.next_lsn = start_lsn + 1
        self._segment_base: Optional[int] = None
        self._segment_path: Optional[Path] = None
        self._offset = 0
        #: LSN the next frame in the current segment must carry
        self._expected: Optional[int] = None

    # -- segment selection ---------------------------------------------------

    def _select_segment(self) -> bool:
        """Point the reader at the segment that contains ``next_lsn``.

        Returns ``False`` when no segment can contain it *yet* (the chain
        ends exactly one rotation behind — nothing shipped)."""
        segments = list_segments(self.primary_dir)
        eligible = [(base, path) for base, path in segments
                    if base <= self.next_lsn - 1]
        if not eligible:
            if segments:
                raise ReplicationGapError(
                    f"the shipped log in {self.primary_dir} starts at LSN "
                    f"{segments[0][0]} but the replica needs records from "
                    f"{self.next_lsn}; the segments in between were pruned")
            return False
        self._point_at(*eligible[-1])
        return True

    def _point_at(self, base: int, path: Path) -> None:
        self._segment_base = base
        self._segment_path = path
        self._offset = 0
        self._expected = None  # validated against the header on first read

    def _advance_segment(self) -> bool:
        """Move to the successor segment once the current one is spent.

        Returns ``True`` when a successor based exactly at the last
        consumed LSN exists."""
        segments = list_segments(self.primary_dir)
        newer = [(base, path) for base, path in segments
                 if base > (self._segment_base or 0)]
        if not newer:
            return False
        base, path = newer[0]
        if base > self.next_lsn - 1:
            # The successor starts past what we consumed: records are
            # missing from the current segment (rolled back or the file
            # was replaced).  Reseed.
            raise ReplicationGapError(
                f"segment {path.name} starts at LSN {base} but the replica "
                f"has only seen up to {self.next_lsn - 1}; the shipped log "
                "skipped records")
        if base < self.next_lsn - 1:
            return False  # still inside the current segment's successor gap
        self._point_at(base, path)
        return True

    # -- polling -------------------------------------------------------------

    def poll(self) -> List[WALRecord]:
        """Every record with LSN ≥ ``next_lsn`` that is fully shipped."""
        records: List[WALRecord] = []
        if self._segment_path is None and not self._select_segment():
            return records
        while True:
            records.extend(self._read_available())
            if not self._advance_segment():
                return records

    def _read_available(self) -> List[WALRecord]:
        """Parse complete frames past the current offset; stop at a torn
        or not-yet-shipped tail."""
        path = self._segment_path
        try:
            size = path.stat().st_size
        except OSError:
            raise ReplicationGapError(
                f"shipped segment {path.name} disappeared under the reader")
        if size < self._offset:
            raise ReplicationGapError(
                f"shipped segment {path.name} shrank below the replica's "
                f"position ({size} < {self._offset} bytes); the primary "
                "rolled back records the replica already read")
        with open(path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        records: List[WALRecord] = []
        position = self._offset
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn / still being shipped — try again next poll
            body = _parse_frame(line)
            if body is None:
                raise WALCorruptionError(
                    f"shipped segment {path.name} holds an unparseable "
                    f"frame at byte {position}; the log changed under the "
                    "replica")
            if position == 0:
                if body.get("magic") != MAGIC or \
                        body.get("base_lsn") != self._segment_base:
                    raise WALCorruptionError(
                        f"shipped segment {path.name} declares base LSN "
                        f"{body.get('base_lsn')!r}, expected "
                        f"{self._segment_base}")
                self._expected = self._segment_base + 1
            else:
                if body.get("lsn") != self._expected or \
                        body.get("op") not in OPS:
                    raise WALCorruptionError(
                        f"shipped segment {path.name} carries record "
                        f"{body.get('lsn')!r} where {self._expected} was "
                        "expected; the log changed under the replica")
                if self._expected >= self.next_lsn:
                    records.append(WALRecord(
                        lsn=self._expected, op=body["op"],
                        facts=tuple(decode_facts(body["facts"]))))
                    self.next_lsn = self._expected + 1
                self._expected += 1
            position += len(line)
            self._offset = position
        return records


class ReplicaDaemon(ServingCore):
    """Serve read-only, pinned-version answers off a shipped log: the
    replica role of :class:`~repro.serving.core.ServingCore`, adding the
    tailer and refusing writes.

    Same constructor shape as :class:`~repro.serving.daemon.ServingDaemon`
    — a backend plus a data directory of its own (for the address file) —
    with ``primary_dir`` pointing at the primary's data directory.
    """

    role = "replica"

    def __init__(self, backend, primary_dir: PathLike, data_dir: PathLike,
                 poll_interval: float = 0.05,
                 admission: Optional[AdmissionPolicy] = None,
                 auth_token: Optional[Union[str, bytes]] = None):
        self.primary_dir = Path(primary_dir)
        if Path(data_dir).resolve() == self.primary_dir.resolve():
            raise ServingError(
                "a replica needs its own data directory — pointing it at "
                "the primary's would fight over daemon.json")
        super().__init__(backend, data_dir, admission=admission,
                         auth_token=auth_token)
        self.poll_interval = poll_interval
        #: last LSN applied to the backend (the replica's visible position)
        self.applied_lsn = 0
        self.last_error: Optional[str] = None
        self._reader: Optional[ShippedLogReader] = None
        self._poller: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # -- seeding / recovery --------------------------------------------------

    def recover(self) -> Dict[str, Any]:
        """Seed from the primary's newest snapshot and position the tailer
        at its cut; returns a report like the primary's."""
        with self._lock:
            cut = self._seed()
            self._default_connection = ConnectionState(self.backend.versions)
            report = {"bootstrapped": False, "snapshot": True,
                      "base_lsn": cut, "replayed_records": 0,
                      "torn_tail": None, "truncated_bytes": 0}
            self.recovery = report
            return report

    def _seed(self) -> int:
        found = latest_snapshot(self.primary_dir)
        if found is None:
            raise ServingError(
                f"the primary data directory {self.primary_dir} holds no "
                "snapshot to seed a replica from; let the primary recover "
                "(and checkpoint) first")
        lsn, path = found
        self.backend.restore(path)
        cut = wal_position(self.backend.snapshot_meta, default=lsn)
        self.applied_lsn = cut
        self._reader = ShippedLogReader(self.primary_dir, cut)
        return cut

    def _reseed(self, reason: str) -> None:
        """Fall back to the primary's newest snapshot after the shipped
        log moved from under us (pruned segments, rolled-back records)."""
        self.serving_stats.reseeds += 1
        self.last_error = reason
        self._seed()

    # -- replay --------------------------------------------------------------

    def poll(self) -> int:
        """Replay every newly shipped record; returns how many."""
        with self._lock:
            if self._reader is None:
                raise ServingError("the replica has not recovered yet; "
                                   "call recover() before polling")
            self.serving_stats.polls += 1
            try:
                records = self._reader.poll()
            except (WALError, ServingError) as exc:
                self._reseed(str(exc))
                try:
                    records = self._reader.poll()
                except (WALError, ServingError):
                    return 0  # stay at the reseeded cut; retry next poll
            for record in records:
                self.backend.apply(record)
                self.applied_lsn = record.lsn
                self.serving_stats.records_replayed += 1
            if records:
                self.last_error = None
            return len(records)

    def primary_lsn(self) -> int:
        """The primary's durable tail: the last record LSN fully shipped
        (scans the live segment; torn tails count as not shipped)."""
        segments = list_segments(self.primary_dir)
        if not segments:
            found = latest_snapshot(self.primary_dir)
            return found[0] if found else 0
        base, path = segments[-1]
        probe = ShippedLogReader(self.primary_dir, base)
        probe._point_at(base, path)
        try:
            records = probe._read_available()
        except (WALError, ServingError):
            return base
        return records[-1].lsn if records else base

    def replication_status(self) -> Dict[str, Any]:
        """Lag and replay counters (the ``stats`` op's ``serving`` slot)."""
        primary = self.primary_lsn()
        with self._lock:
            return {
                "applied_lsn": self.applied_lsn,
                "primary_lsn": primary,
                "lag_records": max(0, primary - self.applied_lsn),
                "records_replayed": self.serving_stats.records_replayed,
                "reseeds": self.serving_stats.reseeds,
                "polls": self.serving_stats.polls,
                "last_error": self.last_error,
            }

    def catch_up(self, timeout: float = 30.0) -> int:
        """Poll until the replica has applied the primary's durable tail
        (or ``timeout`` elapses); returns the remaining lag in records."""
        deadline = time.monotonic() + timeout
        while True:
            self.poll()
            lag = self.primary_lsn() - self.applied_lsn
            if lag <= 0 or time.monotonic() >= deadline:
                return max(0, lag)
            time.sleep(min(self.poll_interval, 0.02))

    # -- the replica's part of the protocol ----------------------------------

    def _check_op(self, op: str, kind: str) -> None:
        if kind == WRITE:
            raise ServingProtocolError(
                f"request {op!r} is a write, but this daemon is a read "
                "replica — send writes to the primary")

    def _ping_fields(self) -> Dict[str, Any]:
        return {"role": "replica", "lsn": self.applied_lsn}

    def _serving_slot(self) -> Dict[str, Any]:
        return {
            "role": "replica",
            "replication": self.replication_status(),
            "counters": self.serving_stats.as_dict(),
            "admission": {
                "max_request_bytes": self.admission.max_request_bytes,
                "auth_required": self.authenticator.required,
            },
        }

    # -- the tailer ----------------------------------------------------------

    def _on_start(self) -> None:
        self._stop_event.clear()
        self._poller = threading.Thread(target=self._poll_loop,
                                        name="repro-replica-tailer",
                                        daemon=True)
        self._poller.start()

    def _poll_loop(self) -> None:
        while not self._stop_event.wait(self.poll_interval):
            try:
                self.poll()
            except Exception as exc:  # noqa: BLE001 - keep tailing
                self.last_error = str(exc)

    def stop(self) -> None:
        """Stop tailing and serving, releasing every held pin
        (idempotent)."""
        self._stop_event.set()
        poller, self._poller = self._poller, None
        if poller is not None and poller is not threading.current_thread():
            poller.join(timeout=5)
        super().stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ReplicaDaemon({self.backend.kind!r}, "
                f"primary={str(self.primary_dir)!r}, "
                f"lsn={self.applied_lsn})")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = serving_parser(
        "python -m repro.serving.replication",
        "Serve read-only answers off a primary's shipped snapshots + WAL "
        "segments (rules and data from the snapshot unless --program or "
        "--scenario says otherwise).")
    parser.add_argument("--primary-data-dir", required=True,
                        help="the primary daemon's data directory (the "
                             "shipped log)")
    parser.add_argument("--data-dir", required=True,
                        help="the replica's own directory (address file); "
                             "must differ from the primary's")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        metavar="SECONDS")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    backend = backend_from_args(args)
    admission = AdmissionPolicy(max_request_bytes=args.max_request_bytes)
    token = load_token(args.auth_token_file) if args.auth_token_file else None
    replica = ReplicaDaemon(backend, args.primary_data_dir, args.data_dir,
                            poll_interval=args.poll_interval,
                            admission=admission, auth_token=token)
    report = replica.recover()
    replica.poll()
    host, port = replica.start(args.host, args.port)
    if not args.quiet:
        print(f"repro replica ({backend.kind}) on {host}:{port} — seeded at "
              f"LSN {report['base_lsn']}, applied through "
              f"{replica.applied_lsn}; shipping from {replica.primary_dir}",
              flush=True)

    def _stop(_signum, _frame):  # pragma: no cover - signal path
        replica._async_stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        replica.wait()
    finally:
        replica.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
