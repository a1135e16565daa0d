"""Checkpointing, WAL segmentation and compaction for the serving daemon.

The daemon's data directory holds::

    data_dir/
        snapshot-<lsn, 16 digits>.snap   -- engine snapshots, newest wins
        wal-<base lsn, 16 digits>.log    -- WAL segments, highest base = live
        daemon.json                      -- live address (transient)

The WAL is **segmented**: each checkpoint seals the current segment and
starts a fresh one, ``wal-<lsn>.log``, based at the checkpoint's LSN.
Segments chain contiguously — each segment's base LSN equals the last
record LSN of its predecessor — so restoring *any* retained snapshot and
replaying every segment past its cut reproduces the live state; older
snapshots stay replayable for as long as their segments survive.  Only
whole segments are ever deleted (:func:`prune_segments`), and only once
the **oldest retained snapshot** no longer needs them — nothing is
truncated or rewritten in place.

A **checkpoint** is the compaction step: serialize the materialized state
to ``snapshot-<last applied LSN>.snap`` (atomic tmp+rename, with the LSN
recorded in the snapshot's ``meta`` so recovery knows the exact cut), then
start the next segment at that LSN, then drop superseded snapshots beyond
the configured safety margin and the segments none of the survivors need.
Every step is individually atomic and ordered so that a crash *anywhere*
inside a checkpoint leaves a recoverable directory:

* crash before the snapshot rename → previous snapshot + full segments;
* crash after the snapshot, before the rotation → new snapshot + old
  segments, whose records are all ≤ the snapshot's LSN and are skipped on
  replay (each record's LSN is compared against the snapshot ``meta``);
* crash after the rotation, before pruning → extra old snapshots and
  segments, removed by the next successful checkpoint.

A checkpoint that *fails* (:class:`~repro.errors.SnapshotError` — full
disk, unserializable value) is ordered save-first precisely so the
previous snapshot and the live segment are untouched: the daemon keeps
serving and retries at the next trigger.

:class:`CompactionPolicy` decides *when* to checkpoint: after every N
records, or when the live segment outgrows a byte budget — whichever
comes first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from .wal import WriteAheadLog, maybe_crash

PathLike = Union[str, Path]

ADDRESS_NAME = "daemon.json"
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{16})\.snap$")
_SEGMENT_RE = re.compile(r"^wal-(\d{16})\.log$")


def address_path(data_dir: PathLike) -> Path:
    """The transient file advertising the live daemon's host/port."""
    return Path(data_dir) / ADDRESS_NAME


def snapshot_path(data_dir: PathLike, lsn: int) -> Path:
    """The snapshot file for a checkpoint taken at ``lsn``."""
    return Path(data_dir) / f"snapshot-{lsn:016d}.snap"


def segment_path(data_dir: PathLike, base_lsn: int) -> Path:
    """The WAL segment file based at ``base_lsn``."""
    return Path(data_dir) / f"wal-{base_lsn:016d}.log"


def list_snapshots(data_dir: PathLike) -> List[Tuple[int, Path]]:
    """Every snapshot in the directory as ``(lsn, path)``, oldest first."""
    found = []
    for entry in Path(data_dir).iterdir():
        match = _SNAPSHOT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return sorted(found)


def latest_snapshot(data_dir: PathLike) -> Optional[Tuple[int, Path]]:
    """The newest snapshot, or ``None`` for a virgin data directory."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        return None
    snapshots = list_snapshots(data_dir)
    return snapshots[-1] if snapshots else None


def list_segments(data_dir: PathLike) -> List[Tuple[int, Path]]:
    """Every WAL segment as ``(base_lsn, path)``, oldest first."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        return []
    found = []
    for entry in data_dir.iterdir():
        match = _SEGMENT_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return sorted(found)


def current_segment(data_dir: PathLike) -> Optional[Tuple[int, Path]]:
    """The live (highest-based) segment, or ``None`` when there is none."""
    segments = list_segments(data_dir)
    return segments[-1] if segments else None


def prune_snapshots(data_dir: PathLike, keep: int) -> List[Path]:
    """Remove all but the ``keep`` newest snapshots; returns what went.

    The newest snapshot is never removed (``keep`` is clamped to 1) —
    recovery and replica seeding both need it, so ``keep <= 0`` means
    "no safety margin", not "delete everything"."""
    snapshots = list_snapshots(data_dir)
    doomed = snapshots[:-max(1, keep)]
    removed = []
    for _, path in doomed:
        try:
            path.unlink()
            removed.append(path)
        except OSError:  # pragma: no cover - already gone / unremovable
            pass
    return removed


def prune_segments(data_dir: PathLike, min_needed_lsn: int) -> List[Path]:
    """Remove whole segments that no retained snapshot needs.

    ``min_needed_lsn`` is the cut of the **oldest** snapshot still kept: a
    segment is prunable exactly when the *next* segment's base LSN is ≤
    that cut (every record it holds is already folded into all retained
    snapshots).  The live segment is never pruned.  Returns what went.
    """
    segments = list_segments(data_dir)
    removed = []
    for (_, path), (next_base, _) in zip(segments, segments[1:]):
        if next_base > min_needed_lsn:
            break
        try:
            path.unlink()
            removed.append(path)
        except OSError:  # pragma: no cover - already gone / unremovable
            break
    return removed


@dataclass(frozen=True)
class CompactionPolicy:
    """When to checkpoint, and how many old snapshots to keep around.

    ``checkpoint_every_records`` triggers on update count since the last
    checkpoint, ``max_wal_bytes`` on the live segment's on-disk size;
    either may be ``None`` to disable that trigger.  ``keep_snapshots`` is
    the safety margin of superseded snapshots retained for manual recovery
    (the newest one is always kept) — their WAL segments are retained with
    them, so each kept snapshot stays independently replayable.
    """

    checkpoint_every_records: Optional[int] = 256
    max_wal_bytes: Optional[int] = 4 * 1024 * 1024
    keep_snapshots: int = 2

    def due(self, records_since_checkpoint: int, wal_bytes: int) -> bool:
        """``True`` when a checkpoint should run after the current record."""
        if records_since_checkpoint <= 0:
            return False  # nothing new to compact
        if self.checkpoint_every_records is not None and \
                records_since_checkpoint >= self.checkpoint_every_records:
            return True
        return self.max_wal_bytes is not None and \
            wal_bytes >= self.max_wal_bytes


def run_checkpoint(data_dir: PathLike,
                   save: Callable[[Path, dict], Path],
                   wal: WriteAheadLog, last_lsn: int,
                   keep_snapshots: int = 2,
                   sync: bool = True) -> WriteAheadLog:
    """Checkpoint the serving state at ``last_lsn`` and rotate to a fresh
    segment.

    ``save`` is the backend's snapshot writer (``save(path, meta)`` — e.g.
    :meth:`~repro.engine.session.MaterializedProgram.save`); it must be
    atomic and leave the previous snapshot intact on failure, which the
    engine's tmp+rename save guarantees.  The caller must hold its write
    lock, so ``last_lsn`` describes exactly the state being serialized (a
    checkpoint-consistent cut).  Returns the fresh segment's WAL; on any
    failure before the rotation the passed ``wal`` remains open and valid.
    """
    data_dir = Path(data_dir)
    target = snapshot_path(data_dir, last_lsn)
    save(target, {"wal": {"lsn": last_lsn,
                          "segment": segment_path(data_dir, last_lsn).name}})
    maybe_crash("checkpoint-after-snapshot")
    # The next segment is created *before* the sealed one's handle is
    # closed: if the creation fails (disk full, fd exhaustion), the passed
    # ``wal`` is still open and valid and the daemon keeps appending to
    # it.  The caller holds the write lock, so nothing can append between
    # the creation and the close.
    fresh = WriteAheadLog.create(segment_path(data_dir, last_lsn),
                                 base_lsn=last_lsn, sync=sync)
    wal.close()
    maybe_crash("checkpoint-after-rotate")
    prune_snapshots(data_dir, keep_snapshots)
    retained = list_snapshots(data_dir)
    if retained:
        prune_segments(data_dir, retained[0][0])
    return fresh
