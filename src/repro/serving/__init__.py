"""Multi-process serving: snapshots + write-ahead log + daemon + client.

This package turns a materialized session into an operable service:

* :mod:`repro.serving.wal` — the append-only, checksummed write-ahead log
  (torn-tail detection, crash-point fault injection);
* :mod:`repro.serving.compaction` — checkpoint/compaction policies and the
  data-directory layout;
* :mod:`repro.serving.core` — what both daemons share: the line-JSON
  protocol's op table, the auth gate, per-connection pins, the socket
  server and its lifecycle;
* :mod:`repro.serving.daemon` — the primary: recover (snapshot ⊕ WAL
  replay), group-commit concurrent writers, checkpoint inline (``python
  -m repro.serving.daemon`` to run one);
* :mod:`repro.serving.replication` — log-shipping read replicas: a
  :class:`ReplicaDaemon` tails the primary's shipped segments, replays
  them through the maintained-answer path and serves pinned-version reads
  (``python -m repro.serving.replication`` to run one);
* :mod:`repro.serving.client` — a thin client mirroring the in-process
  session API, with a reads-to-replica routing knob, typed refusals and
  bounded backoff retries;
* :mod:`repro.serving.admission` — the protection layer both daemons
  consult before validation: per-request admission limits
  (:class:`AdmissionPolicy`), the bounded commit queue's back-pressure
  parameters, and the shared-secret HMAC handshake
  (:class:`Authenticator`).

The recovery invariant, proven by ``tests/test_serving_recovery.py`` and
``tests/test_replication.py``: **snapshot ⊕ durable WAL prefix ≡ live
session** — after any crash, on the primary and on every replica, the
recovered state equals a clean replay of the durable segment chain.
"""

from .admission import (AdmissionPolicy, Authenticator, compute_mac,
                        load_token)
from .client import ClientRead, ServingClient, read_address
from .compaction import (CompactionPolicy, current_segment, latest_snapshot,
                         list_segments, list_snapshots, prune_segments,
                         prune_snapshots, segment_path, snapshot_path)
from .wal import (WALRecord, WriteAheadLog, decode_facts, encode_facts,
                  scan_wal)

_LAZY_EXPORTS = {
    "ProgramBackend": "daemon",
    "QualityBackend": "daemon",
    "ServingDaemon": "daemon",
    "ReplicaDaemon": "replication",
    "ShippedLogReader": "replication",
}


def __getattr__(name):
    # The daemon/replication modules are loaded lazily so ``python -m
    # repro.serving.daemon`` (or ``.replication``) does not import them
    # twice (once as a package attribute, once as ``__main__``), which
    # would trip runpy's double-import warning.
    module = _LAZY_EXPORTS.get(name)
    if module is not None:
        import importlib
        return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissionPolicy",
    "Authenticator",
    "ClientRead",
    "CompactionPolicy",
    "ProgramBackend",
    "QualityBackend",
    "ReplicaDaemon",
    "ServingClient",
    "ServingDaemon",
    "ShippedLogReader",
    "WALRecord",
    "WriteAheadLog",
    "compute_mac",
    "current_segment",
    "decode_facts",
    "encode_facts",
    "latest_snapshot",
    "load_token",
    "list_segments",
    "list_snapshots",
    "prune_segments",
    "prune_snapshots",
    "read_address",
    "scan_wal",
    "segment_path",
    "snapshot_path",
]
