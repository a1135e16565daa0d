"""Log-shipping replication suite: a replica tails the primary's WAL
segments and serves reads identical to the primary's.

The invariants under test:

* **catch-up equivalence** — a caught-up replica's ground facts and
  certain answers equal the primary's (the differential check), because
  replay goes through the same maintained-answer path as the primary;
* **read routing** — ``ServingClient(read_from="replica")`` routes
  ``answers``/``holds``/``pin`` to the replica over the wire, writes stay
  on the primary, and the replica refuses writes loudly;
* **MVCC on the replica** — a version pinned on the replica stays frozen
  while replay advances past it;
* **reseed** — when the primary prunes segments the replica still needs,
  the replica reseeds from the newest shipped snapshot and converges;
* **torn-tail tolerance** — a half-shipped frame is "not here yet", not
  an error: the reader resumes cleanly once the bytes complete;
* **one protocol** — a caught-up replica answers the quality reads
  exactly as the primary does, refuses every write-kind op, and errors
  on an unknown op as the primary does; a replica started from the
  command line with ``--scenario`` serves that scenario.

``REPRO_FAULT_SEED`` (CI matrix, seeds 0-2) shifts streams and sizes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import pytest

import repro
import test_session_differential as differential
from repro.datalog import parse_program
from repro.errors import ServingError, ServingProtocolError
from repro.scenarios import build_scenario
from repro.serving import (CompactionPolicy, ReplicaDaemon, ServingClient,
                           ShippedLogReader, WriteAheadLog, scan_wal,
                           segment_path)
from repro.serving import daemon as daemon_cli
from repro.serving.daemon import ProgramBackend, ServingDaemon
from repro.serving.wal import OP_ADD, OP_RETRACT

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

PROGRAM_TEXT = """
    Derived(X, Y) :- Base(X, Y).
    Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
    Base(a, b). Base(c, d).
    Link(b, t1). Link(d, t2).
"""

QUERIES = ("?(X, Z) :- Joined(X, Z).",
           "?(X, Y) :- Derived(X, Y).",
           "? :- Joined(X, t1).")


def _stream(rng: random.Random, steps: int) -> List[Tuple[str, List]]:
    added: List[Tuple[str, Tuple]] = []
    items: List[Tuple[str, List]] = []
    for index in range(steps):
        if added and rng.random() < 0.3:
            items.append((OP_RETRACT, [added.pop(rng.randrange(len(added)))]))
        else:
            fact = ("Base", (f"x{index}", rng.choice(["b", "d"])))
            added.append(fact)
            items.append((OP_ADD, [fact]))
    return items


def _primary(data_dir, **policy) -> ServingDaemon:
    daemon = ServingDaemon(ProgramBackend(parse_program(PROGRAM_TEXT)),
                           data_dir,
                           policy=CompactionPolicy(**policy)
                           if policy else None)
    daemon.recover()
    return daemon


def _replica(primary_dir, data_dir) -> ReplicaDaemon:
    # Snapshot-authoritative: the rule set comes from the shipped
    # snapshot, exactly as `python -m repro.serving.replication` defaults.
    replica = ReplicaDaemon(ProgramBackend(None), primary_dir, data_dir)
    replica.recover()
    return replica


def _assert_replica_matches(replica: ReplicaDaemon,
                            primary: ServingDaemon) -> None:
    assert differential._ground_facts(replica.backend.materialized.instance) \
        == differential._ground_facts(primary.backend.materialized.instance)
    for query in QUERIES:
        assert replica.backend.materialized.certain_answers(query) == \
            primary.backend.materialized.certain_answers(query)


# -- catch-up equivalence -----------------------------------------------------


def test_replica_catches_up_and_matches_primary(tmp_path):
    """Seed → tail → replay: the caught-up replica is observationally
    identical to the primary, across checkpoints/rotations, and reports
    zero lag."""
    primary = _primary(tmp_path / "primary", checkpoint_every_records=4,
                       keep_snapshots=2)
    replica = _replica(tmp_path / "primary", tmp_path / "replica")
    try:
        items = _stream(random.Random(5100 + FAULT_SEED), steps=10)
        for op, facts in items:
            primary.apply_write(op, list(facts))
            replica.poll()  # a live tailer keeps up as the primary churns
        assert replica.catch_up(timeout=30.0) == 0
        assert replica.applied_lsn == primary.last_lsn
        _assert_replica_matches(replica, primary)

        status = replica.replication_status()
        assert status["lag_records"] == 0
        assert status["records_replayed"] > 0
        assert status["reseeds"] == 0

        # More writes after the first catch-up keep flowing.
        primary.apply_write(OP_ADD, [("Link", ("b", "t99"))])
        assert replica.catch_up(timeout=30.0) == 0
        _assert_replica_matches(replica, primary)
    finally:
        replica.stop()
        primary.stop()


def test_replica_pinned_version_stays_frozen(tmp_path):
    """A version pinned on the replica answers the same rows while replay
    publishes newer versions past it — MVCC reads, not last-writer-wins."""
    primary = _primary(tmp_path / "primary")
    replica = _replica(tmp_path / "primary", tmp_path / "replica")
    try:
        primary.apply_write(OP_ADD, [("Base", ("pinned", "b"))])
        assert replica.catch_up(timeout=30.0) == 0
        session = replica.backend.session
        with session.read() as txn:
            before = txn.answers(QUERIES[1])
            primary.apply_write(OP_ADD, [("Base", ("later", "d"))])
            assert replica.catch_up(timeout=30.0) == 0
            assert txn.answers(QUERIES[1]) == before  # frozen cut
        _assert_replica_matches(replica, primary)  # latest sees the write
    finally:
        replica.stop()
        primary.stop()


# -- the wire: routing, refusal, lag ------------------------------------------


def test_client_routes_reads_to_replica_and_writes_to_primary(tmp_path):
    """The full socket path: a client with ``read_from="replica"`` sends
    answers/holds/pin to the replica and writes to the primary; the
    replica refuses writes; replication lag is surfaced."""
    primary = _primary(tmp_path / "primary")
    replica = _replica(tmp_path / "primary", tmp_path / "replica")
    client = None
    try:
        primary.start(host="127.0.0.1", port=0)
        replica.start(host="127.0.0.1", port=0)
        client = ServingClient.connect(tmp_path / "primary", wait=30.0,
                                       replica_dir=tmp_path / "replica",
                                       read_from="replica")
        assert client._reader() is client._replica  # routed
        assert client._replica.ping()["role"] == "replica"

        client.add_facts([("Base", ("routed", "b"))])  # lands on the primary
        deadline = time.monotonic() + 30.0
        while client.replication_lag() > 0:
            assert time.monotonic() < deadline, "replica never caught up"
            time.sleep(0.02)
        # The read comes off the replica and includes the routed write.
        rows = client.answers(QUERIES[1])
        assert ("routed", "b") in rows
        assert client.holds("? :- Derived(routed, b).")

        # Pinned reads pin on the replica and stay frozen there.
        with client.read() as read:
            before = read.answers(QUERIES[1])
            client.add_facts([("Base", ("after-pin", "d"))])
            while client.replication_lag() > 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert read.answers(QUERIES[1]) == before

        # Writes to the replica itself are refused with a pointer back.
        with pytest.raises(ServingProtocolError, match="read replica"):
            client._replica.add_facts([("Base", ("nope", "b"))])

        stats = client.replica_stats()["serving"]
        assert stats["role"] == "replica"
        assert stats["replication"]["applied_lsn"] == primary.last_lsn

        # Flipping the knob back routes reads to the primary again.
        client.read_from = "primary"
        assert client._reader() is client
        assert ("after-pin", "d") in client.answers(QUERIES[1])
    finally:
        if client is not None:
            client.close()
        replica.stop()
        primary.stop()


# -- one protocol: quality reads, refusals, the command line ------------------


def _sensornet_writes(primary: ServingDaemon, seed: int) -> None:
    """A few recorded and one retracted assessed-relation tuple."""
    scenario = build_scenario("sensornet")
    relation = scenario.assessed_relation
    rng = random.Random(seed + FAULT_SEED)
    rows = [scenario.fresh_assessed_row(rng, index) for index in range(4)]
    primary.apply_write(OP_ADD, [(relation, row) for row in rows])
    primary.apply_write(OP_RETRACT, [(relation, rows[0])])


def test_replica_quality_reads_match_and_writes_are_refused(tmp_path):
    """At the same LSN, a caught-up replica answers ``quality_answers``,
    ``quality_version`` and ``assess`` exactly as the primary does; it
    refuses every write-kind op, and an unknown op gets the primary's
    error."""
    scenario = build_scenario("sensornet")
    primary = ServingDaemon(scenario.serving_backend(), tmp_path / "primary")
    primary.recover()
    replica = ReplicaDaemon(build_scenario("sensornet").serving_backend(),
                            tmp_path / "primary", tmp_path / "replica")
    replica.recover()
    clients = []
    try:
        _sensornet_writes(primary, seed=5900)
        assert replica.catch_up(timeout=30.0) == 0
        assert replica.applied_lsn == primary.last_lsn
        requests = [{"op": "quality_answers", "query": query}
                    for query in scenario.quality_queries()]
        requests += [{"op": "quality_version", "relation": relation}
                     for relation in sorted(scenario.context.quality_versions)]
        requests.append({"op": "assess"})
        for request in requests:
            expected = primary.handle(request)
            assert expected["ok"], expected
            assert replica.handle(request) == expected

        primary.start(host="127.0.0.1", port=0)
        replica.start(host="127.0.0.1", port=0)
        to_primary = ServingClient.connect(tmp_path / "primary", wait=30.0)
        to_replica = ServingClient.connect(tmp_path / "replica", wait=30.0)
        clients += [to_primary, to_replica]
        fact = [(scenario.assessed_relation,
                 scenario.fresh_assessed_row(random.Random(0), 0))]
        for refused in (lambda: to_replica.add_facts(fact),
                        lambda: to_replica.retract_facts(fact),
                        to_replica.checkpoint):
            with pytest.raises(ServingProtocolError, match="read replica"):
                refused()
        errors = []
        for client in (to_primary, to_replica):
            with pytest.raises(ServingProtocolError,
                               match="unknown request op") as raised:
                client.request("no_such_op")
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert replica.applied_lsn == primary.last_lsn  # nothing got through
    finally:
        for client in clients:
            client.close()
        replica.stop()
        primary.stop()


def test_replica_command_line_serves_a_scenario(tmp_path):
    """A replica process started with ``--scenario sensornet``, seeded off
    a primary built from ``--scenario sensornet`` arguments, answers
    ``answers`` exactly as that primary does."""
    primary_dir = tmp_path / "primary"
    args = daemon_cli._build_parser().parse_args(
        ["--data-dir", str(primary_dir), "--scenario", "sensornet"])
    primary = ServingDaemon(
        daemon_cli.backend_from_args(args, default_scenario="hospital"),
        args.data_dir)
    primary.recover()
    _sensornet_writes(primary, seed=6000)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    env.pop("REPRO_FAULT_STALL", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.replication",
         "--primary-data-dir", str(primary_dir),
         "--data-dir", str(tmp_path / "replica"),
         "--scenario", "sensornet", "--port", "0", "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    client = None
    try:
        client = ServingClient.connect(tmp_path / "replica", wait=30.0)
        ping = client.ping()
        assert (ping["role"], ping["kind"]) == ("replica", "quality")
        deadline = time.monotonic() + 30.0
        while client.ping()["lsn"] < primary.last_lsn:
            assert time.monotonic() < deadline, "replica never caught up"
            time.sleep(0.02)
        for query in build_scenario("sensornet").queries():
            expected = primary.handle({"op": "answers", "query": query})
            assert expected["ok"], expected
            assert client.request("answers", query=query)["rows"] == \
                expected["result"]["rows"]
    finally:
        if client is not None:
            try:
                client.shutdown()
            except Exception:  # noqa: BLE001 - already gone
                pass
            client.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung replica
            process.kill()
            process.wait(timeout=30)
        primary.stop()


# -- reseed after pruning -----------------------------------------------------


def test_replica_reseeds_after_segments_are_pruned(tmp_path):
    """A replica left behind while the primary checkpoints aggressively
    (its needed segments pruned) must reseed from the newest shipped
    snapshot and converge — not crash, not serve stale answers forever."""
    primary = _primary(tmp_path / "primary", checkpoint_every_records=2,
                       keep_snapshots=0)
    replica = _replica(tmp_path / "primary", tmp_path / "replica")
    try:
        seeded_at = replica.applied_lsn
        # Churn far past the replica's seed point without letting it poll:
        # the segments covering (seeded_at, …] get pruned away.
        items = _stream(random.Random(5600 + FAULT_SEED), steps=10)
        for op, facts in items:
            primary.apply_write(op, list(facts))
        assert replica.catch_up(timeout=30.0) == 0
        assert replica.serving_stats.reseeds >= 1
        assert replica.applied_lsn > seeded_at
        _assert_replica_matches(replica, primary)
        assert replica.replication_status()["reseeds"] >= 1
    finally:
        replica.stop()
        primary.stop()


# -- the shipped-log reader ---------------------------------------------------


def test_shipped_reader_tolerates_torn_tails(tmp_path):
    """A half-shipped frame is "not shipped yet": the reader returns the
    complete prefix, then resumes with the rest once the bytes arrive —
    no error, no duplicate, no skip."""
    primary_dir = tmp_path / "primary"
    primary_dir.mkdir()
    wal = WriteAheadLog.create(segment_path(primary_dir, 0))
    for index in range(3):
        wal.append(OP_ADD, [("Base", (f"r{index}", "b"))])
    wal.close()
    path = segment_path(primary_dir, 0)
    complete = path.read_bytes()
    lines = complete.splitlines(keepends=True)
    torn_at = len(complete) - len(lines[-1]) + \
        random.Random(FAULT_SEED).randrange(1, len(lines[-1]) - 1)
    path.write_bytes(complete[:torn_at])  # the last frame is half-shipped

    reader = ShippedLogReader(primary_dir, start_lsn=0)
    first = reader.poll()
    assert [record.lsn for record in first] == [1, 2]
    assert reader.poll() == []  # still torn: nothing new, no error

    path.write_bytes(complete)  # the rest of the frame arrives
    second = reader.poll()
    assert [record.lsn for record in second] == [3]
    assert second[0].facts == (("Base", ("r2", "b")),)
    assert reader.next_lsn == 4
    # Sanity: the file itself is a clean, un-torn WAL again.
    assert scan_wal(path).torn_reason is None


def test_reader_refuses_a_log_rewritten_under_it(tmp_path):
    """If the shipped segment shrinks below the reader's position (the
    primary rolled back records the replica already consumed), the reader
    raises the reseed signal instead of serving divergent history."""
    from repro.serving.replication import ReplicationGapError
    primary_dir = tmp_path / "primary"
    primary_dir.mkdir()
    wal = WriteAheadLog.create(segment_path(primary_dir, 0))
    frames = wal.append_batch([(OP_ADD, [("Base", ("keep", "b"))]),
                               (OP_ADD, [("Base", ("doomed", "d"))])])
    reader = ShippedLogReader(primary_dir, start_lsn=0)
    assert [record.lsn for record in reader.poll()] == [1, 2]
    wal.rollback_to(frames[0].lsn, frames[1].offset)  # primary rolls back
    wal.close()
    with pytest.raises((ReplicationGapError, ServingError)):
        reader.poll()


def test_replica_without_a_shipped_snapshot_is_refused(tmp_path):
    """Seeding from an empty primary directory must fail loudly, telling
    the operator to let the primary recover (and checkpoint) first."""
    (tmp_path / "primary").mkdir()
    with pytest.raises(ServingError, match="no snapshot"):
        _replica(tmp_path / "primary", tmp_path / "replica")


def test_replica_rejects_sharing_the_primary_directory(tmp_path):
    """Pointing a replica's own data directory at the primary's would
    fight over daemon.json — refused up front."""
    with pytest.raises(ServingError, match="own data directory"):
        ReplicaDaemon(ProgramBackend(None), tmp_path / "p", tmp_path / "p")
