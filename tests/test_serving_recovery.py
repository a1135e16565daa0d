"""Crash/fault-injection recovery suite for the serving daemon.

The invariant under test: **snapshot ⊕ WAL replay ≡ live session** — after
*any* crash (SIGKILL mid-write-burst, a death inside a checkpoint, a torn
or bit-flipped WAL tail), recovery reproduces exactly the state of a clean
replay of the durable WAL prefix:

* every **acknowledged** update is durable (``durable LSN >= acked``, with
  at most one unacknowledged in-flight record on top);
* the recovered instance's ground facts and certain answers are identical
  to a fresh cold chase that applies the same durable update prefix
  in-process;
* damage *before* the tail (lost updates) is refused loudly
  (:class:`~repro.errors.WALCorruptionError`), never skipped;
* a failed checkpoint leaves the previous snapshot and the live WAL
  intact, and the daemon keeps serving.

Crash points are driven two ways: an external ``SIGKILL`` against a real
daemon subprocess mid-burst, and deterministic in-process crash points
(``REPRO_FAULT_CRASH`` — see :mod:`repro.serving.wal`) that die with
``os._exit`` at exact WAL/checkpoint steps.  ``REPRO_FAULT_SEED`` (CI
matrix) shifts the randomized positions, streams and byte offsets.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import List, Tuple

import pytest

import test_session_differential as differential
import repro
from repro.datalog import parse_program
from repro.engine.session import MaterializedProgram
from repro.errors import (DaemonUnavailableError, ServingError,
                          ServingProtocolError, SnapshotError,
                          WALCorruptionError)
from repro.serving import (CompactionPolicy, ServingClient, current_segment,
                           latest_snapshot, list_segments, scan_wal)
from repro.serving.daemon import ProgramBackend, ServingDaemon
from repro.serving.wal import FAULT_EXIT_CODE, OP_ADD, OP_RETRACT
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
ENGINES = ("indexed", "naive")
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

UpdateItem = Tuple[str, List[Tuple[str, Tuple]]]


# -- helpers ------------------------------------------------------------------


def _stream(rng: random.Random, steps: int) -> List[UpdateItem]:
    """A deterministic add/retract item stream over PROGRAM_TEXT's EDB."""
    added: List[Tuple[str, Tuple]] = []
    items: List[UpdateItem] = []
    for index in range(steps):
        if added and rng.random() < 0.3:
            victim = added.pop(rng.randrange(len(added)))
            items.append((OP_RETRACT, [victim]))
        else:
            fact = ("Base", (f"x{index}", rng.choice(["b", "d"]))) \
                if rng.random() < 0.7 else \
                ("Link", (rng.choice(["b", "d"]), f"t{index + 3}"))
            added.append(fact)
            items.append((OP_ADD, [fact]))
    return items


def _apply_item(materialized: MaterializedProgram, item: UpdateItem) -> None:
    op, facts = item
    if op == OP_ADD:
        materialized.add_facts(facts)
    else:
        materialized.retract_facts(facts)


def _wal_file(data_dir: Path) -> Path:
    """The live (highest-based) WAL segment file."""
    return current_segment(data_dir)[1]


def _durable_lsn(data_dir: Path) -> int:
    """The last durable record on disk: snapshot cut ⊕ intact WAL suffix."""
    found = latest_snapshot(data_dir)
    base = found[0] if found is not None else 0
    scan = scan_wal(_wal_file(data_dir))
    last = scan.records[-1].lsn if scan.records else scan.header["base_lsn"]
    return max(base, last)


def _durable_records(data_dir: Path) -> List:
    """Every durable record across the whole segment chain, LSN order."""
    records = []
    for _, path in list_segments(data_dir):
        records.extend(record for record in scan_wal(path).records
                       if not records or record.lsn > records[-1].lsn)
    return records


def _recover(data_dir: Path,
             program_text: str = PROGRAM_TEXT) -> ServingDaemon:
    daemon = ServingDaemon(ProgramBackend(parse_program(program_text)),
                           data_dir)
    daemon.recover()
    return daemon


def _clean_replay(items: List[UpdateItem], durable: int,
                  program_text: str = PROGRAM_TEXT) -> MaterializedProgram:
    """The oracle: a cold chase plus the durable update prefix, in-process.

    Record LSN ``k`` is exactly ``items[k - 1]`` (the daemon assigns LSNs
    1, 2, ... to the stream in order), so the durable prefix of the WAL is
    the first ``durable`` stream items."""
    oracle = MaterializedProgram(parse_program(program_text))
    for item in items[:durable]:
        _apply_item(oracle, item)
    return oracle


def _assert_equals_oracle(recovered: MaterializedProgram,
                          oracle: MaterializedProgram,
                          queries=QUERIES) -> None:
    assert differential._ground_facts(recovered.instance) == \
        differential._ground_facts(oracle.instance)
    for query in queries:
        assert recovered.certain_answers(query) == \
            oracle.certain_answers(query)


def _spawn_daemon(data_dir: Path, program_file: Path, *,
                  checkpoint_every: int = None,
                  fault: str = None, no_sync: bool = False,
                  engine: str = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    if fault:
        env["REPRO_FAULT_CRASH"] = fault
    command = [sys.executable, "-m", "repro.serving.daemon",
               "--data-dir", str(data_dir), "--program", str(program_file),
               "--port", "0", "--quiet"]
    if checkpoint_every is not None:
        command += ["--checkpoint-every", str(checkpoint_every)]
    if no_sync:
        command += ["--no-sync"]
    if engine is not None:
        command += ["--engine", engine]
    return subprocess.Popen(command, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.dlg"
    path.write_text(PROGRAM_TEXT, encoding="utf-8")
    return path


def _drive_until_dead(client: ServingClient,
                      items: List[UpdateItem]) -> int:
    """Send items until the daemon dies; returns how many were acked."""
    acked = 0
    for op, facts in items:
        try:
            if op == OP_ADD:
                client.add_facts(facts)
            else:
                client.retract_facts(facts)
            acked += 1
        except (DaemonUnavailableError, ServingProtocolError):
            return acked
    pytest.fail("the daemon outlived the whole stream without crashing")


# -- SIGKILL mid-write-burst --------------------------------------------------


def test_sigkill_mid_write_burst_recovers_to_durable_prefix(tmp_path,
                                                            program_file):
    """A real daemon process killed with SIGKILL mid-burst: the recovered
    state equals a clean replay of the durable WAL prefix, and every
    acknowledged update survived."""
    rng = random.Random(900 + FAULT_SEED)
    items = _stream(rng, steps=30)
    kill_after = rng.randint(3, 12)
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file)
    try:
        client = ServingClient.connect(data_dir, wait=30.0)
        acked = 0
        for index, item in enumerate(items):
            if index == kill_after:
                os.kill(process.pid, signal.SIGKILL)
                process.wait(timeout=30)
            op, facts = item
            try:
                if op == OP_ADD:
                    client.add_facts(facts)
                else:
                    client.retract_facts(facts)
                acked += 1
            except (DaemonUnavailableError, ServingProtocolError):
                break
        assert process.poll() is not None, "SIGKILL did not land"
        client.close()
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            process.kill()
            process.wait(timeout=30)

    durable = _durable_lsn(data_dir)
    # Durability: nothing acked is lost; at most one in-flight record may
    # be durable-but-unacknowledged.
    assert acked <= durable <= acked + 1
    daemon = _recover(data_dir)
    assert daemon.last_lsn == durable
    _assert_equals_oracle(daemon.backend.materialized,
                          _clean_replay(items, durable))
    daemon.stop()


# -- deterministic in-process crash points ------------------------------------


@pytest.mark.parametrize("sync_mode", ["sync", "no-sync"])
@pytest.mark.parametrize("point", ["wal-append", "wal-torn"])
def test_injected_crash_around_append(tmp_path, program_file, point,
                                      sync_mode):
    """Die exactly at (or halfway through) the n-th WAL append: recovery
    replays to precisely the last durable record — n for a completed
    append, n-1 for a torn half-written frame.  Under ``--no-sync`` the
    process-crash durability story is the same (the torn-tail fault point
    flushes what it wrote before dying, like the OS cache surviving a
    process crash)."""
    crash_at = 3 + (FAULT_SEED % 4)
    rng = random.Random(1300 + FAULT_SEED)
    items = _stream(rng, steps=crash_at + 5)
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file,
                            fault=f"{point}:{crash_at}",
                            no_sync=sync_mode == "no-sync")
    try:
        client = ServingClient.connect(data_dir, wait=30.0)
        acked = _drive_until_dead(client, items)
        client.close()
        assert process.wait(timeout=30) == FAULT_EXIT_CODE
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            process.kill()
            process.wait(timeout=30)

    assert acked == crash_at - 1  # the crashing append was never acked
    durable = _durable_lsn(data_dir)
    expected = crash_at if point == "wal-append" else crash_at - 1
    assert durable == expected
    daemon = _recover(data_dir)
    report = daemon.recovery
    assert report["replayed_records"] == durable
    if point == "wal-torn":
        assert report["torn_tail"] is not None
        assert report["truncated_bytes"] > 0
    _assert_equals_oracle(daemon.backend.materialized,
                          _clean_replay(items, durable))
    daemon.stop()


@pytest.mark.parametrize("point", ["pre-auto-checkpoint",
                                   "checkpoint-after-snapshot",
                                   "checkpoint-after-rotate"])
def test_injected_crash_mid_checkpoint(tmp_path, program_file, point):
    """Die before/inside/after the checkpoint's atomic steps: whatever
    combination of old/new snapshot and old/fresh WAL the crash leaves,
    recovery converges on the same durable prefix."""
    checkpoint_every = 4 + (FAULT_SEED % 3)
    rng = random.Random(1700 + FAULT_SEED)
    items = _stream(rng, steps=checkpoint_every + 4)
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file,
                            checkpoint_every=checkpoint_every,
                            fault=f"{point}:1")
    try:
        client = ServingClient.connect(data_dir, wait=30.0)
        acked = _drive_until_dead(client, items)
        client.close()
        assert process.wait(timeout=30) == FAULT_EXIT_CODE
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            process.kill()
            process.wait(timeout=30)

    # The crash fires inside the write that trips the checkpoint trigger.
    assert acked == checkpoint_every - 1
    durable = _durable_lsn(data_dir)
    assert durable == checkpoint_every
    daemon = _recover(data_dir)
    assert daemon.last_lsn == durable
    _assert_equals_oracle(daemon.backend.materialized,
                          _clean_replay(items, durable))
    # The recovered directory keeps serving and checkpointing normally.
    for item in items[durable:durable + 2]:
        op, facts = item
        daemon.apply_write(op, list(facts))
    daemon.checkpoint()
    _assert_equals_oracle(daemon.backend.materialized,
                          _clean_replay(items, durable + 2))
    daemon.stop()


# -- offline tail faults over generated workloads (both engines) --------------


def _workload_items(workload, steps: int) -> List[UpdateItem]:
    stream = generate_update_stream(workload, steps=steps, adds_per_step=2,
                                    retracts_per_step=1,
                                    seed=11 + FAULT_SEED)
    items: List[UpdateItem] = []
    for step in stream:
        if step.adds:
            items.append((OP_ADD, list(step.adds)))
        if step.retracts:
            items.append((OP_RETRACT, list(step.retracts)))
    return items


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fault", ["truncate", "bitflip"])
def test_tail_faults_on_workload_stream(tmp_path, engine, fault):
    """Truncate or bit-flip the WAL tail under a generated MD workload
    stream: recovery truncates back to the last durable record and agrees
    with a fresh differential chase of that prefix, on both engines."""
    workload = generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=12, upward_rules=True, downward_rules=True,
        seed=7))
    program = workload.ontology.program()
    items = _workload_items(workload, steps=5)

    data_dir = tmp_path / "data"
    daemon = ServingDaemon(
        ProgramBackend(workload.ontology.program(), engine=engine), data_dir,
        policy=CompactionPolicy(checkpoint_every_records=None,
                                max_wal_bytes=None))
    daemon.recover()
    for item in items:
        op, facts = item
        daemon.apply_write(op, list(facts))
    daemon.stop()  # the crash: nothing checkpointed, WAL holds everything

    wal_file = _wal_file(data_dir)
    data = wal_file.read_bytes()
    rng = random.Random(FAULT_SEED * 31 + len(fault))
    if fault == "truncate":
        data = data[:-rng.randint(2, 60)]
    else:
        last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
        position = rng.randrange(last_line_start, len(data) - 1)
        data = data[:position] + bytes([data[position] ^ 0x20]) + \
            data[position + 1:]
    wal_file.write_bytes(data)

    durable = _durable_lsn(data_dir)
    assert durable < len(items)  # the fault really cost the tail
    recovered = ServingDaemon(
        ProgramBackend(workload.ontology.program(), engine=engine), data_dir)
    report = recovered.recover()
    assert report["torn_tail"] is not None
    assert report["replayed_records"] == durable

    oracle = MaterializedProgram(program, engine=engine)
    for item in items[:durable]:
        _apply_item(oracle, item)
    _assert_equals_oracle(recovered.backend.materialized, oracle,
                          queries=workload.queries)
    recovered.stop()


def test_damage_before_the_tail_is_refused(tmp_path):
    """A bit flip in a *middle* record (later records intact) means lost
    updates: recovery must refuse with WALCorruptionError, not silently
    skip the hole."""
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir)
    items = _stream(random.Random(2100 + FAULT_SEED), steps=6)
    for item in items:
        op, facts = item
        daemon.apply_write(op, list(facts))
    daemon.stop()

    wal_file = _wal_file(data_dir)
    lines = wal_file.read_bytes().splitlines(keepends=True)
    victim = 2  # a record frame strictly before the tail (0 is the header)
    lines[victim] = lines[victim][:70] + \
        bytes([lines[victim][70] ^ 0x01]) + lines[victim][71:]
    wal_file.write_bytes(b"".join(lines))

    with pytest.raises(WALCorruptionError, match="before its tail"):
        _recover(data_dir)


# -- checkpoint failure leaves the previous durable state intact --------------


def test_failed_checkpoint_leaves_snapshot_and_wal_intact(tmp_path):
    """A SnapshotError inside a daemon checkpoint (unserializable value
    discovered late) must leave the previous snapshot and the live WAL
    untouched — the daemon keeps serving, and a later recovery still
    replays the full durable prefix."""
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir)
    items = _stream(random.Random(2500 + FAULT_SEED), steps=4)
    for item in items:
        op, facts = item
        daemon.apply_write(op, list(facts))
    snapshot_before = latest_snapshot(data_dir)
    wal_before = _wal_file(data_dir)
    wal_bytes_before = wal_before.stat().st_size

    # Poison the instance with a value the snapshot codec refuses.
    poison = ("Base", ("poisoned", object()))
    daemon.backend.materialized.instance.relation("Base").add(poison[1])
    with pytest.raises(SnapshotError, match="cannot serialize"):
        daemon.checkpoint()

    assert latest_snapshot(data_dir) == snapshot_before
    assert _wal_file(data_dir) == wal_before  # no rotation happened
    assert wal_before.stat().st_size == wal_bytes_before
    assert not list(data_dir.glob("*.tmp"))

    # Still serving: the WAL accepts further writes, and once the poison
    # is gone the checkpoint succeeds.
    daemon.backend.materialized.instance.relation("Base").discard(poison[1])
    extra = ("Base", ("after-failure", "b"))
    daemon.apply_write(OP_ADD, [extra])
    assert daemon.checkpoint()["checkpointed"]
    daemon.stop()

    recovered = _recover(data_dir)
    oracle = _clean_replay(items, len(items))
    oracle.add_facts([extra])
    _assert_equals_oracle(recovered.backend.materialized, oracle)
    recovered.stop()


def test_inapplicable_writes_never_poison_the_wal(tmp_path):
    """A write the backend cannot apply must not stay in the WAL: a wrong
    arity is refused before the append, and a hard EGD conflict (only
    discoverable mid-chase) is rolled back out of the log — either way the
    data directory stays recoverable and later writes keep flowing."""
    from repro.errors import ArityError, EGDConflictError
    program_text = """
        Stored(X, T) :- Declared(X, T).
        T = T2 :- Stored(X, T), Stored(X, T2).
        Declared(i1, alpha).
    """
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir, program_text)

    with pytest.raises(ArityError, match="arity"):
        daemon.apply_write(OP_ADD, [("Declared", ("only-one-value",))])
    assert daemon.last_lsn == 0  # nothing was appended

    # Two distinct constants for i1 fire the EGD into a hard conflict
    # mid-chase — after the record was durably appended.
    with pytest.raises(EGDConflictError):
        daemon.apply_write(OP_ADD, [("Declared", ("i1", "beta"))])
    assert daemon.last_lsn == 0
    assert _durable_lsn(data_dir) == 0  # the poisoned record was rolled back

    # The live state was rebuilt from the durable state: the failed
    # update's partial mutations (the EDB row, the aborted chase) are
    # gone — live answers, the next checkpoint and recovery all agree
    # the update never happened.
    probe = "?(X, T) :- Stored(X, T)."
    assert daemon.backend.materialized.certain_answers(probe) == \
        (("i1", "alpha"),)
    assert ("i1", "beta") not in \
        daemon.backend.materialized.edb.relation("Declared")

    # The WAL still accepts clean writes after the rollback...
    daemon.apply_write(OP_ADD, [("Declared", ("i2", "gamma"))])
    assert _durable_lsn(data_dir) == 1
    assert daemon.checkpoint()["checkpointed"]  # bakes only clean facts
    daemon.stop()

    # ...and recovery replays/restores the clean state, unimpeded.
    recovered = _recover(data_dir, program_text)
    assert recovered.backend.materialized.certain_answers(probe) == \
        (("i1", "alpha"), ("i2", "gamma"))
    recovered.stop()


# -- restart stability --------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_repeated_recovery_is_stable(tmp_path, engine):
    """Recover → serve → crash → recover ... across checkpoints: every
    generation equals the clean replay of its durable prefix."""
    rng = random.Random(3000 + FAULT_SEED)
    items = _stream(rng, steps=12)
    data_dir = tmp_path / "data"
    cursor = 0
    for generation in range(3):
        daemon = ServingDaemon(
            ProgramBackend(parse_program(PROGRAM_TEXT), engine=engine),
            data_dir,
            policy=CompactionPolicy(checkpoint_every_records=3))
        daemon.recover()
        assert daemon.last_lsn == cursor
        for item in items[cursor:cursor + 4]:
            op, facts = item
            daemon.apply_write(op, list(facts))
        cursor += 4
        _assert_equals_oracle(daemon.backend.materialized,
                              _clean_replay(items, cursor))
        daemon.stop()  # abandon without a final checkpoint
    durable = _durable_lsn(data_dir)
    assert durable == cursor


def test_failed_append_repairs_the_file(tmp_path):
    """An append that dies mid-write (disk full) must truncate its partial
    frame back out, so a later successful append cannot land after garbage
    and turn the whole log into refused damage-before-tail."""
    from repro.errors import WALError
    from repro.serving import WriteAheadLog

    class ExplodingFile:
        """Delegates to the real handle; the first write half-succeeds."""

        def __init__(self, inner):
            self.inner = inner
            self.exploded = False

        def write(self, data):
            if not self.exploded:
                self.exploded = True
                self.inner.write(data[: len(data) // 2])
                self.inner.flush()
                raise OSError(28, "No space left on device")
            return self.inner.write(data)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    wal = WriteAheadLog.create(tmp_path / "wal.log")
    wal.append(OP_ADD, [("Base", ("a", "b"))])
    real_file = wal._file
    wal._file = ExplodingFile(real_file)
    with pytest.raises(WALError, match="cannot append"):
        wal.append(OP_ADD, [("Base", ("c", "d"))])
    wal._file = real_file

    lsn = wal.append(OP_ADD, [("Base", ("e", "f"))])  # the disk recovered
    assert lsn == 2
    wal.close()
    from repro.serving import scan_wal
    scan = scan_wal(tmp_path / "wal.log")
    assert [record.lsn for record in scan.records] == [1, 2]
    assert scan.torn_reason is None  # no partial frame survived


def test_wal_without_snapshot_is_refused(tmp_path):
    """A WAL with no snapshot to replay onto must not be silently
    discarded by a bootstrap."""
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir)
    daemon.apply_write(OP_ADD, [("Base", ("z", "b"))])
    daemon.stop()
    for snapshot in list(data_dir.glob("snapshot-*.snap")):
        snapshot.unlink()
    with pytest.raises(ServingError, match="no snapshot"):
        _recover(data_dir)


# -- group commit -------------------------------------------------------------


def test_group_commit_concurrent_writers_match_oracle(tmp_path):
    """Threads hammering apply_write concurrently: every write lands
    exactly once, the WAL is a gap-free LSN chain, live and recovered
    state both equal a clean replay of the durable records, and one fsync
    covers each commit batch."""
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir)
    writers, per_writer = 8, 6
    errors: List[BaseException] = []

    def hammer(writer: int) -> None:
        try:
            for index in range(per_writer):
                daemon.apply_write(
                    OP_ADD, [("Base", (f"w{writer}n{index}", "b"))])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(writer,))
               for writer in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert daemon.last_lsn == writers * per_writer

    records = _durable_records(data_dir)
    assert [record.lsn for record in records] == \
        list(range(1, writers * per_writer + 1))
    oracle = MaterializedProgram(parse_program(PROGRAM_TEXT))
    for record in records:
        _apply_item(oracle, (record.op, list(record.facts)))
    _assert_equals_oracle(daemon.backend.materialized, oracle)

    stats = daemon.serving_stats
    assert stats.wal_records == writers * per_writer
    assert 1 <= stats.commit_batches <= stats.wal_records
    assert stats.wal_fsyncs == stats.commit_batches  # one fsync per batch
    assert stats.degraded_retries == 0
    daemon.stop()

    recovered = _recover(data_dir)
    _assert_equals_oracle(recovered.backend.materialized, oracle)
    recovered.stop()


@pytest.mark.parametrize("engine", ENGINES)
def test_injected_crash_between_batch_fsync_and_ack(tmp_path, program_file,
                                                    engine):
    """Die between the group-commit batch fsync and the per-writer acks:
    every acknowledged write survives recovery, and the recovered state is
    exactly a clean replay of the durable records.  Unacked writes were
    never visible before the crash (apply follows durability), and only
    durable ones may surface after it."""
    crash_batch = 2 + (FAULT_SEED % 3)
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file,
                            fault=f"group-commit-durable:{crash_batch}",
                            engine=engine)
    writers, per_writer = 8, 25
    acked: List[Tuple[str, Tuple]] = []
    acked_lock = threading.Lock()

    def hammer(writer: int) -> None:
        try:
            client = ServingClient.connect(data_dir, wait=30.0)
        except DaemonUnavailableError:
            return  # the daemon died before this writer got in
        try:
            for index in range(per_writer):
                fact = ("Base", (f"w{writer}n{index}", "b"))
                try:
                    client.add_facts([fact])
                except (DaemonUnavailableError, ServingProtocolError):
                    return
                with acked_lock:
                    acked.append(fact)
        finally:
            client.close()

    try:
        threads = [threading.Thread(target=hammer, args=(writer,))
                   for writer in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert process.wait(timeout=30) == FAULT_EXIT_CODE
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            process.kill()
            process.wait(timeout=30)

    records = _durable_records(data_dir)
    durable_facts = {fact for record in records for fact in record.facts}
    assert len(acked) < writers * per_writer  # the crash landed mid-stream
    assert set(acked) <= durable_facts  # durability precedes every ack

    daemon = ServingDaemon(ProgramBackend(parse_program(PROGRAM_TEXT),
                                          engine=engine), data_dir)
    daemon.recover()
    oracle = MaterializedProgram(parse_program(PROGRAM_TEXT), engine=engine)
    for record in records:
        _apply_item(oracle, (record.op, list(record.facts)))
    _assert_equals_oracle(daemon.backend.materialized, oracle)
    base = daemon.backend.materialized.edb.relation("Base")
    for fact in acked:
        assert fact[1] in base  # every acked write survived recovery
    daemon.stop()


# -- segmented WAL ------------------------------------------------------------


def test_segments_rotate_prune_and_replay_older_snapshots(tmp_path):
    """Checkpoints rotate the WAL into fresh ``wal-<baselsn>.log`` segments
    and prune only segments no retained snapshot needs; recovery replays
    across the chain, and deleting the newest snapshot still recovers from
    an older one through multiple segments — the point of segmenting over
    truncate-and-rewrite."""
    data_dir = tmp_path / "data"
    daemon = ServingDaemon(
        ProgramBackend(parse_program(PROGRAM_TEXT)), data_dir,
        policy=CompactionPolicy(checkpoint_every_records=3,
                                keep_snapshots=2))
    daemon.recover()
    items = _stream(random.Random(4200 + FAULT_SEED), steps=10)
    for item in items:
        op, facts = item
        daemon.apply_write(op, list(facts))
    daemon.stop()

    segments = list_segments(data_dir)
    assert len(segments) >= 2  # rotation happened
    assert segments[0][0] > 0  # ...and pruning dropped covered segments
    # Chain invariant: each segment ends where its successor starts.
    for (base, path), (next_base, _) in zip(segments, segments[1:]):
        records = scan_wal(path).records
        assert (records[-1].lsn if records else base) == next_base

    recovered = _recover(data_dir)  # from the newest snapshot
    _assert_equals_oracle(recovered.backend.materialized,
                          _clean_replay(items, len(items)))
    recovered.stop()

    # The older retained snapshot's chain survived pruning: recovery from
    # it replays records across multiple segments.
    newest = latest_snapshot(data_dir)
    assert newest is not None
    newest[1].unlink()
    recovered = _recover(data_dir)
    assert recovered.recovery["replayed_records"] > 0
    _assert_equals_oracle(recovered.backend.materialized,
                          _clean_replay(items, len(items)))
    recovered.stop()


def test_stats_count_every_checkpoint(tmp_path):
    """The ``stats`` op reports one checkpoint per WAL rotation, with the
    size of the snapshot the last one wrote (counted, never timed)."""
    data_dir = tmp_path / "data"
    daemon = ServingDaemon(
        ProgramBackend(parse_program(PROGRAM_TEXT)), data_dir,
        policy=CompactionPolicy(checkpoint_every_records=4,
                                max_wal_bytes=None, keep_snapshots=100))
    daemon.recover()
    for op, facts in _stream(random.Random(4300 + FAULT_SEED), steps=18):
        daemon.apply_write(op, list(facts))
    daemon.checkpoint()  # on demand: rotates once more
    daemon.checkpoint()  # nothing new: no rotation, not counted
    counters = daemon.handle({"op": "stats"})["result"]["serving"][
        "group_commit"]
    daemon.stop()
    rotations = len(list_segments(data_dir)) - 1  # nothing was pruned
    assert rotations == 18 // 4 + 1
    assert counters["checkpoints"] == rotations
    assert counters["snapshot_bytes_last"] == \
        latest_snapshot(data_dir)[1].stat().st_size
    assert counters["checkpoint_ms_total"] >= counters["checkpoint_ms_last"] > 0


def test_rollback_fsyncs_even_without_sync(tmp_path, monkeypatch):
    """``rollback_to`` must fsync unconditionally: under ``--no-sync`` the
    truncate would otherwise live only in the OS cache, and a later crash
    could resurrect rolled-back frames on recovery."""
    from repro.serving import WriteAheadLog
    wal = WriteAheadLog.create(tmp_path / "wal.log", sync=False)
    frames = wal.append_batch([(OP_ADD, [("Base", ("a", "b"))]),
                               (OP_ADD, [("Base", ("c", "d"))])])
    synced: List[int] = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    wal.rollback_to(frames[0].lsn, frames[1].offset)
    assert synced  # the truncate reached the disk despite sync=False
    wal.close()
    scan = scan_wal(tmp_path / "wal.log")
    assert [record.lsn for record in scan.records] == [1]
    assert scan.torn_reason is None


# -- lifecycle bugfixes -------------------------------------------------------


def test_stop_releases_connection_pins_and_closes_wal_once(tmp_path):
    """Stopping the daemon while a client still holds a pin must release
    that pin (no superseded version left uncollectable) and close the WAL
    exactly once; a second stop() is a no-op."""
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir)
    daemon.start(host="127.0.0.1", port=0)
    try:
        client = ServingClient.connect(data_dir, wait=30.0)
        pinned = client.pin()
        daemon.apply_write(OP_ADD, [("Base", ("fresh", "b"))])  # supersede
        assert pinned in daemon.backend.versions.live_versions()
    finally:
        daemon.stop()
    assert daemon._wal is None  # closed exactly once, handle dropped
    # The connection's pin was released on stop: the superseded version
    # is collectable, only the latest survives.
    daemon.backend.versions.collect()
    assert pinned not in daemon.backend.versions.live_versions()
    daemon.stop()  # idempotent: nothing left to close, nothing raises
    assert client.unpin(pinned) is False  # daemon gone: tolerant unpin
    client.close()


def test_client_read_close_is_idempotent_and_survives_daemon_death(tmp_path):
    """ClientRead.close() twice is a no-op, unpin after the pin is gone
    reports False instead of raising, and a daemon death inside a read
    context must not mask the body's exception in ``__exit__``."""
    data_dir = tmp_path / "data"
    daemon = _recover(data_dir)
    daemon.start(host="127.0.0.1", port=0)
    client = ServingClient.connect(data_dir, wait=30.0)

    read = client.read()
    assert read.answers(QUERIES[1])
    read.close()
    read.close()  # idempotent: no second unpin is attempted
    assert client.unpin(read.version) is False  # already released

    # The daemon stops while a read is open: close() inside __exit__ hits
    # a dead socket, and the body's own exception must still surface.
    with pytest.raises(ValueError, match="the body's own error"):
        with client.read():
            daemon.stop()
            raise ValueError("the body's own error")
    client.close()
