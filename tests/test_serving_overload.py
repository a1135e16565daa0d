"""Overload and back-pressure suite for the serving daemon.

The invariants under test, driven by the ``REPRO_FAULT_STALL`` overload
injection points (:mod:`repro.serving.wal`) composed with the existing
crash matrix:

* **reads never hang under a write flood** — a stalled committer plus a
  tiny ``--queue-cap`` and 16 concurrent writer processes saturates the
  write path, while pinned MVCC reads keep answering (they never touch
  the commit queue or the write lock);
* **no acked write is ever lost** — the flood composes with
  ``REPRO_FAULT_CRASH=group-commit-durable``: everything a writer saw
  acknowledged before the crash is in the recovered state;
* **shed load is typed** — a full queue refuses with
  :class:`~repro.errors.ServerBusyError` carrying a positive
  ``retry_after`` hint; a retrying client converges, a ``busy_retries=0``
  client raises the typed error;
* **a poisoned oversized request degrades only its own session** — an
  over-limit protocol line is drained and refused at the socket boundary
  without parsing; the same connection stays usable and concurrent
  sessions never notice;
* **stop() never strands a blocked writer** — every writer queued behind
  a stalled committer when the daemon stops fails with a typed
  :class:`~repro.errors.DaemonShutdownError` (or was committed), and
  every client thread returns.

``REPRO_FAULT_SEED`` (the CI matrix) shifts the randomized stream
contents like the recovery suite.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

import repro
from repro.datalog import parse_program
from repro.errors import (DaemonShutdownError, RequestTooLargeError,
                          DaemonUnavailableError, ServerBusyError)
from repro.serving import AdmissionPolicy, ServingClient
from repro.serving.daemon import (ConnectionState, ProgramBackend,
                                  ServingDaemon)
from repro.serving.wal import FAULT_EXIT_CODE

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

PROGRAM_TEXT = """
    Derived(X, Y) :- Base(X, Y).
    Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
    Base(a, b). Base(c, d).
    Link(b, t1). Link(d, t2).
"""

FLOOD_WRITERS = 16
FLOOD_WRITES_EACH = 5


# -- helpers ------------------------------------------------------------------


def _daemon(tmp_path: Path, **kwargs) -> ServingDaemon:
    """A recovered in-process daemon over the tiny program."""
    daemon = ServingDaemon(ProgramBackend(parse_program(PROGRAM_TEXT)),
                           tmp_path / "data", sync=False, **kwargs)
    daemon.recover()
    return daemon


def _spawn_daemon(data_dir: Path, program_file: Path, *,
                  queue_cap: Optional[int] = None,
                  stall: Optional[str] = None,
                  fault: Optional[str] = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    env.pop("REPRO_FAULT_STALL", None)
    if stall:
        env["REPRO_FAULT_STALL"] = stall
    if fault:
        env["REPRO_FAULT_CRASH"] = fault
    command = [sys.executable, "-m", "repro.serving.daemon",
               "--data-dir", str(data_dir), "--program", str(program_file),
               "--port", "0", "--quiet", "--no-sync",
               "--checkpoint-every", "1000000"]
    if queue_cap is not None:
        command += ["--queue-cap", str(queue_cap)]
    return subprocess.Popen(command, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.dlg"
    path.write_text(PROGRAM_TEXT, encoding="utf-8")
    return path


def _wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.005)


#: One OS process per writer (like the E17 burst): retries on busy with
#: backoff, reports how many of its sequential writes were acknowledged.
WRITER_SCRIPT = """
import sys
from repro.serving.client import ServingClient
data_dir, writer, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
client = ServingClient.connect(data_dir, wait=30.0, busy_retries=500,
                               backoff_base=0.01, backoff_max=0.25)
print("ready", flush=True)
sys.stdin.readline()  # go
acked = 0
try:
    for index in range(count):
        client.add_facts([("Base", (writer + "n" + str(index), "b"))])
        acked += 1
except Exception:
    pass  # the daemon died (crash-composed runs) — report what was acked
print("done", acked, flush=True)
client.close()
"""


def _flood(data_dir: Path, writers: int,
           writes_each: int) -> List[int]:
    """Run the writer processes concurrently; returns each writer's
    acknowledged-write count (writes are sequential per writer, so the
    acked facts are exactly the first ``acked`` of its stream)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    env.pop("REPRO_FAULT_STALL", None)
    processes = [subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT,
         str(data_dir), f"w{writer}", str(writes_each)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for writer in range(writers)]
    acked: List[int] = []
    try:
        for process in processes:
            assert process.stdout.readline().strip() == "ready"
        for process in processes:
            process.stdin.write("go\n")
            process.stdin.flush()
        for process in processes:
            line = process.stdout.readline().split()
            assert line and line[0] == "done", f"writer failed: {line}"
            acked.append(int(line[1]))
        for process in processes:
            assert process.wait(timeout=60) == 0
        return acked
    finally:
        for process in processes:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
                process.wait(timeout=30)


# -- flood: reads keep answering, shed load is counted ------------------------


def test_write_flood_never_hangs_reads_and_keeps_every_ack(tmp_path,
                                                           program_file):
    """16 writer processes against a stalled committer and a 4-entry
    queue: pinned reads answer throughout, every acknowledged write is
    readable afterwards, and the queue shed load (counted)."""
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file, queue_cap=4,
                            stall="group-commit-stall:0.03")
    reader = None
    try:
        reader = ServingClient.connect(data_dir, wait=30.0)
        read_latencies: List[float] = []
        flood_over = threading.Event()
        read_errors: List[BaseException] = []

        def _read_loop():
            try:
                while not flood_over.is_set():
                    start = time.perf_counter()
                    with reader.read() as txn:
                        assert txn.answers("?(X, Y) :- Derived(X, Y).")
                    read_latencies.append(time.perf_counter() - start)
            except BaseException as exc:  # noqa: BLE001 - reported below
                read_errors.append(exc)

        read_thread = threading.Thread(target=_read_loop, daemon=True)
        read_thread.start()
        try:
            acked = _flood(data_dir, FLOOD_WRITERS, FLOOD_WRITES_EACH)
        finally:
            flood_over.set()
        read_thread.join(timeout=30)
        assert not read_thread.is_alive(), "a pinned read hung under flood"
        assert not read_errors, f"reads failed under flood: {read_errors!r}"
        assert read_latencies, "the read loop never completed a read"

        # The retrying writers converged: every write was eventually acked.
        assert acked == [FLOOD_WRITES_EACH] * FLOOD_WRITERS
        rows = {row[0] for row in
                reader.answers("?(X, Y) :- Derived(X, Y).")}
        for writer in range(FLOOD_WRITERS):
            for index in range(FLOOD_WRITES_EACH):
                assert f"w{writer}n{index}" in rows, \
                    "an acknowledged write is not readable"

        admission = reader.stats()["serving"]["admission"]
        counters = reader.stats()["serving"]["group_commit"]
        assert admission["queue_cap"] == 4
        assert admission["queue_peak"] <= 4
        assert counters["busy_rejections"] > 0, \
            "the flood never filled the queue — the scenario is too weak"
    finally:
        if reader is not None:
            try:
                reader.shutdown()
            except Exception:  # noqa: BLE001 - already gone
                pass
            reader.close()
        if process.poll() is None:
            process.wait(timeout=30)


def test_overload_composed_with_crash_keeps_acked_writes(tmp_path,
                                                         program_file):
    """The crash matrix composed with the flood: the daemon dies at the
    group-commit durable point mid-flood; everything any writer saw
    acknowledged is in the recovered state."""
    rng = random.Random(1700 + FAULT_SEED)
    crash_batch = rng.randint(2, 6)
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file, queue_cap=4,
                            stall="group-commit-stall:0.02",
                            fault=f"group-commit-durable:{crash_batch}")
    try:
        acked = _flood(data_dir, 8, FLOOD_WRITES_EACH)
        process.wait(timeout=60)
        assert process.returncode == FAULT_EXIT_CODE, \
            "the injected crash never fired"
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            process.kill()
            process.wait(timeout=30)
    assert any(count < FLOOD_WRITES_EACH for count in acked), \
        "every writer finished — the crash fired after the flood"

    daemon = ServingDaemon(ProgramBackend(parse_program(PROGRAM_TEXT)),
                           data_dir)
    daemon.recover()
    try:
        recovered = {row[0] for row in daemon.backend.materialized
                     .certain_answers("?(X, Y) :- Base(X, Y).")}
    finally:
        daemon.stop()
    for writer, count in enumerate(acked):
        for index in range(count):  # acks are sequential per writer
            assert f"w{writer}n{index}" in recovered, \
                f"acked write w{writer}n{index} was lost in the crash"


# -- typed busy refusals ------------------------------------------------------


def test_busy_refusal_is_typed_and_retrying_client_converges(tmp_path,
                                                             monkeypatch):
    """Over the wire: a full queue refuses with ServerBusyError carrying
    a positive retry_after; busy_retries=0 surfaces it, the default
    retrying client backs off and lands the write."""
    monkeypatch.setenv("REPRO_FAULT_STALL", "group-commit-stall:0.6")
    daemon = _daemon(tmp_path, admission=AdmissionPolicy(queue_cap=1))
    host, port = daemon.start()
    stallers: List[ServingClient] = []
    try:
        def _stalled_write(name: str) -> threading.Thread:
            client = ServingClient(host, port)
            stallers.append(client)
            thread = threading.Thread(
                target=client.add_facts,
                args=([("Base", (name, "b"))],), daemon=True)
            thread.start()
            return thread

        # First write: drained into the (stalling) committer batch.
        first = _stalled_write("stall1")
        _wait_for(lambda: daemon.last_lsn == 0 and
                  not daemon._commit_queue and first.is_alive(),
                  message="the committer to pick up the first write")
        # Second write: sits in the queue, filling it to the cap.
        second = _stalled_write("stall2")
        _wait_for(lambda: len(daemon._commit_queue) >= 1,
                  message="the queue to fill to its cap")

        blunt = ServingClient(host, port, busy_retries=0)
        with pytest.raises(ServerBusyError) as refused:
            blunt.add_facts([("Base", ("shed", "b"))])
        assert refused.value.retry_after > 0
        blunt.close()
        assert daemon.serving_stats.busy_rejections == 1

        patient = ServingClient(host, port, busy_retries=50,
                                backoff_base=0.02, backoff_max=0.5)
        patient.add_facts([("Base", ("patient", "b"))])
        patient.close()
        first.join(timeout=30)
        second.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        rows = {row[0] for row in daemon.backend.materialized
                .certain_answers("?(X, Y) :- Base(X, Y).")}
        assert {"stall1", "stall2", "patient"} <= rows
        assert "shed" not in rows, "a refused write was logged anyway"
    finally:
        for client in stallers:
            client.close()
        daemon.stop()


def test_inflight_cap_per_connection(tmp_path, monkeypatch):
    """A connection with its in-flight write still committing is refused
    a second one (typed busy, counted) when the cap is 1."""
    monkeypatch.setenv("REPRO_FAULT_STALL", "group-commit-stall:0.5")
    daemon = _daemon(tmp_path, admission=AdmissionPolicy(
        max_inflight_per_connection=1))
    connection = ConnectionState(daemon.backend.versions)
    try:
        thread = threading.Thread(
            target=daemon.apply_write,
            args=("add", [("Base", ("inflight1", "b"))]),
            kwargs={"connection": connection}, daemon=True)
        thread.start()
        _wait_for(lambda: connection.inflight_writes == 1,
                  message="the first write to be in flight")
        with pytest.raises(ServerBusyError):
            daemon.apply_write("add", [("Base", ("inflight2", "b"))],
                               connection=connection)
        assert daemon.serving_stats.inflight_rejections == 1
        thread.join(timeout=30)
        assert not thread.is_alive()
        # With the first write committed the connection has capacity again.
        daemon.apply_write("add", [("Base", ("inflight3", "b"))],
                           connection=connection)
    finally:
        daemon.stop()


# -- oversized requests degrade only their own session ------------------------


def test_oversized_line_degrades_only_its_own_session(tmp_path):
    """A protocol line over max_request_bytes is drained and refused
    typed without parsing; the same connection keeps working and a
    concurrent session never notices."""
    daemon = _daemon(tmp_path, admission=AdmissionPolicy(
        max_request_bytes=2048))
    host, port = daemon.start()
    poisoned = other = None
    try:
        poisoned = ServingClient(host, port)
        other = ServingClient(host, port)
        lsn_before = daemon.last_lsn
        huge = [("Base", (f"huge{index}", "b")) for index in range(500)]
        with pytest.raises(RequestTooLargeError):
            poisoned.add_facts(huge)
        # Only its own request was shed: the connection is still usable...
        assert poisoned.ping()["pong"]
        poisoned.add_facts([("Base", ("small", "b"))])
        # ...the concurrent session is untouched...
        assert other.answers("?(X, Y) :- Derived(X, Y).")
        # ...and nothing oversized reached the WAL.
        assert daemon.last_lsn == lsn_before + 1  # just the small write
        assert daemon.serving_stats.requests_shed == 1
    finally:
        for client in (poisoned, other):
            if client is not None:
                client.close()
        daemon.stop()


def test_oversized_fact_count_refused_before_logging(tmp_path):
    """A write over max_facts_per_write is refused typed before
    validation; the WAL is untouched and the rejection is counted."""
    daemon = _daemon(tmp_path, admission=AdmissionPolicy(
        max_facts_per_write=5))
    try:
        lsn_before = daemon.last_lsn
        with pytest.raises(RequestTooLargeError):
            daemon.apply_write(
                "add", [("Base", (f"bulk{index}", "b"))
                        for index in range(6)])
        assert daemon.last_lsn == lsn_before
        assert daemon.serving_stats.oversized_rejections == 1
        assert daemon.serving_stats.wal_records == 0
        daemon.apply_write("add", [("Base", ("ok", "b"))])  # within limits
    finally:
        daemon.stop()


# -- stop() vs in-flight writers ----------------------------------------------


def test_stop_never_strands_blocked_writers(tmp_path, monkeypatch):
    """Writers blocked on a stalled committer when stop() runs all return
    promptly: committed, or refused with the typed shutdown error."""
    monkeypatch.setenv("REPRO_FAULT_STALL", "group-commit-stall:0.4")
    daemon = _daemon(tmp_path)
    outcomes: List[Tuple[str, Optional[BaseException]]] = []
    outcomes_lock = threading.Lock()

    def _writer(name: str) -> None:
        try:
            daemon.apply_write("add", [("Base", (name, "b"))])
            with outcomes_lock:
                outcomes.append((name, None))
        except BaseException as exc:  # noqa: BLE001 - collected for asserts
            with outcomes_lock:
                outcomes.append((name, exc))

    threads = [threading.Thread(target=_writer, args=(f"race{index}",),
                                daemon=True) for index in range(6)]
    for thread in threads:
        thread.start()
    _wait_for(lambda: daemon._commit_queue or
              any(not t.is_alive() for t in threads),
              message="writers to reach the commit queue")
    daemon.stop()
    for thread in threads:
        thread.join(timeout=30)
    assert all(not thread.is_alive() for thread in threads), \
        "stop() stranded a blocked writer thread"
    assert len(outcomes) == len(threads)
    for name, error in outcomes:
        assert error is None or isinstance(error, DaemonShutdownError), \
            f"writer {name} failed untyped: {error!r}"
    # At least the stranded tail was refused typed (stop() raced them).
    shutdown_errors = [error for _, error in outcomes if error is not None]
    committed = [name for name, error in outcomes if error is None]
    assert len(shutdown_errors) + len(committed) == len(threads)


# -- prompt failure on stale addresses ----------------------------------------


def test_stale_daemon_json_fails_promptly(tmp_path):
    """A daemon.json advertising a dead port raises
    DaemonUnavailableError within the wait budget — no 30 s hang."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    (tmp_path / "daemon.json").write_text(
        f'{{"host": "127.0.0.1", "port": {dead_port}}}', encoding="utf-8")
    # Generous vs the 0.8 s wait budget, floored far above scheduler
    # noise — the regression this guards is the full 30 s I/O timeout.
    refusal_budget = max(10.0, 12.5 * 0.8)
    start = time.monotonic()
    with pytest.raises(DaemonUnavailableError):
        ServingClient.connect(tmp_path, wait=0.8)
    elapsed = time.monotonic() - start
    assert elapsed < refusal_budget, \
        f"a dead advertised port took {elapsed:.1f}s to refuse"


def _advertise_dead_daemon(data_dir: Path, pid: int) -> None:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    (data_dir / "daemon.json").write_text(
        f'{{"host": "127.0.0.1", "port": {dead_port}, "pid": {pid}}}',
        encoding="utf-8")


def _assert_connect_fails_fast(data_dir: Path) -> None:
    # The wait budget is 30 s, the one writers use after an injected crash;
    # the refusal must come from the dead pid, far inside it.
    refusal_budget = max(10.0, 30.0 / 3)
    start = time.monotonic()
    with pytest.raises(DaemonUnavailableError):
        ServingClient.connect(data_dir, wait=30.0)
    elapsed = time.monotonic() - start
    assert elapsed < refusal_budget, \
        f"an exited daemon's address took {elapsed:.1f}s to refuse"


def test_connect_fails_fast_once_the_advertised_pid_is_gone(tmp_path):
    """daemon.json records the daemon's pid: once that process has exited
    (and been reaped), connect stops re-dialing its dead port."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    _advertise_dead_daemon(tmp_path, child.pid)
    _assert_connect_fails_fast(tmp_path)


@pytest.mark.skipif(not hasattr(os, "waitid") or
                    not os.path.exists("/proc/self/stat"),
                    reason="needs waitid(WNOWAIT) and procfs")
def test_connect_fails_fast_on_an_unreaped_crashed_daemon(tmp_path):
    """A daemon that crashed as our own child is a zombie until we wait for
    it — os.kill(pid, 0) still succeeds — and must count as gone."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)  # exit, unreaped
        _advertise_dead_daemon(tmp_path, child.pid)
        _assert_connect_fails_fast(tmp_path)
    finally:
        child.wait()
