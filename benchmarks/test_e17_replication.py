"""E17 — Group commit throughput and log-shipping replica fidelity.

Two claims from the scale-out serving tier, measured against a real
daemon subprocess over the socket protocol:

* **group commit** — 8 concurrent writers' commit round trips (append +
  fsync + apply + ack) against the grouped path, vs a single writer
  paying one fsync per record.  The committer thread folds concurrent
  frames into one buffered write + one fsync and applies contiguous
  same-op runs in bulk.  The gate is what grouping *does*, not how slow
  the ungrouped path is: under 8 writers a batch carries **≥ 4 records**
  and every batch costs exactly **one fsync**.  Both absolute round-trip
  rates are recorded; their ratio is recorded but not gated — a ratio
  against the single-writer path falls whenever that path's per-commit
  cost does, with both rates up.  The instance is preloaded with ~50k
  facts first so per-commit costs are realistic.
* **replication** — a :class:`~repro.serving.replication.ReplicaDaemon`
  seeded from the primary's shipped snapshot tails the segment chain; the
  benchmark reports the replication lag measured right after the write
  burst and the catch-up time, and gates on the differential check: the
  caught-up replica answers pinned reads identically to the primary.

Both legs run against the **same** primary daemon: the single-writer
burst first, then the grouped burst, each measured from the daemon's own
group-commit stats deltas, then the replica is seeded from that daemon's
shipped files.

The numbers land in ``BENCH_replication.json`` (with run history).
``REPRO_BENCH_SMOKE=1`` shrinks the preload and bursts for CI and skips
the gate and the artifact write.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.serving import ReplicaDaemon, ServingClient
from repro.serving.daemon import ProgramBackend

ARTIFACT = Path(__file__).resolve().parent.parent / \
    "BENCH_replication.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WRITERS = 8
SINGLE_WRITES = 12 if SMOKE else 40
GROUPED_WRITES_PER_WRITER = 6 if SMOKE else 40
PRELOAD_FACTS = 500 if SMOKE else 50_000
PRELOAD_CHUNK = 2500
MIN_RECORDS_PER_BATCH = 0.0 if SMOKE else 4.0

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

PROGRAM_TEXT = """
    Derived(X, Y) :- Base(X, Y).
    Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
    Base(a, b). Base(c, d).
    Link(b, t1). Link(d, t2).
"""

QUERIES = ("?(X, Z) :- Joined(X, Z).",
           "?(X, Y) :- Derived(X, Y).")


def _spawn_daemon(data_dir: Path, program_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serving.daemon",
         "--data-dir", str(data_dir), "--program", str(program_file),
         "--port", "0", "--quiet", "--checkpoint-every", "1000000"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _shutdown(client: ServingClient, process: subprocess.Popen) -> None:
    try:
        client.shutdown()
    except Exception:  # noqa: BLE001 - already gone
        pass
    client.close()
    if process.poll() is None:
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung daemon
            process.kill()
            process.wait(timeout=30)


def _preload(client: ServingClient, facts: int) -> float:
    """Grow the instance so per-commit fixed costs are realistic; returns
    the wall seconds spent."""
    start = time.perf_counter()
    for low in range(0, facts, PRELOAD_CHUNK):
        client.add_facts([("Base", (f"preload{index}", "b"))
                          for index in range(low, min(low + PRELOAD_CHUNK,
                                                      facts))])
    return time.perf_counter() - start


#: Each writer is its own OS process — concurrent writers in one Python
#: process would serialize their socket/JSON work on the GIL and measure
#: the client, not the commit path.  ready/go handshake over stdio keeps
#: interpreter startup out of the timed window.
WRITER_SCRIPT = """
import sys, time
from repro.serving.client import ServingClient
data_dir, writer, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
client = ServingClient.connect(data_dir, wait=30.0)
client.add_facts([("Base", ("warm_" + writer, "b"))])
print("ready", flush=True)
sys.stdin.readline()  # go
start = time.perf_counter()
for index in range(count):
    client.add_facts([("Base", (writer + "n" + str(index), "b"))])
print("done", time.perf_counter() - start, flush=True)
client.close()
"""


def _writer_burst(data_dir: Path, writers: int, writes_each: int) -> float:
    """Run ``writers`` writer processes concurrently; returns the wall
    seconds of the whole burst (go → last writer done)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    processes = [subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT,
         str(data_dir), f"{writers}x{writer}", str(writes_each)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for writer in range(writers)]
    try:
        for process in processes:
            assert process.stdout.readline().strip() == "ready"
        start = time.perf_counter()
        for process in processes:
            process.stdin.write("go\n")
            process.stdin.flush()
        for process in processes:
            line = process.stdout.readline().split()
            assert line and line[0] == "done", f"writer failed: {line}"
        elapsed = time.perf_counter() - start
        for process in processes:
            assert process.wait(timeout=30) == 0
        return elapsed
    finally:
        for process in processes:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
                process.wait(timeout=30)


def _measured_burst(client: ServingClient, data_dir: Path, writers: int,
                    writes_each: int) -> dict:
    """One burst against the live daemon, measured from its own
    group-commit stats deltas (batches, records, fsyncs)."""
    before = client.stats()["serving"]["group_commit"]
    elapsed = _writer_burst(data_dir, writers, writes_each)
    after = client.stats()["serving"]["group_commit"]
    batches = after["commit_batches"] - before["commit_batches"]
    records = after["wal_records"] - before["wal_records"]
    fsyncs = after["wal_fsyncs"] - before["wal_fsyncs"]
    total = writers * writes_each
    return {
        "writers": writers,
        "writes": total,
        "seconds": round(elapsed, 6),
        "roundtrips_per_second": round(total / elapsed, 1),
        "commit_batches": batches,
        "wal_fsyncs": fsyncs,
        "records_per_batch": round(records / max(1, batches), 2),
        "fsyncs_per_record": round(fsyncs / max(1, records), 3),
        "degraded_retries": after["degraded_retries"] -
        before["degraded_retries"],
    }


def _replica_leg(tmp_path: Path, data_dir: Path,
                 client: ServingClient) -> dict:
    """Seed a replica off the primary's shipped files, measure lag and
    catch-up, and gate on read fidelity."""
    assert client.checkpoint()["checkpointed"]  # ship a snapshot to seed
    client.add_facts([("Link", ("b", "t_tail"))])  # a WAL tail to tail
    replica = ReplicaDaemon(ProgramBackend(None), data_dir,
                            tmp_path / "replica")
    try:
        replica.recover()
        lag_after_burst = replica.replication_status()["lag_records"]
        start = time.perf_counter()
        remaining = replica.catch_up(timeout=60.0)
        catch_up_seconds = time.perf_counter() - start
        assert remaining == 0, "the replica never caught up"

        # The differential gate: pinned reads on the replica answer
        # exactly what the primary answers.
        with replica.backend.session.read() as txn:
            for query in QUERIES:
                assert txn.answers(query) == client.answers(query)
        status = replica.replication_status()
        return {
            "seed_lag_records": lag_after_burst,
            "catch_up_seconds": round(catch_up_seconds, 6),
            "records_replayed": status["records_replayed"],
            "final_lag_records": status["lag_records"],
            "reseeds": status["reseeds"],
            "pinned_reads_match_primary": True,
        }
    finally:
        replica.stop()


def test_group_commit_and_replica_fidelity(tmp_path):
    """≥4 records per batch under 8 writers, one fsync per batch; replica
    ≡ primary; JSON."""
    program_file = tmp_path / "program.dlg"
    program_file.write_text(PROGRAM_TEXT, encoding="utf-8")
    data_dir = tmp_path / "primary"
    process = _spawn_daemon(data_dir, program_file)
    try:
        client = ServingClient.connect(data_dir, wait=30.0)
    except BaseException:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        raise
    try:
        preload_seconds = _preload(client, PRELOAD_FACTS)
        single = _measured_burst(client, data_dir, writers=1,
                                 writes_each=SINGLE_WRITES)
        grouped = _measured_burst(client, data_dir, writers=WRITERS,
                                  writes_each=GROUPED_WRITES_PER_WRITER)
        replication = _replica_leg(tmp_path, data_dir, client)
    finally:
        _shutdown(client, process)

    for burst in (single, grouped):
        assert burst["wal_fsyncs"] == burst["commit_batches"], burst
        assert burst["degraded_retries"] == 0, burst
    assert grouped["records_per_batch"] >= MIN_RECORDS_PER_BATCH, (
        f"{WRITERS} writers only grouped {grouped['records_per_batch']} "
        f"records per batch ({grouped['commit_batches']} batches)")
    speedup = grouped["roundtrips_per_second"] / \
        max(1e-9, single["roundtrips_per_second"])

    if SMOKE:
        return  # tiny bursts would pollute the recorded history

    history = []
    if ARTIFACT.exists():
        try:
            history = json.loads(
                ARTIFACT.read_text(encoding="utf-8")).get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    run_record = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "single_writer": single,
        "grouped": grouped,
        "speedup": round(speedup, 2),
        "replication": replication,
    }
    history = (history + [run_record])[-20:]
    ARTIFACT.write_text(json.dumps({
        "experiment": "E17-replication",
        "writers": WRITERS,
        "preload_facts": PRELOAD_FACTS,
        "preload_seconds": round(preload_seconds, 3),
        "single_writer": single,
        "grouped": grouped,
        "speedup": round(speedup, 2),
        "min_records_per_batch_gate": MIN_RECORDS_PER_BATCH,
        "replication": replication,
        "runs": history,
    }, indent=2) + "\n", encoding="utf-8")
    assert ARTIFACT.exists()
