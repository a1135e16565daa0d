"""E18 — Overload saturation curve: read tail latency under write floods.

The admission-control claim, measured against a real daemon subprocess:
**back-pressure protects readers**.  The bounded commit queue sheds
excess writers with typed ``busy`` refusals (which the client retries
with backoff), so a write flood saturates the *write* path while pinned
MVCC reads — which never touch the commit queue or the write lock —
keep their latency.

The benchmark sweeps writer concurrency (1 → 16 processes, each a
retrying :class:`~repro.serving.client.ServingClient`), and at every
level records the accepted write throughput, the busy-rejection count,
the effective commit batch size and the **read p50/p99** measured from a
concurrent reader connection.  The gate: read p99 under the heaviest
flood stays within **5×** the unloaded baseline p99 (with a small
absolute floor so a sub-millisecond baseline doesn't turn scheduler
noise into a failure).

``REPRO_BENCH_SMOKE=1`` shrinks the sweep for CI and skips the gate.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import repro
from repro.serving import ServingClient

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WRITER_LEVELS = (1, 4) if SMOKE else (1, 4, 8, 16)
WRITES_EACH = 4 if SMOKE else 30
BASELINE_READS = 40 if SMOKE else 300
QUEUE_CAP = 8
MAX_P99_RATIO = 0.0 if SMOKE else 5.0
P99_FLOOR_SECONDS = 0.1  # noise floor for sub-millisecond baselines

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

PROGRAM_TEXT = """
    Derived(X, Y) :- Base(X, Y).
    Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
    Base(a, b). Base(c, d).
    Link(b, t1). Link(d, t2).
"""

READ_QUERY = "?(X, Z) :- Joined(X, Z)."


def _spawn_daemon(data_dir: Path, program_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    env.pop("REPRO_FAULT_STALL", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serving.daemon",
         "--data-dir", str(data_dir), "--program", str(program_file),
         "--port", "0", "--quiet", "--no-sync",
         "--checkpoint-every", "1000000",
         "--queue-cap", str(QUEUE_CAP)],
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


#: Writer processes (GIL-free concurrency), retrying busy refusals with
#: backoff — the saturation curve measures the *daemon* shedding load,
#: not clients giving up.  ready/go keeps startup out of the window.
WRITER_SCRIPT = """
import sys, time
from repro.serving.client import ServingClient
data_dir, writer, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
client = ServingClient.connect(data_dir, wait=30.0, busy_retries=1000,
                               backoff_base=0.005, backoff_max=0.25)
print("ready", flush=True)
sys.stdin.readline()  # go
start = time.perf_counter()
for index in range(count):
    client.add_facts([("Base", (writer + "n" + str(index), "b"))])
print("done", time.perf_counter() - start, flush=True)
client.close()
"""


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    def pick(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]
    return {"reads": len(ordered),
            "p50_ms": round(pick(0.50) * 1000, 3),
            "p99_ms": round(pick(0.99) * 1000, 3)}


def _baseline_reads(reader: ServingClient) -> Dict[str, float]:
    latencies = []
    for _ in range(BASELINE_READS):
        start = time.perf_counter()
        with reader.read() as txn:
            txn.answers(READ_QUERY)
        latencies.append(time.perf_counter() - start)
    return _percentiles(latencies)


def _flood_level(reader: ServingClient, data_dir: Path, writers: int,
                 tag: str) -> Dict[str, float]:
    """One sweep level: flood with ``writers`` processes while reading,
    measured from the daemon's own stats deltas."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    processes = [subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT,
         str(data_dir), f"{tag}w{writer}", str(WRITES_EACH)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for writer in range(writers)]
    latencies: List[float] = []
    try:
        for process in processes:
            assert process.stdout.readline().strip() == "ready"
        before = reader.stats()["serving"]["group_commit"]
        start = time.perf_counter()
        for process in processes:
            process.stdin.write("go\n")
            process.stdin.flush()
        # Read continuously until every writer reports done.
        live = list(processes)
        while live:
            read_start = time.perf_counter()
            with reader.read() as txn:
                txn.answers(READ_QUERY)
            latencies.append(time.perf_counter() - read_start)
            live = [process for process in live if not _writer_done(process)]
        elapsed = time.perf_counter() - start
        after = reader.stats()["serving"]["group_commit"]
        for process in processes:
            assert process.wait(timeout=60) == 0
    finally:
        for process in processes:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
                process.wait(timeout=30)
    total = writers * WRITES_EACH
    batches = after["commit_batches"] - before["commit_batches"]
    records = after["wal_records"] - before["wal_records"]
    return {
        "writers": writers,
        "writes": total,
        "seconds": round(elapsed, 6),
        "accepted_per_second": round(total / elapsed, 1),
        "busy_rejections": after["busy_rejections"] -
        before["busy_rejections"],
        "records_per_batch": round(records / max(1, batches), 2),
        **_percentiles(latencies),
    }


def _writer_done(process: subprocess.Popen) -> bool:
    """Whether the writer's done line is ready (non-blocking probe)."""
    ready, _, _ = select.select([process.stdout], [], [], 0)
    if not ready:
        return False
    line = process.stdout.readline().split()
    assert line and line[0] == "done", f"writer failed: {line}"
    return True


def test_read_tail_latency_survives_write_flood(tmp_path):
    """Sweep writer concurrency; gate loaded read p99 ≤ 5× unloaded."""
    program_file = tmp_path / "program.dlg"
    program_file.write_text(PROGRAM_TEXT, encoding="utf-8")
    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir, program_file)
    try:
        reader = ServingClient.connect(data_dir, wait=30.0)
    except BaseException:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        raise
    try:
        baseline = _baseline_reads(reader)
        levels = [_flood_level(reader, data_dir, writers, tag=f"L{writers}")
                  for writers in WRITER_LEVELS]
    finally:
        _shutdown(reader, process)

    heaviest = levels[-1]
    baseline_p99 = baseline["p99_ms"] / 1000
    loaded_p99 = heaviest["p99_ms"] / 1000
    budget = max(MAX_P99_RATIO * baseline_p99, P99_FLOOR_SECONDS)
    if MAX_P99_RATIO:
        assert loaded_p99 <= budget, (
            f"read p99 under a {heaviest['writers']}-writer flood is "
            f"{heaviest['p99_ms']}ms — over {MAX_P99_RATIO}x the unloaded "
            f"{baseline['p99_ms']}ms baseline (budget "
            f"{budget * 1000:.1f}ms); back-pressure is not protecting "
            "readers")
