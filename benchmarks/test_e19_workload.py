"""E19 — Open-loop mixed traffic against a served scenario.

The serving-tier claim under *offered* (not closed-loop) load: a daemon
serving the sensor-network scenario sustains a mixed 1000-QPS stream —
queries, boolean probes, adds, retracts, quality assessments — with
**zero protocol errors** and a query tail that stays within a noise-
floored multiple of its unloaded baseline.  The driver's arrival clock
never waits on the daemon (:mod:`repro.workloads.driver`), so a slow op
shows up as coordinated-omission debt in the corrected percentiles
instead of silently lowering the offered rate — the number this gate
reads is the honest one.

``REPRO_BENCH_SMOKE=1`` shrinks the run for CI and skips the gate.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import repro
from repro.scenarios import build_scenario
from repro.serving import ServingClient
from repro.workloads.driver import (ClientTarget, TrafficSpec,
                                    compile_schedule, run_schedule)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
QPS = 100.0 if SMOKE else 1000.0
DURATION = 0.5 if SMOKE else 3.0
WORKERS = 2 if SMOKE else 8
BASELINE_READS = 20 if SMOKE else 200
MAX_P99_RATIO = 0.0 if SMOKE else 20.0
P99_FLOOR_SECONDS = 0.25  # noise floor for millisecond-scale baselines

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _spawn_daemon(data_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_CRASH", None)
    env.pop("REPRO_FAULT_STALL", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serving.daemon",
         "--data-dir", str(data_dir), "--scenario", "sensornet",
         "--port", "0", "--quiet", "--no-sync",
         "--checkpoint-every", "1000000"],
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


def _baseline_query_p99(client: ServingClient, queries: List[str]) -> float:
    """Unloaded per-query p99 (seconds), one serial connection."""
    latencies: List[float] = []
    for index in range(BASELINE_READS):
        query = queries[index % len(queries)]
        start = time.perf_counter()
        client.answers(query)
        latencies.append(time.perf_counter() - start)
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * (len(ordered) - 1)))]


def test_mixed_open_loop_traffic_served_clean(tmp_path):
    """Offer a mixed 1k-QPS schedule; gate on zero protocol errors and a
    noise-floored query p99."""
    scenario = build_scenario("sensornet")
    spec = TrafficSpec(qps=QPS, duration=DURATION, seed=19)
    schedule = compile_schedule(spec, scenario.binding())

    data_dir = tmp_path / "data"
    process = _spawn_daemon(data_dir)
    try:
        probe = ServingClient.connect(data_dir, wait=30.0)
    except BaseException:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        raise
    try:
        baseline_p99 = _baseline_query_p99(probe, scenario.queries())
        target = ClientTarget(
            lambda **kw: ServingClient.connect(
                data_dir, wait=30.0, busy_retries=1000,
                backoff_base=0.005, backoff_max=0.25, **kw),
            relation=scenario.assessed_relation)
        report = run_schedule(schedule, target, workers=WORKERS)
    finally:
        _shutdown(probe, process)

    # The wire stayed clean: nothing aborted, refused, or mis-typed.
    assert not report.aborted, report.abort_error
    assert report.errors == {}, report.errors
    assert report.ok == report.executed == report.scheduled

    query_p99 = report.classes["query"]["p99_ms"] / 1000
    budget = max(MAX_P99_RATIO * baseline_p99, P99_FLOOR_SECONDS)
    if MAX_P99_RATIO:
        assert query_p99 <= budget, (
            f"query p99 under mixed {QPS:.0f}-QPS load is "
            f"{query_p99 * 1000:.1f}ms — over {MAX_P99_RATIO}x the "
            f"unloaded {baseline_p99 * 1000:.1f}ms baseline (budget "
            f"{budget * 1000:.1f}ms)")
