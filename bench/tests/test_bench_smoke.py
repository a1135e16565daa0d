"""Smoke test of the benchmark itself (tier S, collected by Tier-1).

Checks what the benchmark's numbers rest on — deterministic op lists,
the window and span arithmetic, percentiles that sit inside a cost class —
and that all four workloads run end to end with every output correct.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import common, ops, stats, trace  # noqa: E402
from bench import run as bench_run  # noqa: E402
from bench.oracle import SensorOracle  # noqa: E402


@pytest.fixture(scope="module")
def scenario():
    return common.build_tier("S")


@pytest.fixture(scope="module")
def contract():
    return bench_run.load_contract()


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(ROOT, "bench", "expected.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _ops(scenario, seed, mix=ops.MIXED_MIX):
    from repro.sensornet.data import spec_sensors
    generator = ops.OpGenerator(scenario, SensorOracle(scenario), seed,
                                "smoke", spec_sensors(scenario.spec))
    return [op for window in generator.windows(mix, 100, 3) for op in window]


def test_same_seed_gives_byte_identical_ops(scenario):
    assert ops.encode(_ops(scenario, 7)) == ops.encode(_ops(scenario, 7))
    assert ops.encode(_ops(scenario, 7)) != ops.encode(_ops(scenario, 8))


def test_every_window_has_exactly_the_mix(scenario):
    from repro.sensornet.data import spec_sensors
    generator = ops.OpGenerator(scenario, SensorOracle(scenario), 3, "smoke",
                                spec_sensors(scenario.spec))
    first, second = generator.windows(ops.MIXED_MIX, 200, 2)
    classes = [sorted(op[1] for op in window) for window in (first, second)]
    assert classes[0] == classes[1]
    assert [op[:3] for op in first] != [op[:3] for op in second]
    assert sum(ops.counts_for(ops.MIXED_MIX, 200).values()) == 200


@pytest.mark.parametrize("mix, measured", [
    (ops.READ_MIX, ops.READ_CLASSES),
    (ops.MIXED_MIX, ops.READ_CLASSES),
    (ops.MIXED_MIX, ops.WRITE_CLASSES),
    (ops.UPDATE_MIX, ops.WRITE_CLASSES),
])
def test_percentiles_sit_inside_a_cost_class(mix, measured):
    boundaries = [share for _cls, share
                  in ops.class_shares(mix, measured)[:-1]]
    for percentile in (50, 95):
        for boundary in boundaries:
            assert abs(percentile - boundary) >= 3, (percentile, boundary)


def test_windowed_percentile_arithmetic():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile(list(range(1, 101)), 95) == 95
    assert stats.percentile([7], 95) == 7
    windows = [[1, 2, 3], [10, 20, 30], [4, 5, 6]]
    # per-window medians 2, 20, 5 -> the median over windows is 5
    summary = stats.over_windows(stats.percentile(samples, 50)
                                 for samples in windows)
    assert summary["value"] == 5 and summary["per_window"] == [2, 20, 5]
    assert stats.spread([10, 10, 10, 10]) == 0.0
    assert stats.spread([8, 10, 12, 14, 16]) == pytest.approx(0.5)


def test_window_metrics_are_medians_over_windows_in_wall_clock_units():
    from bench.harness import Run, Window, latency_metrics, throughput
    cheap, heavy = ("answers", "cheap", "?", None), \
        ("quality_answers", "heavy", "?", None)
    slow = Window([cheap] * 3 + [heavy], [0.002] * 3 + [0.5], [None] * 4,
                  0.0, 0.8)
    fast = Window([cheap] * 3 + [heavy], [0.001] * 3 + [0.3], [None] * 4,
                  0.0, 0.4)
    mid = Window([cheap] * 3 + [heavy], [0.0015] * 3 + [0.4], [None] * 4,
                 0.0, 0.5)
    run = Run("serve-read")
    groups = [[slow], [fast], [mid]]
    # per-window p50s 2, 1 and 1.5 ms: the median over windows, as measured
    assert latency_metrics(run, groups, ("cheap", "heavy"), "read") \
        == {"p50": pytest.approx(1.5), "p95": pytest.approx(400.0)}
    assert latency_metrics(run, groups, ("heavy",), "heavy")["p50"] \
        == pytest.approx(400.0)
    assert run.detail["read_p50_ms"]["samples_per_window"] == 4
    # 4 ops in 0.8, 0.4 and 0.5 s: 5, 10 and 8 ops/s
    assert throughput(run, groups) == pytest.approx(8.0)
    assert throughput(run, groups, pooled=True) == pytest.approx(12 / 1.7)


def test_span_self_time_and_cross_process_join():
    def span(ident, name, start, end, parent=None, op=None):
        return {"id": ident, "name": name, "start": start, "end": end,
                "parent": parent, "op": op}

    client = [span("c:0", "serving.client", 0.0, 10.0, op=4)]
    daemon = [span("d:0", "serving.handle", 1.0, 9.0, op=4),
              span("d:1", "quality.answers", 2.0, 5.0, parent="d:0", op=4),
              span("d:2", "engine.answers", 3.0, 4.0, parent="d:1", op=4),
              # overlapping children are covered once
              span("d:3", "engine.answers", 4.5, 7.0, parent="d:0", op=4)]
    joined = trace.join_processes(client, daemon)
    own = trace.self_times(joined)
    assert own["c:0"] == pytest.approx(2.0)    # 10 - handle's 8
    assert own["d:0"] == pytest.approx(3.0)    # 8 - union(2..5, 4.5..7)
    assert own["d:1"] == pytest.approx(2.0)
    layers = trace.Layers(joined)
    assert layers.mean_ms("engine.answers") == pytest.approx(1750.0)
    assert layers.seconds("serving.handle", self_time=True, ops={4}) \
        == pytest.approx(3.0)
    assert layers.root_seconds() == pytest.approx(10.0)


@pytest.fixture
def instant_kernel(monkeypatch):
    """The end-to-end runs below check outputs, not times: a kernel that
    is not run saves them ~30 ms per window boundary."""
    from bench import calib
    assert calib.measure() > 0     # the real one runs
    monkeypatch.setattr(calib, "measure", lambda: 25.0)


def _run(workload, expected, trace_on=False, **smoke):
    smoke.setdefault("window_ops", 40)
    return bench_run.execute(workload, seed=1, seconds=1.0, trace=trace_on,
                             expected=expected, tier="S", repeats=1, **smoke)


@pytest.mark.parametrize("workload", sorted(bench_run.RUNNERS))
def test_workload_runs_end_to_end(workload, contract, expected,
                                  instant_kernel):
    run = _run(workload, expected)
    assert run.failed == 0, run.failures
    assert run.attempted > 0
    metrics = bench_run.metrics_of(run, contract)
    assert sorted(metrics) == sorted(
        spec["name"] for spec in contract["end_to_end"])
    assert all(metric["value"] > 0 for metric in metrics.values()), metrics
    assert run.named and set(run.named) <= set(common.NAMED)
    # eight 40-op windows never reach the 256th record: no checkpoint cycle
    assert all(value > 0 for name, value in run.named.items()
               if name != "stall_ms"), run.named


def test_wrong_pinned_count_fails_the_run(expected, instant_kernel):
    wrong = {"tiers": {"S": dict(expected["tiers"]["S"], facts=1)}}
    run = _run("cold-assess", wrong)
    assert run.failed > 0
    assert any("pinned" in message for message in run.failures)


def test_traced_counts_repeat_exactly(contract, expected, instant_kernel):
    names = {spec["name"] for spec in contract["per_layer"]}

    def traced(workload, **smoke):
        run = _run(workload, expected, trace_on=True, **smoke)
        assert run.failed == 0, run.failures
        assert set(run.layers) <= names, set(run.layers) - names
        assert run.spans
        return run

    first, second = traced("session-update"), traced("session-update")
    for name in ("engine.triggers_fired", "engine.incremental_updates"):
        assert first.layers[name] == second.layers[name] > 0
    assert first.layers["trace.unattributed_share"] < 1.0
    # 50 ops per connection-window = 30 writes per window: the 256th
    # record, and with it one checkpoint, falls into the traced windows
    first = traced("serve-mixed", window_ops=50)
    second = traced("serve-mixed", window_ops=50)
    assert first.layers["serving.checkpoints"] \
        == second.layers["serving.checkpoints"] == 1
    parents = {span["id"] for span in first.spans}
    handles = [span for span in first.spans
               if span["name"] == "serving.handle"]
    assert handles and all(span["parent"] in parents for span in handles)
