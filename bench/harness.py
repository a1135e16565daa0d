"""What every workload shares: the run record, timed windows, result
checks and the window arithmetic behind the timing metrics."""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import calib, stats
from .ops import RELATION, Op
from .oracle import FULL_QUERY
from .trace import Tracer

#: set-ups, cold trials and SIGKILL restarts per run; single-shot timings
#: are the median over them
REPEATS = 3
MIN_WINDOWS = 8


@dataclass(frozen=True)
class Sizing:
    """Fixed work per window, and how many windows fill ten seconds on the
    sizing host (2 vCPU).  ``--seconds`` scales the window count, never a
    window: the work of a run is fixed by ``(seed, seconds)``."""

    tier: str
    window_ops: int
    windows_per_10s: float

    def windows(self, seconds: float) -> int:
        return max(MIN_WINDOWS, round(self.windows_per_10s * seconds / 10.0))


@dataclass
class Run:
    """One invocation: arguments in, checks and metrics out."""

    workload: str
    seed: int = 0
    seconds: float = 10.0
    trace: bool = False
    #: pinned counts per tier (``bench/expected.json``)
    expected: Dict[str, Any] = field(default_factory=dict)
    #: smoke-test knobs: every workload at this tier, windows this small,
    #: this many set-ups / cold trials / restarts
    tier: Optional[str] = None
    window_ops: Optional[int] = None
    repeats: int = REPEATS
    #: scratch space inside the checkout (data dirs, span dumps)
    work_dir: str = ""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: the contract's end-to-end metrics (``BENCHMARK.json``), the same
    #: metrics under the names ``common.NAMED`` gives them, per-layer ones
    e2e: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked output; a wrong one fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return bool(ok)

    def sized(self, base: Sizing) -> Sizing:
        return Sizing(self.tier or base.tier,
                      self.window_ops or base.window_ops,
                      base.windows_per_10s)

    def check_pinned(self, tier: str, actual: Dict[str, int]) -> None:
        """Compare counts with the values pinned for ``tier``."""
        for name, value in self.expected.get("tiers", {}).get(tier, {}).items():
            if name in actual:
                self.check(actual[name] == value,
                           f"{name} at tier {tier} is {actual[name]}, "
                           f"pinned {value}")

    def phases(self, windows: int) -> Tuple[int, int]:
        """(untraced, traced) window counts.  A traced run spends about a
        third of its windows traced and still measures eight untraced."""
        if not self.trace:
            return windows, 0
        traced = max(1, windows // 3)
        return max(MIN_WINDOWS, windows - traced), traced


# ---------------------------------------------------------------------------
# Timed windows
# ---------------------------------------------------------------------------


@dataclass
class Window:
    ops: Sequence[Op]
    latency: List[float]
    results: List[Any]
    start: float
    wall: float


def run_window(execute: Callable[[Op], Any], ops: Sequence[Op],
               tracer: Optional[Tracer] = None, op_base: int = 0) -> Window:
    """Closed loop over one window's ops; results are checked later, after
    the clock stopped."""
    latency = [0.0] * len(ops)
    results: List[Any] = [None] * len(ops)
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.set_op(op_base + index)
        began = clock()
        try:
            results[index] = execute(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            results[index] = exc
        latency[index] = clock() - began
    return Window(ops, latency, results, start, clock() - start)


def run_together(executors: Sequence[Callable[[Op], Any]],
                 window_ops: Sequence[Sequence[Op]],
                 tracer: Optional[Tracer], op_base: int) -> List[Window]:
    """One window on every connection at once — one generator process, one
    thread per connection, started together, garbage collector off.  The
    window ends when the slowest connection is done."""
    out: List[Optional[Window]] = [None] * len(executors)
    stride = len(window_ops[0])

    def work(slot: int) -> None:
        out[slot] = run_window(executors[slot], window_ops[slot], tracer,
                               op_base + slot * stride)

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(executors))]
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    return out


def verify(run: Run, window: Window, served: bool,
           own: Optional[set] = None) -> None:
    """Compare every result of a finished window with its expectation.
    ``own`` is the sensor slice of a connection that shares the daemon
    with writers on other slices: only its rows of a full-relation answer
    are determined by its own op list."""
    for (kind, cls, _arg, expected), result in zip(window.ops, window.results):
        label = f"{kind}/{cls}"
        if isinstance(result, Exception):
            run.check(False, f"{label}: {type(result).__name__}: {result}")
        elif kind == "holds":
            run.check(result == expected, f"{label}: wrong truth value")
        elif kind in ("answers", "quality_answers"):
            rows = result if own is None or cls != "heavy" else \
                [row for row in result if row[0] in own]
            run.check(frozenset(rows) == expected, f"{label}: wrong rows")
        elif kind == "assess":
            row = result[0]
            run.check((row["total_tuples"], row["quality_tuples"])
                      == expected, f"{label}: wrong counts")
        elif served:
            run.check(isinstance(result, dict) and "lsn" in result,
                      f"{label}: write not acknowledged")
        else:
            run.check(result == expected,
                      f"{label}: the maintained quality answer has {result} "
                      f"rows, expected {expected}")


def session_executor(session) -> Callable[[Op], Any]:
    """An update is done when the refreshed quality answer is in hand."""
    def execute(op: Op):
        kind, _cls, arg, _expected = op
        if kind == "add":
            session.add_facts(RELATION, arg)
            return len(session.quality_answers(FULL_QUERY))
        if kind == "retract":
            session.retract_facts(RELATION, arg)
            return len(session.quality_answers(FULL_QUERY))
        return session.assess().as_rows()
    return execute


def client_executor(client) -> Callable[[Op], Any]:
    def execute(op: Op):
        kind, _cls, arg, _expected = op
        if kind == "answers":
            return client.answers(arg)
        if kind == "quality_answers":
            return client.quality_answers(arg)
        if kind == "holds":
            return client.holds(arg)
        if kind == "add":
            return client.add_facts([(RELATION, row) for row in arg])
        if kind == "retract":
            return client.retract_facts([(RELATION, row) for row in arg])
        return client.assess()["relations"]
    return execute


# ---------------------------------------------------------------------------
# Metrics over windows
# ---------------------------------------------------------------------------


def latency_metrics(run: Run, groups: Sequence[Sequence[Window]],
                    classes: Sequence[str], prefix: str) -> Dict[str, float]:
    """p50 and p95 (ms) of the ops in ``classes``: taken per window over
    all its connections, the median over windows reported; the spread
    between windows and the smallest per-window sample go to the result
    file."""
    per_window = [[1000.0 * latency for window in group
                   for op, latency in zip(window.ops, window.latency)
                   if op[1] in classes] for group in groups]
    out = {}
    for name, q in (("p50", 50), ("p95", 95)):
        summary = stats.over_windows(stats.percentile(samples, q)
                                     for samples in per_window)
        run.detail[f"{prefix}_{name}_ms"] = dict(
            summary, samples_per_window=min(map(len, per_window)))
        out[name] = summary["value"]
    return out


def throughput(run: Run, groups: Sequence[Sequence[Window]],
               pooled: bool = False) -> float:
    """Ops per second: per window, median over windows — or, ``pooled``,
    over all windows together, for a workload whose windows differ in what
    background work falls into them."""
    ops = [sum(len(window.ops) for window in group) for group in groups]
    wall = [max(window.wall for window in group) for group in groups]
    summary = stats.over_windows(count / seconds
                                 for count, seconds in zip(ops, wall))
    if pooled:
        summary["value"] = sum(ops) / sum(wall)
    run.detail["ops_per_s"] = summary
    return summary["value"]


class Calibration:
    """The calibration kernel at the boundaries of everything timed.  It is
    recorded (``host.calib_ms``, ``host.calib_spread``, the ``noisy`` flag)
    so a reader can tell a restless host from a slow program; it is never
    divided into a metric."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        """Read the host's speed, after a collection, outside any timing."""
        gc.collect()
        self.samples.append(calib.measure())

    def record(self, run: Run) -> None:
        summary = stats.over_windows(self.samples)
        run.layers["host.calib_ms"] = summary["value"]
        run.layers["host.calib_spread"] = summary["spread"]
        run.detail["calib_ms"] = summary
        run.detail["noisy"] = summary["spread"] > 0.10


def timed(action: Callable[[], Any]) -> Tuple[Any, float]:
    """``action``'s result and its duration in seconds."""
    started = time.perf_counter()
    result = action()
    return result, time.perf_counter() - started
