#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads.

    python3 bench/run.py                                  # all four, a table
    python3 bench/run.py --workload serve-read --seed 3   # one workload
    python3 bench/run.py --workload serve-mixed --trace 1 # per-layer trace

Every output is checked; any wrong, failed or refused operation makes the
command exit non-zero.  The last line of standard output is the result as
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``):
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer ones with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench/run.py: the program under test is missing ({SRC}/repro); "
             "run from a full checkout")
sys.path[:0] = [ROOT, SRC]

from bench import common  # noqa: E402 - needs the path set above
from bench.cold import cold_assess  # noqa: E402
from bench.harness import Run  # noqa: E402
from bench.serve import serve_mixed, serve_read  # noqa: E402
from bench.update import session_update  # noqa: E402

RUNNERS = {"cold-assess": cold_assess, "session-update": session_update,
           "serve-read": serve_read, "serve-mixed": serve_mixed}


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def execute(workload: str, seed: int, seconds: float, trace: bool,
            expected: Dict[str, Any], **smoke: Any) -> Run:
    """Run one workload; scratch files live and die under ``bench/out``."""
    os.makedirs(common.OUT_DIR, exist_ok=True)
    run = Run(workload, seed=seed, seconds=seconds, trace=trace,
              expected=expected, **smoke)
    with tempfile.TemporaryDirectory(prefix="run-", dir=common.OUT_DIR) \
            as work_dir:
        run.work_dir = work_dir
        started = time.perf_counter()
        RUNNERS[workload](run)
        run.detail["wall_s"] = time.perf_counter() - started
        run.detail["environment"] = common.fingerprint(work_dir)
    return run


def metrics_of(run: Run, contract: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The contract's metrics for this run, by name, with their units.  A
    layer the workload does not exercise reads 0."""
    if run.trace:
        return {spec["name"]: {"value": run.layers.get(spec["name"], 0.0),
                               "unit": spec["unit"]}
                for spec in contract["per_layer"]}
    return {spec["name"]: {"value": run.e2e[spec["name"]],
                           "unit": spec["unit"]}
            for spec in contract["end_to_end"] if spec["name"] in run.e2e}


def write_result(run: Run, metrics: Dict[str, Any]) -> None:
    kind = "trace" if run.trace else "result"
    document = {"workload": run.workload, "seed": run.seed,
                "seconds": run.seconds, "attempted": run.attempted,
                "failed": run.failed, "failures": run.failures,
                "metrics": metrics, "named": run.named,
                "detail": run.detail}
    if run.trace:
        document["spans"] = run.spans
    path = os.path.join(common.OUT_DIR, f"{kind}-{run.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def report(run: Run, metrics: Dict[str, Any],
           contract: Dict[str, Any]) -> None:
    bounds = {spec["name"]: spec["bound"] for spec in contract["end_to_end"]}

    def line(name: str, value: float, unit: str, bound=None) -> None:
        allowed = "" if bound is None else f"  (may worsen {bound:.0%})"
        print(f"  {name:<34} {value:>14.4f} {unit:<5}{allowed}")

    print(f"== {run.workload}  seed={run.seed}  "
          f"{'per-layer (traced)' if run.trace else 'end-to-end'}  "
          f"{run.detail.get('wall_s', 0.0):.1f} s"
          f"{'  NOISY HOST' if run.detail.get('noisy') else ''}")
    for name, metric in metrics.items():
        line(name, metric["value"], metric["unit"], bounds.get(name))
    if not run.trace:
        print("  -- by the issue's names --")
        for name, value in run.named.items():
            unit, bound = common.NAMED[name]
            line(name, value, unit, bound)
    share = run.failed / max(1, run.attempted)
    print(f"  {'failed_share':<34} {share:>14.6f} ratio  "
          f"({run.failed} of {run.attempted} checked outputs)")
    for message in run.failures:
        print(f"  FAILED: {message}")


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS),
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="how long the timed phase is sized for")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--expected", metavar="FILE",
                        default=os.path.join(ROOT, "bench", "expected.json"),
                        help="pinned counts the outputs are checked against")
    args = parser.parse_args(argv)
    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)

    def interrupted(_signum, _frame):
        raise KeyboardInterrupt   # unwinds through the finally blocks

    signal.signal(signal.SIGTERM, interrupted)
    names = [args.workload] if args.workload else \
        [spec["name"] for spec in contract["workloads"]]
    status = 0
    for name in names:
        run = execute(name, args.seed, args.seconds, bool(args.trace),
                      expected)
        metrics = metrics_of(run, contract)
        write_result(run, metrics)
        report(run, metrics, contract)
        complete = run.trace or len(metrics) == len(contract["end_to_end"])
        if run.failed or not complete:
            status = 1
        print(json.dumps({"correct": run.failed == 0 and complete,
                          "attempted": max(1, run.attempted),
                          "failed": run.failed, "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
