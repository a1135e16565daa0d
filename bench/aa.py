#!/usr/bin/env python3
"""A/A check: do two sets of runs of the same commit agree?

    python3 bench/aa.py [-k 5] [--workload NAME] [--seconds N]

Runs two sets of ``k`` full runs, alternating (A1 B1 A2 B2 ...), run ``i``
of both sets with seed ``i`` — the sets execute the same op lists, so what
differs between them is the host — and prints per workload x end-to-end
metric: each set's median and quartiles, its spread (distance between the
quartiles as a share of the median), the gap between the set medians, the
bound and PASS/FAIL.  The metrics are those of ``BENCHMARK.json`` and,
below them, the same run's metrics by the issue's names with the bounds
of ``common.NAMED``.  A metric passes when both spreads (``setup_s``
excepted) and the gap, in either direction, stay within its bound.  Exits
non-zero on any FAIL or any incorrect run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from bench import common  # noqa: E402 - needs the path set above


def one_run(workload: str, seed: int, seconds: Optional[float]) -> Dict:
    """One untraced run: metric name -> value, under both kinds of name;
    ``{}`` if the run failed or was incorrect."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return {}
    values = {name: metric["value"] for name, metric
              in json.loads(lines[-1])["metrics"].items()}
    with open(common.OUT_DIR / f"result-{workload}.json",
              encoding="utf-8") as handle:
        values.update(json.load(handle)["named"])
    return values


def summarize(values: List[float]) -> Dict[str, float]:
    low, _middle, high = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return {"median": center, "q1": low, "q3": high,
            "spread": (high - low) / center}


def main(argv: Optional[List[str]] = None) -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [spec["name"] for spec in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", type=int, default=5, help="runs per set")
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.k < 2:
        parser.error("quartiles need at least two runs per set")
    specs = [(spec["name"], spec["unit"], spec["bound"])
             for spec in contract["end_to_end"]] + \
        [(name, unit, bound) for name, (unit, bound) in common.NAMED.items()]

    status = 0
    print("| workload | metric | A median [q1, q3] | A spread | "
          "B median [q1, q3] | B spread | gap | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in args.workload or names:
        sets: Dict[str, List[Dict]] = {"A": [], "B": []}
        for index in range(args.k):
            for name in ("A", "B"):
                values = one_run(workload, 1 + index, args.seconds)
                if not values:
                    print(f"{workload}: run {name}{index + 1} failed",
                          file=sys.stderr)
                    return 1
                sets[name].append(values)
        for metric, unit, bound in specs:
            if metric not in sets["A"][0]:
                continue        # a named metric of other workloads
            a, b = (summarize([run[metric] for run in sets[name]])
                    for name in ("A", "B"))
            gap = (b["median"] - a["median"]) / a["median"]
            steady = metric == "setup_s" or \
                max(a["spread"], b["spread"]) <= bound
            passed = steady and abs(gap) <= bound
            status = status if passed else 1
            print(f"| {workload} | {metric} ({unit}) | "
                  f"{a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] | "
                  f"{a['spread']:.1%} | "
                  f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] | "
                  f"{b['spread']:.1%} | {gap:+.1%} | {bound:.0%} | "
                  f"{'PASS' if passed else 'FAIL'} |", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
