"""cold-assess: time to first assessment, every trial a fresh process."""

from __future__ import annotations

import json
import os
import subprocess
import time
from statistics import median
from typing import Any, Dict, Optional

from . import common, derive
from .harness import Calibration, Run
from .trace import Layers

TIER = "L"
#: a cold tier-L trial takes ~8 s on the sizing host
TRIAL_SECONDS = 8.0


def reap(process: Optional[subprocess.Popen]) -> None:
    """Make sure a child is gone and waited for."""
    if process is None:
        return
    if process.poll() is None:
        process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


STAGES = ("import_s", "build_s", "chase_s", "assess_call_s", "answers_s")


def trial(run: Run, calibration: Calibration, tier: str, *module_args: str,
          env: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """One trial subprocess: its JSON with the stage times, plus
    ``journey_s`` (spawn -> last answer in the parent's hands) and
    ``assess_s`` (session construction -> assessment -> first answers).
    ``{}`` if the child failed (counted)."""
    command = common.child_command("cold_trial", "--tier", tier,
                                   "--seed", run.seed, *module_args)
    calibration.tick()
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env or common.child_env(),
                               stdout=subprocess.PIPE, text=True)
    try:
        process.stdout.readline()       # "answered"
        journey = time.perf_counter() - started
        line = process.stdout.readline()
        process.wait(timeout=120)
    finally:
        reap(process)
    if not run.check(process.returncode == 0 and line.startswith("{"),
                     f"cold trial exited with {process.returncode}"):
        return {}
    result = json.loads(line)
    result["journey_s"] = journey
    result["assess_s"] = result["chase_s"] + result["assess_call_s"] + \
        result["answers_s"]
    run.check(not result["mismatches"],
              f"answers differ from the oracle: {result['mismatches']}")
    return result


def cold_assess(run: Run) -> None:
    tier = run.tier or TIER
    wanted = 1 if run.trace else \
        max(run.repeats, round(run.seconds / TRIAL_SECONDS))
    calibration = Calibration()
    trials = []
    for _ in range(wanted):
        result = trial(run, calibration, tier)
        if result:
            run.check_pinned(tier, result)
            trials.append(result)
    traced = None
    if run.trace:
        traced = traced_trial(run, calibration, tier)
        other_engines(run, calibration)
    calibration.tick()
    calibration.record(run)
    if not trials:
        return
    for name in ("facts", "triggers", "answer_rows"):
        run.check(len({result[name] for result in trials}) == 1,
                  f"{name} differs between trials")
    run.detail["trials"] = [
        {name: result[name] for name in STAGES + ("journey_s", "rss_mb")}
        for result in trials]

    def over_trials(*stages: str) -> float:
        return median(sum(result[stage] for stage in stages)
                      for result in trials)

    assess_s = over_trials("assess_s")
    run.named = {"assess_s": assess_s}
    run.e2e = {
        "setup_s": over_trials("import_s", "build_s"),
        "typical_ms": 1000.0 * assess_s,
        "tail_ms": 1000.0 * over_trials("journey_s"),
        "second_ms": 1000.0 * over_trials("answers_s"),
        "ops_per_s": median(result["facts"] / result["chase_s"]
                            for result in trials),
        "peak_rss_mb": over_trials("rss_mb"),
    }
    if run.trace:
        run.layers["assess_s"] = assess_s
    if traced:
        run.layers["trace.overhead_share"] = \
            traced["assess_s"] / assess_s - 1.0


def traced_trial(run: Run, calibration: Calibration,
                 tier: str) -> Dict[str, Any]:
    """One more trial with the span table installed in the child."""
    path = os.path.join(run.work_dir, "cold-spans.json")
    traced = trial(run, calibration, tier, "--trace-out", path)
    if not traced:
        return traced
    run.check_pinned(tier, traced)
    with open(path, encoding="utf-8") as handle:
        run.spans = json.load(handle)["spans"]
    layers = Layers(run.spans)
    derive.bootstrap(run, layers, traced)
    run.layers["trace.unattributed_share"] = max(
        0.0, 1.0 - layers.root_seconds() / (
            traced["build_s"] + traced["assess_s"]))
    return traced


def other_engines(run: Run, calibration: Calibration) -> None:
    """Evidence for the engine-collapse roadmap item: the same chase on
    the engines columnar is meant to replace, at the largest tier the
    default trigger budget admits."""
    tier = run.tier or "M"
    for name, args, extra in (
            ("engine.chase_s.indexed", ("--engine", "indexed"), {}),
            ("engine.chase_s.nonumpy", (), {"REPRO_NO_NUMPY": "1"})):
        other = trial(run, calibration, tier, *args,
                      env=dict(common.child_env(), **extra))
        if other:
            run.layers[name] = other["chase_s"]
