"""session-update: update -> fresh quality answer, in process, serial."""

from __future__ import annotations

from statistics import median
from typing import Optional

from . import common, derive
from .harness import (Calibration, Run, Sizing, latency_metrics,
                      run_together, session_executor, throughput, timed,
                      verify)
from .ops import UPDATE_MIX, WRITE_CLASSES, OpGenerator
from .oracle import FULL_QUERY, SensorOracle
from .trace import Layers, Tracer

#: 225 writes + 25 assessments per window; an op costs ~4.7 ms
SIZING = Sizing("M", 250, 8)


def open_session(tier: str):
    """build -> chase -> first assessment -> the query answered once."""
    from repro.quality.session import QualitySession
    scenario = common.build_tier(tier)
    session = QualitySession(scenario.context, scenario.instance,
                             engine=common.ENGINE)
    assessment = session.assess()
    rows = session.quality_answers(FULL_QUERY)
    return scenario, session, assessment, rows


def session_counts(session) -> dict:
    from repro.relational.values import value_catalog
    stats = session.materialized.stats.as_dict()
    return {"stats": stats, "triggers": stats["triggers_fired"],
            "facts": sum(len(r) for r in session.materialized.instance),
            "edb_rows": sum(len(r) for r in session.materialized.edb),
            "catalog_values": len(value_catalog())}


def session_update(run: Run) -> None:
    tracer = None
    if run.trace:
        tracer = Tracer("c")
        tracer.install()
    try:
        _session_update(run, run.sized(SIZING), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _session_update(run: Run, sizing: Sizing,
                    tracer: Optional[Tracer]) -> None:
    from repro.quality.session import QualitySession
    from repro.sensornet.data import spec_sensors
    untraced, traced = run.phases(sizing.windows(run.seconds))

    # the op lists come first, from a scenario of their own that is gone
    # before the session exists: peak_rss_mb then holds one set-up and the
    # timed windows, not the oracle's copies of the readings
    scenario = common.build_tier(sizing.tier)
    generator = OpGenerator(scenario, SensorOracle(scenario), run.seed,
                            "session-update", spec_sensors(scenario.spec))
    initial_rows = generator.quality_rows()
    initial_counts = (len(generator.live), generator.quality_size)
    plan = generator.windows(UPDATE_MIX, sizing.window_ops, untraced + traced)
    final_rows = generator.quality_rows()
    del scenario, generator

    calibration = Calibration()
    calibration.tick()
    if tracer is not None:
        tracer.enabled = True
    (scenario, session, assessment, rows), setup_s = timed(
        lambda: open_session(sizing.tier))
    setups = [setup_s]
    if tracer is not None:
        tracer.enabled = False
    run.check(frozenset(rows) == initial_rows, "setup: wrong quality answers")
    row = assessment.as_rows()[0]
    run.check((row["total_tuples"], row["quality_tuples"]) == initial_counts,
              "setup: wrong assessment")
    counts = session_counts(session)
    run.check_pinned(sizing.tier, counts)
    if tracer is not None:
        derive.bootstrap(run, Layers(tracer.export()), counts)
        tracer.spans.clear()
    del assessment, rows

    execute = session_executor(session)
    done = []
    program = answers = None
    calibration.tick()
    for index, window_ops in enumerate(plan):
        if tracer is not None and index == untraced:
            program = session.materialized.stats.snapshot()
            answers = session.query_session.stats.snapshot()
            tracer.enabled = True
        group = run_together([execute], [window_ops], tracer,
                             index * sizing.window_ops)
        calibration.tick()
        verify(run, group[0], served=False)
        group[0].results = []
        done.append(group)
    if tracer is not None:
        tracer.enabled = False
    peak_rss_mb = common.peak_rss_mb()

    # the maintained state against the definition (oracle) and against the
    # library itself (a from-scratch session on the final instance)
    final = frozenset(session.quality_answers(FULL_QUERY))
    run.check(final == final_rows,
              "final quality answers differ from the oracle")
    scratch = QualitySession(scenario.context, session.instance,
                             engine=common.ENGINE)
    run.check(final == frozenset(scratch.quality_answers(FULL_QUERY)),
              "final quality answers differ from a from-scratch session")
    del scratch

    measured = done[:untraced]
    writes = latency_metrics(run, measured, WRITE_CLASSES, "write")
    assess = latency_metrics(run, measured, ("assess",), "assess")
    ops_per_s = throughput(run, measured)
    run.named = {"write_p50_ms": writes["p50"], "write_p95_ms": writes["p95"],
                 "assess_p50_ms": assess["p50"]}
    if tracer is not None:
        run.layers.update(run.named)
        run.spans = tracer.export()
        layers = Layers(run.spans)
        derive.updates(
            run, layers,
            session.materialized.stats.delta(program).as_dict(),
            session.query_session.stats.delta(answers).as_dict(),
            len(session.materialized.versions.live_versions()))
        derive.trace_quality(run, layers, measured, done[untraced:])

    # the set-ups that only steady setup_s come last, one at a time
    del scenario, session, execute
    for _ in range(0 if run.trace else run.repeats - 1):
        calibration.tick()
        setups.append(timed(lambda: open_session(sizing.tier))[1])
    calibration.record(run)
    run.e2e = {"setup_s": median(setups), "typical_ms": writes["p50"],
               "tail_ms": writes["p95"], "second_ms": assess["p50"],
               "ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb}
