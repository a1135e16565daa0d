"""E16 — Columnar engine: batch/compiled joins against the indexed engine.

Sweeps the extensional database size and, at each size, runs the two hot
paths that dominate steady-state serving (the E11 query side and the E12
maintenance side) once on the indexed engine and once on the columnar one:

* **query batch** — answer the workload's full query batch with support
  counts (``evaluate_query_counts``) against the chased instance, the loop
  a :class:`~repro.engine.session.QuerySession` replays on every cache
  miss and the daemon replays per request;
* **delta joins** — drive every query's :class:`DeltaJoinPlan` over a
  sampled delta (``projected_counts``), the loop counting-based IVM
  maintenance replays on every update.

Both engines must produce identical counts everywhere, and the columnar
chase must apply every trigger through the batched path.  What the engine
costs is measured by ``bench/run.py`` (paired runs), not here.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the sweep to seconds (tiny sizes)
so CI can exercise this code on every push.
"""

from __future__ import annotations

import os
import random

from repro.datalog import chase
from repro.datalog.answering import evaluate_query_counts
from repro.engine.matching import DeltaJoinPlan, matcher_for
from repro.workloads import WorkloadSpec, generate_workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (100, 200, 400, 800)
DELTA_ROWS = 8 if SMOKE else 64

ENGINES = ("indexed", "columnar")


def _hot_path_counts(engine, program, queries, delta_seed):
    """Query-batch and delta-join counts for one engine at one size."""
    instance = chase(program, engine=engine,
                     check_constraints=False).instance
    matcher = matcher_for(engine)
    query_counts = [evaluate_query_counts(query, instance, matcher=matcher)
                    for query in queries]
    live = [(relation.schema.name, row)
            for relation in instance for row in relation.rows()]
    delta = random.Random(delta_seed).sample(
        live, k=min(DELTA_ROWS, len(live)))
    delta_counts = [
        DeltaJoinPlan(matcher, query.body, variables=query.body_variables(),
                      comparisons=query.comparisons)
        .projected_counts(instance, delta, query.answer_variables)
        for query in queries]
    return query_counts, delta_counts


def test_columnar_counts_match_indexed_across_sizes():
    """Columnar ≡ indexed on both hot paths at every size."""
    base = WorkloadSpec(dimensions=1, depth=3, fanout=3, top_members=2,
                        base_relations=1, upward_rules=True,
                        downward_rules=False, seed=13)
    for size in SIZES:
        workload = generate_workload(base.scaled(tuples_per_relation=size))
        program = workload.ontology.program()
        indexed, columnar = (_hot_path_counts(engine, program,
                                              workload.queries, delta_seed=99)
                             for engine in ENGINES)
        assert columnar == indexed


def test_columnar_engine_batches_the_scans():
    """The instrumentation shows *how*: the work moved into batch kernels."""
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=3, top_members=2, base_relations=1,
        tuples_per_relation=200, upward_rules=True, seed=13))
    program = workload.ontology.program()
    chased = chase(program, engine="columnar", check_constraints=False)
    matcher = matcher_for("columnar")
    for _ in range(2):
        for query in workload.queries:
            evaluate_query_counts(query, chased.instance, matcher=matcher)
    assert matcher.stats.batch_joins > 0
    assert matcher.stats.rows_batch_scanned > matcher.stats.batch_joins
    assert matcher.stats.codegen_cache_hits > 0
    # the chase itself went through the batched trigger path: every trigger
    # was applied set-at-a-time, none fell back to the per-trigger loop
    assert chased.stats.triggers_batched > 0
    assert chased.stats.triggers_batched == chased.stats.triggers_fired
