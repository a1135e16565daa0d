"""E14 — Answer maintenance: answers updated by delta equal recomputed ones.

PR 2 cached query answers with predicate-level invalidation: any update
touching a query's predicates discarded the cached answer and re-ran the
whole join.  :class:`~repro.engine.session.QuerySession` now keeps every
answered query as counting-based incremental view maintenance state
(Gupta, Mumick & Subrahmanian, SIGMOD 1993): each update's fact delta is
propagated through compiled :class:`~repro.engine.matching.DeltaJoinPlan`
pivots, moving the cached support counts in place, so reads never
re-join.  This experiment absorbs a generated update stream into one
materialization, answering a standing query batch after every step, and
checks those maintained answers against a from-scratch session over the
same extensional database (``materialized.edb_program()``).  The
maintained path must actually maintain: no fallback, no full re-chase.

What maintenance costs end to end is measured by ``bench/run.py``
(``session-update``), not here.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the sweep to tiny sizes so CI can
exercise this code on every push.
"""

from __future__ import annotations

import os

from repro.datalog import parse_query
from repro.engine.session import MaterializedProgram, QuerySession
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (200, 400, 800)
STEPS = 3 if SMOKE else 8


def _query_batch(workload):
    """The generated batch plus heavier scans/joins over the same relations.

    The generated workload carries point queries and one roll-up scan; the
    session posture the paper motivates ("assess once, query many") keeps a
    *batch* of standing queries warm, so the harness adds projections over
    the base relation and a base⋈roll-up join — queries most update steps
    reach, so maintenance runs on every step.
    """
    program = workload.ontology.program()
    database = program.database
    queries = list(workload.queries)
    base = workload.base_relation_names[0]
    base_vars = [f"V{i}" for i in range(database.relation(base).schema.arity)]
    base_body = f"{base}({', '.join(base_vars)})"
    queries.append(parse_query(f"?({', '.join(base_vars)}) :- {base_body}."))
    queries.append(parse_query(f"?({base_vars[-1]}) :- {base_body}."))
    if workload.upward_relation_names:
        up = workload.upward_relation_names[0]
        up_vars = [f"U{i}" for i in range(database.relation(up).schema.arity)]
        up_body = f"{up}({', '.join(up_vars)})"
        queries.append(parse_query(f"?({up_vars[0]}) :- {up_body}."))
        if len(base_vars) >= 2:
            shared = base_vars[1:]
            queries.append(parse_query(
                f"?(C, P) :- {base}(C, {', '.join(shared)}), "
                f"{up}(P, {', '.join(shared)})."))
    return queries


def _recomputed(materialized, queries):
    """Oracle: a fresh chase of the session's own EDB, answered cold."""
    fresh = MaterializedProgram(materialized.edb_program())
    return QuerySession(fresh).answer_many(queries).answers


def _replay_one_size(size: int) -> None:
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=3, top_members=2, base_relations=1,
        upward_rules=True, downward_rules=False, seed=13,
        tuples_per_relation=size))
    queries = _query_batch(workload)
    stream = generate_update_stream(workload, steps=STEPS, adds_per_step=3,
                                    retracts_per_step=2, seed=7)
    materialized = MaterializedProgram(workload.ontology.program())
    session = QuerySession(materialized)
    session.answer_many(queries)  # warm caches (the session posture)
    for index, step in enumerate(stream):
        materialized.add_facts(step.adds)
        materialized.retract_facts(step.retracts)
        assert session.answer_many(queries).answers == \
            _recomputed(materialized, queries), f"size {size}, step {index}"

    # The maintained path must have actually maintained (never silently
    # fallen back to re-answering or re-chasing).
    assert session.stats.answers_maintained > 0
    assert session.stats.maintenance_fallbacks == 0
    assert materialized.stats.full_rechases == 0


def test_maintained_answers_equal_recomputed():
    """After every update step, maintained answers == recomputed answers."""
    for size in SIZES:
        _replay_one_size(size)
