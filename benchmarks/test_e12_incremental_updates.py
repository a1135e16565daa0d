"""E12 — Incremental materialization: update in deltas vs re-chase from scratch.

Sweeps the extensional database size and, at each size, materializes the
ontology **once** in a :class:`~repro.engine.session.MaterializedProgram`,
then replays the same update stream (inserts + provenance-driven
retractions) two ways:

* **incremental** — ``add_facts``/``retract_facts`` re-enter the
  delta-driven chase seeded with the changed facts, then the query batch is
  re-answered through a :class:`~repro.engine.session.QuerySession` (cached
  parses; answers maintained by the update's fact delta);
* **full** — the status-quo path: apply the update to the EDB, re-chase the
  whole program from scratch, evaluate the same queries.

Both paths must produce identical answers after every step and identical
ground facts at the end, and the stream must never force a full re-chase.
The cost of an update is measured by ``bench/run.py --workload
session-update`` (paired runs), not here.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the sweep to seconds (tiny sizes)
so CI can exercise this code on every push.
"""

from __future__ import annotations

import os

from repro.datalog import chase
from repro.datalog.answering import certain_answers
from repro.engine.session import MaterializedProgram, QuerySession
from repro.relational.values import Null
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (100, 200, 400, 800)
STEPS = 3 if SMOKE else 8


def _ground_facts(instance):
    return {
        (relation.schema.name, row)
        for relation in instance
        for row in relation
        if not any(isinstance(value, Null) for value in row)
    }


def _run_one_size(size: int) -> MaterializedProgram:
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=3, top_members=2, base_relations=1,
        upward_rules=True, downward_rules=False, seed=13,
        tuples_per_relation=size))
    program = workload.ontology.program()
    queries = workload.queries
    stream = generate_update_stream(workload, steps=STEPS, adds_per_step=3,
                                    retracts_per_step=2, seed=7)

    # Incremental path: one materialization absorbing the whole stream.
    materialized = MaterializedProgram(program)
    session = QuerySession(materialized)
    session.answer_many(queries)  # warm caches (the session posture)
    incremental_answers = []
    for step in stream:
        materialized.add_facts(step.adds)
        materialized.retract_facts(step.retracts)
        incremental_answers.append(session.answer_many(queries).answers)

    # Full path: the status quo — re-chase from scratch after every step.
    full_program = program.copy()
    full_answers = []
    for step in stream:
        for predicate, row in step.adds:
            full_program.database.add(predicate, row)
        for predicate, row in step.retracts:
            full_program.database.relation(predicate).discard(row)
        result = chase(full_program, check_constraints=False)
        full_answers.append([certain_answers(full_program, query,
                                             chase_result=result)
                             for query in queries])

    # Differential: identical answers after every step, identical ground
    # facts at the end of the stream.
    assert incremental_answers == full_answers
    final = chase(materialized.edb_program(), check_constraints=False)
    assert _ground_facts(final.instance) == _ground_facts(materialized.instance)
    return materialized


def test_incremental_updates_beat_full_rechase():
    """Incremental ≡ full at every size, with no full re-chase."""
    for size in SIZES:
        materialized = _run_one_size(size)
        assert materialized.stats.full_rechases == 0, \
            "the update stream should never force a full re-chase on this workload"
        assert materialized.stats.incremental_updates >= STEPS


def test_quality_session_reassesses_only_touched_relations():
    """After the first assessment, updates move the counts by their delta:
    no relation is recounted — and the maintained assessment equals a
    from-scratch one."""
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=3, top_members=2, base_relations=1,
        upward_rules=True, seed=13,
        tuples_per_relation=20 if SMOKE else 100,
        assessment_tuples=30 if SMOKE else 150))
    session = workload.context.session(workload.assessment_instance)
    first = session.assess()

    stream = generate_update_stream(workload, steps=3, adds_per_step=2,
                                    retracts_per_step=1, seed=11,
                                    target="assessment")
    before = session.stats.snapshot()
    for step in stream:
        for predicate, row in step.adds:
            update = session.add_facts(predicate, [row])
            assert update.is_incremental
        for predicate, row in step.retracts:
            session.retract_facts(predicate, [row])

    incremental = session.assess()
    delta = session.stats.delta(before)
    assert delta.answers_maintained >= 1  # Readings' counts moved by delta
    assert delta.cache_misses == 0 and delta.cache_hits >= 1
    assert delta.maintenance_fallbacks == 0

    from repro.quality import assess_database
    fresh_versions = workload.context.quality_versions_for(session.instance)
    fresh = assess_database(session.instance, fresh_versions)
    assert str(incremental) == str(fresh)
    assert str(first) != str(incremental) or not stream  # updates moved the needle
