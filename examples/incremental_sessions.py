"""Incremental materialization sessions: chase once, answer many, update in deltas.

The paper's workload is session-shaped: one MD ontology is chased once,
then many certain-answer queries and quality assessments run against the
same materialization while the underlying instance receives small updates.
This example shows the three session objects doing exactly that on a
synthetic workload:

1. a ``MaterializedProgram`` chases the ontology once and then absorbs
   inserts and retractions through the delta-driven chase (retractions via
   the recorded provenance of derived facts);
2. a ``QuerySession`` answers the workload's query batch against the live
   materialization, keeping cached answers maintained across updates;
3. a ``QualitySession`` keeps each assessed relation's ``|R ∩ R_q|``
   count by delta, so re-assessing after an update reads counters.

For every update the script compares the incremental timing with a full
re-chase of the updated database — the amortization E12 measures.

Run with::

    python examples/incremental_sessions.py
"""

from __future__ import annotations

import time

from repro.datalog import chase
from repro.engine.session import MaterializedProgram, QuerySession
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)


def main() -> None:
    spec = WorkloadSpec(dimensions=1, depth=3, fanout=3, top_members=2,
                        base_relations=1, upward_rules=True,
                        tuples_per_relation=300, seed=13)
    workload = generate_workload(spec)
    program = workload.ontology.program()

    print("== materialize once ==")
    start = time.perf_counter()
    materialized = MaterializedProgram(program)
    print(f"  chased {materialized.instance.total_tuples()} facts in "
          f"{time.perf_counter() - start:.4f}s "
          f"({materialized.result.steps} triggers)")

    queries = QuerySession(materialized)
    batch = queries.answer_many(workload.queries)
    print(f"  answered {len(batch)} queries "
          f"({sum(len(answers) for answers in batch.answers)} tuples)")

    print("\n== update in deltas ==")
    # The serving loop re-answers the *point* queries per step (the last
    # generated query is a full scan of the rolled-up relation — its cost
    # is pure answer enumeration, identical on every strategy).
    point_queries = workload.queries[:-1]
    stream = generate_update_stream(workload, steps=5, adds_per_step=3,
                                    retracts_per_step=2, seed=7)
    for index, step in enumerate(stream):
        start = time.perf_counter()
        added = materialized.add_facts(step.adds)
        removed = materialized.retract_facts(step.retracts)
        batch = queries.answer_many(point_queries)
        incremental = time.perf_counter() - start

        start = time.perf_counter()
        chase(materialized.edb_program(), check_constraints=False)
        full = time.perf_counter() - start
        print(f"  step {index}: +{len(added.applied)}/-{len(removed.applied)} facts, "
              f"{added.steps + removed.steps} triggers, "
              f"update+requery {incremental * 1e3:6.2f}ms "
              f"vs full re-chase {full * 1e3:6.2f}ms "
              f"({full / incremental:5.1f}x)")

    stats = materialized.stats
    print(f"\n  lifetime: {stats.incremental_updates} incremental updates, "
          f"{stats.full_rechases} full re-chases, "
          f"{queries.stats.cache_hits} cache hits")

    print("\n== quality session over the instance under assessment ==")
    session = workload.context.session(workload.assessment_instance)
    print("  " + str(session.assess()).replace("\n", "\n  "))
    for step in generate_update_stream(workload, steps=3, adds_per_step=2,
                                       retracts_per_step=1, seed=11,
                                       target="assessment"):
        for predicate, row in step.adds:
            session.add_facts(predicate, [row])
        for predicate, row in step.retracts:
            session.retract_facts(predicate, [row])
    print("  after 3 update steps:")
    print("  " + str(session.assess()).replace("\n", "\n  "))
    print(f"  assessment counts: {session.stats.answers_maintained} moved by "
          f"delta, {session.stats.cache_misses} recounted, "
          f"{session.stats.cache_hits} served from counts")


if __name__ == "__main__":
    main()
