"""E15 — Serving: warm restart (snapshot ⊕ WAL tail) vs cold chase.

Sweeps the extensional database size and, at each size, measures what a
serving-daemon restart costs against what a process without persistence
pays:

* **cold** — chase the program from scratch and re-apply the update
  stream in-process (the full price of a restart with no durable state);
* **warm** — :meth:`~repro.serving.daemon.ServingDaemon.recover`: load
  the latest snapshot (no chase), replay the WAL tail through the
  maintained-answer path, reopen the log.

Both paths must produce identical certain answers on the workload's query
batch — the recovery invariant, timed.  The second axis is **update →
answer round-trip throughput** over the real socket protocol (append +
fsync + incremental apply + answer), measured against a live daemon.

The motivating claim (gated at the largest size) is warm restart ≥ 5×
faster than the cold chase.  ``REPRO_BENCH_SMOKE=1`` shrinks the sweep to
seconds for CI and skips the gate.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine.session import MaterializedProgram
from repro.serving import CompactionPolicy, ServingClient
from repro.serving.daemon import ProgramBackend, ServingDaemon
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (100, 200, 400, 800)
MIN_SPEEDUP = 0.0 if SMOKE else 5.0
ROUNDTRIPS = 10 if SMOKE else 40


@contextmanager
def _timed(bucket: dict, key: str):
    """Wall-clock a block with the cyclic GC paused (same treatment for
    both contenders; see E13)."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        yield
    finally:
        bucket[key] = time.perf_counter() - start
        if was_enabled:
            gc.enable()


def _workload(size: int):
    return generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=3, top_members=2, base_relations=2,
        upward_rules=True, downward_rules=True, seed=13,
        tuples_per_relation=size))


def _stream_items(workload):
    stream = generate_update_stream(workload, steps=4, adds_per_step=2,
                                    retracts_per_step=1, seed=7)
    items = []
    for step in stream:
        if step.adds:
            items.append(("add", list(step.adds)))
        if step.retracts:
            items.append(("retract", list(step.retracts)))
    return items


def _run_one_size(size: int, data_root: Path) -> dict:
    workload = _workload(size)
    items = _stream_items(workload)
    data_dir = data_root / f"e15_{size}"
    timings: dict = {}

    # --- the serving generation that a restart will recover -------------
    daemon = ServingDaemon(
        ProgramBackend(workload.ontology.program()), data_dir,
        policy=CompactionPolicy(checkpoint_every_records=None,
                                max_wal_bytes=None))
    daemon.recover()
    # Warm the maintained answers so the checkpoint carries them.
    daemon.backend.session.answer_many(workload.queries)
    daemon.checkpoint()
    for op, facts in items:  # these stay in the WAL tail, uncheckpointed
        daemon.apply_write(op, facts)
    expected = daemon.backend.session.answer_many(workload.queries).answers
    wal_tail_records = daemon.records_since_checkpoint
    daemon.stop()

    # --- cold: what a restart without persistence pays -------------------
    with _timed(timings, "cold"):
        cold = MaterializedProgram(workload.ontology.program())
        for op, facts in items:
            if op == "add":
                cold.add_facts(facts)
            else:
                cold.retract_facts(facts)
        cold_answers = cold.queries().answer_many(workload.queries).answers
    assert cold_answers == expected

    # --- warm: snapshot ⊕ WAL tail ---------------------------------------
    with _timed(timings, "warm"):
        restarted = ServingDaemon(
            ProgramBackend(workload.ontology.program()), data_dir)
        report = restarted.recover()
    assert report["replayed_records"] == wal_tail_records
    warm_answers = restarted.backend.session.answer_many(
        workload.queries).answers
    assert warm_answers == expected

    # --- update → answer round trips over the socket ---------------------
    host, port = restarted.start()
    client = ServingClient(host, port)
    probe = str(workload.queries[0])
    relation = workload.base_relation_names[0]
    arity = restarted.backend.materialized.edb.relation(relation).schema.arity
    template = next(iter(
        restarted.backend.materialized.edb.relation(relation).rows()))
    with _timed(timings, "roundtrips"):
        for index in range(ROUNDTRIPS):
            row = template[:arity - 1] + (f"rt_{index}",)
            client.add_facts([(relation, row)])
            client.answers(probe)
    client.close()
    restarted.stop()

    cold_seconds = timings["cold"]
    warm_seconds = timings["warm"]
    return {
        "tuples_per_relation": size,
        "extensional_facts": workload.total_facts(),
        "materialized_facts":
            restarted.backend.materialized.instance.total_tuples(),
        "queries": len(workload.queries),
        "wal_tail_records": wal_tail_records,
        "cold_restart_seconds": round(cold_seconds, 6),
        "warm_restart_seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / warm_seconds, 2)
        if warm_seconds > 0 else float("inf"),
        "update_answer_roundtrips_per_second":
            round(ROUNDTRIPS / timings["roundtrips"], 1)
            if timings["roundtrips"] > 0 else float("inf"),
    }


def test_warm_restart_beats_cold_chase(tmp_path):
    """Warm ≡ cold at every size; ≥5× faster at the largest."""
    trajectory = [_run_one_size(size, tmp_path) for size in SIZES]

    largest = trajectory[-1]
    if MIN_SPEEDUP:
        assert largest["speedup"] >= MIN_SPEEDUP, (
            f"warm restart only {largest['speedup']}x faster than a cold "
            f"chase at the largest size; trajectory: {trajectory}")
