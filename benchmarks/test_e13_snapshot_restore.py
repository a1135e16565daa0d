"""E13 — Durable snapshots: restore a materialization vs re-chase it cold.

Sweeps the extensional database size and, at each size:

* **cold** — builds a :class:`~repro.engine.session.MaterializedProgram`
  from scratch (the full restricted chase with provenance recording — what
  every process restart pays without persistence);
* **restore** — loads the same materialization from a snapshot file
  (:mod:`repro.engine.snapshot`): JSON decode + integrity checks + index
  publication, no chase at all.

Both sessions must produce identical certain answers on the workload's
query batch, and both must stay *live*: one update step is applied to each
and the answers must still agree.  The motivating claim is that at the
largest size restoring is at least 5× faster than re-chasing.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the sweep to seconds (tiny sizes,
no 5× gate) so CI can exercise this code on every push.
"""

from __future__ import annotations

import gc
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine.session import MaterializedProgram, QuerySession
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (100, 200, 400, 800)
MIN_SPEEDUP = 0.0 if SMOKE else 5.0


@contextmanager
def _timed(bucket: dict, key: str):
    """Wall-clock a block with the cyclic GC paused (both contenders get
    the same treatment; without this, the measurement is dominated by
    whole-heap collections triggered by allocation bursts when the suite
    runs alongside other tests)."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        yield
    finally:
        bucket[key] = time.perf_counter() - start
        if was_enabled:
            gc.enable()


def _run_one_size(size: int, snapshot_dir: Path):
    # Two dimensions with upward *and* downward rules: the derivation-heavy
    # ontology family of E10/E12, where a cold chase does real work.
    workload = generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=3, top_members=2, base_relations=2,
        upward_rules=True, downward_rules=True, seed=13,
        tuples_per_relation=size))
    program = workload.ontology.program()

    timings: dict = {}

    # Cold start: the full chase every process restart pays today.
    with _timed(timings, "cold"):
        cold = MaterializedProgram(program)
    cold_answers = QuerySession(cold).answer_many(workload.queries).answers

    path = snapshot_dir / f"e13_{size}.snapshot"
    with _timed(timings, "save"):
        cold.save(path)

    # Warm start: restore the snapshot instead of re-chasing.
    with _timed(timings, "restore"):
        restored = MaterializedProgram.load(path, program=program)
    cold_seconds = timings["cold"]
    save_seconds = timings["save"]
    restore_seconds = timings["restore"]
    restored_answers = QuerySession(restored).answer_many(
        workload.queries).answers
    assert restored_answers == cold_answers

    # Both sessions stay live: an update keeps them in lockstep.
    step = generate_update_stream(workload, steps=1, adds_per_step=3,
                                  retracts_per_step=2, seed=7)[0]
    for session in (cold, restored):
        session.add_facts(step.adds)
        session.retract_facts(step.retracts)
    assert QuerySession(restored).answer_many(workload.queries).answers == \
        QuerySession(cold).answer_many(workload.queries).answers
    assert restored.stats.full_rechases == cold.stats.full_rechases

    return {
        "tuples_per_relation": size,
        "extensional_facts": workload.total_facts(),
        "materialized_facts": cold.instance.total_tuples(),
        "queries": len(workload.queries),
        "cold_chase_seconds": round(cold_seconds, 6),
        "snapshot_save_seconds": round(save_seconds, 6),
        "snapshot_restore_seconds": round(restore_seconds, 6),
        "snapshot_bytes": path.stat().st_size,
        "speedup": round(cold_seconds / restore_seconds, 2)
        if restore_seconds > 0 else float("inf"),
    }


def test_snapshot_restore_beats_cold_rechase(tmp_path):
    """Restore ≡ cold at every size; ≥5× faster at the largest."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as snapshot_dir:
        trajectory = [_run_one_size(size, Path(snapshot_dir))
                      for size in SIZES]

    largest = trajectory[-1]
    if MIN_SPEEDUP:
        assert largest["speedup"] >= MIN_SPEEDUP, (
            f"snapshot restore only {largest['speedup']}x faster than a cold "
            f"re-chase at the largest size; trajectory: {trajectory}")
