"""Crash/restart differential suite: restored sessions ≡ live sessions.

A :class:`~repro.engine.session.MaterializedProgram` snapshotted to disk
and reloaded in a fresh process-like context (nothing shared with the live
session except the file) must be observationally identical to the session
that kept running:

* the immediate round-trip ``load(save(mp))`` is **lossless** — identical
  instance (including labeled-null structure), EDB, provenance graph and
  certain answers;
* driving the restored session through the **same update stream** as the
  live one yields identical ground facts and certain answers at every
  step (null labels may diverge — fresh nulls are invented in different
  trigger orders — but the entailed ground atoms may not);
* quality sessions restore with identical quality versions and
  assessments at every step.

Programs, update sequences and queries are the randomized families of
``test_session_differential``; everything runs on both engines.
``REPRO_FAULT_SEED`` (CI matrix, seeds 0–2) shifts every seed.
"""

from __future__ import annotations

import os
import random

import pytest

import test_session_differential as differential
from repro.datalog.atoms import Atom
from repro.datalog.rules import EGD
from repro.datalog.terms import Variable
from repro.engine.session import MaterializedProgram
from repro.errors import EGDConflictError
from repro.quality.session import QualitySession
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

ENGINES = ("indexed", "naive")
SEED_SHIFT = 1000 * int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _roundtrip(materialized: MaterializedProgram, tmp_path,
               with_program: bool = True) -> MaterializedProgram:
    """Save + load through a file, sharing nothing with the live session."""
    path = tmp_path / "session.snapshot"
    materialized.save(path)
    program = materialized.edb_program() if with_program else None
    return MaterializedProgram.load(path, program=program)


def _assert_step_equivalent(live: MaterializedProgram,
                            restored: MaterializedProgram, seed: int) -> None:
    assert differential._ground_facts(live.instance) == \
        differential._ground_facts(restored.instance)
    rng = random.Random(seed)
    for query in differential._random_queries(rng, live.edb_program()):
        assert live.certain_answers(query) == restored.certain_answers(query)


# -- plain programs ------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(8))
def test_plain_restored_session_tracks_live_session(seed, engine, tmp_path):
    """Plain programs: restore mid-stream, then drive both sessions through
    the same continued update stream."""
    seed += SEED_SHIFT
    program = differential._random_program(seed, existential=False)
    live = MaterializedProgram(program, engine=engine)
    rng = random.Random(4000 + seed)
    updates = differential._random_updates(rng, program, steps=8)
    for action, facts in updates[:3]:  # age the session before snapshotting
        differential._apply_step(live, action, facts)

    restored = _roundtrip(live, tmp_path)
    assert restored.instance == live.instance  # exact, nulls included
    assert restored.version == live.version

    for action, facts in updates[3:]:
        differential._apply_step(live, action, facts)
        differential._apply_step(restored, action, facts)
        _assert_step_equivalent(live, restored, seed)


# -- existential programs ------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(100, 106))
def test_existential_restored_session_tracks_live_session(seed, engine,
                                                          tmp_path):
    """Labeled nulls in the snapshot: provenance-driven retraction keeps
    working after a restore."""
    seed += SEED_SHIFT
    program = differential._random_program(seed, existential=True)
    live = MaterializedProgram(program, engine=engine)
    rng = random.Random(5000 + seed)
    updates = differential._random_updates(rng, program, steps=6)
    for action, facts in updates[:2]:
        differential._apply_step(live, action, facts)

    restored = _roundtrip(live, tmp_path)
    assert restored.instance == live.instance
    assert (restored._provenance is None) == (live._provenance is None)
    if live._provenance is not None:
        assert dict(restored._provenance) == dict(live._provenance)

    for action, facts in updates[2:]:
        differential._apply_step(live, action, facts)
        differential._apply_step(restored, action, facts)
        _assert_step_equivalent(live, restored, seed)


@pytest.mark.parametrize("seed", range(100, 104))
def test_restore_without_program_reconstructs_rules(seed, tmp_path):
    """``load(path)`` with no program decodes the rules from the snapshot
    itself; the restored session still tracks the live one."""
    seed += SEED_SHIFT
    program = differential._random_program(seed, existential=True)
    live = MaterializedProgram(program)
    restored = _roundtrip(live, tmp_path, with_program=False)
    assert restored.instance == live.instance
    rng = random.Random(6000 + seed)
    for action, facts in differential._random_updates(rng, program, steps=4):
        differential._apply_step(live, action, facts)
        differential._apply_step(restored, action, facts)
        _assert_step_equivalent(live, restored, seed)


# -- EGD programs --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(300, 306))
def test_egd_restored_session_tracks_live_session(seed, tmp_path):
    """EGD programs: merges, the ambiguity flag and the full-rechase
    fallback all survive the snapshot round-trip."""
    seed += SEED_SHIFT
    program = differential._random_program(seed, existential=True)
    name, arity = sorted(program.predicate_arities().items())[-1]
    if arity < 2:
        pytest.skip("needs a binary+ predicate for a functional dependency")
    x, y = Variable("FD_x"), Variable("FD_y")
    key = [Variable(f"K{i}") for i in range(arity - 1)]
    program.add_egd(EGD(x, y, [Atom(name, key + [x]), Atom(name, key + [y])]))

    try:
        live = MaterializedProgram(program)
    except EGDConflictError:
        return  # inconsistent from the start: nothing to snapshot
    restored = _roundtrip(live, tmp_path)
    assert restored.instance == live.instance
    assert restored._ambiguous == live._ambiguous

    rng = random.Random(7000 + seed)
    for action, facts in differential._random_updates(rng, program, steps=4):
        try:
            differential._apply_step(live, action, facts)
        except EGDConflictError:
            with pytest.raises(EGDConflictError):
                differential._apply_step(restored, action, facts)
            return
        differential._apply_step(restored, action, facts)
        assert differential._ground_facts(live.instance) == \
            differential._ground_facts(restored.instance)


# -- generated MD workloads ----------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_workload_restored_session_tracks_live_session(engine, tmp_path):
    workload = generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=15, assessment_tuples=20, upward_rules=True,
        downward_rules=True, seed=7 + SEED_SHIFT))
    program = workload.ontology.program()
    live = MaterializedProgram(program, engine=engine)
    restored = _roundtrip(live, tmp_path)
    for step in generate_update_stream(workload, steps=4, adds_per_step=2,
                                       retracts_per_step=1,
                                       seed=7 + SEED_SHIFT):
        for session in (live, restored):
            session.add_facts(step.adds)
            session.retract_facts(step.retracts)
        assert differential._ground_facts(live.instance) == \
            differential._ground_facts(restored.instance)
        for query in workload.queries:
            assert live.certain_answers(query) == \
                restored.certain_answers(query)


# -- quality sessions ----------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 21])
def test_quality_session_restores_versions_and_assessments(seed, tmp_path):
    """A restored QualitySession reports identical quality versions and
    assessments at every step of the same update stream."""
    seed += SEED_SHIFT
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=15, assessment_tuples=25, upward_rules=True,
        seed=seed))
    live = workload.context.session(workload.assessment_instance)
    warmup, tail = 2, 3
    stream = generate_update_stream(workload, steps=warmup + tail,
                                    adds_per_step=2, retracts_per_step=1,
                                    seed=seed, target="assessment")
    for step in stream[:warmup]:
        for predicate, row in step.adds:
            live.add_facts(predicate, [row])
        for predicate, row in step.retracts:
            live.retract_facts(predicate, [row])

    path = tmp_path / "quality.snapshot"
    live.save(path)
    restored = QualitySession.load(workload.context, path)
    assert restored.instance == live.instance

    def assert_equivalent():
        live_versions = live.quality_versions()
        restored_versions = restored.quality_versions()
        assert set(live_versions) == set(restored_versions)
        for relation in live_versions:
            assert set(live_versions[relation]) == \
                set(restored_versions[relation])
        assert str(live.assess()) == str(restored.assess())

    assert_equivalent()
    for step in stream[warmup:]:
        for session in (live, restored):
            for predicate, row in step.adds:
                session.add_facts(predicate, [row])
            for predicate, row in step.retracts:
                session.retract_facts(predicate, [row])
        assert_equivalent()


def test_quality_session_restores_after_non_assessment_updates(tmp_path):
    """Updates to contextual EDB relations (dimensional data) are part of
    the persisted state: the restored session carries them and is not
    falsely rejected against the freshly assembled context data."""
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=10, assessment_tuples=15, upward_rules=True,
        seed=3 + SEED_SHIFT))
    live = workload.context.session(workload.assessment_instance)
    dimensional = next(
        relation.schema.name for relation in live.materialized.edb
        if len(relation) and relation.schema.arity == 1
        and relation.schema.name != "Readings")
    live.add_facts(dimensional, [("zz_member",)])

    path = tmp_path / "quality.snapshot"
    live.save(path)
    restored = QualitySession.load(workload.context, path)
    assert ("zz_member",) in restored.materialized.edb.relation(dimensional)
    assert str(restored.assess()) == str(live.assess())
