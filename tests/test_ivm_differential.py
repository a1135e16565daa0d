"""Differential tests: maintained answers ≡ re-answering from scratch.

The counting-based answer maintenance of :mod:`repro.engine.session` must
be *observationally invisible*: a long-lived :class:`QuerySession` whose
cached answers are moved by every update's fact delta has to return, after
every step of a randomized update stream, exactly what a from-scratch chase
of the current EDB plus a fresh evaluation would return.  This suite pins
that equivalence on the same randomized program families as
``test_session_differential`` — plain, existential, EGD — plus generated
quality-context workloads, on both engines, with a fixed query set answered
after every step so the maintained entries live across many deltas.

Where the stream contains no EGD surprises, the suite also asserts the
maintenance machinery actually ran (``answers_maintained`` grew and no
fallback fired) — a regression guard against silently degrading to
re-answering.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog import chase
from repro.datalog.answering import certain_answers
from repro.engine.session import MaterializedProgram, QuerySession
from repro.errors import EGDConflictError
from repro.workloads import (WorkloadSpec, generate_update_stream,
                             generate_workload)

from test_session_differential import (_ground_facts, _random_program,
                                       _random_queries, _random_updates)

ENGINES = ("indexed", "naive")


def _fixed_queries(seed: int, program):
    rng = random.Random(9000 + seed)
    return _random_queries(rng, program, count=4)


def _check_step(session: QuerySession, queries) -> None:
    """Maintained answers must equal scratch-chase answers for every query."""
    materialized = session.materialized
    reference = chase(materialized.edb_program(), check_constraints=False)
    for query in queries:
        assert session.answers(query) == \
            certain_answers(materialized.edb_program(), query,
                            chase_result=reference), str(query)
    assert _ground_facts(reference.instance) == \
        _ground_facts(materialized.instance)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(12))
def test_plain_streams_maintained_equals_recomputed(seed, engine):
    program = _random_program(seed, existential=False)
    materialized = MaterializedProgram(program, engine=engine)
    session = QuerySession(materialized)
    queries = _fixed_queries(seed, program)
    for query in queries:
        session.answers(query)  # warm the maintained entries
    rng = random.Random(4000 + seed)
    for action, facts in _random_updates(rng, program, steps=6):
        if action == "add":
            materialized.add_facts(facts)
        else:
            materialized.retract_facts(facts)
        _check_step(session, queries)
    # No EGDs anywhere: every touched entry must have been maintained.
    assert session.stats.maintenance_fallbacks == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(100, 110))
def test_existential_streams_maintained_equals_recomputed(seed, engine):
    """Labeled nulls flow through the maintained counts (cones re-derive
    null-carrying facts; certain answers keep dropping them)."""
    program = _random_program(seed, existential=True)
    materialized = MaterializedProgram(program, engine=engine)
    session = QuerySession(materialized)
    queries = _fixed_queries(seed, program)
    for query in queries:
        session.answers(query)
    rng = random.Random(5000 + seed)
    for action, facts in _random_updates(rng, program, steps=5):
        if action == "add":
            materialized.add_facts(facts)
        else:
            materialized.retract_facts(facts)
        _check_step(session, queries)
    assert session.stats.maintenance_fallbacks == 0


@pytest.mark.parametrize("seed", range(300, 308))
def test_egd_streams_fall_back_and_stay_correct(seed):
    """With a functional dependency in play, maintenance falls back on
    merge-carrying updates — and answers still match scratch chases."""
    from repro.datalog.atoms import Atom
    from repro.datalog.rules import EGD
    from repro.datalog.terms import Variable

    program = _random_program(seed, existential=True)
    target = sorted(program.predicate_arities().items())[-1]
    name, arity = target
    if arity < 2:
        pytest.skip("needs a binary+ predicate for a functional dependency")
    x, y = Variable("FD_x"), Variable("FD_y")
    key = [Variable(f"K{i}") for i in range(arity - 1)]
    program.add_egd(EGD(x, y, [Atom(name, key + [x]), Atom(name, key + [y])]))

    try:
        materialized = MaterializedProgram(program)
    except EGDConflictError:
        return
    session = QuerySession(materialized)
    queries = _fixed_queries(seed, program)
    for query in queries:
        session.answers(query)
    rng = random.Random(6000 + seed)
    for action, facts in _random_updates(rng, program, steps=4):
        try:
            if action == "add":
                materialized.add_facts(facts)
            else:
                materialized.retract_facts(facts)
        except EGDConflictError:
            with pytest.raises(EGDConflictError):
                chase(materialized.edb_program(), check_constraints=False)
            return
        _check_step(session, queries)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", [7, 21])
def test_workload_streams_maintained_equals_recomputed(seed, engine):
    """Generated MD workloads: the benchmark-shaped query batch stays exact
    across a base-relation update stream, answered step by step."""
    workload = generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=15, assessment_tuples=20, upward_rules=True,
        downward_rules=True, seed=seed))
    program = workload.ontology.program()
    materialized = MaterializedProgram(program, engine=engine)
    session = QuerySession(materialized)
    session.answer_many(workload.queries)
    for step in generate_update_stream(workload, steps=4, adds_per_step=2,
                                       retracts_per_step=1, seed=seed):
        materialized.add_facts(step.adds)
        materialized.retract_facts(step.retracts)
        _check_step(session, workload.queries)
    assert session.stats.answers_maintained > 0
    assert session.stats.maintenance_fallbacks == 0


@pytest.mark.parametrize("seed", [7, 21])
def test_quality_session_maintained_equals_fresh_context(seed):
    """Quality-version queries ride the same maintained path: after every
    assessment update, the session's quality answers equal a from-scratch
    context materialization over the same data."""
    workload = generate_workload(WorkloadSpec(
        dimensions=1, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=15, assessment_tuples=25, upward_rules=True,
        seed=seed))
    session = workload.context.session(workload.assessment_instance)
    queries = [
        "?(E, S, V) :- Readings(E, S, V).",
        "?(S) :- Readings(E, S, V).",
    ]
    for query in queries:
        session.quality_answers(query)
    for step in generate_update_stream(workload, steps=4, adds_per_step=2,
                                       retracts_per_step=2, seed=seed,
                                       target="assessment"):
        for predicate, row in step.adds:
            session.add_facts(predicate, [row])
        for predicate, row in step.retracts:
            session.retract_facts(predicate, [row])
        fresh = workload.context.session(session.instance,
                                         record_provenance=False)
        for query in queries:
            assert tuple(session.quality_answers(query)) == \
                tuple(fresh.quality_answers(query)), query
    assert session.query_session.stats.answers_maintained > 0
