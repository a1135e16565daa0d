"""Differential tests: the columnar engine ≡ indexed ≡ naive.

The columnar matcher (:mod:`repro.engine.columnar`) replaces the
tuple-at-a-time backtracking joins with batch operations over interned-int
column stores, plus generated specialized join functions.  None of that is
allowed to be observable: this suite pins, over the same randomized program
families as the session/IVM differentials plus generated MD workloads,

* **chase results** — identical fact sets (ground and null-carrying, up to
  null renaming via the ground projection) across all three engines;
* **query answering** — identical certain answers *and* identical support
  counts (the counting-IVM invariant) on randomized conjunctive queries;
* **delta joins** — identical homomorphism sets and projected counts when
  pivoting randomized deltas through a :class:`DeltaJoinPlan`;
* **update streams / IVM** — a columnar-engined session absorbing a
  randomized update stream keeps answering exactly like a from-scratch
  chase, with maintenance actually running (no silent fallback);

each under both settings of the ``numeric_library`` fixture: with numpy
loaded in the process, and with it made unimportable, as on an install
without it.  The engine imports only the standard library, so both must
give the same results.
"""

from __future__ import annotations

import importlib.util
import random
import sys

import pytest

from repro.datalog import DatalogProgram, chase
from repro.datalog.answering import (certain_answers, evaluate_query,
                                     evaluate_query_counts)
from repro.datalog.atoms import Atom
from repro.datalog.rules import EGD, TGD
from repro.datalog.terms import Variable
from repro.engine.matching import DeltaJoinPlan, matcher_for
from repro.engine.session import MaterializedProgram, QuerySession
from repro.relational.instance import DatabaseInstance
from repro.workloads import WorkloadSpec, generate_workload

from test_session_differential import (CONSTANTS, _ground_facts,
                                       _random_program, _random_queries,
                                       _random_updates)


@pytest.fixture(params=("numpy", "fallback"))
def numeric_library(request, monkeypatch):
    """Run the test body with numpy loaded, then with it unimportable."""
    if request.param == "numpy":
        if importlib.util.find_spec("numpy") is not None:
            importlib.import_module("numpy")
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


def _fact_sets(result):
    """(all facts, ground facts) of a chase result, name-keyed."""
    every = {(relation.schema.name, row)
             for relation in result.instance for row in relation}
    return every, _ground_facts(result.instance)


def _substitution_keys(homomorphisms):
    return sorted(
        tuple(sorted((variable.name, str(term))
                     for variable, term in homomorphism.items()))
        for homomorphism in homomorphisms)


# -- chase --------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("existential", (False, True))
def test_chase_columnar_equals_reference(seed, existential, numeric_library):
    program = _random_program(seed, existential=existential)
    reference = chase(program, engine="indexed", check_constraints=False)
    columnar = chase(program, engine="columnar", check_constraints=False)
    if existential:
        # Null labels depend on firing order; the ground projection is the
        # order-independent certain core.
        assert _ground_facts(columnar.instance) == \
            _ground_facts(reference.instance)
    else:
        assert _fact_sets(columnar) == _fact_sets(reference)
    assert columnar.stats.engine == "columnar"


def test_chase_uses_batch_path(numeric_library):
    program = _random_program(3, existential=False)
    result = chase(program, engine="columnar", check_constraints=False)
    assert result.stats.batch_joins > 0
    assert result.stats.rows_batch_scanned > 0


# -- existential-heavy and EGD-merge-heavy programs ---------------------------


def _existential_heavy_program(seed):
    """Null invention on almost every rule: single-existential heads (the
    batch-eligible shape), a double-existential head, a chain consuming
    invented nulls to invent more, and one multi-atom existential head —
    batch-INELIGIBLE, so the per-trigger fallback runs in the same chase."""
    rng = random.Random(seed)
    database = DatabaseInstance()
    base = database.declare("E0", ["a", "b"])
    for _ in range(rng.randint(6, 14)):
        base.add((rng.choice(CONSTANTS), rng.choice(CONSTANTS)))
    x, y, n = Variable("X"), Variable("Y"), Variable("N")
    z = [Variable(f"Z{i}") for i in range(5)]
    tgds = [
        TGD([Atom("E1", [x, z[0]])], [Atom("E0", [x, y])]),
        TGD([Atom("E2", [y, z[1], z[2]])], [Atom("E0", [x, y])]),
        TGD([Atom("E3", [n, z[3]])], [Atom("E1", [x, n])]),
        TGD([Atom("E4", [x, z[4]]), Atom("E5", [z[4], y])],
            [Atom("E0", [x, y])]),
        TGD([Atom("E6", [x, y])],
            [Atom("E1", [x, n]), Atom("E3", [n, y])]),
    ]
    return DatalogProgram(tgds=tgds, database=database)


@pytest.mark.parametrize("seed", range(6))
def test_existential_heavy_chase_equals_reference(seed, numeric_library):
    program = _existential_heavy_program(seed)
    results = {engine: chase(program, engine=engine, check_constraints=False)
               for engine in ("naive", "indexed", "columnar")}
    ground = {engine: _ground_facts(result.instance)
              for engine, result in results.items()}
    assert ground["columnar"] == ground["indexed"] == ground["naive"]
    stats = results["columnar"].stats
    assert stats.triggers_batched > 0
    assert stats.nulls_bulk_allocated > 0
    # the multi-atom existential head is batch-ineligible: some triggers
    # must have gone through the per-trigger fallback
    assert stats.triggers_fired > stats.triggers_batched


def _egd_merge_heavy_program(seed):
    """Invented nulls immediately constrained by functional dependencies:
    every declared key forces a null↔constant merge (keys are unique, so no
    constant↔constant conflict can arise), and ``Typed`` re-projects the
    merged values so the rewrites must propagate into derived facts."""
    rng = random.Random(seed)
    database = DatabaseInstance()
    item = database.declare("Item", ["x"])
    declared = database.declare("Declared", ["x", "t"])
    for index in range(rng.randint(5, 10)):
        key = f"k{index}"
        item.add((key,))
        if index == 0 or rng.random() < 0.7:
            declared.add((key, rng.choice(CONSTANTS)))
    x, t, t2, z = (Variable("X"), Variable("T"), Variable("T2"),
                   Variable("Z"))
    program = DatalogProgram(
        tgds=[TGD([Atom("HasType", [x, z])], [Atom("Item", [x])]),
              TGD([Atom("Typed", [t])], [Atom("HasType", [x, t])])],
        database=database)
    program.add_egd(EGD(t, t2, [Atom("HasType", [x, t]),
                                Atom("HasType", [x, t2])]))
    program.add_egd(EGD(t, t2, [Atom("HasType", [x, t]),
                                Atom("Declared", [x, t2])]))
    return program


@pytest.mark.parametrize("seed", range(6))
def test_egd_merge_heavy_chase_equals_reference(seed, numeric_library):
    program = _egd_merge_heavy_program(seed)
    results = {engine: chase(program, engine=engine)
               for engine in ("naive", "indexed", "columnar")}
    ground = {engine: _ground_facts(result.instance)
              for engine, result in results.items()}
    assert ground["columnar"] == ground["indexed"] == ground["naive"]
    # the seeded EDB always declares at least one key, so merges must occur,
    # and the chase must still run through the batched trigger path
    assert results["columnar"].egd_merges >= 1
    assert results["columnar"].stats.triggers_batched > 0


# -- query answering ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_query_counts_equal_across_engines(seed, numeric_library):
    program = _random_program(seed, existential=True)
    chased = chase(program, check_constraints=False)
    rng = random.Random(7000 + seed)
    for query in _random_queries(rng, program, count=5):
        counts = {
            engine: evaluate_query_counts(query, chased.instance,
                                          engine=engine)
            for engine in ("naive", "indexed", "columnar")}
        assert counts["columnar"] == counts["indexed"] == counts["naive"], \
            str(query)
        answers = {
            engine: evaluate_query(query, chased.instance, engine=engine)
            for engine in ("naive", "indexed", "columnar")}
        assert answers["columnar"] == answers["indexed"] == \
            answers["naive"], str(query)


def test_workload_queries_equal(numeric_library):
    """Generated MD-style workloads (the benchmark shape) agree too."""
    spec = WorkloadSpec(dimensions=1, depth=3, fanout=3, top_members=2,
                        base_relations=1, tuples_per_relation=60,
                        upward_rules=True, seed=13)
    workload = generate_workload(spec)
    program = workload.ontology.program()
    chased = chase(program, check_constraints=False)
    for query in workload.queries:
        assert evaluate_query(query, chased.instance, engine="columnar") == \
            evaluate_query(query, chased.instance, engine="indexed"), \
            str(query)


# -- delta joins --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_delta_join_plans_equal(seed, numeric_library):
    program = _random_program(seed, existential=False)
    chased = chase(program, check_constraints=False)
    rng = random.Random(8000 + seed)
    for query in _random_queries(rng, program, count=4):
        plans = {
            engine: DeltaJoinPlan(matcher_for(engine), query.body,
                                  variables=query.body_variables(),
                                  comparisons=query.comparisons)
            for engine in ("indexed", "columnar")}
        # A randomized delta: live facts, plus a bogus fact that must be
        # skipped (not in the instance).
        live = [(relation.schema.name, row)
                for relation in chased.instance
                for row in relation.rows()]
        if not live:
            continue
        delta = rng.sample(live, k=min(5, len(live)))
        delta.append((delta[0][0], ("no-such", ) * len(delta[0][1])))
        homs = {engine: _substitution_keys(
                    plan.homomorphisms(chased.instance, delta))
                for engine, plan in plans.items()}
        assert homs["columnar"] == homs["indexed"], str(query)
        counts = {engine: plan.projected_counts(chased.instance, delta,
                                                query.answer_variables)
                  for engine, plan in plans.items()}
        assert counts["columnar"] == counts["indexed"], str(query)


# -- update streams and IVM ---------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_update_streams_columnar_equals_scratch(seed, numeric_library):
    program = _random_program(seed, existential=False)
    materialized = MaterializedProgram(program, engine="columnar")
    rng = random.Random(6000 + seed)
    for action, facts in _random_updates(rng, program, steps=5):
        if action == "add":
            materialized.add_facts(facts)
        else:
            materialized.retract_facts(facts)
        reference = chase(materialized.edb_program(),
                          check_constraints=False)
        assert _ground_facts(reference.instance) == \
            _ground_facts(materialized.instance)


@pytest.mark.parametrize("seed", range(6))
def test_ivm_maintenance_columnar_equals_scratch(seed, numeric_library):
    program = _random_program(seed, existential=True)
    materialized = MaterializedProgram(program, engine="columnar")
    session = QuerySession(materialized)
    rng = random.Random(9000 + seed)
    queries = _random_queries(rng, program, count=4)
    for query in queries:
        session.answers(query)  # warm the maintained entries
    for action, facts in _random_updates(rng, program, steps=5):
        if action == "add":
            materialized.add_facts(facts)
        else:
            materialized.retract_facts(facts)
        reference = chase(materialized.edb_program(),
                          check_constraints=False)
        for query in queries:
            assert session.answers(query) == \
                certain_answers(materialized.edb_program(), query,
                                chase_result=reference), str(query)
    # No EGDs anywhere: the counting maintenance must actually have run.
    assert session.stats.maintenance_fallbacks == 0


def test_columnar_counters_and_codegen_cache(numeric_library):
    """The batch path bills its counters; repeated shapes hit the codegen
    cache."""
    program = _random_program(2, existential=False)
    chased = chase(program, check_constraints=False)
    rng = random.Random(42)
    queries = [query for query in _random_queries(rng, program, count=4)
               if len(query.body) > 1]
    assert queries, "seeded query set unexpectedly empty"
    matcher = matcher_for("columnar")
    for query in queries:
        for _ in range(3):
            list(matcher.find_homomorphisms(query.body, chased.instance,
                                            comparisons=query.comparisons))
    assert matcher.stats.batch_joins > 0
    assert matcher.stats.rows_batch_scanned >= matcher.stats.batch_joins
    assert matcher.stats.codegen_cache_hits > 0
