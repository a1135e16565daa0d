"""Differential tests: the indexed engine ≡ the naive reference oracle.

The indexed matching engine (hash-index probes, selectivity-ordered joins,
delta-driven chase rounds) must be observationally identical to the naive
row-scanning reference in ``repro.datalog.unify``.  These tests assert that
on the seed programs and on randomized programs:

* **plain Datalog** (no existentials, no nulls): the least models must be
  *exactly* equal, for the delta chase on both the indexed and the
  columnar engine, and closed under every rule;
* **existential programs** (stratified, hence terminating): the ground
  (null-free) facts and the certain answers of randomized queries must
  coincide; null counts per relation must match;
* **EGD programs**: merges and hard conflicts must behave identically;
* **generated MD workloads** (``workloads/generator.py``): chase-based
  certain answers of the workload query batch must coincide.

Every generator is seeded, so failures reproduce deterministically.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.datalog import DatalogProgram, chase, parse_query
from repro.datalog.answering import certain_answers, evaluate_query
from repro.datalog.atoms import Atom
from repro.datalog.rules import EGD, ConjunctiveQuery, TGD
from repro.datalog.terms import Variable
from repro.errors import EGDConflictError
from repro.relational.instance import DatabaseInstance
from repro.relational.values import Null
from repro.workloads import WorkloadSpec, generate_workload

CONSTANTS = [f"c{i}" for i in range(10)]
VARIABLES = [Variable(f"X{i}") for i in range(5)]


# -- randomized program generators -------------------------------------------


def _random_atom(rng: random.Random, predicate: str, arity: int,
                 variables: List[Variable]) -> Atom:
    terms = []
    for _ in range(arity):
        if rng.random() < 0.15:
            terms.append(rng.choice(CONSTANTS))
        else:
            terms.append(rng.choice(variables))
    return Atom(predicate, terms)


def _random_program(seed: int, existential: bool) -> DatalogProgram:
    """A random program over a stratified predicate hierarchy.

    Rule heads always use a predicate strictly above every body predicate,
    so the program is non-recursive and its chase terminates even with
    existential variables.
    """
    rng = random.Random(seed)
    arities = {}
    predicates = []
    for index in range(rng.randint(4, 7)):
        name = f"P{index}"
        predicates.append(name)
        arities[name] = rng.randint(1, 3)

    database = DatabaseInstance()
    edb = predicates[: rng.randint(2, 3)]
    for name in edb:
        relation = database.declare(name, [f"a{i}" for i in range(arities[name])])
        for _ in range(rng.randint(3, 10)):
            relation.add(tuple(rng.choice(CONSTANTS) for _ in range(arities[name])))

    tgds = []
    for _ in range(rng.randint(2, 6)):
        head_index = rng.randint(len(edb), len(predicates) - 1)
        head_predicate = predicates[head_index]
        body_atoms = []
        for _ in range(rng.randint(1, 3)):
            body_predicate = predicates[rng.randint(0, head_index - 1)]
            body_atoms.append(_random_atom(rng, body_predicate,
                                           arities[body_predicate], VARIABLES))
        body_variables = [v for atom in body_atoms for v in atom.variables()]
        if not body_variables:
            continue
        head_terms: List[object] = [rng.choice(body_variables)
                                    for _ in range(arities[head_predicate])]
        if existential and rng.random() < 0.5:
            head_terms[rng.randrange(len(head_terms))] = Variable("Z_exists")
        tgds.append(TGD([Atom(head_predicate, head_terms)], body_atoms))
    return DatalogProgram(tgds=tgds, database=database)


def _random_queries(rng: random.Random, program: DatalogProgram,
                    count: int = 3) -> List[ConjunctiveQuery]:
    arities = program.predicate_arities()
    predicates = sorted(arities)
    queries = []
    for _ in range(count):
        body = [_random_atom(rng, predicate, arities[predicate], VARIABLES)
                for predicate in rng.sample(predicates, k=min(2, len(predicates)))]
        variables = [v for atom in body for v in atom.variables()]
        if not variables:
            continue
        answer = rng.sample(variables, k=min(rng.randint(1, 2), len(variables)))
        queries.append(ConjunctiveQuery(answer, body))
    return queries


def _ground_facts(instance: DatabaseInstance):
    return {
        (relation.schema.name, row)
        for relation in instance
        for row in relation
        if not any(isinstance(value, Null) for value in row)
    }


def _null_profile(instance: DatabaseInstance):
    return {relation.schema.name: (len(relation), len(relation.nulls()))
            for relation in instance}


# -- plain Datalog: exact least-model equality --------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_plain_datalog_chase_identical(seed):
    """Delta chase (indexed and columnar) ≡ naive chase, exactly, on 50
    randomized plain programs."""
    program = _random_program(seed, existential=False)
    naive = chase(program, engine="naive", check_constraints=False)
    for engine in ("indexed", "columnar"):
        delta = chase(program, engine=engine, check_constraints=False)
        assert delta.instance == naive.instance
        assert delta.steps == naive.steps


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_plain_datalog_seminaive_identical(seed):
    """The semi-naive delta chase misses no trigger: on every engine its
    result is closed under each rule, checked by a full body evaluation."""
    program = _random_program(seed, existential=False)
    models = [chase(program, engine=engine, check_constraints=False).instance
              for engine in ("naive", "indexed", "columnar")]
    assert all(model == models[0] for model in models)
    for model in models:
        for tgd in program.tgds:
            (head,) = tgd.head
            matches = evaluate_query(ConjunctiveQuery(head.terms, tgd.body), model)
            relation = model.relation(head.predicate)
            assert all(row in relation for row in matches)


# -- existential programs: ground facts + certain answers ---------------------


@pytest.mark.parametrize("seed", range(100, 115))
def test_existential_chase_ground_equivalent(seed):
    """Ground facts, null profiles and certain answers coincide."""
    program = _random_program(seed, existential=True)
    indexed = chase(program, engine="indexed", check_constraints=False)
    naive = chase(program, engine="naive", check_constraints=False)
    assert _ground_facts(indexed.instance) == _ground_facts(naive.instance)
    assert _null_profile(indexed.instance) == _null_profile(naive.instance)
    rng = random.Random(seed)
    for query in _random_queries(rng, program):
        assert evaluate_query(query, indexed.instance, engine="indexed") == \
            evaluate_query(query, naive.instance, engine="naive")


@pytest.mark.parametrize("seed", range(200, 210))
def test_query_evaluation_identical_on_same_instance(seed):
    """Indexed and naive query evaluation agree atom for atom."""
    program = _random_program(seed, existential=True)
    result = chase(program, check_constraints=False)
    rng = random.Random(seed)
    for query in _random_queries(rng, program, count=5):
        indexed = evaluate_query(query, result.instance, allow_nulls=True,
                                 engine="indexed")
        naive = evaluate_query(query, result.instance, allow_nulls=True,
                               engine="naive")
        assert indexed == naive


# -- EGDs: merges and conflicts ----------------------------------------------


@pytest.mark.parametrize("seed", range(300, 310))
def test_egd_behaviour_identical(seed):
    """EGD merges/conflicts are engine-independent (functional dependency)."""
    program = _random_program(seed, existential=True)
    target = sorted(program.predicate_arities().items())[-1]
    name, arity = target
    if arity < 2:
        pytest.skip("needs a binary+ predicate for a functional dependency")
    x, y = Variable("FD_x"), Variable("FD_y")
    key = [Variable(f"K{i}") for i in range(arity - 1)]
    egd = EGD(x, y, [Atom(name, key + [x]), Atom(name, key + [y])])
    program.add_egd(egd)

    outcomes = {}
    for engine in ("indexed", "naive"):
        try:
            result = chase(program, engine=engine, check_constraints=False)
            outcomes[engine] = ("ok", _ground_facts(result.instance),
                                result.egd_merges > 0)
        except EGDConflictError:
            outcomes[engine] = ("conflict", None, None)
    assert outcomes["indexed"] == outcomes["naive"]


def test_egd_null_merge_uses_occurrence_index():
    """A null merged by an EGD disappears everywhere, with rewrite stats."""
    from repro.datalog import parse_program
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        Derived(X, T) :- HasType(X, T).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
        Declared(i1, widget).
    """)
    indexed = chase(program, engine="indexed")
    naive = chase(program, engine="naive")
    assert _ground_facts(indexed.instance) == _ground_facts(naive.instance)
    assert not indexed.instance.nulls()
    assert indexed.stats.rows_rewritten >= 1


# -- generated MD workloads ---------------------------------------------------


@pytest.mark.parametrize("seed", [7, 21])
def test_workload_certain_answers_identical(seed):
    """Chase-based certain answers agree on generated MD workloads."""
    workload = generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=15, assessment_tuples=20, upward_rules=True,
        downward_rules=True, seed=seed))
    program = workload.ontology.program()
    indexed = chase(program, engine="indexed", check_constraints=False)
    naive = chase(program, engine="naive", check_constraints=False)
    assert _ground_facts(indexed.instance) == _ground_facts(naive.instance)
    for query in workload.queries:
        assert certain_answers(program, query, chase_result=indexed) == \
            certain_answers(program, query, chase_result=naive)


def test_seed_program_chase_identical(small_program):
    """The seed fixture program chases identically on both engines."""
    indexed = chase(small_program, engine="indexed")
    naive = chase(small_program, engine="naive")
    assert _ground_facts(indexed.instance) == _ground_facts(naive.instance)
    assert _null_profile(indexed.instance) == _null_profile(naive.instance)
    assert indexed.steps == naive.steps
    assert len(indexed.generated_nulls()) == len(naive.generated_nulls())


def test_comparison_queries_identical(small_program):
    """Queries with built-in comparisons agree across engines."""
    result = chase(small_program, check_constraints=False)
    query = parse_query("?(U, P) :- PatientUnit(U, D, P), D >= 'Sep/5'.")
    assert evaluate_query(query, result.instance, engine="indexed") == \
        evaluate_query(query, result.instance, engine="naive")
