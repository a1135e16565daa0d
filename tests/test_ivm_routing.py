"""Update routing: refreshing only the cached answers a delta reaches is exact.

A :class:`~repro.engine.session.QuerySession` files its cached queries in
a routing index by body predicate and bound constant, and an update joins
only the entries one of its delta facts can match.  Skipping is sound only
if the index never misses a fact some engine would match, so
``hypothesis`` generates query sets over a small program with an
existential rule and hammers them with update streams over a value pool
built to stress value equality:

* multi-constant atoms, the same constant twice, repeated variables and
  comparisons against constants;
* constants equal across types (``1`` / ``1.0`` / ``True``) and one NaN
  object, hit by itself;
* labeled nulls flowing through the deltas of the existential rule.

After every update, every maintained entry's support counts must equal a
from-scratch count over the published version, on all three engines.
Explicit cases pin the counters (``answers_unreached`` grows with the
number of unreached point queries, ``answers_maintained`` does not), the
fallbacks (EGD merges and full re-chases drop — and
count — every entry, a delta known only by predicate drops every entry
under a changed predicate) and the readers that file entries while the
writer routes a delta.

``REPRO_FAULT_SEED`` (CI matrix) seeds the generator.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import List

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.datalog import parse_program, parse_query
from repro.datalog.answering import evaluate_query_counts, rows_from_counts
from repro.datalog.atoms import Atom, Comparison, atoms_variables
from repro.datalog.rules import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.engine.session import (MaterializedProgram, QuerySession,
                                  UpdateResult, _RoutingIndex)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
ENGINES = ("naive", "indexed", "columnar")

NAN = float("nan")
#: ``1`` / ``1.0`` / ``True`` are one value to every matcher; the NaN is
#: one object, equal only to itself
VALUES = ("a", "b", 1, 1.0, True, NAN)

RULES = """
    R(X, Y) :- E(X, Y).
    S(X, Z) :- E(X, Y), E(Y, Z).
    exists N : Named(X, N) :- P(X).
    Tag(X, N, Y) :- Named(X, N), E(X, Y).
"""
ARITIES = {"E": 2, "P": 1, "R": 2, "S": 2, "Named": 2, "Tag": 3}
VARIABLES = tuple(Variable(name) for name in "XYZ")

values = st.sampled_from(VALUES)
terms = st.one_of(st.sampled_from(VARIABLES), values.map(Constant))
edb_facts = st.one_of(st.tuples(st.just("E"), st.tuples(values, values)),
                      st.tuples(st.just("P"), st.tuples(values)))
updates = st.lists(st.tuples(st.sampled_from(("add", "retract")),
                             st.lists(edb_facts, min_size=1, max_size=4)),
                   min_size=1, max_size=8)


@st.composite
def queries(draw) -> ConjunctiveQuery:
    predicates = draw(st.lists(st.sampled_from(sorted(ARITIES)),
                               min_size=1, max_size=2))
    body = [Atom(predicate, [draw(terms) for _ in range(ARITIES[predicate])])
            for predicate in predicates]
    variables = atoms_variables(body)
    if not variables:
        return ConjunctiveQuery((), body)
    answer = draw(st.lists(st.sampled_from(variables), unique=True))
    comparisons = []
    if draw(st.booleans()):
        comparisons.append(Comparison(draw(st.sampled_from(("=", "!=", ">"))),
                                      draw(st.sampled_from(variables)),
                                      draw(values)))
    return ConjunctiveQuery(answer, body, comparisons)


def _materialize(initial, engine: str) -> MaterializedProgram:
    program = parse_program(RULES)
    program.database.declare("E", ("src", "dst"))
    program.database.declare("P", ("id",))
    for predicate, row in initial:
        program.database.add(predicate, row)
    return MaterializedProgram(program, engine=engine, max_steps=2_000)


def _apply(materialized: MaterializedProgram, action: str, facts) -> None:
    if action == "add":
        materialized.add_facts(facts)
    else:
        materialized.retract_facts(facts)


def _recount(session: QuerySession, cq: ConjunctiveQuery):
    with session.read() as transaction:
        return evaluate_query_counts(cq, transaction.instance,
                                     engine=session.engine)


@seed(FAULT_SEED)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("engine", ENGINES)
@given(initial=st.lists(edb_facts, max_size=12),
       cqs=st.lists(queries(), min_size=1, max_size=6), stream=updates)
def test_routed_maintenance_equals_recount(engine, initial, cqs, stream):
    materialized = _materialize(initial, engine)
    session = materialized.queries()
    for cq in cqs:
        session.answers(cq, allow_nulls=True)
    for action, facts in stream:
        _apply(materialized, action, facts)
        for cq in cqs:
            entry = session._maintained[str(cq)]  # maintained, never dropped
            expected = _recount(session, cq)
            assert entry.counts == expected, str(cq)
            assert set(session.answers(cq)) == set(rows_from_counts(expected))
    assert session.stats.maintenance_fallbacks == 0


# -- the index itself ---------------------------------------------------------


def _index(*texts: str) -> _RoutingIndex:
    index = _RoutingIndex()
    for text in texts:
        index.add(text, parse_query(text))
    return index


def test_constant_tests_route_each_fact_to_its_atoms():
    point = "?(V) :- Reading(s1, V)."
    pair = "? :- Reading(s1, 5)."
    twice = "?(V) :- Link(s1, V, s1)."
    free = "?(S, V) :- Reading(S, V)."
    index = _index(point, pair, twice, free)
    assert index.reached([("Reading", ("s1", 7))]) == {point, free}
    assert index.reached([("Reading", ("s1", 5))]) == {point, pair, free}
    assert index.reached([("Reading", ("s2", 5))]) == {free}
    assert index.reached([("Link", ("s1", 3, "s1"))]) == {twice}
    assert index.reached([("Link", ("s1", 3, "s2"))]) == set()
    assert index.reached([("Other", ("s1",))]) == set()
    assert index.under({"Reading"}) == {point, pair, free}


def test_values_equal_across_types_and_one_nan_object_collide():
    index = _RoutingIndex()
    one = ConjunctiveQuery((), [Atom("E", [Constant(1), Variable("Y")])])
    nan = ConjunctiveQuery((), [Atom("E", [Constant(NAN), Variable("Y")])])
    both = ConjunctiveQuery((), [Atom("F", [Constant("k"), Constant(1.0),
                                            Constant(NAN)])])
    for key, cq in (("one", one), ("nan", nan), ("both", both)):
        index.add(key, cq)
    for value in (1, 1.0, True):
        assert index.reached([("E", (value, "x"))]) == {"one"}
        assert index.reached([("F", ("k", value, NAN))]) == {"both"}
    assert index.reached([("E", (NAN, "x"))]) == {"nan"}
    assert index.reached([("E", (float("nan"), "x"))]) == set()
    assert index.reached([("F", ("k", 1, float("nan")))]) == set()


def test_discard_leaves_no_trace_and_add_is_idempotent():
    texts = ("?(V) :- Reading(s1, V), Reading(s1, W).",
             "?(V) :- Reading(s1, V), Link(V, W, s2).",
             "?(S) :- Reading(S, 5).")
    index = _index(*texts)
    index.add(texts[0], parse_query(texts[0]))
    assert len(index._bound["Reading"][0]["s1"][texts[0]]) == 2
    for text in texts:
        index.discard(text)
    assert not (index._queries or index._under or index._unbound
                or index._bound)


# -- counters ------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 50, 200])
def test_point_update_maintains_one_entry_whatever_the_cache_holds(count):
    """N point queries on distinct constants; one single-constant update
    refreshes exactly the one it reaches and counts the others unreached."""
    program = parse_program("Reading(s0, v1).")
    materialized = MaterializedProgram(program, engine="columnar")
    session = materialized.queries()
    for index in range(count):
        session.answers(f"?(V) :- Reading(s{index}, V).")
    before = session.stats.snapshot()
    materialized.add_facts([("Reading", ("s0", "v2"))])
    delta = session.stats.delta(before)
    assert delta.answers_maintained == 1
    assert delta.answers_unreached == count - 1
    assert delta.maintenance_fallbacks == 0
    assert session.answers("?(V) :- Reading(s0, V).") == (("v1",), ("v2",))


# -- concurrency ---------------------------------------------------------------


def test_entry_filed_between_maintenance_and_publication_is_dropped():
    """A reader may file an entry at the still-published version after
    ``_maintain_entries`` routed the delta; ``_note_update`` routes it again
    under the lock, so that entry is dropped instead of served stale."""
    materialized = MaterializedProgram(parse_program("Reading(s0, v0)."))
    session = materialized.queries()
    late = "?(V) :- Reading(s1, V)."
    maintain = session._maintain_entries

    def maintain_then_read(*args):
        refreshed = maintain(*args)
        assert session.answers(late) == ()  # filed at the old version
        return refreshed

    session._maintain_entries = maintain_then_read
    materialized.add_facts([("Reading", ("s1", "v1"))])
    del session._maintain_entries
    assert session.answers(late) == (("v1",),)


def test_entries_filed_by_concurrent_readers_are_never_left_stale():
    """Readers file entries while the writer routes deltas.  Every read must equal a recount on its own
    pinned version, and the routes must end in step with the cache."""
    materialized = MaterializedProgram(parse_program("Reading(s0, v0)."),
                                       engine="indexed")
    session = QuerySession(materialized)
    texts = [f"?(V) :- Reading(s{index}, V)." for index in range(6)]
    parsed = {text: parse_query(text) for text in texts}
    errors: List[str] = []
    done = threading.Event()

    def read() -> None:
        while not done.is_set():
            for text in texts:
                with session.read() as transaction:
                    got = transaction.answers(text)
                    want = rows_from_counts(evaluate_query_counts(
                        parsed[text], transaction.instance, engine="indexed"))
                if got != want:
                    errors.append(f"{text}: {got} != {want}")

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for step in range(300):
            fact = ("Reading", (f"s{step % 6}", f"v{step}"))
            materialized.add_facts([fact])
            if step % 3 == 0:
                materialized.retract_facts([fact])
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors[:3]
    for text in texts:
        assert session.answers(text) == rows_from_counts(
            _recount(session, parsed[text]))
    assert set(session._routes) == set(session._maintained)


# -- fallbacks -------------------------------------------------------------------


EGD_PROGRAM = """
    exists Z : HasType(X, Z) :- Item(X).
    T = T2 :- HasType(X, T), Declared(X, T2).
    Item(i1). Item(i2). Other(o1).
"""
EGD_QUERIES = ("?(T) :- HasType(i1, T).", "?(T) :- HasType(i2, T).",
               "?(X) :- Item(X).", "?(X) :- Other(X).")


def _warm(session: QuerySession) -> None:
    for query in EGD_QUERIES:
        session.answers(query, allow_nulls=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_egd_merge_and_full_rechase_drop_and_count_every_entry(engine):
    materialized = MaterializedProgram(parse_program(EGD_PROGRAM),
                                       engine=engine)
    session = materialized.queries()
    steps: List = [("add", [("Declared", ("i1", "widget"))]),  # EGD merge
                   ("retract", [("Item", ("i2",))])]           # full re-chase
    for action, facts in steps:
        _warm(session)
        assert len(session._maintained) == len(EGD_QUERIES)
        before = session.stats.snapshot()
        _apply(materialized, action, facts)
        delta = session.stats.delta(before)
        assert delta.maintenance_fallbacks == len(EGD_QUERIES)
        assert delta.answers_maintained == delta.answers_unreached == 0
        assert not session._maintained and not list(session._routes)
        for query in EGD_QUERIES:
            cq = parse_query(query)
            assert set(session.answers(query, allow_nulls=True)) == \
                set(rows_from_counts(_recount(session, cq), allow_nulls=True))


def test_delta_known_by_predicate_only_drops_every_entry_under_it():
    materialized = MaterializedProgram(parse_program(EGD_PROGRAM))
    session = materialized.queries()
    _warm(session)
    update = UpdateResult(action="add", strategy="incremental",
                          changed_predicates={"HasType"})
    before = session.stats.snapshot()
    refreshed = session._maintain_entries(update, materialized.instance,
                                          materialized.instance,
                                          materialized.version)
    with materialized.versions.lock:
        session._note_update(update, refreshed)
    assert session.stats.delta(before).maintenance_fallbacks == 2
    assert set(session._maintained) == set(map(str, map(parse_query,
                                                        EGD_QUERIES[2:])))
    assert set(session._routes) == set(session._maintained)
