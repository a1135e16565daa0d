"""Unit tests for counting-based answer maintenance (IVM).

The session layer keeps cached query answers as support-count multisets
(:class:`~repro.engine.session.MaintainedAnswers`) and moves them by every
update's exact fact delta through a compiled
:class:`~repro.engine.matching.DeltaJoinPlan`.  These tests pin down the
mechanics the differential suite (``test_ivm_differential.py``) then
hammers with randomized streams:

* insertions and retraction cones move maintained answers without a
  re-join (``rows_scanned == 0`` at read time, ``answers_maintained``
  counts the in-place updates);
* EGD merges and full re-chases cannot be maintained — the entry is
  dropped, ``maintenance_fallbacks`` counts it, and the next read
  re-answers correctly;
* snapshots persist the support counts, so a restored session answers —
  and keeps maintaining — without a single join;
* snapshot restores intern constants (pointer-identity hashing/equality);
* cache hits hand out the same immutable answer tuple, never a copy.
"""

from __future__ import annotations

import pytest

from repro.datalog import parse_program, parse_query
from repro.datalog.answering import (evaluate_query, evaluate_query_counts,
                                     rows_from_counts)
from repro.datalog.chase import chase
from repro.engine.matching import DeltaJoinPlan, matcher_for
from repro.engine.session import MaterializedProgram, QuerySession
from repro.relational.values import ValueInterner, intern_value

ENGINES = ("indexed", "naive")


def _program():
    return parse_program("""
        Derived(X, Y) :- Base(X, Y).
        Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
        Base(a, b). Base(c, d).
        Link(b, t1). Link(d, t2).
    """)


QUERY = "?(X, Z) :- Joined(X, Z)."


def _fresh_answers(materialized, query):
    """Oracle: re-chase the session's own EDB and evaluate from scratch."""
    result = chase(materialized.edb_program(), check_constraints=False)
    return evaluate_query(parse_query(query), result.instance)


# -- maintenance mechanics ----------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_insertions_maintain_answers_without_rejoin(engine):
    materialized = MaterializedProgram(_program(), engine=engine)
    session = materialized.queries()
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"))

    before = session.stats.snapshot()
    materialized.add_facts([("Base", ("e", "b"))])
    assert session.stats.delta(before).answers_maintained == 1

    before = session.stats.snapshot()
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"), ("e", "t1"))
    delta = session.stats.delta(before)
    assert delta.cache_hits >= 1 and delta.cache_misses == 0
    assert delta.rows_scanned == 0  # no join work at read time
    assert session.answers(QUERY) == _fresh_answers(materialized, QUERY)


@pytest.mark.parametrize("engine", ENGINES)
def test_retraction_cone_decrements_supports(engine):
    materialized = MaterializedProgram(_program(), engine=engine)
    session = materialized.queries()
    session.answers(QUERY)

    before = session.stats.snapshot()
    # Deleting Base(a, b) cones through Derived(a, b) and Joined(a, t1).
    update = materialized.retract_facts([("Base", ("a", "b"))])
    assert update.is_incremental
    assert session.stats.delta(before).answers_maintained == 1

    before = session.stats.snapshot()
    assert session.answers(QUERY) == (("c", "t2"),)
    delta = session.stats.delta(before)
    assert delta.cache_misses == 0 and delta.rows_scanned == 0
    assert session.answers(QUERY) == _fresh_answers(materialized, QUERY)


def test_multi_derivation_support_survives_single_retraction():
    """An answer with two derivations loses one support, not the answer."""
    program = parse_program("""
        Reach(X) :- EdgeA(X).
        Reach(X) :- EdgeB(X).
        Out(X) :- Reach(X), Mark(X).
        EdgeA(n1). EdgeB(n1). Mark(n1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X) :- Reach(X), Mark(X)."
    assert session.answers(query) == (("n1",),)

    # Reach(n1) stays derivable through EdgeB after EdgeA(n1) goes away, so
    # the instance delta is empty and the answer must survive untouched.
    materialized.retract_facts([("EdgeA", ("n1",))])
    assert session.answers(query) == (("n1",),)
    assert session.answers(query) == _fresh_answers(materialized, query)

    materialized.retract_facts([("EdgeB", ("n1",))])
    assert session.answers(query) == ()
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_same_update_retract_and_rederive_nets_out():
    """A fact both extensional and derivable survives retraction of the EDB
    copy — the repair re-derives it and the counts net out exactly."""
    program = parse_program("""
        Stored(X) :- Source(X).
        Source(s1).
        Stored(s1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X) :- Stored(X)."
    assert session.answers(query) == (("s1",),)

    update = materialized.retract_facts([("Stored", ("s1",))])
    assert update.is_incremental
    assert session.answers(query) == (("s1",),)  # re-derived from Source
    assert session.answers(query) == _fresh_answers(materialized, query)


@pytest.mark.parametrize("engine", ENGINES)
def test_comparison_queries_are_maintained(engine):
    program = parse_program("""
        Wide(X, V) :- Narrow(X, V).
        Narrow(p, 5). Narrow(q, 9).
    """)
    materialized = MaterializedProgram(program, engine=engine)
    session = materialized.queries()
    query = "?(X) :- Wide(X, V), V > 4."
    assert session.answers(query) == (("p",), ("q",))

    before = session.stats.snapshot()
    materialized.add_facts([("Narrow", ("r", 2)), ("Narrow", ("s", 7))])
    assert session.stats.delta(before).answers_maintained == 1
    assert session.answers(query) == (("p",), ("q",), ("s",))
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_boolean_query_maintenance():
    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    query = "? :- Joined(X, Z)."
    assert session.answers(query) == ((),)
    materialized.retract_facts([("Base", ("a", "b")), ("Base", ("c", "d"))])
    assert session.answers(query) == ()
    materialized.add_facts([("Base", ("a", "b"))])
    assert session.answers(query) == ((),)


@pytest.mark.parametrize("engine", ENGINES)
def test_holds_is_maintained_not_reanswered(engine):
    """Boolean reads ride the counted path: after the first ``holds`` the
    entry is maintained through updates and served without a join."""
    materialized = MaterializedProgram(_program(), engine=engine)
    session = materialized.queries()
    assert session.holds(QUERY) is True

    before = session.stats.snapshot()
    materialized.add_facts([("Base", ("e", "b"))])
    assert session.stats.delta(before).answers_maintained == 1

    before = session.stats.snapshot()
    assert session.holds(QUERY) is True
    delta = session.stats.delta(before)
    assert delta.cache_hits >= 1 and delta.cache_misses == 0
    assert delta.rows_scanned == 0  # served from maintained counts

    # ``holds`` and ``answers`` share one maintained entry per query.
    before = session.stats.snapshot()
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"), ("e", "t1"))
    assert session.stats.delta(before).rows_scanned == 0

    # Retract every support: the maintained counts drain to "does not hold".
    before = session.stats.snapshot()
    materialized.retract_facts([("Base", ("a", "b")), ("Base", ("c", "d")),
                                ("Base", ("e", "b"))])
    assert session.stats.delta(before).answers_maintained == 1
    before = session.stats.snapshot()
    assert session.holds(QUERY) is False
    assert session.stats.delta(before).rows_scanned == 0


def test_holds_fallback_counters_on_egd_merge():
    """A boolean read's maintained entry falls back exactly like an answer
    entry: an EGD merge drops it, counts a maintenance fallback, and the
    next ``holds`` re-answers from scratch — correctly."""
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "? :- HasType(i1, T)."
    assert session.holds(query) is True

    before = session.stats.snapshot()
    update = materialized.add_facts([("Declared", ("i1", "widget"))])
    assert update.changed_predicates is None  # the merge poisoned the delta
    delta = session.stats.delta(before)
    assert delta.maintenance_fallbacks == 1 and delta.answers_maintained == 0

    before = session.stats.snapshot()
    assert session.holds(query) is True
    assert session.stats.delta(before).cache_misses >= 1  # re-answered
    assert session.holds("? :- HasType(i1, widget).") is True


def test_holds_without_maintenance_keeps_early_exit():
    """``maintain_answers=False`` restores the one-shot early-exit scan."""
    materialized = MaterializedProgram(_program())
    session = QuerySession(materialized, maintain_answers=False)
    before = session.stats.snapshot()
    assert session.holds(QUERY) is True
    assert session.stats.delta(before).rows_scanned > 0
    assert not session._maintained  # nothing was seeded


# -- fallback triggers --------------------------------------------------------


def test_egd_merge_drops_maintained_answers_and_counts_fallback():
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X, T) :- HasType(X, T)."
    session.answers(query, allow_nulls=True)

    before = session.stats.snapshot()
    # The insert fires the EGD: the null type merges with 'widget'.  The
    # instance delta is unreconstructable, so maintenance must fall back.
    update = materialized.add_facts([("Declared", ("i1", "widget"))])
    assert update.changed_predicates is None and update.added_facts is None
    delta = session.stats.delta(before)
    assert delta.maintenance_fallbacks == 1 and delta.answers_maintained == 0

    before = session.stats.snapshot()
    assert session.answers(query) == (("i1", "widget"),)
    # Re-answered from scratch: both the answer entry and its join plan
    # were dropped and had to be rebuilt.
    assert session.stats.delta(before).cache_misses >= 1
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_full_rechase_drops_maintained_answers_and_counts_fallback():
    program = parse_program("""
        exists Z : HasType(X, Z) :- Item(X).
        T = T2 :- HasType(X, T), Declared(X, T2).
        Item(i1).
        Declared(i1, widget).
    """)
    materialized = MaterializedProgram(program)
    session = materialized.queries()
    query = "?(X, T) :- HasType(X, T)."
    assert session.answers(query) == (("i1", "widget"),)

    before = session.stats.snapshot()
    update = materialized.retract_facts([("Item", ("i1",))])
    assert update.strategy == "full"  # merges made provenance ambiguous
    assert session.stats.delta(before).maintenance_fallbacks == 1

    assert session.answers(query) == ()
    assert session.answers(query) == _fresh_answers(materialized, query)


def test_sessions_without_provenance_fall_back():
    materialized = MaterializedProgram(_program(), record_provenance=False)
    session = materialized.queries()
    session.answers(QUERY)
    before = session.stats.snapshot()
    materialized.add_facts([("Base", ("e", "b"))])
    assert session.stats.delta(before).maintenance_fallbacks == 1
    assert session.answers(QUERY) == _fresh_answers(materialized, QUERY)


# -- snapshot persistence -----------------------------------------------------


def test_snapshot_round_trips_maintained_answers(tmp_path):
    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    expected = session.answers(QUERY)
    materialized.add_facts([("Base", ("e", "b"))])
    expected_after = session.answers(QUERY)

    path = materialized.save(tmp_path / "session.snapshot")
    restored = MaterializedProgram.load(path)
    restored_session = restored.queries()

    before = restored_session.stats.snapshot()
    assert restored_session.answers(QUERY) == expected_after
    delta = restored_session.stats.delta(before)
    assert delta.rows_scanned == 0  # answered from restored counts, no join
    assert delta.cache_hits == 1    # the maintained entry (parse is a miss)

    # The restored counts keep maintaining through further updates.
    before = restored_session.stats.snapshot()
    restored.retract_facts([("Base", ("e", "b"))])
    assert restored_session.stats.delta(before).answers_maintained == 1
    assert restored_session.answers(QUERY) == expected
    assert restored_session.answers(QUERY) == _fresh_answers(restored, QUERY)


def test_updates_before_adoption_drop_stale_restored_counts(tmp_path):
    """Restored maintained counts nobody has adopted yet must not survive
    an update that touches their predicates: a session created *after* the
    update would otherwise serve the snapshot's answers as current (the
    serving daemon's replay path hits exactly this ordering)."""
    materialized = MaterializedProgram(_program())
    materialized.queries().answers(QUERY)
    path = materialized.save(tmp_path / "session.snapshot")

    restored = MaterializedProgram.load(path)
    restored.add_facts([("Base", ("e", "b"))])  # before any session exists
    session = restored.queries()  # adopts only what is still valid: nothing
    assert session.answers(QUERY) == (("a", "t1"), ("c", "t2"), ("e", "t1"))
    assert session.answers(QUERY) == _fresh_answers(restored, QUERY)


def test_snapshot_without_maintained_answers_stays_loadable(tmp_path):
    materialized = MaterializedProgram(_program())
    path = materialized.save(tmp_path / "bare.snapshot")  # nothing answered
    restored = MaterializedProgram.load(path)
    assert restored.queries().answers(QUERY) == (("a", "t1"), ("c", "t2"))


# -- delta-join plans ---------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_delta_join_plan_enumerates_only_delta_homomorphisms(engine):
    program = _program()
    result = chase(program, check_constraints=False)
    instance = result.instance
    cq = parse_query("?(X, Z) :- Derived(X, Y), Link(Y, Z).")

    matcher = matcher_for(engine)
    plan = DeltaJoinPlan(matcher, cq.body, variables=cq.body_variables())
    # Pivot on a Link delta: exactly the one homomorphism through Link(b, t1).
    assert len(list(plan.homomorphisms(instance,
                                       [("Link", ("b", "t1"))]))) == 1
    # A homomorphism reachable through several pivots is yielded once.
    assert len(list(plan.homomorphisms(
        instance, [("Link", ("b", "t1")), ("Derived", ("a", "b"))]))) == 1
    # A delta row absent from the live instance is skipped entirely.
    assert list(plan.homomorphisms(instance, [("Link", ("zz", "t9"))])) == []
    # Facts over predicates outside the body are ignored.
    assert list(plan.homomorphisms(instance, [("Joined", ("a", "t1"))])) == []


def test_evaluate_query_counts_matches_evaluation():
    program = _program()
    result = chase(program, check_constraints=False)
    query = parse_query(QUERY)
    counts = evaluate_query_counts(query, result.instance)
    assert all(support >= 1 for support in counts.values())
    assert rows_from_counts(counts) == evaluate_query(query, result.instance)
    assert rows_from_counts(counts, allow_nulls=True) == \
        evaluate_query(query, result.instance, allow_nulls=True)


# -- satellites: interning and immutable answer sharing -----------------------


def test_cache_hits_share_one_immutable_tuple():
    materialized = MaterializedProgram(_program())
    session = materialized.queries()
    first = session.answers(QUERY)
    second = session.answers(QUERY)
    assert isinstance(first, tuple)
    assert first is second  # O(1) hit: the same object, never a copy


def test_value_interner_canonicalizes_and_passes_unhashable_through():
    interner = ValueInterner()
    a = interner.intern("x" * 40)
    b = interner.intern("xxxx" * 10)
    assert a is b
    one = interner.intern(1.5)
    other = interner.intern(1.5)
    assert one is other
    unhashable = [1, 2]
    assert interner.intern(unhashable) is unhashable
    assert intern_value("spam") is intern_value("spam")
    assert interner.intern_row(("p", "q")) == ("p", "q")


def test_value_interner_table_is_bounded():
    interner = ValueInterner(max_entries=3)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        assert interner.intern(value) == value
    assert len(interner) == 3  # overflow values pass through uninterned
    # Values already canonicalized keep deduplicating after the cap.
    assert interner.intern(2.0) is interner.intern(2.0)


def test_snapshot_restore_interns_constants(tmp_path):
    materialized = MaterializedProgram(_program())
    path = materialized.save(tmp_path / "interned.snapshot")
    restored = MaterializedProgram.load(path)
    instance = restored.instance
    stored = [value for relation in instance for row in relation
              for value in row if value == "b"]
    assert len(stored) >= 2
    first = stored[0]
    assert all(value is first for value in stored)
