"""Unit tests for the session layer (repro.engine.session, repro.quality.session).

The differential suite (``test_session_differential.py``) proves incremental
== from-scratch; these tests pin down the API surface: update results, the
incremental-vs-full decision, cache behaviour and maintenance, stats
threading, and the hospital scenario's session plumbing.
"""

from __future__ import annotations

import pytest

from repro.datalog import chase, parse_program
from repro.engine import EngineStats
from repro.engine.session import MaterializedProgram, QuerySession
from repro.hospital import HospitalScenario

PROGRAM_TEXT = """
    PatientUnit(U, D, P) :- PatientWard(W, D, P), UnitWard(U, W).
    Standardized(P) :- PatientUnit('Standard', D, P).
    UnitWard('Standard', 'W1').
    UnitWard('Intensive', 'W2').
    PatientWard('W1', 'Sep/5', 'Tom').
    PatientWard('W2', 'Sep/5', 'Lou').
"""


@pytest.fixture
def materialized():
    return MaterializedProgram(parse_program(PROGRAM_TEXT))


# -- EngineStats (satellite: counters declared once) --------------------------


def test_stats_merge_and_dict_cover_every_field():
    stats = EngineStats(engine="indexed")
    other = EngineStats(engine="indexed")
    for name in EngineStats.counter_names():
        setattr(other, name, 2)
    stats.merge(other)
    assert all(getattr(stats, name) == 2 for name in EngineStats.counter_names())
    as_dict = stats.as_dict()
    assert as_dict["engine"] == "indexed"
    assert set(as_dict) == {"engine", *EngineStats.counter_names()}
    assert {"cache_hits", "cache_misses", "incremental_updates",
            "full_rechases"} <= set(EngineStats.counter_names())


def test_stats_delta_and_snapshot():
    stats = EngineStats()
    stats.rows_scanned = 7
    snap = stats.snapshot()
    stats.rows_scanned += 5
    delta = stats.delta(snap)
    assert delta.rows_scanned == 5
    assert snap.rows_scanned == 7  # snapshot is independent


# -- MaterializedProgram ------------------------------------------------------


def test_materialization_matches_one_shot_chase(materialized):
    reference = chase(parse_program(PROGRAM_TEXT), check_constraints=False)
    assert reference.instance == materialized.instance
    assert materialized.result.steps == reference.steps


def test_add_facts_reports_applied_and_changed(materialized):
    update = materialized.add_facts([("PatientWard", ("W1", "Sep/6", "Nick"))])
    assert update.action == "add"
    assert update.strategy == "incremental"
    assert update.applied == [("PatientWard", ("W1", "Sep/6", "Nick"))]
    assert update.changed_predicates == {
        "PatientWard", "PatientUnit", "Standardized"}
    assert update.steps == 2
    assert update.stats.incremental_updates == 1
    assert materialized.version == 1


def test_duplicate_add_is_noop(materialized):
    update = materialized.add_facts([("PatientWard", ("W1", "Sep/5", "Tom"))])
    assert update.strategy == "noop"
    assert update.applied == []
    assert materialized.version == 0


def test_retract_missing_fact_is_noop(materialized):
    update = materialized.retract_facts([("PatientWard", ("W9", "Sep/5", "x"))])
    assert update.strategy == "noop"
    assert materialized.version == 0


def test_retract_deletes_derivation_cone(materialized):
    update = materialized.retract_facts([("PatientWard", ("W1", "Sep/5", "Tom"))])
    assert update.strategy == "incremental"
    assert ("Tom",) not in materialized.instance.relation("Standardized")
    assert len(materialized.instance.relation("PatientUnit")) == 1
    assert update.changed_predicates == {
        "PatientWard", "PatientUnit", "Standardized"}


def test_added_fact_survives_retraction_of_former_support(materialized):
    # Make the derived fact PatientUnit(Standard, Sep/5, Tom) extensional...
    materialized.add_facts([("PatientUnit", ("Standard", "Sep/5", "Tom"))])
    # ...then retract the fact that originally derived it.
    materialized.retract_facts([("PatientWard", ("W1", "Sep/5", "Tom"))])
    assert ("Standard", "Sep/5", "Tom") in materialized.instance.relation("PatientUnit")
    assert ("Tom",) in materialized.instance.relation("Standardized")


def test_edb_program_tracks_updates(materialized):
    materialized.add_facts([("PatientWard", ("W1", "Sep/7", "Iggy"))])
    materialized.retract_facts([("PatientWard", ("W2", "Sep/5", "Lou"))])
    edb = materialized.edb_program().database
    assert ("W1", "Sep/7", "Iggy") in edb.relation("PatientWard")
    assert ("W2", "Sep/5", "Lou") not in edb.relation("PatientWard")
    # intensional relations never hold EDB facts
    assert not edb.has_relation("PatientUnit") or \
        len(edb.relation("PatientUnit")) == 0


def test_without_provenance_retraction_falls_back_to_full():
    materialized = MaterializedProgram(parse_program(PROGRAM_TEXT),
                                       record_provenance=False)
    update = materialized.retract_facts([("PatientWard", ("W1", "Sep/5", "Tom"))])
    assert update.strategy == "full"
    assert update.changed_predicates is None
    assert materialized.stats.full_rechases == 1
    assert ("Tom",) not in materialized.instance.relation("Standardized")


# -- QuerySession -------------------------------------------------------------


def test_query_session_caches_parse_plan_and_answers(materialized):
    session = QuerySession(materialized)
    query = "?(P) :- PatientUnit('Standard', D, P)."
    first = session.answers(query)
    assert first == (("Tom",),)
    before = session.stats.snapshot()
    assert session.answers(query) == first
    delta = session.stats.delta(before)
    assert delta.cache_hits >= 2 and delta.cache_misses == 0
    assert delta.rows_scanned == 0  # served entirely from the answer cache


def test_update_maintains_touched_queries_in_place(materialized):
    session = QuerySession(materialized)
    touched = "?(P) :- PatientUnit(U, D, P)."
    untouched = "?(W) :- UnitWard(U, W)."
    session.answers(touched)
    session.answers(untouched)
    before = session.stats.snapshot()
    materialized.add_facts([("PatientWard", ("W1", "Sep/8", "Patti"))])
    # The touched query's cached answers were moved by the update's delta
    # (no re-join); the untouched one was left alone entirely.
    assert session.stats.delta(before).answers_maintained == 1
    before = session.stats.snapshot()
    assert ("Patti",) in session.answers(touched)
    assert session.answers(untouched) == (("W1",), ("W2",))
    delta = session.stats.delta(before)
    assert delta.cache_misses == 0  # both served from maintained entries
    assert delta.cache_hits >= 2
    assert delta.rows_scanned == 0  # no join work at read time


def test_empty_delta_update_keeps_answer_cache(materialized):
    """An incremental update whose delta is empty (the inserted fact already
    existed as a derived fact) must not invalidate cached answers —
    regression for predicate-touch invalidation on no-op updates."""
    session = QuerySession(materialized)
    query = "?(P) :- PatientUnit('Standard', D, P)."
    first = session.answers(query)
    update = materialized.add_facts(
        [("PatientUnit", ("Standard", "Sep/5", "Tom"))])
    assert update.is_incremental
    assert update.applied  # the EDB did change...
    assert update.changed_predicates == set()  # ...the materialization didn't
    before = session.stats.snapshot()
    assert session.answers(query) == first
    delta = session.stats.delta(before)
    assert delta.cache_hits >= 1 and delta.cache_misses == 0
    assert delta.rows_scanned == 0  # served from the untouched answer cache


def test_answer_many_reports_batch_stats(materialized):
    session = QuerySession(materialized)
    batch = session.answer_many(["?(P) :- Standardized(P).",
                                 "?(W) :- UnitWard('Standard', W)."])
    assert batch.answers == [(("Tom",),), (("W1",),)]
    assert len(batch) == 2
    assert batch.stats.cache_misses > 0
    repeat = session.answer_many(["?(P) :- Standardized(P)."])
    assert repeat.stats.cache_misses == 0 and repeat.stats.cache_hits > 0


def test_default_query_session_is_shared(materialized):
    assert materialized.queries() is materialized.queries()
    assert materialized.certain_answers("?(P) :- Standardized(P).") == (("Tom",),)
    assert materialized.holds("? :- PatientUnit('Standard', D, 'Tom').")
    assert not materialized.holds("? :- PatientUnit('Standard', D, 'Lou').")


def test_ws_answers_agree_and_cache_solver(materialized):
    session = QuerySession(materialized)
    query = "?(P) :- PatientUnit('Standard', D, P)."
    assert session.ws_answers(query) == session.answers(query)
    before = session.stats.snapshot()
    session.ws_answers(query)
    assert session.stats.delta(before).cache_hits >= 1
    materialized.add_facts([("PatientWard", ("W1", "Sep/9", "Nico"))])
    assert ("Nico",) in session.ws_answers(query)


# -- hospital scenario routing ------------------------------------------------


def test_scenario_session_reproduces_table2_and_updates():
    scenario = HospitalScenario()
    expected = {tuple(row) for row in scenario.expected_quality_measurements()}
    assert {tuple(row) for row in scenario.quality_measurements()} == expected
    assert scenario.quality_answers_to_doctor_query() == \
        scenario.expected_doctor_answers()

    baseline = scenario.assess()
    update = scenario.record_measurements([("Sep/5-12:10", "Lou Reed", 37.0)])
    assert update.strategy == "incremental"
    after = scenario.assess()
    assert after.relations["Measurements"].total_tuples == \
        baseline.relations["Measurements"].total_tuples + 1
    removed = scenario.remove_measurements([("Sep/5-12:10", "Lou Reed", 37.0)])
    assert removed.applied
    assert str(scenario.assess()) == str(baseline)
    # the scenario's own copy of the instance stays in sync
    assert len(scenario.measurements.relation("Measurements")) == \
        baseline.relations["Measurements"].total_tuples


def test_scenario_session_survives_save_and_restore(tmp_path):
    """The hospital feed resumes after a restart: snapshot, restore in a
    fresh scenario, keep recording measurements incrementally."""
    scenario = HospitalScenario()
    baseline = str(scenario.assess())
    path = tmp_path / "hospital.snapshot"
    scenario.save_session(path)

    fresh = HospitalScenario()
    restored = fresh.restore_session(path)
    assert str(fresh.assess()) == baseline
    assert {tuple(row) for row in fresh.quality_measurements()} == \
        {tuple(row) for row in fresh.expected_quality_measurements()}
    update = fresh.record_measurements([("Sep/5-12:10", "Lou Reed", 37.0)])
    assert update.strategy == "incremental"
    assert restored.materialized.stats.full_rechases == 0
    assert len(fresh.measurements.relation("Measurements")) == \
        len(scenario.measurements.relation("Measurements")) + 1
