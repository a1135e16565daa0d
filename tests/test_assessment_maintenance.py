"""Assessment counts kept by delta ≡ a from-scratch, set-based assessment.

A :class:`~repro.quality.session.QualitySession` keeps, per assessed
relation ``R``, ``kept = |R ∩ R_q|`` and moves it by every update's fact
delta; ``total`` and ``quality`` are the sizes of ``R`` and ``R_q``.  The
oracle is the one-shot path: after every update, ``assess()`` must equal
``assess_database(session.instance, context.quality_versions_for(...))``
— a fresh chase of the context against the session's instance — and the
set-based assessment of the session's own extracted versions.  Covered:

* the hospital, sensor-network and financial-compliance update streams on
  the naive, indexed and columnar engines, mixing assessed-relation
  updates with retractions (and restorations) of dimension members and
  external-source rows, which move only ``R_q``;
* a value-pool context built to stress the delta rule: rows equal across
  types (``1`` / ``1.0`` / ``True``), one NaN object, labeled nulls in
  ``R_q``, and two derivations per quality row, so retractions re-derive
  facts that then sit in both delta lists;
* the fallbacks: an EGD-merge stream and full re-chases drop (and count)
  the counts, and the next ``assess()`` recounts;
* save → load → updates → assess.

A count test pins the counters: after the first assessment, N updates and
N assessments never compare tuple sets or extract a quality version, and
the counters reach the daemon ``stats`` op.  A stress test races recounts
against a writer.

``REPRO_FAULT_SEED`` (CI matrix) seeds the generators.
"""

from __future__ import annotations

import os
import random
import sys
import threading
from typing import List

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.quality import assess_database
from repro.quality.context import Context
from repro.quality.session import QualitySession
from repro.relational.instance import DatabaseInstance
from repro.scenarios import SCENARIO_NAMES, build_scenario
from repro.sensornet.data import SensorNetSpec

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
ENGINES = ("naive", "indexed", "columnar")


def _oracle(session: QualitySession):
    """The set-based assessment of a fresh context chase of the session's
    instance (the context carries every mirrored non-assessed update)."""
    return assess_database(
        session.instance,
        session.context.quality_versions_for(session.instance)).as_rows()


def _assert_matches_oracle(session: QualitySession) -> None:
    maintained = session.assess().as_rows()
    assert maintained == _oracle(session)
    own = assess_database(session.instance, session.quality_versions())
    assert maintained == own.as_rows()


def _mirror(context: Context, predicate: str, row, add: bool) -> None:
    """Apply a non-assessed EDB update to the context itself, so the
    oracle's fresh chase sees it too."""
    sources = [context.external_sources]
    if context.ontology is not None:
        sources.append(context.ontology.program().database)
    for database in sources:
        if database.has_relation(predicate):
            relation = database.relation(predicate)
            relation.add(row) if add else relation.discard(row)
            return
    raise AssertionError(f"{predicate} is neither ontology data nor a source")


# -- the scenarios' update streams --------------------------------------------


operations = st.lists(
    st.tuples(st.sampled_from(("add", "retract", "retract-context",
                               "restore-context")),
              st.integers(min_value=0, max_value=10_000)),
    min_size=1, max_size=6)


@seed(FAULT_SEED)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
@given(stream=operations)
def test_scenario_streams_keep_counts_equal_to_oracle(name, engine, stream):
    scenario = build_scenario(name)
    relation = scenario.assessed_relation
    session = scenario.context.session(scenario.instance, engine=engine)
    _assert_matches_oracle(session)
    context_facts = sorted(
        ((edb.schema.name, row) for edb in session.materialized.edb
         if edb.schema.name not in scenario.context.quality_versions
         for row in edb), key=repr)
    retired = []
    for step, (action, pick) in enumerate(stream):
        if action == "add":
            row = scenario.fresh_assessed_row(random.Random(pick), step)
            session.add_facts(relation, [row])
        elif action == "retract":
            pool = sorted(session.instance.relation(relation), key=repr)
            session.retract_facts(relation, [pool[pick % len(pool)]])
        elif action == "retract-context":
            predicate, row = context_facts.pop(pick % len(context_facts))
            session.retract_facts(predicate, [row])
            _mirror(session.context, predicate, row, add=False)
            retired.append((predicate, row))
        elif retired:
            predicate, row = retired.pop(pick % len(retired))
            session.add_facts(predicate, [row])
            _mirror(session.context, predicate, row, add=True)
            context_facts.append((predicate, row))
        _assert_matches_oracle(session)
    assert session.stats.maintenance_fallbacks == 0


def test_dimension_and_source_updates_move_only_the_quality_side():
    """Retracting a calibrated sensor / a building inspection changes
    ``R_q`` but not ``R``: ``kept`` moves by delta, ``total`` stays."""
    scenario = build_scenario("sensornet")
    session = scenario.session()
    baseline = session.assess().relations["SensorReadings"]
    quality = session.quality_version("SensorReadings")
    sensor = sorted(quality, key=repr)[0][0]
    for predicate, row in (("CalibratedSensor", (sensor,)),
                           ("BuildingInspection", sorted(
                               session.materialized.edb.relation(
                                   "BuildingInspection"), key=repr)[0])):
        before = session.stats.snapshot()
        update = session.retract_facts(predicate, [row])
        _mirror(session.context, predicate, row, add=False)
        delta = session.stats.delta(before)
        reached = any(fact[0] == "SensorReadings_q" for fact in
                      update.added_facts + update.removed_facts)
        assert delta.answers_maintained == int(reached)
        assert delta.maintenance_fallbacks == 0
        assert reached or predicate == "BuildingInspection"
        _assert_matches_oracle(session)
    after = session.assess().relations["SensorReadings"]
    assert after.total_tuples == baseline.total_tuples
    assert after.kept_tuples < baseline.kept_tuples


# -- a value pool that stresses the delta rule --------------------------------


NAN = float("nan")
#: ``1`` / ``1.0`` / ``True`` are one value to sets and relations alike; the
#: NaN is one object, equal only to itself
VALUES = ("a", "b", 1, 1.0, True, NAN)
#: keys only the existential rule sees, so its labeled nulls never depend
#: on the order the chase fires triggers in
GUESSES = ("g1", "g2")

values = st.sampled_from(VALUES)
value_facts = st.one_of(
    st.tuples(st.just("R"), st.tuples(values, values)),
    st.tuples(st.just("Ok"), st.tuples(values)),
    st.tuples(st.just("Extra"), st.tuples(values, values)),
    st.tuples(st.just("Guess"), st.tuples(st.sampled_from(GUESSES))))
value_updates = st.lists(
    st.tuples(st.sampled_from(("add", "retract")),
              st.lists(value_facts, min_size=1, max_size=3)),
    min_size=1, max_size=8)


def _value_context(initial) -> Context:
    """``R_q`` holds a row of ``R`` whose key is ``Ok``, every ``Extra`` row
    (so ``missing`` is non-zero and a row may have two derivations) and a
    labeled null per ``Guess`` key."""
    context = Context(name="values")
    context.map_relation("R", arity=2)
    context.add_external_source("Ok", ["x"])
    context.add_external_source("Extra", ["x", "y"])
    context.add_external_source("Guess", ["x"])
    context.add_rule("exists N : Guessed(X, N) :- Guess(X).")
    context.define_quality_version("R", [
        "R_q(X, Y) :- R_c(X, Y), Ok(X).",
        "R_q(X, Y) :- Extra(X, Y).",
        "R_q(X, Y) :- Guessed(X, Y).",
    ])
    for predicate, row in initial:
        if predicate != "R":
            context.external_sources.add(predicate, row)
    return context


def _value_session(initial, engine: str) -> QualitySession:
    instance = DatabaseInstance()
    instance.declare("R", ["x", "y"])
    for predicate, row in initial:
        if predicate == "R":
            instance.add("R", row)
    return _value_context(initial).session(instance, engine=engine)


def _apply_values(session: QualitySession, action: str, facts) -> None:
    for predicate, row in facts:
        if action == "add":
            session.add_facts(predicate, [row])
        else:
            session.retract_facts(predicate, [row])
        if predicate != "R":
            _mirror(session.context, predicate, row, add=action == "add")


@seed(FAULT_SEED)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("engine", ENGINES)
@given(initial=st.lists(value_facts, max_size=10), stream=value_updates)
def test_value_pool_streams_keep_counts_equal_to_oracle(engine, initial,
                                                        stream):
    session = _value_session(initial, engine)
    _assert_matches_oracle(session)
    for action, facts in stream:
        _apply_values(session, action, facts)
        _assert_matches_oracle(session)
    assert session.stats.maintenance_fallbacks == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_rederived_quality_rows_sit_in_both_delta_lists(engine):
    """``R_q('a', 1)`` has two derivations; retracting the support its
    provenance recorded removes it in the cone, and the repair re-derives
    it — the row is in both lists, and ``kept`` must not move."""
    initial = [("R", ("a", 1)), ("Ok", ("a",)), ("Extra", ("a", 1))]
    session = _value_session(initial, engine)
    kept = session.assess().relations["R"].kept_tuples
    in_both = []
    for predicate, row in (("Ok", ("a",)), ("Extra", ("a", 1))):
        update = session.retract_facts(predicate, [row])
        _mirror(session.context, predicate, row, add=False)
        in_both.append(("R_q", ("a", 1)) in update.removed_facts
                       and ("R_q", ("a", 1)) in update.added_facts)
        _assert_matches_oracle(session)
        assert session.assess().relations["R"].kept_tuples == kept
        session.add_facts(predicate, [row])
        _mirror(session.context, predicate, row, add=True)
        _assert_matches_oracle(session)
    assert any(in_both)


# -- fallbacks -----------------------------------------------------------------


#: an EGD over the compliance ontology's existential reference numbers: two
#: approvals of one desk on one day share their (unknown) reference
REFERENCE_EGD = ("R = R2 :- DeskApproval(K, D, O, R), "
                 "DeskApproval(K, D, O2, R2).")


@pytest.mark.parametrize("engine", ENGINES)
def test_egd_merges_and_full_rechases_drop_then_recount(engine):
    scenario = build_scenario("fincompliance")
    scenario.ontology.add_constraint(REFERENCE_EGD)
    session = scenario.context.session(scenario.instance, engine=engine)
    _assert_matches_oracle(session)
    edb = session.materialized.edb
    branch, day, _ = sorted(edb.relation("BranchApproval"), key=repr)[0]
    trade = sorted(session.instance.relation("Trades"), key=repr)[0]
    steps = [("add", "BranchApproval", (branch, day, "officer-extra")),
             ("retract", "Trades", trade),                # full re-chase
             ("retract", "BranchApproval", (branch, day, "officer-extra"))]
    for action, predicate, row in steps:
        before = session.stats.snapshot()
        if action == "add":
            update = session.add_facts(predicate, [row])
        else:
            update = session.retract_facts(predicate, [row])
        if predicate != "Trades":
            _mirror(session.context, predicate, row, add=action == "add")
        assert update.added_facts is None  # merged, or re-chased
        delta = session.stats.delta(before)
        assert delta.maintenance_fallbacks == 1
        assert delta.answers_maintained == 0
        assert session._kept is None  # dropped: the next call recounts
        _assert_matches_oracle(session)
    assert session.materialized.stats.full_rechases >= 2


def test_session_without_provenance_recounts_after_every_update():
    """No provenance: every update's delta is unknown (retractions re-chase
    in full), so each one drops the counts and the next call recounts."""
    scenario = build_scenario("hospital")
    session = scenario.context.session(scenario.instance,
                                       record_provenance=False)
    session.assess()
    effective = 0
    for step in scenario.update_stream(steps=3, seed=FAULT_SEED):
        for apply, facts in ((session.add_facts, step.adds),
                             (session.retract_facts, step.retracts)):
            update = apply("Measurements", [row for _, row in facts])
            effective += update.strategy != "noop"
            _assert_matches_oracle(session)
    assert effective >= 3
    assert session.stats.maintenance_fallbacks == effective
    assert session.stats.answers_maintained == 0


# -- persistence -----------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_restored_session_recounts_then_follows_deltas(name, engine,
                                                       tmp_path):
    live = build_scenario(name)
    session = live.context.session(live.instance, engine=engine)
    session.assess()
    stream = live.update_stream(steps=5, seed=FAULT_SEED + 3)
    relation = live.assessed_relation
    for step in stream[:2]:
        session.add_facts(relation, [row for _, row in step.adds])
        session.retract_facts(relation, [row for _, row in step.retracts])
    path = session.save(tmp_path / "quality.snapshot")

    restored = QualitySession.load(live.context, path, engine=engine)
    assert restored.assess().as_rows() == session.assess().as_rows()
    assert restored.stats.cache_misses == 1  # the one recount
    for step in stream[2:]:
        restored.add_facts(relation, [row for _, row in step.adds])
        restored.retract_facts(relation, [row for _, row in step.retracts])
        assert restored.assess().as_rows() == _oracle(restored)
    assert restored.stats.cache_misses == 1
    assert restored.stats.answers_maintained >= len(stream[2:])
    assert restored.stats.maintenance_fallbacks == 0


# -- counters --------------------------------------------------------------------


@pytest.mark.parametrize("updates", [1, 10, 40])
def test_assess_after_updates_never_compares_sets(updates, monkeypatch):
    """After the first assessment, N updates + N assessments run no
    set-based assessment and extract no quality version: the counters say
    exactly N maintained, N served from counts, nothing recounted."""
    scenario = build_scenario("sensornet")
    session = scenario.session()
    first = session.assess()

    def refuse(*_args, **_kwargs):
        raise AssertionError("assess() fell back to a set-based pass")

    monkeypatch.setattr("repro.quality.assessment.assess_relation", refuse)
    monkeypatch.setattr(Context, "materialize_quality_version", refuse)
    before = session.stats.snapshot()
    rng = random.Random(FAULT_SEED)
    rows = []
    for index in range(updates):
        if index % 3 == 2:
            scenario.remove_rows([rows.pop()])
        else:
            sensor, day, _ = scenario.fresh_assessed_row(rng, index)
            rows.append((sensor, day, 1000.0 + index))  # never a duplicate
            scenario.record_rows([rows[-1]])
        session.assess()
    delta = session.stats.delta(before)
    assert (delta.answers_maintained, delta.cache_hits, delta.cache_misses,
            delta.maintenance_fallbacks) == (updates, updates, 0, 0)
    monkeypatch.undo()
    assert session.assess().as_rows() == _oracle(session)
    assert session.assess().relations["SensorReadings"].total_tuples == \
        first.relations["SensorReadings"].total_tuples + \
        updates - 2 * (updates // 3)


def test_counters_show_in_the_daemon_stats_quality_block():
    scenario = build_scenario("hospital")
    backend = scenario.serving_backend()
    backend.bootstrap()
    backend.assess()
    row = scenario.fresh_assessed_row(random.Random(FAULT_SEED), 0)
    backend.quality_session.add_facts(scenario.assessed_relation,
                                      [row[:2] + (99.9,)])
    backend.assess()
    quality = backend.stats()["quality"]
    assert (quality["answers_maintained"], quality["cache_hits"],
            quality["cache_misses"], quality["maintenance_fallbacks"]) == \
        (1, 1, 1, 0)


# -- concurrency -------------------------------------------------------------------


def test_recounts_racing_a_writer_never_leave_stale_counts():
    """Readers drop the counts and recount while a writer streams updates;
    ``assess()`` and the updates share the program's write lock, so a
    recount can never pin one version and install its count after the next
    update was maintained against the dropped state.  After every update
    and every recount, the installed count must equal an exact recount."""
    scenario = build_scenario("sensornet",
                              spec=SensorNetSpec(readings=3_000, days=30))
    session = scenario.session()
    relation = scenario.assessed_relation
    quality_name = scenario.context.quality_relation_name(relation)
    # every added row is a quality row, so every update moves ``kept``
    templates = sorted(session.quality_version(relation), key=repr)
    errors: List[str] = []
    done = threading.Event()

    def check_installed_count(where) -> None:
        with session.materialized._write_lock, session.read() as transaction:
            if session._kept is None:
                return
            exact = sum(map(session.instance.relation(relation).__contains__,
                            transaction.instance.relation(quality_name)))
            if session._kept[relation] != exact:
                errors.append(f"{where}: {session._kept} != {exact}")

    def read() -> None:
        while not done.is_set():
            with session.materialized._write_lock:
                session._kept = None  # as after an unknown delta
            session.assess()
            check_installed_count("reader")

    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    rng = random.Random(FAULT_SEED)
    try:
        for thread in readers:
            thread.start()
        for index in range(500):
            sensor, day, _ = rng.choice(templates)
            row = (sensor, day, 1000.0 + index)
            session.add_facts(relation, [row])
            check_installed_count(index)
            if index % 3 == 0:
                session.retract_facts(relation, [row])
                check_installed_count(index)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors[:3]
    assert session.assess().as_rows() == _oracle(session)
