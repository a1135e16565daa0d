"""O(delta) MVCC publication: published twin ≡ working instance, always.

:mod:`repro.engine.versioning` advances the previously published relation
objects *in place* by an update's fact delta when no pinned version can
reach them, and falls back to a structural copy otherwise (pinned reader,
unknown or oversized delta, failed patch).  Either way the result must be
indistinguishable from re-copying every touched relation:

* after every update of a randomized add / retract / EGD stream — on all
  three engines, with reader pins opened and closed at random — the latest
  version equals the working instance relation by relation, *including*
  every pattern-index bucket and every column-store group index (checked
  against from-scratch rebuilds), and a reader pinned at ``v`` still sees
  exactly ``v``;
* ``pin()`` racing the in-place advance never observes a torn relation;
* a patch that fails part-way is replaced by a fresh snapshot and the
  half-advanced twin is unreachable;
* the ``relations_patched`` / ``relations_copied`` /
  ``rows_copied_by_publish`` counters prove which path ran.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.datalog.rules import EGD
from repro.datalog.terms import Variable
from repro.engine.session import MaterializedProgram, QuerySession
from repro.engine.versioning import PATCH_FREE_ROWS, PATCH_ROW_COST
from repro.errors import EGDConflictError
from repro.relational.columns import ColumnStore
from repro.relational.instance import Relation

from test_session_differential import (_apply_step, _random_program,
                                       _random_queries, _random_updates)

ENGINES = ("indexed", "naive", "columnar")


# -- consistency oracle -------------------------------------------------------


def _assert_relation_consistent(relation: Relation) -> None:
    """Every derived structure of ``relation`` equals a from-scratch
    rebuild over its rows."""
    rows = list(relation)
    for positions, index in relation._indexes.items():
        rebuilt = {}
        for row in rows:
            rebuilt.setdefault(tuple(row[p] for p in positions), set()).add(row)
        assert {key: set(bucket) for key, bucket in index.items()} == rebuilt, \
            (relation.schema.name, positions)
    store = relation._column_store
    if store is None:
        return
    assert set(store._rows) == set(rows) and len(store._rows) == len(rows)
    assert store._pos == {row: slot for slot, row in enumerate(store._rows)}
    scratch = ColumnStore.build(store.arity, store._rows)
    assert [list(column) for column in store._columns] == \
        [list(column) for column in scratch._columns]
    for positions, index in store._groups.items():
        rebuilt = scratch.group_index(positions)
        assert {key: sorted(index._buckets[key]) for key in index} == \
            {key: sorted(rebuilt._buckets[key]) for key in rebuilt}, \
            (relation.schema.name, positions)


def _contents(instance):
    return {relation.schema.name: frozenset(relation) for relation in instance}


def _assert_published_equals_working(materialized: MaterializedProgram) -> None:
    with materialized.versions.read() as txn:
        assert txn.version == materialized.version
        assert _contents(txn.instance) == _contents(materialized.instance)
        for relation in txn.instance:
            _assert_relation_consistent(relation)


def _build_indexes(materialized: MaterializedProgram) -> None:
    """Give every published twin a pattern index and a group index to
    carry through the stream (readers build them lazily in production)."""
    with materialized.versions.read() as txn:
        for relation in txn.instance:
            relation.index_on((0,))
            relation.column_store().group_index((0,))
            if relation.schema.arity > 1:
                relation.index_on((0, 1))
                relation.column_store().group_index((0, 1))


class _RandomPins:
    """Reader transactions opened and closed at random; each remembers the
    exact contents of the version it pinned."""

    def __init__(self, materialized: MaterializedProgram, rng: random.Random):
        self.materialized = materialized
        self.rng = rng
        self.open = []

    def churn(self) -> None:
        if self.open and self.rng.random() < 0.4:
            txn, _ = self.open.pop(self.rng.randrange(len(self.open)))
            txn.close()
        if self.rng.random() < 0.4:
            txn = self.materialized.versions.read()
            self.open.append((txn, _contents(txn.instance)))

    def check(self) -> None:
        for txn, contents in self.open:
            assert _contents(txn.instance) == contents, f"v{txn.version} moved"
            for relation in txn.instance:
                _assert_relation_consistent(relation)

    def close(self) -> None:
        for txn, _ in self.open:
            txn.close()
        self.open = []


def _drive(materialized: MaterializedProgram, updates, seed: int,
           queries=()) -> None:
    session = QuerySession(materialized)
    for query in queries:
        session.answers(query)  # maintained entries: deletion joins hit twins
    _build_indexes(materialized)
    pins = _RandomPins(materialized, random.Random(seed))
    try:
        for action, facts in updates:
            pins.churn()
            _apply_step(materialized, action, facts)
            _assert_published_equals_working(materialized)
            pins.check()
    finally:
        pins.close()


# -- (a) randomized differential streams ---------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("existential", (False, True))
@pytest.mark.parametrize("seed", range(8))
def test_streams_published_equals_working(seed, existential, engine):
    program = _random_program(seed + (100 if existential else 0), existential)
    materialized = MaterializedProgram(program, engine=engine)
    queries = _random_queries(random.Random(9000 + seed), program, count=3)
    updates = _random_updates(random.Random(4000 + seed), program, steps=10)
    _drive(materialized, updates, seed, queries)
    assert materialized.stats.relations_patched > 0  # in place, really


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", range(300, 306))
def test_egd_streams_published_equals_working(seed, engine):
    """EGD merges rewrite arbitrary rows: the delta is unknown, so those
    publications copy — interleaved with patched ones before the first
    merge and consistent throughout."""
    program = _random_program(seed, existential=True)
    name, arity = sorted(program.predicate_arities().items())[-1]
    if arity < 2:
        pytest.skip("needs a binary+ predicate for a functional dependency")
    x, y = Variable("FD_x"), Variable("FD_y")
    key = [Variable(f"K{i}") for i in range(arity - 1)]
    program.add_egd(EGD(x, y, [Atom(name, key + [x]), Atom(name, key + [y])]))
    try:
        materialized = MaterializedProgram(program, engine=engine)
    except EGDConflictError:
        return
    updates = _random_updates(random.Random(6000 + seed), program, steps=8)
    try:
        _drive(materialized, updates, seed)
    except EGDConflictError:
        pass  # the stream made the program inconsistent: nothing published


# -- counters -------------------------------------------------------------------

CHAIN = """
    Derived(X, Y) :- Base(X, Y).
    Joined(X, Z) :- Derived(X, Y), Link(Y, Z).
    Base(a, b). Base(c, d).
    Link(b, t1). Link(d, t2).
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_unpinned_stream_is_fully_patched(engine):
    materialized = MaterializedProgram(parse_program(CHAIN), engine=engine)
    initial = materialized.stats.snapshot()
    assert initial.relations_copied == 4  # the initial publication copies
    assert initial.rows_copied_by_publish == \
        materialized.instance.total_tuples()
    for step in range(20):
        update = materialized.add_facts([("Base", (f"n{step}", "b"))])
        assert update.stats.relations_patched == 3  # Base, Derived, Joined
        if step % 3 == 2:
            update = materialized.retract_facts(
                [("Base", (f"n{step - 1}", "b"))])
            assert update.stats.relations_patched == 3
        _assert_published_equals_working(materialized)
    delta = materialized.stats.delta(initial)
    assert delta.relations_patched == 3 * delta.incremental_updates
    assert delta.relations_copied == 0
    assert delta.rows_copied_by_publish == 0


def test_pinned_reader_forces_copies_until_released():
    materialized = MaterializedProgram(parse_program(CHAIN))
    with materialized.versions.read() as txn:
        frozen = _contents(txn.instance)
        update = materialized.add_facts([("Base", ("n0", "b"))])
        assert update.stats.relations_copied == 3
        assert update.stats.relations_patched == 0
        assert update.stats.rows_copied_by_publish == 3 + 3 + 3
        # the copies are nobody's but the writer's: the next update patches
        update = materialized.add_facts([("Base", ("n1", "b"))])
        assert (update.stats.relations_patched,
                update.stats.relations_copied) == (3, 0)
        assert _contents(txn.instance) == frozen
    update = materialized.add_facts([("Base", ("n2", "b"))])
    assert (update.stats.relations_patched,
            update.stats.relations_copied) == (3, 0)
    _assert_published_equals_working(materialized)


def test_oversized_delta_is_copied():
    """A delta large relative to the relation costs more to replay through
    the index hooks than to copy."""
    materialized = MaterializedProgram(parse_program(CHAIN))
    size = len(materialized.instance.relation("Base"))
    batch = (size + PATCH_FREE_ROWS) // PATCH_ROW_COST + 1
    update = materialized.add_facts(
        [("Base", (f"bulk{index}", "zz")) for index in range(batch)])
    assert update.stats.relations_copied == 2  # Base and Derived
    assert update.stats.relations_patched == 0
    _assert_published_equals_working(materialized)
    update = materialized.add_facts([("Base", ("small", "zz"))])
    assert update.stats.relations_copied == 0


def test_counters_surface_in_reports_and_the_daemon_stats_op(tmp_path):
    """An operator can see which publication path a daemon is on: a pin
    held by a client connection shows as copies, its release as patches."""
    from repro.reporting import render_engine_stats
    from repro.serving import ServingClient
    from repro.serving.daemon import ProgramBackend, ServingDaemon

    daemon = ServingDaemon(ProgramBackend(parse_program(CHAIN)),
                           tmp_path / "data")
    daemon.recover()
    client = ServingClient(*daemon.start())
    try:
        def counters():
            program = client.stats()["program"]
            return (program["relations_patched"], program["relations_copied"],
                    program["rows_copied_by_publish"])

        patched, copied, rows = counters()
        pinned = client.pin()
        client.add_facts([("Base", ("n0", "b"))])
        assert counters() == (patched, copied + 3, rows + 9)
        client.add_facts([("Base", ("n1", "b"))])  # the copies are unpinned
        assert counters() == (patched + 3, copied + 3, rows + 9)
        assert client.unpin(pinned)
        client.add_facts([("Base", ("n2", "b"))])
        assert counters() == (patched + 6, copied + 3, rows + 9)
    finally:
        client.close()
        daemon.stop()
    rendered = render_engine_stats(daemon.backend.materialized.stats)
    for name in ("relations_patched", "relations_copied",
                 "rows_copied_by_publish"):
        assert name in rendered


# -- (b) pin() racing the in-place advance ---------------------------------------


def test_pin_never_observes_a_torn_advance(monkeypatch):
    """Readers pin as fast as they can while the writer advances twins in
    place, with the patch held open between its discards and its inserts:
    a pinned version must hold exactly its rows, at pin time and later."""
    materialized = MaterializedProgram(parse_program(CHAIN))
    steps = 60
    expected = {materialized.version: _contents(materialized.instance)}
    shadow = MaterializedProgram(parse_program(CHAIN))
    batches = []
    for step in range(steps):
        if step % 2:
            batches.append(("retract", [("Base", (f"n{step - 1}", "b"))]))
        else:
            batches.append(("add", [("Base", (f"n{step}", "b")),
                                    ("Base", (f"m{step}", "d"))]))
        _apply_step(shadow, *batches[-1])
        expected[shadow.version] = _contents(shadow.instance)

    advance, add_many = Relation.advance_snapshot, Relation.add_many
    patching = threading.local()

    def flagged_advance(self, twin, removed, added):
        patching.on = True
        try:
            return advance(self, twin, removed, added)
        finally:
            patching.on = False

    def slow_add_many(self, rows, code_rows=None):
        if getattr(patching, "on", False):
            time.sleep(0.001)  # hold the half-advanced state open
        return add_many(self, rows, code_rows)

    monkeypatch.setattr(Relation, "advance_snapshot", flagged_advance)
    monkeypatch.setattr(Relation, "add_many", slow_add_many)
    failures = []
    observed = set()
    done = threading.Event()

    def reader():
        try:
            while not done.is_set():
                with materialized.versions.read() as txn:
                    first = _contents(txn.instance)
                    for relation in txn.instance:
                        _assert_relation_consistent(relation)
                    second = _contents(txn.instance)
                    assert first == second == expected[txn.version], \
                        f"torn read at v{txn.version}"
                    observed.add(txn.version)
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    readers = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for batch in batches:
            _apply_step(materialized, *batch)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures[0]
    assert len(observed) > 1  # readers really interleaved with the writer
    stats = materialized.stats
    assert stats.relations_patched > 0
    _assert_published_equals_working(materialized)


# -- (c) a patch that fails part-way ----------------------------------------------


def test_failed_patch_falls_back_to_a_fresh_snapshot(monkeypatch):
    materialized = MaterializedProgram(parse_program(CHAIN), engine="columnar")
    _build_indexes(materialized)
    materialized.add_facts([("Base", ("n0", "b"))])  # twins are patched now
    with materialized.versions.read() as txn:
        twin = txn.instance.relation("Base")
        untouched = txn.instance.relation("Link")
    doomed = twin.column_store()
    original = ColumnStore.extend

    def failing_extend(self, rows, code_rows=None):
        if self is doomed:  # row dict and pattern indexes already advanced
            raise RuntimeError("injected mid-patch failure")
        return original(self, rows, code_rows)

    monkeypatch.setattr(ColumnStore, "extend", failing_extend)
    update = materialized.add_facts([("Base", ("n1", "b"))])
    assert ("Base", ("n1", "b")) in update.added_facts
    assert update.stats.relations_copied == 1   # Base, re-snapshotted
    assert update.stats.relations_patched == 2  # Derived, Joined
    assert len(twin) != len(twin.column_store())  # it really was half-advanced
    store = materialized.versions
    assert store.live_versions() == [materialized.version]
    latest = store.pin()
    try:
        assert latest.instance.relation("Base") is not twin
        assert latest.instance.relation("Link") is untouched
    finally:
        store.unpin(latest)
    _assert_published_equals_working(materialized)
    # ... and the replacement twin is patched again by the next update
    update = materialized.add_facts([("Base", ("n2", "b"))])
    assert (update.stats.relations_patched,
            update.stats.relations_copied) == (3, 0)
    _assert_published_equals_working(materialized)
