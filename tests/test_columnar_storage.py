"""Unit tests for the columnar storage layer and its session plumbing.

Covers the :class:`~repro.relational.values.ValueCatalog`, the
:class:`~repro.relational.columns.ColumnStore` kept in sync by
``Relation.add``/``discard``, the copy-on-write ``Relation.snapshot()``
(the MVCC-publish fix: an untouched relation shares one cached clone
instead of re-copying its pattern indexes per publication), and the query
session's support-count budget (LRU eviction of maintained answer counts,
billed to ``stats.support_evictions``).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro.datalog import parse_program
from repro.engine.session import MaterializedProgram, QuerySession
from repro.relational.columns import ColumnStore, index_delta_merge_count
from repro.relational.instance import DatabaseInstance
from repro.relational.values import value_catalog


# -- ValueCatalog -------------------------------------------------------------


def test_value_catalog_codes_are_stable_and_bijective():
    catalog = value_catalog()
    code_a = catalog.code("cs-test-a")
    assert catalog.code("cs-test-a") == code_a
    assert catalog.value(code_a) == "cs-test-a"
    assert catalog.try_code("cs-test-never-registered") is None
    code_null = catalog.code(__import__("repro.relational.values",
                                        fromlist=["Null"]).Null("cs_n1"))
    assert catalog.is_null_code(code_null)
    assert not catalog.is_null_code(code_a)


# -- ColumnStore sync ---------------------------------------------------------


def _relation_with_rows(rows):
    instance = DatabaseInstance()
    relation = instance.declare("R", [f"a{i}" for i in range(len(rows[0]))])
    for row in rows:
        relation.add(row)
    return relation


def test_column_store_mirrors_relation_mutations():
    relation = _relation_with_rows([("a", 1), ("b", 2), ("c", 3)])
    store = relation.column_store()
    assert len(store) == 3
    relation.add(("d", 4))
    assert len(store) == 4
    relation.discard(("b", 2))
    assert len(store) == 3
    # Swap-remove keeps columns dense and positions consistent.
    catalog = value_catalog()
    decoded = sorted(
        (catalog.value(store.column(0)[slot]), catalog.value(store.column(1)[slot]))
        for slot in range(len(store)))
    assert decoded == [("a", 1), ("c", 3), ("d", 4)]


def test_group_index_probes_and_invalidation():
    relation = _relation_with_rows([("a", 1), ("a", 2), ("b", 1)])
    store = relation.column_store()
    catalog = value_catalog()
    groups = store.group_index((0,))
    assert len(groups[catalog.code("a")]) == 2
    assert len(groups[catalog.code("b")]) == 1
    # Mutation invalidates the cached index; the rebuilt one sees the change.
    relation.add(("b", 9))
    rebuilt = store.group_index((0,))
    assert rebuilt is not groups or len(rebuilt[catalog.code("b")]) == 2
    assert len(store.group_index((0,))[catalog.code("b")]) == 2
    # Multi-position keys are code tuples.
    pair = store.group_index((0, 1))
    assert len(pair[(catalog.code("a"), catalog.code(1))]) == 1


def test_column_store_copy_is_independent():
    relation = _relation_with_rows([("a", 1), ("b", 2)])
    store = relation.column_store()
    clone = store.copy()
    relation.add(("c", 3))
    assert len(store) == 3
    assert len(clone) == 2


def test_lazy_build_from_bulk_assigned_rows():
    """Snapshot restore assigns ``_rows`` wholesale on fresh relations; the
    column store must rebuild from them on first columnar access."""
    instance = DatabaseInstance()
    relation = instance.declare("S", ["a", "b"])
    relation._rows = dict.fromkeys([("x", 1), ("y", 2)])  # bulk_load path
    store = relation.column_store()
    assert len(store) == 2


def _assert_group_index_matches_rebuild(store, positions):
    """Maintained index buckets == a from-scratch rebuild's buckets.

    Compares decoded row multisets per key (slot numbering may legitimately
    differ after swap-removes) plus total coverage: every live slot appears
    in exactly one bucket.
    """
    maintained = store.group_index(positions)
    reference = ColumnStore.build(store.arity, list(store._rows))
    rebuilt = reference.group_index(positions)
    catalog = value_catalog()

    def decoded(victim, slots):
        return sorted(
            tuple(catalog.value(victim.column(p)[int(slot)])
                  for p in range(victim.arity))
            for slot in slots)

    live = {key: decoded(store, maintained[key])
            for key in maintained if len(maintained[key])}
    assert live == {key: decoded(reference, rebuilt[key]) for key in rebuilt}
    seen = [int(slot) for key in maintained for slot in maintained[key]]
    assert sorted(seen) == list(range(len(store)))


def test_group_index_consistent_under_bulk_extends_and_discards():
    """Regression: delta-merged group indexes must track interleaved
    ``add_many`` bulk extends and swap-remove discards exactly — every
    maintained bucket equals what a from-scratch rebuild would produce,
    and the merges are counted (not silently rebuilt)."""
    rng = random.Random(7)
    instance = DatabaseInstance()
    relation = instance.declare("T", ["k", "g", "v"])
    relation.add_many([(f"k{i % 5}", i % 3, i) for i in range(12)])
    store = relation.column_store()
    single = store.group_index((0,))
    pair = store.group_index((0, 1))
    merges_before = index_delta_merge_count()

    next_value = 100
    for step in range(40):
        if rng.random() < 0.6 or len(relation) < 4:
            batch = [(f"k{rng.randrange(8)}", rng.randrange(3), next_value + j)
                     for j in range(rng.randrange(1, 5))]
            next_value += len(batch)
            mutations = relation._mutations
            assert all(relation.add_many(batch))
            # one bulk extend per batch, not one mutation per row
            assert relation._mutations == mutations + 1
        else:
            relation.discard(rng.choice(sorted(relation.rows())))
        # the SAME index objects are maintained in place, never swapped out
        assert store.group_index((0,)) is single
        assert store.group_index((0, 1)) is pair
        _assert_group_index_matches_rebuild(store, (0,))
        _assert_group_index_matches_rebuild(store, (0, 1))

    assert index_delta_merge_count() > merges_before


# -- snapshot copy-on-write ---------------------------------------------------


def test_snapshot_shared_while_unmutated():
    """The MVCC-publish fix: snapshotting an untouched relation returns the
    same cached clone — no per-publication index re-copy."""
    relation = _relation_with_rows([("a", 1), ("b", 2)])
    relation.probe((0,), ("a",))  # force a pattern index into existence
    first = relation.snapshot()
    second = relation.snapshot()
    assert first is second
    # The shared clone carries the pattern indexes (no rebuild on probe).
    assert first.index_count() == relation.index_count()
    assert sorted(first.probe((0,), ("a",))) == [("a", 1)]


def test_snapshot_refreshes_after_mutation():
    relation = _relation_with_rows([("a", 1)])
    before = relation.snapshot()
    relation.add(("b", 2))
    after = relation.snapshot()
    assert after is not before
    assert sorted(before.rows()) == [("a", 1)]
    assert sorted(after.rows()) == [("a", 1), ("b", 2)]
    # Discards count as mutations too.
    relation.discard(("a", 1))
    assert relation.snapshot() is not after


def test_snapshot_clone_is_isolated_from_later_mutations():
    relation = _relation_with_rows([("a", 1)])
    clone = relation.snapshot()
    relation.add(("b", 2))
    assert sorted(clone.rows()) == [("a", 1)]
    store = clone.column_store()
    assert len(store) == 1


def test_publish_reuses_snapshot_for_untouched_relations():
    """Across updates touching only one relation, the untouched relation's
    published object is shared; the touched one is copied while a reader
    pins it and advanced in place — the same object — once nobody does."""
    program = parse_program("""
        r(1,2). r(2,3).
        s(7).
    """)
    materialized = MaterializedProgram(program)
    versions = materialized.versions
    materialized.add_facts([("r", (3, 4))])
    v1 = versions.pin()
    materialized.add_facts([("r", (4, 5))])
    v2 = versions.pin()
    assert v1.instance.relation("s") is v2.instance.relation("s")
    assert v1.instance.relation("r") is not v2.instance.relation("r")
    assert sorted(v1.instance.relation("r")) == [(1, 2), (2, 3), (3, 4)]
    versions.unpin(v1)
    versions.unpin(v2)
    materialized.add_facts([("r", (5, 6))])
    v3 = versions.pin()
    assert v3.instance.relation("s") is v2.instance.relation("s")
    assert v3.instance.relation("r") is v2.instance.relation("r")
    assert (5, 6) in v3.instance.relation("r")
    assert v1.version < v2.version < v3.version
    versions.unpin(v3)


# -- support-count budget -----------------------------------------------------


def _session_with_queries(support_budget):
    program = parse_program("""
        edge(1,2). edge(2,3). edge(3,4). edge(4,5).
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- path(X,Y), edge(Y,Z).
    """)
    session = QuerySession(MaterializedProgram(program),
                           support_budget=support_budget)
    queries = ["q(X) :- path(X, 5).",
               "q(X, Y) :- path(X, Y).",
               "q(Y) :- path(1, Y).",
               "q(X) :- edge(X, Y), path(Y, 5)."]
    return session, queries


def test_support_budget_evicts_lru_entries():
    session, queries = _session_with_queries(support_budget=6)
    baseline = [QuerySession(session.materialized).answers(q) for q in queries]
    for query in queries:
        session.answers(query)
    assert session.stats.support_evictions > 0
    kept = sum(len(entry.counts) for entry in session._maintained.values())
    # The budget holds (up to the always-retained most recent entry).
    recent = max(session._maintained.values(), key=lambda e: e.last_used)
    assert kept - len(recent.counts) <= 6
    # Evicted queries still answer correctly (re-answer + re-seed).
    for query, expected in zip(queries, baseline):
        assert session.answers(query) == expected


def test_unbounded_budget_never_evicts():
    session, queries = _session_with_queries(support_budget=None)
    for query in queries:
        session.answers(query)
    assert session.stats.support_evictions == 0
    assert len(session._maintained) == len(queries)


def test_eviction_survives_update_maintenance():
    """Eviction under the publish lock composes with maintenance: evicted
    entries re-answer correctly after further updates."""
    session, queries = _session_with_queries(support_budget=6)
    for query in queries:
        session.answers(query)
    session.materialized.add_facts([("edge", (5, 6))])
    reference = QuerySession(MaterializedProgram(
        session.materialized.edb_program()))
    for query in queries:
        assert session.answers(query) == reference.answers(query), query
    assert session.stats.support_evictions > 0


# -- dependencies -------------------------------------------------------------

#: a columnar quality session end to end: build, chase, assess, a full-scan
#: plain answer and a quality answer; prints the third-party modules (from
#: the interpreter's site-packages) the run imported
_THIRD_PARTY_SCRIPT = """
import sys
import sysconfig

def third_party():
    paths = sysconfig.get_paths()
    roots = tuple({paths["purelib"], paths["platlib"]})
    return {name for name, module in list(sys.modules.items())
            if (getattr(module, "__file__", None) or "").startswith(roots)}

before = third_party()
from repro.quality.session import QualitySession
from repro.scenarios import build_scenario
from repro.sensornet.data import SensorNetSpec

scenario = build_scenario("sensornet", spec=SensorNetSpec(readings=200))
session = QualitySession(scenario.context, scenario.instance,
                         engine="columnar")
assert session.assess().relations
full = "?(S, D, V) :- SensorReadings(S, D, V)."
assert session.query_session.answers(full)
assert session.quality_answers(full)
print(sorted(name for name in third_party() - before
             if not name.startswith("repro")))
"""


def test_columnar_session_imports_no_third_party_module():
    """The columnar engine runs on the standard library alone: a quality
    session at sensornet tier S loads nothing from site-packages."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _THIRD_PARTY_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
