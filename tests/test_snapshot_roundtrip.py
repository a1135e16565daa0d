"""Round trips of snapshot format v2 over generated states.

``hypothesis`` draws EDBs from the mixed-type value strategy of the
``value_sort_key`` properties (integers of any size, floats, booleans,
``None``, strings and labeled nulls), chases a program with an
existential rule over them, answers its queries and applies one update.
Save → load must give back the same instance, EDB, provenance graph and
maintained answer counts.  Explicit cases pin what the generator does not
reach: stale provenance after EGD merges, provenance naming a fact the
instance does not hold, and files of the old format version.

``REPRO_FAULT_SEED`` (CI matrix) seeds the generator.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.datalog import parse_program
from repro.engine.session import MaterializedProgram
from repro.errors import SnapshotError, SnapshotFormatError
from test_relational_values import mixed_values

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

RULES = """
    Copy(X, Y) :- Edge(X, Y).
    Path(X, Z) :- Edge(X, Y), Copy(Y, Z).
    exists N : Named(X, N) :- Node(X).
    Tagged(X, N, Y) :- Named(X, N), Edge(X, Y).
"""
QUERIES = ("?(X, Z) :- Path(X, Z).", "?(X) :- Named(X, N).",
           "? :- Edge(X, X).")


def _program(edges, nodes):
    program = parse_program(RULES)
    program.database.declare("Edge", ("src", "dst"))
    program.database.declare("Node", ("id",))
    for row in edges:
        program.database.add("Edge", row)
    for value in nodes:
        program.database.add("Node", (value,))
    return program


def _round_trip(live: MaterializedProgram) -> MaterializedProgram:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "state.snap"
        live.save(path)
        return MaterializedProgram.load(path)


@seed(FAULT_SEED)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(mixed_values, mixed_values), max_size=12),
       st.lists(mixed_values, max_size=6), st.data())
def test_round_trip_restores_instance_provenance_and_counts(edges, nodes,
                                                            data):
    live = MaterializedProgram(_program(edges, nodes))
    session = live.queries()
    for query in QUERIES:
        session.answers(query)
    if edges:
        live.retract_facts([("Edge", data.draw(st.sampled_from(edges)))])
    live.add_facts([("Node", (data.draw(mixed_values),))])

    restored = _round_trip(live)
    assert restored.instance == live.instance
    assert restored.edb == live.edb
    assert dict(restored._provenance) == dict(live._provenance)
    assert {str(cq): counts for cq, counts in restored._restored_maintained} \
        == {key: entry.counts for key, entry in session._maintained.items()}


def test_stale_provenance_after_egd_merges_is_not_persisted():
    """EGD merges rewrite rows and leave provenance stale (the session then
    answers retractions with a full re-chase); the snapshot drops it."""
    live = MaterializedProgram(parse_program("""
        exists N : Owner(P, N) :- Pet(P).
        Owner(P, Y) :- Owned(P, Y).
        X = Y :- Owner(P, X), Owner(P, Y).
        Pet(rex). Owned(rex, ann).
    """))
    assert live._ambiguous and live._provenance
    restored = _round_trip(live)
    assert restored.instance == live.instance
    assert restored._ambiguous and dict(restored._provenance) == {}
    restored.retract_facts([("Owned", ("rex", "ann"))])
    live.retract_facts([("Owned", ("rex", "ann"))])
    assert restored.instance.relation("Owner").constants() == \
        live.instance.relation("Owner").constants()


def test_provenance_naming_a_missing_fact_is_refused(tmp_path):
    live = MaterializedProgram(_program([("a", "b")], ["a"]))
    live._provenance[("Copy", ("zz", "zz"))] = (("Edge", ("zz", "zz")),)
    path = tmp_path / "state.snap"
    with pytest.raises(SnapshotError, match="provenance"):
        live.save(path)
    assert not list(tmp_path.iterdir())  # no file, no temp file


def test_format_version_1_file_is_refused(tmp_path):
    payload = json.dumps({"edb": {"schema": [["Edge", ["src", "dst"]]],
                                  "rows": {"Edge": [["a", "b"]]}}},
                         sort_keys=True, separators=(",", ":"))
    header = json.dumps({
        "format_version": 1, "magic": "repro-snapshot",
        "payload_checksum": hashlib.sha256(payload.encode()).hexdigest(),
        "program_hash": "", "schema_hash": ""},
        sort_keys=True, separators=(",", ":"))
    path = tmp_path / "v1.snap"
    path.write_text(header + "\n" + payload + "\n", encoding="utf-8")
    with pytest.raises(SnapshotFormatError, match="re-save"):
        MaterializedProgram.load(path)
