"""Snapshot format v2 is byte-deterministic.

Snapshots refer to every stored value by its rank in a dictionary ordered
by ``value_sort_key``, never by a process-wide ``ValueCatalog`` code, so
the same logical state must serialize to the same bytes in any process:

* a subprocess that seeds its catalog in reverse and inserts every EDB row
  in reverse order writes exactly the bytes this process writes;
* save → load → save reproduces the bytes.

The data mixes every value type a snapshot stores — negative and
beyond-float-precision integers, floats, infinities, ``None``, booleans,
strings and labeled nulls.  ``REPRO_FAULT_SEED`` (CI matrix) shifts it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.datalog import parse_program
from repro.engine.session import MaterializedProgram
from repro.relational.values import Null, value_catalog

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
TESTS_DIR = str(Path(__file__).resolve().parent)

# Every derived fact has exactly one derivation (Sensor and Level are
# functional), so provenance does not depend on insertion order.
RULES = """
    Located(S, T, V, R) :- Reading(S, T, V), Sensor(S, R).
    Flagged(S, T, V, L) :- Located(S, T, V, R), Level(V, L).
"""
EXISTENTIAL_RULES = RULES + """
    exists N : Tagged(S, N) :- Sensor(S, R).
    Watched(S, N, R) :- Tagged(S, N), Sensor(S, R).
"""
QUERIES = ("?(S, V) :- Located(S, T, V, R).",
           "?(V, L) :- Flagged(S, T, V, L).")

# No 0/1 integers or floats: they would equal False/True and share one
# dictionary entry, whose JSON form is whichever object was seen first.
READING_VALUES = [-10, -5, 3, 2 ** 53, 2 ** 53 + 1, -2 ** 70, 2.5, -0.75,
                  float("inf"), None, "", "None", "b1", "héllo", True, False,
                  Null("e1"), Null("e2")]
LEVELS = ["low", "high", 7, -7.5, None, Null("e3")]


def _edb(seed: int):
    """The EDB rows, relation by relation, in a fixed generated order."""
    rng = random.Random(seed)
    sensors = [(f"s{index}", f"room{rng.randrange(4)}") for index in range(8)]
    readings = list(dict.fromkeys(
        (rng.choice(sensors)[0], rng.randrange(2, 30) * rng.choice((1, -1)),
         rng.choice(READING_VALUES)) for _ in range(60)))
    levels = [(value, rng.choice(LEVELS)) for value in READING_VALUES]
    return [("Sensor", ("S", "R"), sensors),
            ("Reading", ("S", "T", "V"), readings),
            ("Level", ("V", "L"), levels)]


def build_state(rules: str, engine: str, seed: int,
                reverse: bool = False) -> MaterializedProgram:
    """A chased program whose queries have been answered once (so the
    snapshot carries maintained counts); ``reverse`` registers every value
    in the catalog, and inserts every EDB row, in reverse order."""
    program = parse_program(rules)
    relations = _edb(seed)
    if reverse:
        values = [value for _, _, rows in relations for row in rows
                  for value in row]
        value_catalog().register_many(values[::-1])
    for name, attributes, _ in relations:
        program.database.declare(name, attributes)
    for name, _, rows in relations:
        for row in (rows[::-1] if reverse else rows):
            program.database.add(name, row)
    materialized = MaterializedProgram(program, engine=engine)
    session = materialized.queries()
    for query in QUERIES:
        session.answers(query)
    return materialized


def save_state(path: str, rules: str, engine: str, seed: int,
               reverse: bool) -> None:
    build_state(rules, engine, seed, reverse).save(path, meta={"wal": {"lsn": 7}})


def _save_in_subprocess(path: Path, rules: str, engine: str, seed: int) -> None:
    code = (f"import sys; sys.path.insert(0, {TESTS_DIR!r}); "
            "import test_snapshot_determinism as t; "
            f"t.save_state({str(path)!r}, t.{rules}, {engine!r}, {seed}, "
            "reverse=True)")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("engine", ["indexed", "columnar"])
def test_reversed_registration_and_insertion_give_identical_bytes(engine,
                                                                  tmp_path):
    seed = 11 + FAULT_SEED
    here, there = tmp_path / "here.snap", tmp_path / "there.snap"
    save_state(str(here), RULES, engine, seed, reverse=False)
    _save_in_subprocess(there, "RULES", engine, seed)
    assert here.read_bytes() == there.read_bytes()


@pytest.mark.parametrize("rules", [RULES, EXISTENTIAL_RULES],
                         ids=["plain", "existential"])
def test_save_load_save_reproduces_the_bytes(rules, tmp_path):
    first, second = tmp_path / "first.snap", tmp_path / "second.snap"
    live = build_state(rules, "indexed", 23 + FAULT_SEED)
    live.add_facts([("Reading", ("s1", 99, -2 ** 60))])
    live.retract_facts([("Reading", next(iter(live.edb.relation("Reading"))))])
    live.save(first, meta={"wal": {"lsn": 3}})
    restored = MaterializedProgram.load(first)
    assert restored.instance == live.instance
    restored.save(second, meta={"wal": {"lsn": 3}})
    assert first.read_bytes() == second.read_bytes()
