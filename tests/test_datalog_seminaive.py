"""Plain (existential-free) Datalog through the delta-driven chase.

The chase enumerates each round's triggers semi-naively — one body atom
pinned to the previous round's delta — so on plain programs it computes
the least model.  Every case runs on all three engines.
"""

import pytest

from repro.datalog import DatalogProgram, parse_program, parse_rule
from repro.datalog.chase import chase
from repro.relational.instance import DatabaseInstance

ENGINES = ("naive", "indexed", "columnar")


@pytest.fixture()
def graph_instance():
    db = DatabaseInstance()
    db.declare("Edge", ["src", "dst"])
    db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
    return db


def _least_models(rules, database):
    """The chased instance of ``rules`` over ``database``, per engine."""
    program = DatalogProgram(tgds=[parse_rule(rule) for rule in rules],
                             database=database)
    return [chase(program, engine=engine, check_constraints=False).instance
            for engine in ENGINES]


class TestEvaluation:
    def test_transitive_closure(self, graph_instance):
        for result in _least_models(["Path(X, Y) :- Edge(X, Y).",
                                     "Path(X, Z) :- Path(X, Y), Edge(Y, Z)."],
                                    graph_instance):
            assert len(result.relation("Path")) == 6
            assert ("a", "d") in result.relation("Path")

    def test_input_not_mutated(self, graph_instance):
        _least_models(["Path(X, Y) :- Edge(X, Y)."], graph_instance)
        assert not graph_instance.has_relation("Path")

    def test_multiple_rules_same_head(self, graph_instance):
        for result in _least_models(["Reach(X) :- Edge(a, X).",
                                     "Reach(X) :- Reach(Y), Edge(Y, X)."],
                                    graph_instance):
            assert set(result.relation("Reach")) == {("b",), ("c",), ("d",)}

    def test_rule_with_constants_in_head(self, graph_instance):
        for result in _least_models(["Flag(yes, X) :- Edge(X, Y)."],
                                    graph_instance):
            assert ("yes", "a") in result.relation("Flag")

    def test_empty_rule_set_returns_copy(self, graph_instance):
        for result in _least_models([], graph_instance):
            assert result is not graph_instance
            assert set(result.relation("Edge")) == \
                set(graph_instance.relation("Edge"))

    def test_agrees_with_chase_on_plain_programs(self):
        """Every engine computes the full closure of a 3-cycle."""
        program = parse_program("""
            Path(X, Y) :- Edge(X, Y).
            Path(X, Z) :- Path(X, Y), Edge(Y, Z).
            Edge(a, b). Edge(b, c). Edge(c, a).
        """)
        models = [chase(program, engine=engine).instance for engine in ENGINES]
        assert all(model == models[0] for model in models)
        assert len(models[0].relation("Path")) == 9
