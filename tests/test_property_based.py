"""Property-based tests (hypothesis) on core data structures and invariants.

The invariants covered:

* unification soundness (a unifier really unifies) on random atoms;
* chase soundness/monotonicity on random single-rule programs;
* roll-up / drill-down duality on random strict hierarchies;
* class hierarchy implications (linear ⊆ guarded, sticky ⊆ weakly sticky) on
  random rule sets;
* quality-measure bounds on random relation pairs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.datalog import TGD, Atom, DatalogProgram, Variable, chase
from repro.datalog.classes import classify
from repro.datalog.unify import apply_to_atom, unify_atoms
from repro.md.builder import DimensionBuilder
from repro.quality.assessment import assess_relation
from repro.relational.instance import Relation
from repro.relational.schema import RelationSchema

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

values = st.sampled_from(["a", "b", "c", "d", 1, 2, 3])
rows2 = st.tuples(values, values)
relation2 = st.lists(rows2, max_size=12).map(
    lambda rows: Relation(RelationSchema("R", ["x", "y"]), rows))

variable_names = st.sampled_from(["X", "Y", "Z", "W"])
terms = st.one_of(variable_names.map(Variable), st.sampled_from(["a", "b", "c"]))
atoms = st.builds(
    lambda predicate, ts: Atom(predicate, ts),
    st.sampled_from(["P", "Q"]),
    st.lists(terms, min_size=1, max_size=3),
)


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

class TestUnificationProperties:
    @given(atoms, atoms)
    def test_unifier_really_unifies(self, left, right):
        unifier = unify_atoms(left, right)
        if unifier is not None:
            assert apply_to_atom(unifier, left) == apply_to_atom(unifier, right)

    @given(atoms)
    def test_atom_unifies_with_itself(self, atom):
        assert unify_atoms(atom, atom) is not None

    @given(atoms, atoms)
    def test_unification_is_symmetric_in_success(self, left, right):
        assert (unify_atoms(left, right) is None) == (unify_atoms(right, left) is None)


# ---------------------------------------------------------------------------
# Chase soundness on random single-rule programs
# ---------------------------------------------------------------------------

edge_rows = st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
                     min_size=1, max_size=8)


class TestChaseProperties:
    @settings(max_examples=30, deadline=None)
    @given(edge_rows)
    def test_chase_output_contains_input(self, rows):
        program = DatalogProgram(tgds=[
            TGD([Atom("Up", [Variable("X"), Variable("Y")])],
                [Atom("Edge", [Variable("X"), Variable("Y")])])])
        for row in rows:
            program.add_fact("Edge", row)
        result = chase(program, check_constraints=False)
        assert set(rows) <= set(result.instance.relation("Edge"))

    @settings(max_examples=30, deadline=None)
    @given(edge_rows)
    def test_plain_rule_derives_exactly_the_projection(self, rows):
        program = DatalogProgram(tgds=[
            TGD([Atom("Node", [Variable("X")])],
                [Atom("Edge", [Variable("X"), Variable("Y")])])])
        for row in rows:
            program.add_fact("Edge", row)
        result = chase(program, check_constraints=False)
        assert set(result.instance.relation("Node")) == {(row[0],) for row in rows}

    @settings(max_examples=20, deadline=None)
    @given(edge_rows, edge_rows)
    def test_chase_is_monotone_in_the_data(self, rows, extra):
        def run(data):
            program = DatalogProgram(tgds=[
                TGD([Atom("Node", [Variable("X")])],
                    [Atom("Edge", [Variable("X"), Variable("Y")])])])
            for row in data:
                program.add_fact("Edge", row)
            return set(chase(program, check_constraints=False).instance.relation("Node"))

        assert run(rows) <= run(rows + extra)

    @settings(max_examples=20, deadline=None)
    @given(edge_rows)
    def test_existential_rule_invents_one_null_per_restricted_trigger(self, rows):
        program = DatalogProgram(tgds=[
            TGD([Atom("Tagged", [Variable("X"), Variable("Z")])],
                [Atom("Edge", [Variable("X"), Variable("Y")])])])
        for row in rows:
            program.add_fact("Edge", row)
        result = chase(program, check_constraints=False)
        sources = {row[0] for row in rows}
        tagged_sources = {row[0] for row in result.instance.relation("Tagged")}
        assert tagged_sources == sources
        assert len(result.generated_nulls()) <= len(sources)


# ---------------------------------------------------------------------------
# Roll-up / drill-down duality on random strict hierarchies
# ---------------------------------------------------------------------------

hierarchies = st.lists(
    st.tuples(st.sampled_from(["w1", "w2", "w3", "w4", "w5"]),
              st.sampled_from(["u1", "u2"])),
    min_size=1, max_size=6,
).map(dict)  # ward -> unit mapping guarantees strictness


class TestNavigationDuality:
    @given(hierarchies)
    def test_roll_up_and_drill_down_are_dual(self, mapping):
        builder = DimensionBuilder("H").category_chain("Ward", "Unit")
        for ward, unit in mapping.items():
            builder.member_edge("Ward", ward, "Unit", unit)
        dimension = builder.build()
        for ward, unit in mapping.items():
            assert dimension.roll_up(ward, "Ward", "Unit") == {unit}
            assert ward in dimension.drill_down(unit, "Unit", "Ward")

    @given(hierarchies)
    def test_strict_mapping_rolls_up_to_single_parent(self, mapping):
        builder = DimensionBuilder("H").category_chain("Ward", "Unit")
        for ward, unit in mapping.items():
            builder.member_edge("Ward", ward, "Unit", unit)
        dimension = builder.build()
        for ward in mapping:
            assert len(dimension.roll_up(ward, "Ward", "Unit")) == 1

    @given(hierarchies)
    def test_drill_down_partitions_the_wards(self, mapping):
        builder = DimensionBuilder("H").category_chain("Ward", "Unit")
        for ward, unit in mapping.items():
            builder.member_edge("Ward", ward, "Unit", unit)
        dimension = builder.build()
        recovered = set()
        for unit in set(mapping.values()):
            recovered |= dimension.drill_down(unit, "Unit", "Ward")
        assert recovered == set(mapping)


# ---------------------------------------------------------------------------
# Class-hierarchy implications on random rule sets
# ---------------------------------------------------------------------------

simple_tgds = st.lists(
    st.builds(
        lambda head_terms, body_terms: TGD(
            [Atom("H", head_terms)], [Atom("B", body_terms), Atom("C", body_terms[:1])]),
        st.lists(terms, min_size=1, max_size=2),
        st.lists(terms, min_size=1, max_size=2),
    ),
    min_size=1, max_size=3,
)


class TestClassHierarchyProperties:
    @settings(max_examples=40, deadline=None)
    @given(simple_tgds)
    def test_sticky_implies_weakly_sticky(self, tgds):
        report = classify(tgds)
        if report.is_sticky:
            assert report.is_weakly_sticky

    @settings(max_examples=40, deadline=None)
    @given(simple_tgds)
    def test_linear_implies_guarded(self, tgds):
        linear_only = [tgd for tgd in tgds if tgd.is_linear()]
        if linear_only:
            report = classify(linear_only)
            assert report.is_linear and report.is_guarded

    @settings(max_examples=40, deadline=None)
    @given(simple_tgds)
    def test_finite_and_infinite_rank_partition_positions(self, tgds):
        report = classify(tgds)
        assert not (set(report.finite_rank_positions) & set(report.infinite_rank_positions))


# ---------------------------------------------------------------------------
# Quality measures
# ---------------------------------------------------------------------------

class TestQualityMeasureProperties:
    @given(relation2, relation2)
    def test_ratios_are_bounded(self, original, quality):
        quality = Relation(RelationSchema("R_q", ["x", "y"]), quality)
        assessment = assess_relation(original, quality)
        assert 0.0 <= assessment.quality_ratio <= 1.0
        assert 0.0 <= assessment.completeness_ratio <= 1.0
        assert assessment.departure >= 0

    @given(relation2)
    def test_identical_relations_have_no_departure(self, relation):
        quality = Relation(RelationSchema("R_q", ["x", "y"]), relation)
        assessment = assess_relation(relation, quality)
        assert assessment.quality_ratio == 1.0
        assert assessment.departure == 0

    @given(relation2, relation2)
    def test_departure_is_symmetric_difference_size(self, original, quality):
        quality_rel = Relation(RelationSchema("R_q", ["x", "y"]), quality)
        assessment = assess_relation(original, quality_rel)
        assert assessment.departure == len(set(original) ^ set(quality_rel))
