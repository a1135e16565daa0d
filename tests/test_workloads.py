"""Tests for the synthetic workload generator."""


from repro.md.validation import validate_md_instance
from repro.workloads import WorkloadSpec, generate_workload


class TestWorkloadSpec:
    def test_scaled_overrides_fields(self):
        spec = WorkloadSpec(tuples_per_relation=10)
        bigger = spec.scaled(tuples_per_relation=100, seed=3)
        assert bigger.tuples_per_relation == 100 and bigger.seed == 3
        assert spec.tuples_per_relation == 10  # original untouched


class TestGeneratedStructure:
    def test_dimensions_and_relations(self, tiny_workload):
        spec = tiny_workload.spec
        assert len(tiny_workload.md.dimensions) == spec.dimensions
        assert set(tiny_workload.base_relation_names) == {"Base0"}
        assert set(tiny_workload.upward_relation_names) == {"Up0"}
        assert set(tiny_workload.downward_relation_names) == {"Down0"}

    def test_generated_hierarchies_are_strict_and_valid(self, tiny_workload):
        assert validate_md_instance(tiny_workload.md).is_valid

    def test_member_counts_follow_fanout(self, tiny_workload):
        dimension = tiny_workload.md.dimension("D0")
        spec = tiny_workload.spec
        bottom = sorted(dimension.schema.bottom_categories())[0]
        assert len(dimension.members(bottom)) == spec.top_members * spec.fanout ** (spec.depth - 1)

    def test_base_relation_tuple_count(self, tiny_workload):
        relation = tiny_workload.md.relation("Base0")
        assert len(relation) <= tiny_workload.spec.tuples_per_relation
        assert len(relation) > 0

    def test_determinism(self):
        spec = WorkloadSpec(tuples_per_relation=15, assessment_tuples=15, seed=42)
        first = generate_workload(spec)
        second = generate_workload(spec)
        assert set(first.md.relation("Base0")) == set(second.md.relation("Base0"))
        assert set(first.assessment_instance.relation("Readings")) == \
            set(second.assessment_instance.relation("Readings"))

    def test_different_seeds_differ(self):
        first = generate_workload(WorkloadSpec(seed=1, tuples_per_relation=30))
        second = generate_workload(WorkloadSpec(seed=2, tuples_per_relation=30))
        assert set(first.md.relation("Base0")) != set(second.md.relation("Base0"))


class TestGeneratedOntology:
    def test_ontology_is_weakly_sticky(self, tiny_workload):
        assert tiny_workload.ontology.is_weakly_sticky()

    def test_upward_rule_generates_data(self, tiny_workload):
        chased = tiny_workload.ontology.chase().instance
        assert len(chased.relation("Up0")) > 0

    def test_downward_rule_generates_nulls(self, tiny_workload):
        chased = tiny_workload.ontology.chase().instance
        assert chased.relation("Down0").nulls()

    def test_queries_have_answers(self, tiny_workload):
        answered = [q for q in tiny_workload.queries
                    if tiny_workload.ontology.certain_answers(q)]
        assert answered

    def test_total_facts_grows_with_tuples(self):
        small = generate_workload(WorkloadSpec(tuples_per_relation=10, seed=5))
        large = generate_workload(WorkloadSpec(tuples_per_relation=200, seed=5))
        assert large.total_facts() > small.total_facts()


class TestGeneratedQualityContext:
    def test_quality_version_filters_dirty_tuples(self, tiny_workload):
        versions = tiny_workload.context.quality_versions_for(
            tiny_workload.assessment_instance)
        readings = tiny_workload.assessment_instance.relation("Readings")
        assert 0 < len(versions["Readings"]) <= len(readings)

    def test_dirty_fraction_zero_keeps_everything(self):
        workload = generate_workload(WorkloadSpec(dirty_fraction=0.0, seed=3,
                                                  assessment_tuples=30))
        versions = workload.context.quality_versions_for(workload.assessment_instance)
        assert len(versions["Readings"]) == len(
            workload.assessment_instance.relation("Readings"))

    def test_dirty_fraction_one_removes_most(self):
        workload = generate_workload(WorkloadSpec(dirty_fraction=1.0, seed=3,
                                                  assessment_tuples=30))
        versions = workload.context.quality_versions_for(workload.assessment_instance)
        assert len(versions["Readings"]) < len(
            workload.assessment_instance.relation("Readings"))


class TestSeedPlumbing:
    """Child streams (``derive_rng``) isolate components from each other's
    draw counts — the regression class for the shared-``Random`` bug."""

    def test_derive_rng_is_stable_and_label_separated(self):
        import random

        from repro.workloads import derive_rng

        assert derive_rng(random.Random(5), "a").random() == \
            derive_rng(random.Random(5), "a").random()
        assert derive_rng(random.Random(5), "a").random() != \
            derive_rng(random.Random(5), "b").random()

    def test_assessment_layer_independent_of_base_tuple_count(self):
        """Changing ``tuples_per_relation`` (a *base*-layer knob) must not
        reshuffle the assessment instance — it did when both layers drew
        from one shared generator."""
        small = generate_workload(
            WorkloadSpec(tuples_per_relation=10, assessment_tuples=20, seed=7))
        large = generate_workload(
            WorkloadSpec(tuples_per_relation=60, assessment_tuples=20, seed=7))
        assert set(small.assessment_instance.relation("Readings")) == \
            set(large.assessment_instance.relation("Readings"))
        assert small.queries == large.queries

    def test_update_streams_private_per_target(self, tiny_workload):
        """Base and assessment streams from one seed never share state:
        building them in either order yields identical steps."""
        from repro.workloads import generate_update_stream

        def steps(target):
            return [(tuple(map(tuple, step.adds)),
                     tuple(map(tuple, step.retracts)))
                    for step in generate_update_stream(
                        tiny_workload, steps=4, seed=3, target=target)]

        base_first = (steps("base"), steps("assessment"))
        assessment_first = (steps("assessment"), steps("base"))
        assert base_first == (assessment_first[1], assessment_first[0])
        assert steps("base") != steps("assessment")
