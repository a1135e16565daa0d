"""Tests for labeled nulls and the value helpers."""


from hypothesis import given, settings, strategies as st

from repro.relational.values import (Null, NullFactory, ground_values, is_ground, is_null,
                                     value_sort_key)

#: every value type a relation stores (NaN aside: it equals nothing)
numbers = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans())
mixed_values = st.one_of(numbers, st.none(), st.text(max_size=6),
                         st.builds(Null, st.text(min_size=1, max_size=4)))


class TestNull:
    def test_equality_by_label(self):
        assert Null("n1") == Null("n1")
        assert Null("n1") != Null("n2")

    def test_hashable(self):
        assert len({Null("a"), Null("a"), Null("b")}) == 2

    def test_ordering_by_label(self):
        assert Null("a") < Null("b")

    def test_str_uses_bottom_symbol(self):
        assert "n7" in str(Null("n7"))

    def test_null_is_not_equal_to_its_label(self):
        assert Null("x") != "x"


class TestNullFactory:
    def test_fresh_nulls_are_distinct(self):
        factory = NullFactory()
        nulls = [factory.fresh() for _ in range(10)]
        assert len(set(nulls)) == 10

    def test_prefix_is_used(self):
        factory = NullFactory(prefix="z")
        assert factory.fresh().label.startswith("z")

    def test_two_factories_are_independent_but_deterministic(self):
        first = NullFactory()
        second = NullFactory()
        assert first.fresh() == second.fresh()

    def test_fresh_many_count(self):
        factory = NullFactory()
        assert len(factory.fresh_many(5)) == 5


class TestPredicates:
    def test_is_null(self):
        assert is_null(Null("n1"))
        assert not is_null("n1")

    def test_is_ground(self):
        assert is_ground("abc")
        assert is_ground(42)
        assert not is_ground(Null("n1"))

    def test_ground_values_filters_nulls(self):
        values = ["a", Null("n1"), 3, Null("n2")]
        assert list(ground_values(values)) == ["a", 3]


class TestValueSortKey:
    def test_total_order_over_mixed_types(self):
        values = [3, "b", Null("n1"), 1.5, "a", Null("n0")]
        ordered = sorted(values, key=value_sort_key)
        # numbers first, then strings, then nulls
        assert ordered[:2] == [1.5, 3]
        assert ordered[2:4] == ["a", "b"]
        assert ordered[4:] == [Null("n0"), Null("n1")]

    def test_sorting_is_stable_and_deterministic(self):
        values = ["x", 2, Null("q")]
        assert sorted(values, key=value_sort_key) == sorted(values, key=value_sort_key)


class TestValueSortKeyTotalOrder:
    def test_former_ties_are_distinct(self):
        for left, right in ((True, "b1"), (False, "b0"), (2 ** 53, 2 ** 53 + 1),
                            (None, "None")):
            assert value_sort_key(left) != value_sort_key(right)

    def test_negatives_sort_numerically(self):
        assert sorted([-5, -10, 3, -0.5], key=value_sort_key) == [-10, -5, -0.5, 3]

    def test_buckets(self):
        values = [Null("a"), "s", float("nan"), None, -1]
        ordered = sorted(values, key=value_sort_key)
        assert ordered[0] == -1 and ordered[1] is None
        assert ordered[2] != ordered[2]  # NaN
        assert ordered[3:] == ["s", Null("a")]

    @settings(max_examples=500)
    @given(mixed_values, mixed_values)
    def test_keys_are_equal_exactly_when_values_are(self, left, right):
        assert (value_sort_key(left) == value_sort_key(right)) == (left == right)

    @settings(max_examples=500)
    @given(numbers, numbers)
    def test_numeric_order_agrees_with_less_than(self, left, right):
        assert (value_sort_key(left) < value_sort_key(right)) == (left < right)

    @given(st.lists(mixed_values, max_size=12))
    def test_any_mix_sorts(self, values):
        ordered = sorted(values, key=value_sort_key)
        assert sorted(reversed(ordered), key=value_sort_key) == ordered
