"""Tests for relation and database schemas."""

import pytest

from repro.errors import ArityError, DuplicateRelationError, SchemaError, UnknownRelationError
from repro.relational.schema import DatabaseSchema, RelationSchema


class TestRelationSchema:
    def test_basic_properties(self):
        schema = RelationSchema("R", ["a", "b", "c"])
        assert schema.name == "R"
        assert schema.arity == 3
        assert schema.attributes == ("a", "b", "c")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", ["a"])

    def test_no_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a", "a"])

    def test_position_of(self):
        schema = RelationSchema("R", ["a", "b"])
        assert schema.position_of("b") == 1
        with pytest.raises(SchemaError):
            schema.position_of("missing")

    def test_check_arity(self):
        schema = RelationSchema("R", ["a", "b"])
        schema.check_arity(("x", "y"))
        with pytest.raises(ArityError):
            schema.check_arity(("x",))

    def test_project(self):
        schema = RelationSchema("R", ["a", "b", "c"]).project(["c", "a"])
        assert schema.attributes == ("c", "a")

    def test_project_unknown_attribute(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a"]).project(["z"])

    def test_structural_equality(self):
        assert RelationSchema("R", ["a"]) == RelationSchema("R", ["a"])
        assert RelationSchema("R", ["a"]) != RelationSchema("R", ["b"])


class TestDatabaseSchema:
    def test_declare_and_get(self):
        schema = DatabaseSchema()
        schema.declare("R", ["a", "b"])
        assert schema.get("R").arity == 2
        assert "R" in schema

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownRelationError):
            DatabaseSchema().get("missing")

    def test_re_adding_identical_schema_is_idempotent(self):
        schema = DatabaseSchema()
        first = schema.declare("R", ["a"])
        second = schema.declare("R", ["a"])
        assert first == second
        assert len(schema) == 1

    def test_conflicting_redeclaration_rejected(self):
        schema = DatabaseSchema()
        schema.declare("R", ["a"])
        with pytest.raises(DuplicateRelationError):
            schema.declare("R", ["a", "b"])

    def test_iteration_preserves_order(self):
        schema = DatabaseSchema()
        schema.declare("B", ["x"])
        schema.declare("A", ["y"])
        assert schema.names() == ("B", "A")

    def test_merge(self):
        left = DatabaseSchema([RelationSchema("R", ["a"])])
        right = DatabaseSchema([RelationSchema("S", ["b"])])
        merged = left.merge(right)
        assert set(merged.names()) == {"R", "S"}

    def test_merge_conflict(self):
        left = DatabaseSchema([RelationSchema("R", ["a"])])
        right = DatabaseSchema([RelationSchema("R", ["a", "b"])])
        with pytest.raises(DuplicateRelationError):
            left.merge(right)

    def test_copy_is_independent(self):
        schema = DatabaseSchema([RelationSchema("R", ["a"])])
        clone = schema.copy()
        clone.declare("S", ["b"])
        assert "S" not in schema
