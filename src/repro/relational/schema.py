"""Relation and database schemas.

A :class:`RelationSchema` is a relation name plus an ordered list of
attribute names; a :class:`DatabaseSchema` is a named collection of relation
schemas.  Schemas are immutable value objects: the rest of the library
(instances, the Datalog± engine, the MD model) treats them as keys and never
mutates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..errors import ArityError, DuplicateRelationError, SchemaError, UnknownRelationError


@dataclass(frozen=True)
class RelationSchema:
    """Schema of a single relation: a name and an ordered attribute tuple.

    Attributes must be unique within a relation.  Equality and hashing are
    structural, so two schemas with the same name and attributes are
    interchangeable.
    """

    name: str
    attributes: Tuple[str, ...]

    def __init__(self, name: str, attributes: Sequence[str]):
        if not name:
            raise SchemaError("relation name must be a non-empty string")
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"relation {name!r} has duplicate attributes: {attrs}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def position_of(self, attribute: str) -> int:
        """Return the 0-based position of ``attribute``.

        Raises :class:`SchemaError` if the attribute does not exist.
        """
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"known attributes: {self.attributes}"
            ) from None

    def check_arity(self, values: Sequence) -> None:
        """Raise :class:`ArityError` unless ``values`` matches the arity."""
        if len(values) != self.arity:
            raise ArityError(
                f"relation {self.name!r} has arity {self.arity}, "
                f"got {len(values)} values: {tuple(values)!r}"
            )

    def project(self, attributes: Sequence[str], name: Optional[str] = None) -> "RelationSchema":
        """Return the schema obtained by keeping only ``attributes``."""
        for attribute in attributes:
            if attribute not in self.attributes:
                raise SchemaError(
                    f"cannot project {self.name!r} on unknown attribute {attribute!r}"
                )
        return RelationSchema(name or self.name, tuple(attributes))

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


class DatabaseSchema:
    """A named collection of relation schemas.

    Supports registration, lookup by name, iteration in insertion order and
    structural equality.  Lookup is case-sensitive.
    """

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._relations: Dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: RelationSchema) -> RelationSchema:
        """Register ``relation``; reject duplicates with a different shape.

        Re-adding an identical schema is a no-op (idempotent), which makes it
        convenient for compilers that assemble schemas from several sources.
        """
        existing = self._relations.get(relation.name)
        if existing is not None:
            if existing == relation:
                return existing
            raise DuplicateRelationError(
                f"relation {relation.name!r} already registered with attributes "
                f"{existing.attributes}, cannot re-register with {relation.attributes}"
            )
        self._relations[relation.name] = relation
        return relation

    def declare(self, name: str, attributes: Sequence[str]) -> RelationSchema:
        """Create and register a relation schema in one step."""
        return self.add(RelationSchema(name, attributes))

    def get(self, name: str) -> RelationSchema:
        """Return the schema registered under ``name``.

        Raises :class:`UnknownRelationError` when absent.
        """
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"unknown relation {name!r}; known relations: {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> Tuple[str, ...]:
        """Relation names, in registration order."""
        return tuple(self._relations)

    def copy(self) -> "DatabaseSchema":
        """Return a shallow copy (schemas themselves are immutable)."""
        return DatabaseSchema(self._relations.values())

    def merge(self, other: "DatabaseSchema") -> "DatabaseSchema":
        """Return a new schema containing relations of both operands.

        Conflicting declarations (same name, different attributes) raise
        :class:`DuplicateRelationError`.
        """
        merged = self.copy()
        for relation in other:
            merged.add(relation)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return dict(self._relations) == dict(other._relations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(r) for r in self)
        return f"DatabaseSchema({inner})"
