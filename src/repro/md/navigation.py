"""Relation-level dimensional navigation: roll-up and drill-down.

These helpers implement the two navigation directions of Section I/III at
the level of whole categorical relations, independently of the Datalog±
machinery — they are the "procedural" counterparts of dimensional rules of
form (4) and are used by the MD-model validation code, by examples, and as
an independent oracle in the test-suite (the chase over the compiled
ontology must produce the same tuples that direct navigation produces).

* :func:`roll_up_relation` re-expresses a categorical relation at a higher
  category (e.g. ``PatientWard`` at ``Ward`` level → ``PatientUnit`` at
  ``Unit`` level), as in rule (7) of the paper.
* :func:`drill_down_relation` re-expresses it at a lower category, producing
  one tuple per child member and filling unknown non-categorical values with
  fresh labeled nulls, as in rule (8)/Example 5.
"""

# orphan: ok — the direct-navigation oracle the end-to-end tests hold the chase to

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..errors import NavigationError
from ..relational.instance import Relation
from ..relational.values import NullFactory
from .instance import DimensionInstance, MDInstance
from .relations import CategoricalAttribute, CategoricalRelationSchema


def _navigated_schema(source: CategoricalRelationSchema, attribute: str,
                      target_category: str, new_name: str,
                      extra_non_categorical: Sequence[str] = ()) -> CategoricalRelationSchema:
    """Schema of the navigated relation: same shape, retargeted attribute."""
    categorical = []
    for attr in source.categorical:
        if attr.name == attribute:
            categorical.append(CategoricalAttribute(attr.name, attr.dimension, target_category))
        else:
            categorical.append(attr)
    return CategoricalRelationSchema(
        new_name, categorical, tuple(source.non_categorical) + tuple(extra_non_categorical))


def roll_up_relation(md: MDInstance, relation_name: str, attribute: str,
                     target_category: str, new_name: Optional[str] = None) -> Relation:
    """Upward navigation of one categorical attribute of a relation.

    Every tuple whose ``attribute`` value rolls up to one or more members of
    ``target_category`` produces one tuple per such ancestor (for strict
    dimensions this is exactly one).  Tuples whose member has no ancestor in
    the target category are dropped — there is nothing to navigate to.
    """
    schema = md.relation_schema(relation_name)
    source = md.relation(relation_name)
    cat_attr = schema.categorical_attribute(attribute)
    dimension = md.dimension(cat_attr.dimension)
    if not dimension.schema.is_above(target_category, cat_attr.category):
        raise NavigationError(
            f"cannot roll up {relation_name}.{attribute} from {cat_attr.category!r} "
            f"to {target_category!r}: not an ancestor category in dimension "
            f"{cat_attr.dimension!r}")
    result_name = new_name or f"{relation_name}_{target_category}"
    result_schema = _navigated_schema(schema, attribute, target_category, result_name)
    result = Relation(result_schema.to_relation_schema())
    position = schema.position_of(attribute)
    for row in source:
        member = row[position]
        for ancestor in dimension.roll_up(member, cat_attr.category, target_category):
            new_row = list(row)
            new_row[position] = ancestor
            result.add(new_row)
    return result


def drill_down_relation(md: MDInstance, relation_name: str, attribute: str,
                        target_category: str, new_name: Optional[str] = None,
                        extra_non_categorical: Sequence[str] = (),
                        null_factory: Optional[NullFactory] = None) -> Relation:
    """Downward navigation of one categorical attribute of a relation.

    Every tuple produces one tuple per descendant member in the target
    category (a unit drills down to *all* its wards, cf. Example 2).  When
    the navigated relation has additional non-categorical attributes that the
    source cannot provide (``extra_non_categorical``, e.g. the ``Shift``
    attribute in rule (8)), each generated tuple gets a fresh labeled null
    for them, mirroring the existential variables of the dimensional rule.
    """
    schema = md.relation_schema(relation_name)
    source = md.relation(relation_name)
    cat_attr = schema.categorical_attribute(attribute)
    dimension = md.dimension(cat_attr.dimension)
    if not dimension.schema.is_above(cat_attr.category, target_category):
        raise NavigationError(
            f"cannot drill down {relation_name}.{attribute} from {cat_attr.category!r} "
            f"to {target_category!r}: not a descendant category in dimension "
            f"{cat_attr.dimension!r}")
    nulls = null_factory if null_factory is not None else NullFactory("d")
    result_name = new_name or f"{relation_name}_{target_category}"
    result_schema = _navigated_schema(schema, attribute, target_category, result_name,
                                      extra_non_categorical)
    result = Relation(result_schema.to_relation_schema())
    position = schema.position_of(attribute)
    for row in source:
        member = row[position]
        for descendant in dimension.drill_down(member, cat_attr.category, target_category):
            new_row = list(row)
            new_row[position] = descendant
            new_row.extend(nulls.fresh() for _ in extra_non_categorical)
            result.add(new_row)
    return result


def members_reachable(dimension: DimensionInstance, member: Any,
                      from_category: str, to_category: str) -> Tuple[str, ...]:
    """Reachable members in ``to_category`` from ``member``, upward or downward.

    A convenience used by reports: picks the navigation direction from the
    relative position of the two categories in the schema.
    """
    if from_category == to_category:
        return (member,) if dimension.has_member(from_category, member) else ()
    if dimension.schema.is_above(to_category, from_category):
        found = dimension.roll_up(member, from_category, to_category)
    elif dimension.schema.is_above(from_category, to_category):
        found = dimension.drill_down(member, from_category, to_category)
    else:
        raise NavigationError(
            f"categories {from_category!r} and {to_category!r} are not comparable "
            f"in dimension {dimension.schema.name!r}")
    return tuple(sorted(found, key=str))
