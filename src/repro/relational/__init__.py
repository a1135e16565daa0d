"""Relational substrate: values, schemas, instances and their code columns.

This package is the storage layer that everything else in the library is
grounded in.  It is intentionally free of any Datalog± or
multidimensional notions; those live in :mod:`repro.datalog` and
:mod:`repro.md` respectively and *use* this package.  Evaluation — atom
matching, joins, the chase — lives in :mod:`repro.engine` and
:mod:`repro.datalog`.
"""

from .values import Null, NullFactory, is_ground, is_null
from .schema import DatabaseSchema, RelationSchema
from .instance import DatabaseInstance, Relation

__all__ = [
    "Null",
    "NullFactory",
    "is_ground",
    "is_null",
    "DatabaseSchema",
    "RelationSchema",
    "DatabaseInstance",
    "Relation",
]
