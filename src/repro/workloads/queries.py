"""Query-workload helpers for benchmarks.

Small utilities to derive batches of conjunctive queries from a generated
workload or an arbitrary MD ontology: point queries on base relations,
roll-up queries on navigated relations, and boolean membership probes.  They
are deterministic so that pytest-benchmark timings are comparable across
runs.
"""

# orphan: ok — public query builders for generated workloads, kept as API; only tests call them

from __future__ import annotations

from typing import List, Sequence

from ..datalog.parser import parse_query
from ..datalog.rules import ConjunctiveQuery
from ..ontology.mdontology import MDOntology
from ..relational.values import value_sort_key


def point_queries(ontology: MDOntology, relation: str, attribute_index: int = 0,
                  limit: int = 10) -> List[ConjunctiveQuery]:
    """One query per distinct value at ``attribute_index`` of ``relation``.

    Each query asks for the remaining attributes of the tuples having that
    value — the MD analogue of a key lookup.
    """
    program = ontology.program()
    data = program.database.relation(relation)
    arity = data.schema.arity
    values = sorted({row[attribute_index] for row in data}, key=value_sort_key)[:limit]
    queries = []
    for value in values:
        variables = [f"V{i}" for i in range(arity)]
        head_vars = [v for i, v in enumerate(variables) if i != attribute_index]
        terms = [f"'{value}'" if i == attribute_index else variables[i] for i in range(arity)]
        queries.append(parse_query(
            f"?({', '.join(head_vars)}) :- {relation}({', '.join(terms)})."))
    return queries


def full_scan_query(ontology: MDOntology, relation: str) -> ConjunctiveQuery:
    """A query returning the whole (derived) extension of ``relation``."""
    program = ontology.program()
    arity = program.predicate_arities()[relation]
    variables = [f"V{i}" for i in range(arity)]
    return parse_query(f"?({', '.join(variables)}) :- {relation}({', '.join(variables)}).")


def boolean_probe(ontology: MDOntology, relation: str, row: Sequence) -> ConjunctiveQuery:
    """A boolean query asking whether ``row`` is (certainly) derivable."""
    terms = ", ".join(f"'{value}'" for value in row)
    return parse_query(f"? :- {relation}({terms}).")
