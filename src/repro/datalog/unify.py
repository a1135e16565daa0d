"""Substitutions, unification and homomorphisms (the naive reference).

Substitutions map variables to terms.  The chase needs *homomorphisms* from
rule bodies to instances (variables map to values, constants map to
themselves); resolution-based query answering (``DeterministicWSQAns``)
needs *unification* between query atoms and rule heads, where variables may
map to variables.

The ``match_atom``/``find_homomorphisms`` implementations here scan
relations row by row and join body atoms in the order given.  They are the
**reference oracle**: the production evaluators go through the indexed
matching engine of :mod:`repro.engine.matching`, which is differentially
tested against this module (see ``docs/ARCHITECTURE.md``).  Select the
naive path per call with ``engine="naive"``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..relational.instance import DatabaseInstance
from .atoms import Atom, Comparison
from .terms import Null, Term, Variable, term_value, to_term

Substitution = Dict[Variable, Term]


def apply_to_term(substitution: Substitution, term: Term) -> Term:
    """Apply ``substitution`` to a single term (with path compression)."""
    while isinstance(term, Variable) and term in substitution:
        term = substitution[term]
    return term


def apply_to_atom(substitution: Substitution, atom: Atom) -> Atom:
    """Apply ``substitution`` to every term of ``atom``."""
    return Atom(
        atom.predicate,
        [apply_to_term(substitution, term) for term in atom.terms],
        negated=atom.negated,
    )


def apply_to_atoms(substitution: Substitution, atoms: Iterable[Atom]) -> List[Atom]:
    """Apply ``substitution`` to a sequence of atoms."""
    return [apply_to_atom(substitution, atom) for atom in atoms]


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """Compose two substitutions: first ``inner``, then ``outer``."""
    result: Substitution = {
        variable: apply_to_term(outer, term) for variable, term in inner.items()
    }
    for variable, term in outer.items():
        result.setdefault(variable, term)
    return result


def unify_terms(left: Term, right: Term,
                substitution: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or ``None`` if unification fails.
    Constants and nulls unify only with themselves.
    """
    substitution = dict(substitution or {})
    left = apply_to_term(substitution, left)
    right = apply_to_term(substitution, right)
    if left == right:
        return substitution
    if isinstance(left, Variable):
        substitution[left] = right
        return substitution
    if isinstance(right, Variable):
        substitution[right] = left
        return substitution
    return None


def unify_atoms(left: Atom, right: Atom,
                substitution: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two atoms (same predicate and arity) term by term."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    current = dict(substitution or {})
    for lt, rt in zip(left.terms, right.terms):
        unified = unify_terms(lt, rt, current)
        if unified is None:
            return None
        current = unified
    return current


def match_atom_against_row(atom: Atom, row: Sequence[Any],
                           substitution: Optional[Substitution] = None
                           ) -> Optional[Substitution]:
    """Match ``atom`` against a stored fact row (one-way matching).

    Variables of the atom bind to row values; constants must equal the row
    value; labeled nulls in the atom must equal the row value.  Equal means
    identical or ``==``, the semantics of the relations' value indexes and
    of :func:`unify_terms` — so a NaN object matches itself here exactly
    when an index probe for it finds the row.  Returns the extended
    substitution or ``None``.
    """
    if len(row) != atom.arity:
        return None
    current = dict(substitution or {})
    for term, value in zip(atom.terms, row):
        term = apply_to_term(current, term)
        if isinstance(term, Variable):
            current[term] = to_term(value)
        else:
            expected = term_value(term)
            if expected is not value and expected != value:
                return None
    return current


def match_atom(atom: Atom, instance: DatabaseInstance,
               substitution: Optional[Substitution] = None) -> Iterator[Substitution]:
    """Yield every extension of ``substitution`` matching ``atom`` in ``instance``.

    Atoms over predicates that have no relation in ``instance`` simply have
    no matches.
    """
    if not instance.has_relation(atom.predicate):
        return
    relation = instance.relation(atom.predicate)
    for row in relation:
        matched = match_atom_against_row(atom, row, substitution)
        if matched is not None:
            yield matched


def evaluate_comparisons(comparisons: Sequence[Comparison],
                         substitution: Substitution) -> bool:
    """Evaluate ground comparisons under ``substitution``.

    A comparison whose sides are not both ground is treated as failed — by
    the time filters are applied all query variables should be bound.
    """
    for comparison in comparisons:
        left = apply_to_term(substitution, comparison.left)
        right = apply_to_term(substitution, comparison.right)
        if isinstance(left, Variable) or isinstance(right, Variable):
            return False
        if not comparison.evaluate(term_value(left), term_value(right)):
            return False
    return True


def comparison_bindings(comparisons: Sequence[Comparison],
                        substitution: Optional[Substitution] = None
                        ) -> Substitution:
    """Bindings implied by equality comparisons against a ground term.

    A comparison ``X = 'c'`` (or ``'c' = X``) forces every satisfying
    homomorphism to bind ``X`` to ``'c'``; seeding the substitution with
    that binding lets the matchers treat the position as ground — the
    indexed engine probes instead of scanning — while the final
    :func:`evaluate_comparisons` filter keeps the semantics unchanged
    (already-bound variables are left alone and checked there).
    """
    bound: Substitution = dict(substitution or {})
    for comparison in comparisons:
        if comparison.op not in ("=", "=="):
            continue
        left = apply_to_term(bound, comparison.left)
        right = apply_to_term(bound, comparison.right)
        if isinstance(left, Variable) and not isinstance(right, Variable):
            bound[left] = right
        elif isinstance(right, Variable) and not isinstance(left, Variable):
            bound[right] = left
    return bound


def find_homomorphisms(atoms: Sequence[Atom], instance: DatabaseInstance,
                       substitution: Optional[Substitution] = None,
                       comparisons: Sequence[Comparison] = (),
                       match=None) -> Iterator[Substitution]:
    """Yield every homomorphism from ``atoms`` into ``instance``.

    Positive atoms are matched left to right with backtracking via recursion;
    negated atoms are checked *after* all positive atoms are matched (safe
    negation: their variables must be bound by then).  Comparisons are
    applied last — but equality comparisons against a ground term seed the
    initial substitution (:func:`comparison_bindings`), so matchers see
    those positions as bound from the start.

    ``match`` optionally substitutes the per-atom matcher (same signature as
    :func:`match_atom`); the engine's :class:`~repro.engine.matching.NaiveMatcher`
    passes its counting wrapper here so the negation/comparison semantics
    live only in this module.
    """
    positive = [atom for atom in atoms if not atom.negated]
    negative = [atom for atom in atoms if atom.negated]
    match = match if match is not None else match_atom
    if comparisons:
        substitution = comparison_bindings(comparisons, substitution)

    def extend(index: int, current: Substitution) -> Iterator[Substitution]:
        if index == len(positive):
            for negated in negative:
                grounded = apply_to_atom(current, negated.positive())
                if not grounded.is_ground():
                    # Unsafe negation: unbound variable under negation never
                    # blocks — treat as satisfied only if no fact matches any
                    # grounding, which we approximate by requiring groundness.
                    return
                if any(isinstance(term, Null) for term in grounded.terms):
                    # Cautious negation over labeled nulls: a null stands for
                    # some unknown value, so ¬P(…null…) is not *certainly*
                    # true and the (certain) match is rejected.  This keeps
                    # referential constraints of form (1) from firing on
                    # members invented by form-(10) downward navigation.
                    return
                if instance.has_relation(grounded.predicate) and \
                        grounded.to_fact_row() in instance.relation(grounded.predicate):
                    return
            if evaluate_comparisons(comparisons, current):
                yield current
            return
        for extended in match(positive[index], instance, current):
            yield from extend(index + 1, extended)

    yield from extend(0, dict(substitution or {}))


def has_homomorphism(atoms: Sequence[Atom], instance: DatabaseInstance,
                     substitution: Optional[Substitution] = None) -> bool:
    """``True`` iff at least one homomorphism exists."""
    for _ in find_homomorphisms(atoms, instance, substitution):
        return True
    return False


def freeze_atom(atom: Atom, substitution: Substitution) -> Atom:
    """Apply a substitution and fail loudly if the atom stays non-ground."""
    grounded = apply_to_atom(substitution, atom)
    if not grounded.is_ground():
        missing = [t for t in grounded.terms if isinstance(t, Variable)]
        raise ValueError(f"atom {atom} not grounded; unbound variables: {missing}")
    return grounded
