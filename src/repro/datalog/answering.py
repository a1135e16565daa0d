"""Certain-answer conjunctive query answering via the chase.

For Datalog± programs whose chase terminates (which includes the paper's MD
ontologies, cf. Section III), the certain answers to a conjunctive query are
obtained by

1. chasing the extensional database with the TGDs (and EGDs), and
2. evaluating the query over the chased instance, keeping only the answer
   tuples made of **constants** (tuples containing labeled nulls are not
   certain: the nulls stand for unknown values).

Boolean queries are certain iff the query body has at least one match in the
chased instance.  This module is the reference oracle that the deterministic
weakly-sticky algorithm (:mod:`repro.datalog.ws_qa`) and the first-order
rewriting (:mod:`repro.datalog.rewriting`) are validated against.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Optional, Sequence, Tuple

from ..engine.matching import Matcher, matcher_for
from ..engine.stats import EngineStats
from ..relational.instance import DatabaseInstance
from ..relational.values import Null
from .atoms import Atom
from .chase import ChaseResult
from .program import DatalogProgram
from .rules import ConjunctiveQuery
from .terms import term_value
from .unify import apply_to_term

AnswerTuple = Tuple[Any, ...]

#: Support counts of a query's answers: each projected answer row (which may
#: contain labeled nulls) mapped to the number of distinct body valuations
#: (homomorphisms) deriving it.  This is the plan-shaped representation the
#: session layer maintains incrementally: an insert/delete delta changes the
#: counts by ±1 per affected valuation, and a row is an answer iff its count
#: is positive — no re-join needed.
AnswerCounts = Dict[AnswerTuple, int]


def evaluate_query_counts(query: ConjunctiveQuery, instance: DatabaseInstance,
                          engine: Optional[str] = None,
                          stats: Optional[EngineStats] = None,
                          matcher: Optional[Matcher] = None,
                          plan: Optional[Sequence[Atom]] = None) -> AnswerCounts:
    """Answer support counts of ``query`` over ``instance``.

    Each homomorphism from the body into the instance is a distinct
    valuation of the body variables (set semantics: distinct matched rows
    imply distinct valuations), so counting homomorphisms per projected
    answer row gives the exact derivation multiset counting-based view
    maintenance needs.  ``matcher`` (with an optional precomputed ``plan``,
    replayed with ``preordered=True``) lets session callers reuse their
    cached plumbing; otherwise a matcher is built for ``engine``.
    """
    if matcher is None:
        matcher = matcher_for(engine, stats)
    atoms: Sequence[Atom] = query.body if plan is None else plan
    batch = getattr(matcher, "answer_counts", None)
    if batch is not None:
        # The columnar engine projects and counts in batch, never
        # materializing substitution dicts; ``None`` means it could not
        # take the query (variable-valued seed) and we fall through.
        counted = batch(atoms, instance, query.answer_variables,
                        comparisons=query.comparisons,
                        preordered=plan is not None)
        if counted is not None:
            return counted
    counts: AnswerCounts = {}
    for homomorphism in matcher.find_homomorphisms(
            atoms, instance, comparisons=query.comparisons,
            preordered=plan is not None):
        row = tuple(
            term_value(apply_to_term(homomorphism, variable))
            for variable in query.answer_variables
        )
        counts[row] = counts.get(row, 0) + 1
    return counts


def answer_sort_key(row: AnswerTuple) -> Tuple[str, ...]:
    """The canonical sort key of an answer row: its values as strings."""
    return tuple(map(str, row))


def _answer_rows(counts: AnswerCounts, allow_nulls: bool):
    return counts if allow_nulls else \
        [row for row in counts
         if not any(isinstance(value, Null) for value in row)]


def rows_from_counts(counts: AnswerCounts,
                     allow_nulls: bool = False) -> Tuple[AnswerTuple, ...]:
    """The (sorted, deduplicated) answer rows of a support-count multiset.

    ``allow_nulls=False`` applies the certain-answer semantics: rows
    containing labeled nulls are dropped.  Returns an immutable tuple — the
    session layer hands it out on cache hits without copying.
    """
    return tuple(sorted(_answer_rows(counts, allow_nulls),
                        key=answer_sort_key))


def sorted_rows_and_keys(counts: AnswerCounts, allow_nulls: bool = False
                         ) -> Tuple[Tuple[AnswerTuple, ...],
                                    Tuple[Tuple[str, ...], ...]]:
    """:func:`rows_from_counts` plus the parallel tuple of sort keys.

    One key per row, built once, and one stable sort on the key alone, so
    rows whose keys tie (``1`` and ``"1"``) keep the order of ``counts``,
    exactly as in :func:`rows_from_counts`.  The session layer keeps the
    keys to patch the sorted rows by bisection.
    """
    rows = _answer_rows(counts, allow_nulls)
    keyed = sorted(zip(map(answer_sort_key, rows), rows), key=itemgetter(0))
    return (tuple(map(itemgetter(1), keyed)),
            tuple(map(itemgetter(0), keyed)))


def evaluate_query(query: ConjunctiveQuery, instance: DatabaseInstance,
                   allow_nulls: bool = False, engine: Optional[str] = None,
                   stats: Optional[EngineStats] = None) -> Tuple[AnswerTuple, ...]:
    """Evaluate ``query`` over ``instance``.

    With ``allow_nulls=False`` (the certain-answer semantics) only answer
    tuples consisting entirely of constants are returned.  With
    ``allow_nulls=True`` the raw matches are returned, which is what the
    quality-version materialization needs (nulls stand for unknown
    non-categorical values and are kept in quality relations, cf. Example 5).

    Matching goes through the shared engine (``engine="indexed"`` by
    default; pass ``"naive"`` for the row-scanning reference).  An optional
    ``stats`` object accumulates the matching work done.  Answers are an
    immutable, canonically sorted tuple (shared freely by caches).
    """
    return rows_from_counts(
        evaluate_query_counts(query, instance, engine=engine, stats=stats),
        allow_nulls=allow_nulls)


def evaluate_boolean_query(query: ConjunctiveQuery, instance: DatabaseInstance,
                           engine: Optional[str] = None,
                           stats: Optional[EngineStats] = None) -> bool:
    """``True`` iff the (boolean) query body has a match in ``instance``."""
    matcher = matcher_for(engine, stats)
    for _ in matcher.find_homomorphisms(query.body, instance,
                                        comparisons=query.comparisons):
        return True
    return False


def certain_answers(program: DatalogProgram, query: ConjunctiveQuery,
                    max_steps: int = 100_000,
                    chase_result: Optional[ChaseResult] = None,
                    engine: Optional[str] = None) -> Tuple[AnswerTuple, ...]:
    """Certain answers of ``query`` over ``program`` via the chase.

    A pre-computed ``chase_result`` may be supplied to amortize the chase
    across many queries (the benchmark harness does this).  Otherwise this
    is a thin wrapper over a one-shot materialization session
    (:mod:`repro.engine.session`); workloads that chase once, then answer
    many queries while the data changes, should hold a
    :class:`~repro.engine.session.MaterializedProgram` +
    :class:`~repro.engine.session.QuerySession` directly.  ``engine``
    selects the matching engine for both the chase and the evaluation.
    """
    if chase_result is None:
        from ..engine.session import MaterializedProgram
        materialized = MaterializedProgram(program, engine=engine,
                                           max_steps=max_steps,
                                           record_provenance=False)
        return materialized.certain_answers(query)
    return evaluate_query(query, chase_result.instance, allow_nulls=False,
                          engine=engine)


def certainly_holds(program: DatalogProgram, query: ConjunctiveQuery,
                    max_steps: int = 100_000,
                    chase_result: Optional[ChaseResult] = None,
                    engine: Optional[str] = None) -> bool:
    """Certain answer of a boolean query over ``program`` via the chase.

    Thin wrapper over a one-shot session when no ``chase_result`` is given
    (see :func:`certain_answers`).
    """
    if chase_result is None:
        from ..engine.session import MaterializedProgram
        materialized = MaterializedProgram(program, engine=engine,
                                           max_steps=max_steps,
                                           record_provenance=False)
        return materialized.holds(query)
    return evaluate_boolean_query(query, chase_result.instance, engine=engine)
