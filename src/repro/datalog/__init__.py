"""A from-scratch Datalog± engine.

The engine provides the ontological language the paper's multidimensional
contexts are written in: TGDs with existential quantification, EGDs,
negative constraints, the chase, syntactic class analysis (linear, guarded,
sticky, weakly sticky, weakly acyclic), EGD separability, chase-based
certain-answer query answering, the deterministic weakly-sticky
query-answering algorithm of Section IV, and first-order (UCQ) query
rewriting for non-recursive rule sets.
"""

from .terms import Constant, Null, NullFactory, Variable
from .atoms import Atom, Comparison
from .rules import EGD, ConjunctiveQuery, NegativeConstraint, TGD, plain_rule
from .program import DatalogProgram
from .parser import parse_atom, parse_program, parse_query, parse_rule, parse_statements
from .chase import ChaseEngine, ChaseResult, ConstraintViolation, chase, OBLIVIOUS, RESTRICTED
from .classes import (ClassReport, classify, compute_sticky_marking, is_guarded,
                      is_linear, is_non_recursive, is_sticky, is_weakly_acyclic,
                      is_weakly_sticky)
from .graphs import PositionGraph, PredicateGraph, build_position_graph, build_predicate_graph
from .separability import (SeparabilityReport, check_separability_empirically,
                           egd_separability_report, null_prone_positions)
from .answering import (certain_answers, certainly_holds, evaluate_boolean_query,
                        evaluate_query)
from .ws_qa import (DeterministicWSQAns, ResolutionStatistics, deterministic_ws_answers,
                    deterministic_ws_holds)
from .rewriting import QueryRewriter, Rewriting, rewrite_and_answer

__all__ = [
    "Constant", "Null", "NullFactory", "Variable",
    "Atom", "Comparison",
    "EGD", "ConjunctiveQuery", "NegativeConstraint", "TGD", "plain_rule",
    "DatalogProgram",
    "parse_atom", "parse_program", "parse_query", "parse_rule", "parse_statements",
    "ChaseEngine", "ChaseResult", "ConstraintViolation", "chase", "OBLIVIOUS", "RESTRICTED",
    "ClassReport", "classify", "compute_sticky_marking", "is_guarded", "is_linear",
    "is_non_recursive", "is_sticky", "is_weakly_acyclic", "is_weakly_sticky",
    "PositionGraph", "PredicateGraph", "build_position_graph", "build_predicate_graph",
    "SeparabilityReport", "check_separability_empirically", "egd_separability_report",
    "null_prone_positions",
    "certain_answers", "certainly_holds", "evaluate_boolean_query", "evaluate_query",
    "DeterministicWSQAns", "ResolutionStatistics", "deterministic_ws_answers",
    "deterministic_ws_holds",
    "QueryRewriter", "Rewriting", "rewrite_and_answer",
]
