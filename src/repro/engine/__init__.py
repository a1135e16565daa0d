"""The shared evaluation engine: indexed storage access + matching.

Every evaluator of the reproduction — the chase, certain-answer QA, the
deterministic weakly-sticky solver and the quality pipeline — bottoms out
in matching rule/query atoms against a
:class:`~repro.relational.instance.DatabaseInstance`.  This package is the
single fast matching engine under all of them:

* :mod:`repro.engine.stats` — :class:`EngineStats`, the instrumentation
  object threaded through evaluations (rows scanned, index probes, triggers
  fired, rounds, ...);
* :mod:`repro.engine.matching` — the :class:`IndexedMatcher` (hash-index
  probes + selectivity-ordered joins) and the :class:`NaiveMatcher`
  (row-by-row reference oracle wrapping :mod:`repro.datalog.unify`);
* :mod:`repro.engine.columnar` — the :class:`ColumnarMatcher`, evaluating
  conjunctions set-at-a-time over interned-int column stores with cached
  specialized join functions.

Engine selection: evaluators take an ``engine=`` argument (``"indexed"``,
``"naive"`` or ``"columnar"``); when omitted they use ``"indexed"``.  Pass
``engine="naive"`` to run a call on the row-by-row reference when
debugging, or ``engine="columnar"`` for batch-heavy workloads.  See
``docs/ARCHITECTURE.md``.
"""

from .matching import (COLUMNAR, INDEXED, NAIVE, DeltaJoinPlan,
                       IndexedMatcher, Matcher, NaiveMatcher,
                       iter_delta_joins, matcher_for, resolve_engine)
from .stats import EngineStats
from .versioning import InstanceVersion, ReadTransaction, VersionStore

#: Session/snapshot names served lazily (PEP 562): those modules import the
#: datalog evaluators, which import this package — a top-level import here
#: would be circular.
_SESSION_EXPORTS = ("MaterializedProgram", "QuerySession", "UpdateResult",
                    "BatchAnswers", "MaintainedAnswers")
_SNAPSHOT_EXPORTS = ("save_program", "load_program", "load_extras",
                     "read_document")
#: served lazily too: the columnar module is only imported when used
_COLUMNAR_EXPORTS = ("ColumnarMatcher", "BindingTable")

__all__ = [
    "EngineStats",
    "Matcher", "IndexedMatcher", "NaiveMatcher",
    "INDEXED", "NAIVE", "COLUMNAR",
    *_COLUMNAR_EXPORTS,
    "matcher_for", "resolve_engine",
    "iter_delta_joins", "DeltaJoinPlan",
    "VersionStore", "InstanceVersion", "ReadTransaction",
    *_SESSION_EXPORTS,
    *_SNAPSHOT_EXPORTS,
]


def __getattr__(name):
    if name in _SESSION_EXPORTS:
        from . import session
        return getattr(session, name)
    if name in _SNAPSHOT_EXPORTS:
        from . import snapshot
        return getattr(snapshot, name)
    if name in _COLUMNAR_EXPORTS:
        from . import columnar
        return getattr(columnar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
