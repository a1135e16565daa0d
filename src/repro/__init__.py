"""repro — multidimensional ontological contexts for data quality assessment.

A from-scratch reproduction of *"Extending Contexts with Ontologies for
Multidimensional Data Quality Assessment"* (Milani, Bertossi & Ariyan,
arXiv:1312.7373 / 2014).  The library provides:

* :mod:`repro.relational` — an in-memory relational substrate (schemas,
  instances with on-demand hash indexes, dictionary-encoded code columns,
  labeled nulls);
* :mod:`repro.engine` — the shared evaluation engine: indexed atom matching
  with selectivity-ordered joins, the naive reference matcher, and the
  :class:`~repro.engine.stats.EngineStats` instrumentation threaded through
  every evaluator (see ``docs/ARCHITECTURE.md``);
* :mod:`repro.datalog` — a Datalog± engine: TGDs/EGDs/negative constraints,
  the chase, syntactic class analysis (linear, guarded, sticky, weakly
  sticky, weakly acyclic), EGD separability, certain-answer query answering,
  the deterministic weakly-sticky algorithm of Section IV, and first-order
  query rewriting;
* :mod:`repro.md` — the extended Hurtado-Mendelzon multidimensional model
  (dimensions, categorical relations, navigation, validation);
* :mod:`repro.ontology` — MD ontologies in Datalog± (the paper's core
  contribution): dimensional rules/constraints of forms (1)-(4) and (10),
  compilation, weak-stickiness and separability certification, query
  answering with dimensional navigation;
* :mod:`repro.quality` — contexts, quality predicates, quality versions,
  clean query answering and quality measures (Section V);
* :mod:`repro.hospital` — the paper's running example, end to end;
* :mod:`repro.workloads` — synthetic multidimensional workload generators
  used by the benchmark harness.
"""

from . import datalog, engine, errors, md, ontology, quality, relational, reporting

__version__ = "0.1.0"

__all__ = [
    "datalog",
    "engine",
    "errors",
    "md",
    "ontology",
    "quality",
    "relational",
    "reporting",
    "__version__",
]
