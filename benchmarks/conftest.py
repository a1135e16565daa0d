"""Shared fixtures for the benchmark harness.

Each ``test_eXX_*.py`` module regenerates one experiment derived from the
paper's tables, figures, worked examples and analytical claims (the engine
layering behind them is described in docs/ARCHITECTURE.md).  Timings are
collected by pytest-benchmark;
the reproduced values (the "rows" of each paper artifact) are attached to
``benchmark.extra_info`` so they appear in the benchmark report and can be
compared against the expectations recorded in EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-enable --benchmark-only

(``--benchmark-enable`` overrides the ``--benchmark-disable`` that the
root ``pytest.ini`` sets for the test suite.)
"""

from __future__ import annotations

import pytest

from repro.hospital import HospitalScenario, build_ontology, build_upward_only_ontology
from repro.workloads import WorkloadSpec, generate_workload


@pytest.fixture(scope="session")
def scenario() -> HospitalScenario:
    """The paper's running example (rules (7)-(9), constraint (6))."""
    return HospitalScenario()


@pytest.fixture(scope="session")
def constrained_ontology():
    """The hospital ontology with Example 1's closure constraints enabled."""
    return build_ontology(include_closure_constraints=True)


@pytest.fixture(scope="session")
def upward_only_ontology():
    """The upward-navigating fragment (rule (7) only) used for FO rewriting."""
    return build_upward_only_ontology()


@pytest.fixture(scope="session")
def scaling_specs():
    """The |D| sweep used by the Section-IV scaling experiments."""
    base = WorkloadSpec(dimensions=1, depth=3, fanout=3, top_members=2,
                        base_relations=1, upward_rules=True, downward_rules=False,
                        seed=13)
    return [base.scaled(tuples_per_relation=n) for n in (50, 100, 200)]


@pytest.fixture(scope="session")
def scaling_workloads(scaling_specs):
    """Pre-generated workloads for the |D| sweep (generation not timed)."""
    return [generate_workload(spec) for spec in scaling_specs]


@pytest.fixture(scope="session")
def mixed_workload():
    """A workload with both upward and downward rules (ablations, E10)."""
    return generate_workload(WorkloadSpec(
        dimensions=2, depth=3, fanout=2, top_members=2, base_relations=1,
        tuples_per_relation=60, assessment_tuples=80, upward_rules=True,
        downward_rules=True, seed=21))
