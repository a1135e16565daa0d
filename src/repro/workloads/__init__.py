"""Synthetic multidimensional workloads for the benchmark harness."""

from .driver import (ClientTarget, OpSchedule, RunReport, ScenarioBinding,
    ScheduledOp, SessionTarget, TrafficSpec, compile_schedule, run_schedule)
from .generator import (GeneratedWorkload, WorkloadSpec, derive_rng,
    generate_workload)
from .updates import UpdateStep, generate_update_stream

__all__ = [
    "GeneratedWorkload",
    "WorkloadSpec",
    "derive_rng",
    "generate_workload",
    "UpdateStep",
    "generate_update_stream",
    "ClientTarget",
    "OpSchedule",
    "RunReport",
    "ScenarioBinding",
    "ScheduledOp",
    "SessionTarget",
    "TrafficSpec",
    "compile_schedule",
    "run_schedule",
]
