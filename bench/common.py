"""Shared by every bench module: tiers, paths, host facts, child processes."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: the production engine (ROADMAP); every workload passes it explicitly
ENGINE = "columnar"

#: sensornet sizes.  The scenario data is pinned to spec seed 0 at every
#: tier so counts can be checked and timings do not move with ``--seed``
#: (a different spec seed changes the chase by +-5 % and the full quality
#: answer by +-10 %); ``--seed`` drives the op lists instead.
TIERS: Dict[str, Dict[str, int]] = {
    "S": dict(readings=200),
    "M": dict(buildings=4, floors_per_building=4, rooms_per_floor=5,
              sensors_per_room=5, days=30, inspections=60, readings=20_000),
    "L": dict(buildings=8, floors_per_building=5, rooms_per_floor=8,
              sensors_per_room=8, days=30, inspections=200,
              readings=100_000),
}

#: the end-to-end metrics whose issue names only some workloads can
#: report: name -> (unit, bound).  ``BENCHMARK.json`` has to use
#: names every workload reports, so its ``typical_ms`` / ``tail_ms`` /
#: ``second_ms`` are these under another name (``bench/README.md`` has the
#: table) and its bound is the loosest workload's; an untraced run prints
#: both, ``bench/aa.py`` checks both.
NAMED = {
    "assess_s": ("s", 0.25),
    "write_p50_ms": ("ms", 0.25),
    "write_p95_ms": ("ms", 0.25),
    "assess_p50_ms": ("ms", 0.15),
    "read_p50_ms": ("ms", 0.25),
    "read_p95_ms": ("ms", 0.20),
    "stall_ms": ("ms", 0.25),
    "restart_s": ("s", 0.20),
    "disk_bytes_per_fact": ("B", 0.05),
}


def build_tier(tier: str):
    """The pinned sensornet scenario of ``tier``."""
    from repro.scenarios import build_scenario
    from repro.sensornet.data import SensorNetSpec
    return build_scenario("sensornet", spec=SensorNetSpec(**TIERS[tier]))


def child_env() -> Dict[str, str]:
    """Environment for bench subprocesses: they import ``bench`` and
    ``repro`` from this checkout, wherever the parent was started."""
    env = dict(os.environ)
    parts = [str(ROOT), str(SRC)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def child_command(module: str, *args: object) -> List[str]:
    return [sys.executable, "-m", f"bench.{module}", *map(str, args)]


def peak_rss_mb(pid: object = "self") -> float:
    """VmHWM of a live process, in MB (0.0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _filesystem_of(path: str) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _device, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def fingerprint(temp_dir: str) -> Dict[str, object]:
    """Where a result was measured: enough to tell two hosts apart."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "temp_fs": _filesystem_of(os.path.realpath(temp_dir)),
            "commit": commit}
