"""The lint pass's un-floored wall-clock assertion check, and its
unpinned-published-version-read check (tools/lint.py)."""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from lint import lint_file  # noqa: E402


def _wall_clock_issues(tmp_path, source: str):
    # The check only applies under tests/ or benchmarks/ roots.
    target = tmp_path / "tests" / "test_sample.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return [issue for issue in lint_file(target) if "wall-clock" in issue]


def test_flags_bare_constant_comparison(tmp_path):
    issues = _wall_clock_issues(tmp_path, (
        "import time\n"
        "def test_x():\n"
        "    start = time.monotonic()\n"
        "    elapsed = time.monotonic() - start\n"
        "    assert elapsed < 10.0\n"))
    assert len(issues) == 1 and ":5:" in issues[0]


def test_taint_flows_through_assignments(tmp_path):
    issues = _wall_clock_issues(tmp_path, (
        "import time\n"
        "def test_x():\n"
        "    start = time.perf_counter()\n"
        "    end = time.perf_counter()\n"
        "    delta = end - start\n"
        "    doubled = delta * 2\n"
        "    assert doubled < 3\n"))
    assert len(issues) == 1


def test_floored_budget_passes(tmp_path):
    issues = _wall_clock_issues(tmp_path, (
        "import time\n"
        "def test_x():\n"
        "    budget = max(10.0, 3 * 0.8)\n"
        "    start = time.monotonic()\n"
        "    elapsed = time.monotonic() - start\n"
        "    assert elapsed < budget\n"))
    assert issues == []


def test_suppression_comment_passes(tmp_path):
    issues = _wall_clock_issues(tmp_path, (
        "import time\n"
        "def test_x():\n"
        "    elapsed = time.time() - 0\n"
        "    # wall-clock: ok — smoke bound, orders of magnitude slack\n"
        "    assert elapsed < 600\n"))
    assert issues == []


def test_non_timing_constants_pass(tmp_path):
    issues = _wall_clock_issues(tmp_path, (
        "def test_x():\n"
        "    count = 4\n"
        "    assert count < 10\n"))
    assert issues == []


def test_only_tests_and_benchmarks_are_checked(tmp_path):
    source = ("import time\n"
              "start = time.monotonic()\n"
              "elapsed = time.monotonic() - start\n"
              "assert elapsed < 1.0\n")
    target = tmp_path / "src" / "module.py"
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    assert [issue for issue in lint_file(target)
            if "wall-clock" in issue] == []


# -- unpinned reads of the latest published version ----------------------------


def _unpinned_issues(tmp_path, source: str, name: str = "repro/quality/x.py"):
    target = tmp_path / "src" / name  # the check only applies under src/
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return [issue for issue in lint_file(target) if "unpinned read" in issue]


def test_flags_unpinned_latest_reads_in_src(tmp_path):
    issues = _unpinned_issues(tmp_path, (
        "def f(materialized, store):\n"
        "    a = materialized.versions.latest().instance\n"
        "    b = store.latest_instance()\n"
        "    c = store.latest().version\n"  # no relation reached: fine
        "    return a, b, c\n"))
    assert [issue.split(":")[1] for issue in issues] == ["2", "3"]


def test_writer_only_annotation_and_versioning_module_pass(tmp_path):
    annotated = (
        "def f(store):\n"
        "    # unpinned: writer-only\n"
        "    return store.latest_instance()\n")
    assert _unpinned_issues(tmp_path, annotated) == []
    bare = "def f(store):\n    return store.latest().instance\n"
    assert _unpinned_issues(tmp_path, bare, "repro/engine/versioning.py") == []
    outside = tmp_path / "tests" / "test_y.py"
    outside.parent.mkdir(parents=True, exist_ok=True)
    outside.write_text(bare, encoding="utf-8")
    assert [i for i in lint_file(outside) if "unpinned read" in i] == []
