"""The lint pass's orphan-module check (tools/lint.py): a ``src/repro``
module nothing but its package ``__init__`` or the tests imports is
flagged."""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from lint import lint_file  # noqa: E402


def _write(root: Path, files: dict) -> None:
    for name, source in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def _orphans(root: Path, files: dict):
    _write(root, {"src/repro/__init__.py": "", "src/repro/pkg/__init__.py": "",
                  **files})
    return sorted(issue.split("'")[1]
                  for path in sorted((root / "src").rglob("*.py"))
                  for issue in lint_file(path) if "orphan module" in issue)


def test_flags_module_only_its_init_and_tests_import(tmp_path):
    assert _orphans(tmp_path, {
        "src/repro/pkg/__init__.py": "from .dead import f\n__all__ = ['f']\n",
        "src/repro/pkg/dead.py": "def f():\n    return 1\n",
        "tests/test_dead.py": "from repro.pkg import f\nfrom repro.pkg.dead import f\n",
    }) == ["repro.pkg.dead"]


def test_suppressed_orphan_passes(tmp_path):
    assert _orphans(tmp_path, {
        "src/repro/pkg/kept.py": ("# orphan: ok — oracle the tests compare against\n"
                                  "def f():\n    return 1\n"),
    }) == []


def test_importers_that_count(tmp_path):
    assert _orphans(tmp_path, {
        # a sibling's relative import
        "src/repro/pkg/used.py": "X = 1\n",
        "src/repro/pkg/user.py": "from .used import X\n",
        # a name re-exported by the package __init__ and imported from it
        "src/repro/other/__init__.py": "from .exported import Y\n",
        "src/repro/other/exported.py": "Y = 2\n",
        "src/repro/pkg/consumer.py": "from ..other import Y\nZ = Y\n",
        # a lazy import inside a function of the package __init__
        "src/repro/lazy/__init__.py": ("def load():\n"
                                       "    from .plugin import P\n"
                                       "    return P\n"),
        "src/repro/lazy/plugin.py": "P = 3\n",
        # bench/, benchmarks/ and examples/ count
        "src/repro/pkg/benched.py": "B = 4\n",
        "bench/run.py": "import repro.pkg.benched\n",
        "src/repro/pkg/shown.py": "S = 5\n",
        "examples/demo.py": "from repro.pkg import shown\n",
        # an entry point run with ``python -m``
        "src/repro/pkg/daemon.py": "if __name__ == '__main__':\n    pass\n",
    }) == ["repro.pkg.consumer", "repro.pkg.user"]
