#!/usr/bin/env python
"""Dependency-free lint pass: unused imports, duplicate imports, bare prints.

The container has no third-party linter, so this covers the checks the repo
actually relies on in CI:

* **unused imports** — a name imported at module level that is never read
  anywhere in the module (attribute roots count; ``__all__`` strings count;
  names re-exported by ``__init__`` modules via ``__all__`` count);
* **duplicate imports** — the same name imported twice at module level;
* **per-tuple loops in engine hot sections** — a ``for`` statement binding
  a ``row`` (or iterating ``.rows()``) inside the matching-engine modules
  and the chase trigger-application paths (``engine/matching.py``,
  ``engine/columnar.py``, ``engine/triggers.py``, ``datalog/chase.py``,
  ``datalog/seminaive.py``, ``relational/csvio.py``): the columnar engine
  and the batched trigger path exist so that relation-sized iteration
  happens in batch kernels, not in Python loops.  Loops that are genuinely
  per-tuple-sized (delta rows, result rows) or deliberately row-at-a-time
  (the naive oracle, batch-ineligible fallbacks) carry a
  ``# per-tuple: ok — <reason>`` comment on the loop line or the line
  above, which suppresses the check;
* **un-floored wall-clock assertions in tests and benchmarks** — an
  ``assert`` comparing a timing-derived value (anything computed from
  ``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()``,
  tracked through assignments) against a bare numeric literal.  Loaded CI
  runners make such assertions flaky; compare against a noise-floored
  budget (``max(FLOOR, ratio * baseline)``) or a named budget variable
  instead, or annotate ``# wall-clock: ok — <reason>`` on the assert line
  or the line above;
* **unpinned reads of published versions in ``src/``** —
  ``….latest().instance`` or ``….latest_instance()`` outside
  ``engine/versioning.py``.  The version store advances an unpinned
  published relation *in place* on the next publication, so library code
  must reach published relations through a pin (``store.pin()`` /
  ``ReadTransaction``); the single writer, which cannot race itself,
  annotates ``# unpinned: writer-only`` on the line or the line above;
* **syntax errors** — files that do not parse at all.

Usage::

    python tools/lint.py src [more dirs...]

Exit status is non-zero when any issue is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple


def _imported_names(tree: ast.Module) -> List[Tuple[str, int]]:
    """(bound name, line) for every module-level import."""
    names: List[Tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                names.append((bound, node.lineno))
    return names


def _used_names(tree: ast.Module) -> Set[str]:
    """Every identifier read anywhere in the module (plus __all__ strings)."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    for element in ast.walk(node.value):
                        if isinstance(element, ast.Constant) and isinstance(element.value, str):
                            used.add(element.value)
    return used


#: modules whose inner loops are the engine hot path (see module docstring)
HOT_MODULES = ("engine/matching.py", "engine/columnar.py",
               "engine/triggers.py", "datalog/chase.py",
               "datalog/seminaive.py", "relational/csvio.py")
SUPPRESS = "# per-tuple: ok"


def _binds_row(target: ast.AST) -> bool:
    return any(isinstance(node, ast.Name) and node.id == "row"
               for node in ast.walk(target))


def _iterates_rows(iterated: ast.AST) -> bool:
    return (isinstance(iterated, ast.Call)
            and isinstance(iterated.func, ast.Attribute)
            and iterated.func.attr == "rows")


def _per_tuple_loops(path: Path, tree: ast.Module,
                     lines: List[str]) -> Iterator[str]:
    if not str(path).replace("\\", "/").endswith(HOT_MODULES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.For):
            continue
        if not (_binds_row(node.target) or _iterates_rows(node.iter)):
            continue
        nearby = lines[max(node.lineno - 2, 0):node.lineno]
        if any(SUPPRESS in line for line in nearby):
            continue
        yield (f"{path}:{node.lineno}: per-tuple row loop in an engine hot "
               f"section (batch it, or annotate '{SUPPRESS} — <reason>')")


#: directories whose files carry timing assertions worth floor-checking
WALL_CLOCK_ROOTS = ("tests/", "benchmarks/")
WALL_SUPPRESS = "# wall-clock: ok"
_TIMING_ATTRS = {"time", "monotonic", "perf_counter"}


def _is_timing_call(node: ast.AST) -> bool:
    """``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()``
    (module-qualified or imported bare)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr in _TIMING_ATTRS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time")
    return (isinstance(func, ast.Name)
            and func.id in ("monotonic", "perf_counter"))


def _expr_tainted(expr: ast.AST, tainted: Set[str]) -> bool:
    return any(_is_timing_call(node)
               or (isinstance(node, ast.Name) and node.id in tainted)
               for node in ast.walk(expr))


def _tainted_names(tree: ast.Module) -> Set[str]:
    """Names whose values derive (transitively) from a timing call."""
    assigns = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
               and node.value is not None]
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in assigns:
            if not _expr_tainted(node.value, tainted):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id not in tainted:
                        tainted.add(name.id)
                        changed = True
    return tainted


UNPINNED_SUPPRESS = "# unpinned: writer-only"


def _is_method_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _unpinned_version_reads(path: Path, tree: ast.Module,
                            lines: List[str]) -> Iterator[str]:
    normalized = str(path).replace("\\", "/")
    if "src/" not in normalized or \
            normalized.endswith("engine/versioning.py"):
        return
    for node in ast.walk(tree):
        if not (_is_method_call(node, "latest_instance")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "instance"
                    and _is_method_call(node.value, "latest"))):
            continue
        nearby = lines[max(node.lineno - 2, 0):node.lineno]
        if any(UNPINNED_SUPPRESS in line for line in nearby):
            continue
        yield (f"{path}:{node.lineno}: unpinned read of the latest published "
               f"version (the writer may advance it in place: read through "
               f"a pin / ReadTransaction, or annotate "
               f"'{UNPINNED_SUPPRESS}')")


def _is_bare_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _unfloored_wall_clock_asserts(path: Path, tree: ast.Module,
                                  lines: List[str]) -> Iterator[str]:
    normalized = str(path).replace("\\", "/")
    if not any(root in normalized for root in WALL_CLOCK_ROOTS):
        return
    tainted = _tainted_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assert):
            continue
        compares = [inner for inner in ast.walk(node.test)
                    if isinstance(inner, ast.Compare)]
        if not any(
                _expr_tainted(timing, tainted) and _is_bare_number(literal)
                for compare in compares
                for left, right in zip([compare.left] + compare.comparators,
                                       compare.comparators)
                for timing, literal in ((left, right), (right, left))):
            continue
        nearby = lines[max(node.lineno - 2, 0):node.lineno]
        if any(WALL_SUPPRESS in line for line in nearby):
            continue
        yield (f"{path}:{node.lineno}: wall-clock delta asserted against a "
               f"bare numeric literal (noise-floor it with a "
               f"max(FLOOR, ...) budget, or annotate "
               f"'{WALL_SUPPRESS} — <reason>')")


def lint_file(path: Path) -> Iterator[str]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        yield f"{path}:{error.lineno}: syntax error: {error.msg}"
        return
    yield from _per_tuple_loops(path, tree, source.splitlines())
    yield from _unfloored_wall_clock_asserts(path, tree, source.splitlines())
    yield from _unpinned_version_reads(path, tree, source.splitlines())
    imported = _imported_names(tree)
    used = _used_names(tree)
    seen: Set[str] = set()
    for name, lineno in imported:
        if name in seen:
            yield f"{path}:{lineno}: duplicate import {name!r}"
        seen.add(name)
        if name == "annotations":
            continue
        if name not in used:
            yield f"{path}:{lineno}: unused import {name!r}"


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in (argv or ["src"])]
    issues: List[str] = []
    checked = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            checked += 1
            issues.extend(lint_file(path))
    for issue in issues:
        print(issue)
    print(f"lint: {checked} files checked, {len(issues)} issues", file=sys.stderr)
    return 1 if issues else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
