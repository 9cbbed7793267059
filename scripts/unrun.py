"""The library statements that no tier-1 test executes.

    python3 scripts/unrun.py

Runs the tier-1 tests (``tests/`` under pytest, ``-p no:cacheprovider``) in
this process under a ``sys.settrace`` line tracer that watches only the
files of ``src/packgraph``, then prints each statement no test executed,
as ``file:line: source``, and a total with the count per file.  A
statement is one ``ast`` statement: a simple statement counts as executed
if any of its lines ran, a compound one (``if``, ``for``, ``def``, ...) if
a line of its header ran, or, for ``try``, a line of its first statement.
Docstrings and ``global``/``nonlocal`` declarations have no code and are
not counted.

coverage.py is not a dependency; this is the dependency-free substitute.
It writes nothing into the repository: the tests run in a temporary
directory with bytecode writing off.  It is not part of tier-1, and takes
about a minute, as every line event of the library passes through Python.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "packgraph"


def _header_end(node: ast.stmt) -> int:
    """The last line of a compound statement's header: the line before its
    first child statement."""
    return node.body[0].lineno - 1


def statements(path: Path) -> dict:
    """Line of each statement of the file -> the lines whose execution
    counts as executing it."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(node, ast.Try):
            first = node.body[0]
            lines = range(start, first.end_lineno + 1)
        elif hasattr(node, "body") and isinstance(node.body, list):
            lines = range(start, max(start, _header_end(node)) + 1)
        else:
            lines = range(start, node.end_lineno + 1)
        found[node.lineno] = set(lines)
    return found


def run_traced() -> tuple:
    """Run tier-1 under the tracer; returns (pytest's exit code, the set of
    (file, line) the library executed)."""
    import pytest

    prefix = str(LIBRARY) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        threading.settrace(global_)
        sys.settrace(global_)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                                "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(here)
    return code, hits


def main() -> int:
    code, hits = run_traced()
    per_file = Counter()
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text().splitlines()
        ran = {line for f, line in hits if f == str(path)}
        for line, lines in sorted(statements(path).items()):
            if not lines & ran:
                per_file[path.stem] += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    counts = ", ".join(f"{name} {n}" for name, n in sorted(per_file.items()))
    print(f"{sum(per_file.values())} statements never executed ({counts or 'none'})")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
