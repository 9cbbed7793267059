"""Line counts of the library, per file and in total.

    python3 scripts/loc.py [ROOT]

ROOT defaults to ``src/packgraph`` beside this script's parent.  For each
``.py`` file under ROOT, and for all of them together, prints the non-blank
lines and the code-only lines: the non-blank lines that are neither a
comment-only line nor a line of a module, class or function docstring
(found through ``ast``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set:
    """The 1-based numbers of every line of a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(non-blank, code-only) lines of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    non_blank = code = 0
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if not text:
            continue
        non_blank += 1
        if not text.startswith("#") and number not in docs:
            code += 1
    return non_blank, code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "packgraph"
    total = [0, 0]
    print(f"{'file':<24}{'non-blank':>10}{'code-only':>10}")
    for path in sorted(root.rglob("*.py")):
        non_blank, code = count(path.read_text())
        total[0] += non_blank
        total[1] += code
        print(f"{str(path.relative_to(root)):<24}{non_blank:>10}{code:>10}")
    print(f"{'total':<24}{total[0]:>10}{total[1]:>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
