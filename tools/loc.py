"""Line counts of each module of src/vexpf, by kind.

    python3 tools/loc.py

It reads every `*.py` under `src/vexpf`.  Each line of a module is one of
four kinds, read in this order:
- docstring: inside the docstring of the module, a class or a function
  (the first statement, a string, of its body), as `ast` gives its first
  and last line;
- comment: a line whose text is a `#` comment alone;
- blank: a line of whitespace alone;
- code: every other line.

It prints one row per module and a total row: total, docstring, comment,
blank and code lines.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("docstring", "comment", "blank", "code")
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The 1-based numbers of the lines that docstrings span in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """{kind: lines} for one module's source, with "total" beside the kinds."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    lines = source.splitlines()
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return {"total": len(lines), **counts}


def main() -> int:
    columns = ("total", *KINDS)
    print(f"{'module':16s}" + "".join(f"{name:>10s}" for name in columns))
    totals = dict.fromkeys(columns, 0)
    for path in sorted((ROOT / "src" / "vexpf").glob("*.py")):
        counts = count(path.read_text())
        for name in columns:
            totals[name] += counts[name]
        print(f"{path.stem:16s}" + "".join(f"{counts[name]:10d}" for name in columns))
    print(f"{'total':16s}" + "".join(f"{totals[name]:10d}" for name in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
