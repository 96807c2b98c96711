"""The statements of ``src/geolab/`` that a pytest run never executes.

    python3 tools/line_trace.py [PYTEST_ARGS ...]

Runs pytest in this process from the repository root (default arguments
``-q -p no:cacheprovider``: the tier-1 suite under ``tests/``) under a
``sys.settrace`` line tracer that records the lines run in the package's
files, then prints, module by module, each statement none of whose lines
ran, and the total.  Docstrings, ``def`` and ``class`` lines, imports,
``try`` lines and ``global`` declarations are not listed: they run no code
of their own.  A compound statement counts by its header (``if``, ``for``,
``while`` or ``with`` up to its body), a simple one by any of its lines.
The tracer about doubles the suite's run time (coverage.py is not needed).
Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "geolab"

#: statements with no code of their own (a ``try`` runs as its body's first line)
SILENT = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
          ast.Try, ast.Global, ast.Nonlocal)


def statements(path: Path) -> dict[int, range]:
    """First line of each listed statement of ``path`` -> the lines that count as its run."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, SILENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue                          # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider"]
    sys.path.insert(0, str(PACKAGE.parent))
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    os.chdir(REPO)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        seen = ran[str(path)]
        missed = [first for first, span in sorted(statements(path).items())
                  if not seen.intersection(span)]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(REPO)}: {len(missed)}")
            for first in missed:
                print(f"  {first:4d}  {lines[first - 1].strip()}")
    print(f"never run: {total} statements")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
