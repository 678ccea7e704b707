#!/usr/bin/env python3
"""List the statements of ``src/nullhelix`` that a pytest run never executes.

Usage, from the repository root:

    python3 scripts/line_coverage.py [pytest args]

It runs pytest in this process (with no arguments, the suite under
``tests/``, as ``pytest`` would) under a ``sys.settrace`` line tracer that
records only frames of ``src/nullhelix``, using the standard library alone.
Then, for each module of ``src/nullhelix``, it prints the statements, read
with ``ast``, of which no line ran, and the number of them.  Docstrings,
``def``, ``class`` and imports are left out, and a compound statement
(``if``, ``for``, ``try``, ...) counts as run when a line of its header did.
Code that a test runs in a subprocess, such as the console entry point, is
not traced, so its statements can be listed although they ran.  The exit
code is pytest's.  Tracing makes the suite run several times slower.

Unless the arguments give ``--hypothesis-seed``, it passes
``--hypothesis-seed=0``, so two runs of one tree draw the same examples
and list the same statements.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nullhelix"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (*_SCOPES, ast.Import, ast.ImportFrom)


def statements(source: str) -> list:
    """``(first, last)`` line spans, in line order, of the statements of
    ``source`` that run: a compound statement spans its header, the lines
    before its first child statement.  Docstrings, ``def``, ``class`` and
    imports are left out, but not the statements in their bodies."""
    tree = ast.parse(source)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_SCOPES))
                  and ast.get_docstring(node, clean=False) is not None}
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or node in docstrings:
            continue
        children = [c.lineno for c in ast.walk(node)
                    if isinstance(c, ast.stmt) and c is not node]
        last = max(node.lineno, min(children) - 1) if children else node.end_lineno
        spans.append((node.lineno, last))
    return sorted(spans)


def never_ran(source: str, ran) -> list:
    """The first lines of ``source``'s statements none of whose lines are in
    the set ``ran``."""
    return [first for first, last in statements(source)
            if not any(line in ran for line in range(first, last + 1))]


def pytest_args(argv) -> list:
    """``argv``, with ``--hypothesis-seed=0`` added unless it gives a seed."""
    args = list(argv)
    if not any(a.split("=")[0] == "--hypothesis-seed" for a in args):
        args.append("--hypothesis-seed=0")
    return args


def main(argv) -> int:
    src = str(ROOT / "src")  # for this process and the subprocesses of tests
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    import pytest  # imported before tracing starts, so its modules are not traced

    prefix = str(PACKAGE) + "/"
    hits = {}
    local_tracers = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        local = local_tracers.get(path)
        if local is None:
            if not path.startswith(prefix):
                return None
            seen = hits.setdefault(path, set())

            def local(frame, event, arg):
                if event == "line":
                    seen.add(frame.f_lineno)
                return local

            local_tracers[path] = local
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args(argv))
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        missing = never_ran(source, hits.get(str(path), set()))
        lines = source.splitlines()
        total += len(missing)
        print(f"{path.relative_to(ROOT)}: {len(missing)} statements never ran")
        for first in missing:
            print(f"  {first}: {lines[first - 1].strip()}")
    print(f"total: {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
