"""Source hygiene: every imported name is used, every parameter is read."""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nullhelix").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


@cache
def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree) -> list:
    """Names a module imports and never references (``__future__`` features
    are not names)."""
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    return [f"line {line}: {name}" for name, line in imported if name not in used]


def _only_raises_not_implemented(fn) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def unread_parameters(tree) -> list:
    """``function.parameter`` for each parameter a function or lambda never
    reads; ``self``, ``cls`` and stubs that only raise NotImplementedError
    are exempt."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if not isinstance(fn, ast.Lambda) and _only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        out += [f"line {fn.lineno}: {name}.{p}" for p in params
                if p not in ("self", "cls") and p not in read]
    return out


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(_tree(path))
             for path in (*PACKAGE, *TESTS)}
    assert {k: v for k, v in found.items() if v} == {}


def test_every_parameter_is_read():
    found = {path.name: unread_parameters(_tree(path)) for path in PACKAGE}
    assert {k: v for k, v in found.items() if v} == {}


def test_the_checks_name_what_they_find():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .semimetric import bilinear, full_support\n"
        "class M:\n"
        "    def _evaluate(self, coords):\n"
        "        '''Stub.'''\n"
        "        raise NotImplementedError\n"
        "def f(g, x, tol=1e-8, *rest, t, **kw):\n"
        "    return bilinear(g, x, x) + len(rest) + len(kw)\n"
        "h = lambda i, j: i\n")
    assert unused_imports(tree) == ["line 2: os", "line 3: full_support"]
    assert unread_parameters(tree) == ["line 8: f.tol", "line 8: f.t",
                                       "line 10: <lambda>.j"]
