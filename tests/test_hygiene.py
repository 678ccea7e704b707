"""Source hygiene: every imported name is used, every parameter is read,
every definition is referenced, and the definitions only tests reference
are the listed ones."""

from __future__ import annotations

import ast
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nullhelix").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


def references(tree, strings: bool = False) -> Counter:
    """How often each name is used as a variable or an attribute; with
    ``strings``, each dotted part of every string constant counts too
    (perfbench's tracer names its targets as strings, "module.Class.method")."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts.update(node.value.split("."))
    return counts


def unreferenced_definitions(tree, counts) -> list:
    """Each function, class and method of ``tree`` that ``counts`` names no
    more often than its own body does; dunders are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if counts[node.name] <= references(node)[node.name]:
            out.append(f"line {node.lineno}: {node.name}")
    return out


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(_tree(path))
             for path in (*PACKAGE, *TESTS)}
    assert {k: v for k, v in found.items() if v} == {}


def test_every_parameter_is_read():
    found = {path.name: unread_parameters(_tree(path)) for path in PACKAGE}
    assert {k: v for k, v in found.items() if v} == {}


def _references_in(paths) -> Counter:
    """``references`` summed over ``paths``, with strings in perfbench."""
    counts = Counter()
    for path in paths:
        counts.update(references(_tree(path), strings=path in PERFBENCH))
    return counts


def test_every_definition_is_referenced():
    counts = _references_in((*PACKAGE, *TESTS, *PERFBENCH))
    found = {path.name: unreferenced_definitions(_tree(path), counts)
             for path in PACKAGE}
    assert {k: v for k, v in found.items() if v} == {}


# package definitions that only tests name: nabla_B is read by acceptance
# criterion 6, build_frame by the single-frame tests, and second_fundamental
# and shape_operator by the tests of the forms the duality residual reads
# from the point bundle
TEST_ONLY = {"build_frame", "nabla_B", "second_fundamental", "shape_operator"}


def test_test_only_definitions_are_listed():
    counts = _references_in((*PACKAGE, *PERFBENCH))
    found = {entry.split(": ")[1] for path in PACKAGE
             for entry in unreferenced_definitions(_tree(path), counts)}
    assert found == TEST_ONLY


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
    package = ast.parse(
        "class NullFrame:\n"
        "    def __init__(self, g):\n"
        "        self.g = g\n"
        "    def gram_residuals(self):\n"
        "        return self.g\n"
        "    def max_gram_residual(self):\n"
        "        return max(self.gram_residuals())\n"
        "def transversal(n):\n"
        "    return transversal(n - 1) if n else 0\n"
        "def traced():\n"
        "    return 0\n")
    users = ast.parse("NullFrame(1).max_gram_residual()\n")
    tracer = ast.parse('TARGETS = ["nullframe.traced"]\n')
    counts = references(package) + references(users) + references(tracer, strings=True)
    assert unreferenced_definitions(package, counts) == ["line 8: transversal"]
    counts = references(package) + references(users)
    assert unreferenced_definitions(package, counts) == ["line 8: transversal",
                                                         "line 10: traced"]
    package = ast.parse("class NullFrame:\n"
                        "    def gram_residuals(self):\n"
                        "        return 0\n")
    assert unreferenced_definitions(package, references(users)) == [
        "line 2: gram_residuals"]
