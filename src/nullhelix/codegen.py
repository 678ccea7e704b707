"""Straight-line Python generated from expression trees.

A metric's g-and-connection function and an immersion's f-and-Jacobian and
second-derivative functions are all written here: one named value per line,
over duck scalars (floats and nested jets alike).  The code calls the
elementary functions as ``jets.<name>``, through the module, and is written
from the trees alone: ``repr`` float literals, the coordinate names and the
grammar's function names.  ``compiled`` turns such a body into a function.
When the function raises (a domain, division or overflow error), the trees
it was generated from are evaluated again with ``exprparse._eval`` at the
same point, so the ``DomainError`` names the offending subexpression; that
path never returns a value.  On sample arrays, a compiled function refuses
to run (``jets.PerSampleCheck``) where numpy could pass silently where a
float raises.  ``function`` is the same wrapper with the replay left to the
caller: a metric's RK4 stage loop (``helix``) replays its connection at the
failing stage's coordinates.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import exprparse, jets


def _literal(value: float) -> str:
    """A Python literal for a parsed or folded number (never NaN)."""
    if math.isinf(value):
        return "(-1e999)" if value < 0.0 else "1e999"
    text = repr(float(value))
    return f"({text})" if text.startswith("-") else text


class Emitter:
    """Straight-line Python over duck scalars, one named value per line.

    A value is a code string: a literal, a coordinate name or a temporary.
    None is a structural zero: a product with a None factor is None and a
    sum skips it.  Identical right-hand sides share one temporary, and
    ``kept`` drops the temporaries the returned values do not read.
    """

    def __init__(self, names):
        self.names = frozenset(names)
        self.lines = []  # (temporary, right-hand side)
        self.bound = {}  # right-hand side -> temporary

    def bind(self, rhs: str) -> str:
        name = self.bound.get(rhs)
        if name is None:
            name = self.bound[rhs] = f"_t{len(self.lines)}"
            self.lines.append((name, rhs))
        return name

    def expr(self, node) -> str | None:
        """Code for an expression tree, in ``exprparse._eval``'s operations."""
        if isinstance(node, exprparse.Num):
            return None if exprparse._is_zero(node) else _literal(node.value)
        if isinstance(node, exprparse.Var):
            if node.name not in self.names:
                raise ValueError(f"unknown coordinate {node.name!r}")
            return node.name
        if isinstance(node, exprparse.Neg):
            return self.bind(f"-{self.code(node.arg)}")
        if isinstance(node, exprparse.Call):
            if node.func not in exprparse.FUNCTIONS:
                raise ValueError(f"unknown function {node.func!r}")
            return self.bind(f"jets.{node.func}({self.code(node.arg)})")
        if isinstance(node, exprparse.Pow):
            return self.bind(f"jets.powi({self.code(node.base)}, {int(node.exponent)})")
        if isinstance(node, exprparse.BinOp):
            if node.op not in ("+", "-", "*", "/"):
                raise ValueError(f"unknown operator {node.op!r}")
            return self.bind(
                f"{self.code(node.left)} {node.op} {self.code(node.right)}")
        raise TypeError(f"not an expression node: {node!r}")

    def code(self, node) -> str:
        value = self.expr(node)
        return "0.0" if value is None else value

    def mul(self, a, b):
        return None if a is None or b is None else self.bind(f"{a} * {b}")

    def add(self, a, b):
        if a is None or b is None:
            return b if a is None else a
        return self.bind(f"{a} + {b}")

    def sub(self, a, b):
        if a == b:  # x - x: identical values share one code string
            return None
        if b is None:
            return a
        return self.bind(f"-{b}") if a is None else self.bind(f"{a} - {b}")

    def kept(self, roots) -> list:
        """The (temporary, right-hand side) lines that ``roots`` read, in order."""
        used = set()
        for text in roots:
            used.update(_TEMPORARY.findall(text))
        kept = []
        for name, rhs in reversed(self.lines):
            if name in used:
                kept.append((name, rhs))
                used.update(_TEMPORARY.findall(rhs))
        return kept[::-1]


_TEMPORARY = re.compile(r"\b_t\d+\b")


def nested(rows, brackets: str = "()") -> str:
    """Code for nested sequences of code strings: tuples, or lists with
    ``brackets="[]"``."""
    if isinstance(rows, str):
        return rows
    inner = ", ".join(nested(r, brackets) for r in rows)
    return f"{brackets[0]}{inner},{brackets[1]}"


def function(name: str, params, body, replay, replayed, namespace=None):
    """``def name(*params)`` running ``body``, a list of code lines (indented
    relative to the function) that ends by returning.

    A ValueError, ZeroDivisionError or OverflowError raised in the body calls
    ``replay(error, values)``, which must raise, with ``values`` the tuple of
    the local names ``replayed`` at that moment.  The body sees ``jets`` and
    the names in ``namespace``.
    """
    source = "\n".join([
        f"def {name}({', '.join(params)}):",
        "    try:",
        *(f"        {line}" for line in body),
        "    except (ValueError, ZeroDivisionError, OverflowError) as error:",
        f"        _replay(error, ({''.join(f'{v}, ' for v in replayed)}))",
    ]) + "\n"
    scope = {**(namespace or {}), "jets": jets, "_replay": replay}
    exec(compile(source, f"<{name}>", "exec"), scope)
    return scope[name]


def compiled(name: str, variables, extra, body, trees):
    """``def name(*variables, *extra)`` running ``body`` (see ``function``).

    An error in the body makes the function evaluate ``trees`` in order with
    ``exprparse._eval``, with ``variables`` bound to its arguments, so the
    first tree that fails raises its ``DomainError``; when none fails, the
    original error is raised.  Given sample arrays, it raises
    ``jets.PerSampleCheck``, for the caller to run it per sample, where numpy
    could give a value without a flag where a float raises (``_refused``).
    """
    def replay(error, values):
        env = dict(zip(variables, values))
        for node in trees:
            exprparse._eval(node, env)
        raise error

    check = (f"if _refused(({''.join(f'{v}, ' for v in variables)}), "
             f"{exprparse._finite_constants(trees)}): raise jets.PerSampleCheck")
    return function(name, (*variables, *extra), [check, *body], replay, variables,
                    {"_refused": _refused})


def _refused(values, finite: bool) -> bool:
    """Whether ``values`` hold a plain sample array with inf or NaN, or, where
    ``finite`` is false (a tree holds a non-finite constant, which numpy
    divides by zero without a flag), any sample array, also in a jet.  An
    empty array hides no float error, so it is never refused."""
    for x in values:
        if isinstance(x, np.ndarray):
            if x.size and (not finite or not np.isfinite(x).all()):
                return True
        elif not finite and isinstance(x, jets.Jet) and _refused(x.coeffs, False):
            return True
    return False
