"""Closed-form scalar expressions: parsing, printing, and jet evaluation.

The grammar (documented in ``docs/grammar.md``) covers numeric literals,
variables, the unary functions ``sin cos sinh cosh exp log sqrt``, unary
minus, and the binary operators ``+ - * / ^`` with integer exponents.
Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``.

Evaluation is by truncated Taylor-jet arithmetic (:mod:`nullhelix.jets`);
binding a variable to a seed jet yields the expression's derivatives in that
variable, and nested jets yield mixed partials of composed fields.
``derivative`` differentiates a tree symbolically instead, once, for code
that needs the same first derivative at many points (the metric connection).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .jets import Jet
from . import jets

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp", "log", "sqrt")

#: Variables admitted anywhere in a spec document; individual loaders narrow
#: this to the set the enclosing document declares.
DEFAULT_VARIABLES = frozenset(
    ["t"] + [f"x{i}" for i in range(1, 5)] + [f"u{i}" for i in range(1, 5)]
)


class ParseError(ValueError):
    """Syntax or identifier error, carrying the byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the function's domain; names the offending subexpression."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    text: str

    def __repr__(self):
        return f"Num({self.text})"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Num | Var | Neg | Call | BinOp | Pow


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", off)
        return self.advance()

    def parse(self) -> Expr:
        node = self.sum()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", off)
        return node

    def sum(self) -> Expr:
        node = self.product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.product())
            else:
                return node

    def product(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Pow(node, self.exponent())
            else:
                return node

    def exponent(self) -> int:
        parens = False
        kind, text, off = self.peek()
        if kind == "op" and text == "(":
            parens = True
            self.advance()
            kind, text, off = self.peek()
        sign = 1
        if kind == "op" and text == "-":
            sign = -1
            self.advance()
            kind, text, off = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", text):
            raise ParseError("non-integer exponent", off)
        self.advance()
        if parens:
            self.expect_op(")")
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), text)
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.variables:
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ParseError("expected expression", off)


def parse(text: str, variables=DEFAULT_VARIABLES) -> Expr:
    """Parse an expression string into an AST.

    ``variables`` is the set of identifiers the enclosing document declares;
    anything else raises :class:`ParseError` with the byte offset.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, variables).parse()


# -- printing ------------------------------------------------------------------

_PREC = {BinOp: None, Num: 5, Var: 5, Call: 5, Pow: 4, Neg: 3}
_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    return _PREC[type(node)]


def to_text(node: Expr) -> str:
    """Canonical textual form (minimal parentheses)."""
    if isinstance(node, Num):
        return node.text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, Neg):
        arg = to_text(node.arg)
        if _prec(node.arg) < 3:
            arg = f"({arg})"
        return f"-{arg}"
    if isinstance(node, Pow):
        base = to_text(node.base)
        if _prec(node.base) < 5:
            base = f"({base})"
        exp = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        return f"{base}^{exp}"
    if isinstance(node, BinOp):
        p = _BIN_PREC[node.op]
        left = to_text(node.left)
        if _prec(node.left) < p:
            left = f"({left})"
        right = to_text(node.right)
        # left-associative grammar: a right-nested child at equal precedence
        # must keep its parentheses or re-parsing changes the tree shape
        if _prec(node.right) <= p:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def free_variables(node: Expr) -> frozenset:
    """Names of the variables an expression reads."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    children = [v for v in vars(node).values() if isinstance(v, Expr)]
    return frozenset().union(*map(free_variables, children))


# -- evaluation ---------------------------------------------------------------

_FUNC_EVAL = {
    "sin": jets.sin,
    "cos": jets.cos,
    "sinh": jets.sinh,
    "cosh": jets.cosh,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
}


def eval_jet(node: Expr, env: dict) -> Jet:
    """Evaluate an expression over jet-valued variable bindings.

    ``env`` maps variable names to jets (or plain floats, treated as
    constants).  The result carries the Taylor expansion of the composition,
    at the highest order among the bindings.
    """
    result = _eval(node, env)
    if not isinstance(result, Jet):
        order = max((v.order for v in env.values() if isinstance(v, Jet)), default=0)
        result = Jet.constant(float(result), order)
    return result


def _domain_error(exc: Exception, node: Expr) -> DomainError:
    """The DomainError for ``exc`` raised at ``node``; an overflow gets a
    sentence rather than CPython's errno text."""
    message = "result overflows a float" if isinstance(exc, OverflowError) else str(exc)
    return DomainError(message, to_text(node))


def _eval(node: Expr, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise DomainError("unbound variable", node.name) from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Call):
        arg = _eval(node.arg, env)
        try:
            return _FUNC_EVAL[node.func](arg)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _domain_error(exc, node) from None
    if isinstance(node, Pow):
        base = _eval(node.base, env)
        try:
            return jets.powi(base, node.exponent)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _domain_error(exc, node) from None
    if isinstance(node, BinOp):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left / right
        except ZeroDivisionError as exc:
            raise _domain_error(exc, node) from None
    raise TypeError(f"not an expression node: {node!r}")


def _finite_constants(trees: tuple) -> bool:
    """Whether every subtree of ``trees`` that reads no variable, such as
    ``1e999`` or ``1e300 * 1e300``, evaluates to a finite float (each largest
    such subtree is evaluated).  Only such trees run on sample arrays: numpy
    divides an infinite constant by zero without a flag, where a float raises."""
    return all(finite if reads else _finite_value(node)
               for node, (reads, finite) in zip(trees, map(_scan_constants, trees)))


def _scan_constants(node: Expr):
    """``(reads, finite)``: whether ``node`` reads a variable, and if it
    does, whether each largest subtree of it that reads none is finite; one
    pass over the tree."""
    if isinstance(node, Var):
        return True, True
    children = [v for v in vars(node).values() if isinstance(v, Expr)]
    scans = [_scan_constants(c) for c in children]
    if not any(reads for reads, _ in scans):
        return False, None
    return True, all(finite if reads else _finite_value(c)
                     for c, (reads, finite) in zip(children, scans))


def _finite_value(node: Expr) -> bool:
    try:
        return math.isfinite(_eval(node, {}))
    except DomainError:
        return False


# -- symbolic first derivatives -------------------------------------------------

_ZERO = Num(0.0, "0")
_ONE = Num(1.0, "1")


def _is_zero(node: Expr) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node: Expr) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _folded(node: Expr) -> Expr:
    """``node`` as one Num when it reads no variable and ``_eval`` gives a
    finite value for it; otherwise ``node``, so a domain error stays for
    evaluation time to report."""
    if isinstance(node, Num) or free_variables(node):
        return node
    try:
        value = _eval(node, {})
    except DomainError:
        return node
    return Num(value, repr(value)) if math.isfinite(value) else node


def _neg(a: Expr) -> Expr:
    return _ZERO if _is_zero(a) else _folded(Neg(a))


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return _folded(BinOp("+", a, b))


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    return _folded(BinOp("-", a, b))


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return _folded(BinOp("*", a, b))


def _div(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return _folded(BinOp("/", a, b))


#: Largest |n| whose u^n is differentiated through ``powi``'s own products;
#: those trees hold about n copies of u, so larger powers take n u^(n-1) du.
MIRRORED_POWER = 16


def _powi_jet(u: Expr, du: Expr, n: int):
    """(value, slope) trees of ``powi``'s square-and-multiply on a jet with
    value u and slope du: each product (p, d) * (q, e) is (p q, p e + d q)."""
    if n < 0:  # powi: 1 / u^-n, whose slope is (0 - d * (1/p)) / p
        p, d = _powi_jet(u, du, -n)
        inverse = _div(_ONE, p)
        return inverse, _div(_neg(_mul(d, inverse)), p)
    if n == 0:
        return _ONE, _ZERO
    p, d = u, du
    for bit in bin(n)[3:]:
        p, d = _mul(p, p), _add(_mul(p, d), _mul(d, p))
        if bit == "1":
            p, d = _mul(p, u), _add(_mul(p, du), _mul(d, u))
    return p, d


def _forward(node: Expr, var: str):
    """(value, slope) trees of ``node`` on order-1 jets in every variable,
    ``var``'s with slope 1 and the others' with slope 0: the value as the
    jet computes it (powers through ``powi``'s products) and the slope by
    the recurrence of each jet operation."""
    if not free_variables(node):  # a float on the jets too
        return _folded(node), _ZERO
    if isinstance(node, Var):
        return node, _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        u, du = _forward(node.arg, var)
        return (node if u is node.arg else Neg(u)), _neg(du)
    if isinstance(node, BinOp):
        u, du = _forward(node.left, var)
        v, dv = _forward(node.right, var)
        value = node if u is node.left and v is node.right else BinOp(node.op, u, v)
        if node.op == "+":
            return value, _add(du, dv)
        if node.op == "-":
            return value, _sub(du, dv)
        if node.op == "*":
            return value, _add(_mul(u, dv), _mul(du, v))
        return value, _div(_sub(du, _mul(dv, value)), v)
    if isinstance(node, Pow):
        n = node.exponent
        u, du = _forward(node.base, var)
        if abs(n) <= MIRRORED_POWER:
            return _powi_jet(u, du, n)
        return Pow(u, n), _mul(_mul(Num(float(n), str(n)), _folded(Pow(u, n - 1))), du)
    if isinstance(node, Call):
        u, du = _forward(node.arg, var)
        value = node if u is node.arg else Call(node.func, u)
        if node.func == "exp":
            return value, _mul(du, value)
        if node.func == "log":
            return value, _div(du, u)
        if node.func == "sqrt":
            return value, _div(du, _mul(Num(2.0, "2"), value))
        if node.func == "sin":
            return value, _mul(du, Call("cos", u))
        if node.func == "cos":
            return value, _neg(_mul(du, Call("sin", u)))
        if node.func == "sinh":
            return value, _mul(du, Call("cosh", u))
        if node.func == "cosh":
            return value, _mul(du, Call("sinh", u))
    raise TypeError(f"not an expression node: {node!r}")


def derivative(node: Expr, var: str) -> Expr:
    """The partial derivative of ``node`` in the variable ``var``, as a tree.

    Each rule repeats the order-1 recurrence of the matching jet operation
    (``d(u/v) = (du - dv * (u/v)) / v``, ``d exp(u) = du * exp(u)``, ``u^n``
    through ``powi``'s products, ...), with the values inside it computed as
    a jet computes them.  So evaluating the result on floats or jets gives
    the bits that binding every variable to an order-1 jet (slope 1 for
    ``var``, 0 for the others) gives, up to the sign of a zero; only powers
    beyond MIRRORED_POWER take ``n * u^(n-1) * du`` and round differently.
    Products with a zero factor, sums with a zero term, unit factors and
    all-number subtrees are folded, so a derivative that does not read
    ``var`` is the number 0.
    """
    return _forward(node, var)[1]
