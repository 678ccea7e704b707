"""Closed-form scalar expressions: parsing, printing, and jet evaluation.

The grammar (documented in ``docs/grammar.md``) covers numeric literals,
variables, the unary functions ``sin cos sinh cosh exp log sqrt``, unary
minus, and the binary operators ``+ - * / ^`` with integer exponents.
Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``.

Evaluation is by truncated Taylor-jet arithmetic (:mod:`nullhelix.jets`);
binding a variable to a seed jet yields the expression's derivatives in that
variable, and nested jets yield mixed partials of composed fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .jets import MAX_ORDER, Jet
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


def eval_jet(node: Expr, env: dict, order: int | None = None) -> Jet:
    """Evaluate an expression over jet-valued variable bindings.

    ``env`` maps variable names to jets (or plain floats, treated as
    constants).  When ``order`` is given every binding is truncated to it.
    The result carries the Taylor expansion of the composition.
    """
    if order is not None:
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}]")
        env = {k: jets.truncate(v, order) for k, v in env.items()}
    result = _eval(node, env)
    if not isinstance(result, Jet):
        ref = order
        if ref is None:
            ref = max(
                (v.order for v in env.values() if isinstance(v, Jet)), default=0
            )
        result = Jet.constant(float(result), ref)
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
