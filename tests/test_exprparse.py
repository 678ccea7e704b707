import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullhelix import exprparse as ep
from nullhelix.exprparse import (
    BinOp,
    Call,
    DomainError,
    Num,
    ParseError,
    Pow,
    Var,
    parse,
    to_text,
)
from nullhelix.jets import Jet

from conftest import expr_trees


def test_single_call_grammar_case():
    assert parse("cos(t)") == Call("cos", Var("t"))


def test_mixed_expression():
    e = parse("t^2 + sinh(x1)")
    assert e == BinOp("+", Pow(Var("t"), 2), Call("sinh", Var("x1")))


def test_unbalanced_paren_offset():
    with pytest.raises(ParseError) as err:
        parse("cos(")
    assert err.value.offset == 4


@pytest.mark.parametrize("bad, offset", [
    ("", 0), ("   ", 0), ("t +", 3), ("(t", 2), ("t^x1", 2), ("t^2.5", 2),
    ("1 $ 2", 2),
])
def test_syntax_errors_carry_offsets(bad, offset):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("2*q")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("x1", variables=frozenset(["t"]))


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * /
    assert to_text(parse("-t^2")) == "-t^2"
    assert parse("-t^2") == ep.Neg(Pow(Var("t"), 2))
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1.0, "1"), Num(2.0, "2")),
                                       Num(3.0, "3"))
    assert parse("2*t + 1") == BinOp("+", BinOp("*", Num(2.0, "2"), Var("t")),
                                     Num(1.0, "1"))
    assert parse("t^(-2)") == Pow(Var("t"), -2)


def test_eval_jet_examples():
    e = parse("cos(t)")
    assert ep.eval_jet(e, {"t": Jet.variable(0.0, 4)}).coeffs == pytest.approx(
        (1.0, 0.0, -0.5, 0.0, 1.0 / 24.0)
    )
    assert ep.eval_jet(parse("t"), {"t": Jet.variable(3.0, 2)}).coeffs == (3.0, 1.0, 0.0)
    assert ep.eval_jet(parse("sin(t)"), {"t": Jet.variable(0.0, 3)}).coeffs == \
        pytest.approx((0.0, 1.0, 0.0, -1.0 / 6.0))


def test_eval_order_cap():
    with pytest.raises(ValueError):
        ep.eval_jet(parse("t"), {"t": Jet.variable(0.0, 6)})


def test_domain_errors_name_subexpression():
    with pytest.raises(DomainError, match="log"):
        ep.eval_jet(parse("log(t)"), {"t": Jet.variable(-2.0, 2)})
    with pytest.raises(DomainError, match="sqrt"):
        ep.eval_jet(parse("sqrt(t)"), {"t": Jet.variable(-2.0, 2)})
    with pytest.raises(DomainError, match="1 / t"):
        ep.eval_jet(parse("1/t"), {"t": Jet.variable(0.0, 2)})


def _random_expr_text(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(["t", "t", str(round(rng.uniform(0.2, 3.0), 3))])
    kind = rng.randrange(8)
    a = _random_expr_text(rng, depth - 1)
    b = _random_expr_text(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"({a} / (({b})^2 + 1))"
    if kind == 4:
        return f"{rng.choice(['sin', 'cos'])}({a})"
    if kind == 5:
        return f"log(({a})^2 + 1.5)"
    if kind == 6:
        return f"sqrt(({a})^2 + 0.25)"
    return f"({a})^{rng.randrange(2, 4)}"


def test_first_derivative_against_central_differences():
    """Jet linear coefficient vs central differences on random expressions."""
    rng = random.Random(1234)
    checked = 0
    while checked < 100:
        text = _random_expr_text(rng, rng.randrange(1, 4))
        expr = parse(text)
        t0 = rng.uniform(-2.0, 2.0)
        jet = ep.eval_jet(expr, {"t": Jet.variable(t0, 2)})
        value, d1 = jet.coeffs[0], jet.coeffs[1]
        if max(abs(value), abs(d1), abs(jet.coeffs[2])) > 100.0:
            continue  # keep the finite-difference oracle well conditioned
        h = 1e-6
        fp = ep.eval_jet(expr, {"t": Jet.variable(t0 + h, 0)}).coeffs[0]
        fm = ep.eval_jet(expr, {"t": Jet.variable(t0 - h, 0)}).coeffs[0]
        fd = (fp - fm) / (2.0 * h)
        assert abs(d1 - fd) <= 1e-6 * max(1.0, abs(d1)), text
        checked += 1


def test_sum_and_product_rules_hold_exactly():
    rng = random.Random(99)
    for _ in range(25):
        ta = _random_expr_text(rng, 2)
        tb = _random_expr_text(rng, 2)
        t0 = rng.uniform(-1.5, 1.5)
        env = {"t": Jet.variable(t0, 4)}
        a = ep.eval_jet(parse(ta), env)
        b = ep.eval_jet(parse(tb), env)
        s = ep.eval_jet(parse(f"({ta}) + ({tb})"), env)
        p = ep.eval_jet(parse(f"({ta}) * ({tb})"), env)
        assert s.coeffs == (a + b).coeffs
        assert p.coeffs == (a * b).coeffs


def test_print_parse_roundtrip():
    rng = random.Random(7)
    corpus = ["cos(t)", "t^2 + sinh(x1)", "-t^2", "1 - 2 - 3", "t^(-2)",
              "(t + 1) * (t - 2)", "sqrt(t^2 + 1) / exp(t)"]
    corpus += [_random_expr_text(rng, 3) for _ in range(40)]
    for text in corpus:
        ast = parse(text)
        printed = to_text(ast)
        # canonical form is a fixed point of print(parse(.))
        assert parse(printed) == ast
        assert to_text(parse(printed)) == printed


def test_canonical_print_preserves_plain_sources():
    # inputs already in canonical spacing round-trip to themselves
    for text in ["cos(t)", "t^2 + sinh(x1)", "t * x1 - 2 / t"]:
        assert to_text(parse(text)) == text


@given(expr_trees())
@settings(max_examples=300, deadline=None)
def test_printed_trees_parse_back(tree):
    assert parse(to_text(tree)) == tree


COORDS = ("x1", "x2", "x3")


@given(expr_trees(), st.sampled_from(COORDS),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_derivative_matches_the_seeded_jet(tree, var, point):
    """d tree / d var on floats equals the slope of tree evaluated on order-1
    jets (slope 1 along var, 0 along the other coordinates)."""
    env = dict(zip(COORDS, point))
    seeded = {x: Jet((value, 1.0 if x == var else 0.0)) for x, value in env.items()}
    try:
        symbolic = ep._eval(ep.derivative(tree, var), env)
        jet = ep._eval(tree, seeded)
    except DomainError:
        return  # outside the domain: the error path is tested elsewhere
    slope = jet.coeffs[1] if isinstance(jet, Jet) else 0.0
    if math.isfinite(symbolic) and math.isfinite(slope):
        assert math.isclose(symbolic, slope, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("text, var, derivative", [
    ("x1 * x2 + 0 * x3", "x3", "0"),           # no read: the number 0
    ("x1 * x2 + 0 * x3", "x2", "x1"),          # 0 * x and x * 1 folded
    ("3 * x1 - 2", "x1", "3"),
    ("2 * 3 * x1", "x1", "6.0"),               # all-number subtrees folded
    ("exp(0.4 * x3)", "x3", "0.4 * exp(0.4 * x3)"),
    ("x3^2", "x3", "x3 + x3"),                 # powi's x * x, both orders
    ("-cos(x1)", "x1", "--sin(x1)"),
    ("log(x1) / x2", "x2", "-(log(x1) / x2) / x2"),
    ("sqrt(x2)", "x2", "1 / (2 * sqrt(x2))"),
])
def test_derivative_rules_and_folds(text, var, derivative):
    assert to_text(ep.derivative(parse(text), var)) == derivative


def test_derivative_keeps_domain_errors_for_evaluation():
    # 1 / 0 is not folded away: evaluating the derivative reports it
    d = ep.derivative(parse("x1 * (1 / 0)"), "x1")
    with pytest.raises(DomainError, match="1 / 0"):
        ep._eval(d, {"x1": 0.5})


def test_derivative_of_a_large_power():
    # beyond MIRRORED_POWER, d(u^n) = n u^(n-1) du, a few ulps from powi's products
    n = ep.MIRRORED_POWER + 4
    d = ep._eval(ep.derivative(parse(f"x1^{n}"), "x1"), {"x1": 1.1})
    assert d == pytest.approx(n * 1.1 ** (n - 1), rel=1e-14)
