import itertools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullhelix import jets
from nullhelix.jets import Jet

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
coeff_lists = st.lists(finite, min_size=1, max_size=6)


def test_cos_jet_matches_series():
    t = Jet.variable(0.0, 4)
    assert jets.cos(t).coeffs == pytest.approx((1.0, 0.0, -0.5, 0.0, 1.0 / 24.0))


def test_sin_jet_matches_series():
    t = Jet.variable(0.0, 3)
    assert jets.sin(t).coeffs == pytest.approx((0.0, 1.0, 0.0, -1.0 / 6.0))


def test_identity_jet():
    t = Jet.variable(3.0, 2)
    assert t.coeffs == (3.0, 1.0, 0.0)


def test_derivative_rescaling():
    # coefficient k stores f^(k)/k!; k! times it is the k-th derivative
    t = Jet.variable(0.3, 5)
    e = jets.exp(t)
    for k in range(6):
        assert math.factorial(k) * e.coeffs[k] == pytest.approx(math.exp(0.3), rel=1e-12)


# The generic ring operations the unrolled kernels in jets.py must reproduce.
# Results are compared with ==, under which -0.0 equals 0.0: the sign of a
# zero is the one thing the kernels may change, since sum() starts from 0.


def _convolution(a, b):
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n))


def _quotient(a, b):
    q = []
    for k in range(min(len(a), len(b))):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc - b[j] * q[k - j]
        q.append(acc / b[0])
    return tuple(q)


def _assert_shape(x, n):
    """A plain Jet on a tuple of n coefficients (submanifold._point reads
    ``type(c) is Jet`` and the length of nested coefficients)."""
    assert type(x) is Jet
    assert type(x.coeffs) is tuple and len(x.coeffs) == n


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_multiplication_is_truncated_convolution(a, b):
    prod = Jet(a) * Jet(b)
    _assert_shape(prod, min(len(a), len(b)))
    assert prod.coeffs == _convolution(a, b)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_addition_is_coefficientwise(a, b):
    n = min(len(a), len(b))
    s, d = Jet(a) + Jet(b), Jet(a) - Jet(b)
    _assert_shape(s, n)
    _assert_shape(d, n)
    assert s.coeffs == tuple(a[i] + b[i] for i in range(n))
    assert d.coeffs == tuple(a[i] - b[i] for i in range(n))


def _draw(rng, n, nested):
    """n coefficients, some of them signed zeros; order-1 jets when nested."""
    def one():
        return rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
    if nested:
        return tuple(Jet((one(), one())) for _ in range(n))
    return tuple(one() for _ in range(n))


@pytest.mark.parametrize("la, lb", itertools.product(range(1, jets.MAX_ORDER + 2),
                                                     repeat=2))
@pytest.mark.parametrize("nested", [False, True], ids=["float", "nested"])
def test_ring_operations_match_the_generic_ones_at_every_length_pair(la, lb, nested):
    rng = random.Random(100 * la + 10 * lb + nested)
    n = min(la, lb)
    for _ in range(20):
        a, b = _draw(rng, la, nested), _draw(rng, lb, nested)
        b = (b[0] + 2.5,) + b[1:]  # a quotient needs b[0] away from zero
        x, y = Jet(a), Jet(b)
        for result, expected in ((x * y, _convolution(a, b)),
                                 (y * x, _convolution(b, a)),
                                 (x + y, tuple(p + q for p, q in zip(a, b))),
                                 (x - y, tuple(p - q for p, q in zip(a, b))),
                                 (x / y, _quotient(a, b))):
            _assert_shape(result, n)
            assert result.coeffs == expected
            if nested:
                for c in result.coeffs:
                    _assert_shape(c, 2)


# The written-out references for the product kernels and the series
# recurrences: the product adds a[0]*b[k] + a[1]*b[k-1] + ... left to right,
# and sin/cos, sinh/cosh and exp are the recurrences as each was once written
# on its own.  Results are compared as packed bytes, so a zero's sign counts.


def _bits(x) -> bytes:
    if isinstance(x, Jet):
        return b"J" + b"".join(map(_bits, x.coeffs)) + b"/"
    if isinstance(x, np.ndarray):
        return b"A" + x.tobytes()
    return b"F" + struct.pack("d", x)


def _product_reference(a, b):
    out = []
    for k in range(min(len(a), len(b))):
        acc = a[0] * b[k]
        for i in range(1, k + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return tuple(out)


def _sincos_reference(x):
    a = x.coeffs
    a0 = a[0]
    if isinstance(a0, Jet):
        s0, c0 = _sincos_reference(a0)
    else:
        s0, c0 = jets.sin(a0), jets.cos(a0)
    s, c = [s0], [c0]
    for k in range(1, len(a)):
        accs = 1 * a[1] * c[k - 1]
        accc = 1 * a[1] * s[k - 1]
        for j in range(2, k + 1):
            accs = accs + j * a[j] * c[k - j]
            accc = accc + j * a[j] * s[k - j]
        s.append(accs / k)
        c.append(-accc / k)
    return Jet(s), Jet(c)


def _sinhcosh_reference(x):
    a = x.coeffs
    a0 = a[0]
    if isinstance(a0, Jet):
        s0, c0 = _sinhcosh_reference(a0)
    else:
        s0, c0 = jets.sinh(a0), jets.cosh(a0)
    s, c = [s0], [c0]
    for k in range(1, len(a)):
        accs = 1 * a[1] * c[k - 1]
        accc = 1 * a[1] * s[k - 1]
        for j in range(2, k + 1):
            accs = accs + j * a[j] * c[k - j]
            accc = accc + j * a[j] * s[k - j]
        s.append(accs / k)
        c.append(accc / k)
    return Jet(s), Jet(c)


def _exp_reference(x):
    if not isinstance(x, Jet):
        return jets.exp(x)
    a = x.coeffs
    out = [_exp_reference(a[0])]
    for k in range(1, len(a)):
        acc = 1 * a[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + j * a[j] * out[k - j]
        out.append(acc / k)
    return Jet(out)


_SERIES_REFERENCES = {
    "exp": _exp_reference,
    "sin": lambda x: _sincos_reference(x)[0], "cos": lambda x: _sincos_reference(x)[1],
    "sinh": lambda x: _sinhcosh_reference(x)[0],
    "cosh": lambda x: _sinhcosh_reference(x)[1],
}
_KINDS = ["float", "array", "nested"]


def _coefficients(rng, n, kind):
    """n coefficients as ``_draw`` gives them, or 30-sample arrays of them."""
    if kind == "array":
        return tuple(np.array(_draw(rng, 30, False)) for _ in range(n))
    return _draw(rng, n, kind == "nested")


@pytest.mark.parametrize("la, lb", itertools.product(range(1, jets.MAX_ORDER + 2),
                                                     repeat=2))
@pytest.mark.parametrize("kind", _KINDS)
def test_products_have_the_left_to_right_sums_bits_at_every_length_pair(la, lb, kind):
    rng = random.Random(f"product-{la}-{lb}-{kind}")
    for _ in range(10):
        a, b = _coefficients(rng, la, kind), _coefficients(rng, lb, kind)
        for x, y in ((a, b), (b, a)):
            got = Jet(x) * Jet(y)
            _assert_shape(got, min(la, lb))
            assert _bits(got) == _bits(Jet(_product_reference(x, y)))


@pytest.mark.parametrize("name", list(_SERIES_REFERENCES))
@pytest.mark.parametrize("kind", _KINDS)
def test_series_have_the_separate_recurrences_bits_at_every_order(name, kind):
    rng = random.Random(f"series-{name}-{kind}")
    for order in range(jets.MAX_ORDER + 1):
        for _ in range(10):
            x = Jet(_coefficients(rng, order + 1, kind))
            got = getattr(jets, name)(x)
            _assert_shape(got, order + 1)
            assert _bits(got) == _bits(_SERIES_REFERENCES[name](x)), (name, order)


@given(coeff_lists)
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(a):
    denom = Jet([2.0 + abs(a[0])] + list(a[1:]))
    num = Jet(a)
    q = num / denom
    back = q * denom
    for x, y in zip(back.coeffs, num.coeffs):
        assert x == pytest.approx(y, rel=1e-9, abs=1e-9)


def test_transcendental_consistency():
    x = Jet.variable(0.7, 5)
    s, c = jets.sin(x), jets.cos(x)
    one = s * s + c * c
    assert one.coeffs[0] == pytest.approx(1.0)
    assert all(abs(v) < 1e-14 for v in one.coeffs[1:])
    sh, ch = jets.sinh(x), jets.cosh(x)
    one_h = ch * ch - sh * sh
    assert one_h.coeffs[0] == pytest.approx(1.0)
    assert all(abs(v) < 1e-13 for v in one_h.coeffs[1:])
    assert jets.log(jets.exp(x)).coeffs == pytest.approx(x.coeffs)
    assert (jets.sqrt(x) * jets.sqrt(x)).coeffs == pytest.approx(x.coeffs)


def test_powi_matches_repeated_multiplication():
    x = Jet.variable(1.3, 4)
    assert (x ** 3).coeffs == pytest.approx((x * x * x).coeffs)
    inv = x ** (-2)
    direct = 1.0 / (x * x)
    assert inv.coeffs == pytest.approx(direct.coeffs)
    assert (x ** 0).coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_powi_squares_and_multiplies():
    x = Jet.variable(1.3, 4)
    assert (x ** 2).coeffs == (x * x).coeffs
    assert (x ** 3).coeffs == ((x * x) * x).coeffs
    assert (x ** -3).coeffs == (1.0 / ((x * x) * x)).coeffs
    # (1 + eps)^n = 1 + n eps + C(n, 2) eps^2 + ...: about 60 products for a
    # billion, where repeated multiplication would take a billion
    n = 10 ** 9
    big = Jet.variable(1.0, 2) ** n
    assert big.coeffs[:2] == (1.0, float(n))
    assert big.coeffs[2] == pytest.approx(n * (n - 1) / 2, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        jets.log(Jet.variable(-1.0, 2))
    with pytest.raises(ValueError):
        jets.log(Jet.variable(0.0, 2))
    with pytest.raises(ValueError):
        jets.sqrt(Jet.variable(-0.5, 2))
    with pytest.raises(ValueError):
        jets.sqrt(Jet.variable(0.0, 2))
    with pytest.raises(ZeroDivisionError):
        1.0 / Jet.variable(0.0, 2)


def test_order_cap():
    with pytest.raises(ValueError):
        Jet((1.0,) * 8)
    with pytest.raises(ValueError):
        Jet([0.0] * (jets.MAX_ORDER + 2))
    with pytest.raises(ValueError):
        Jet(())
    with pytest.raises(ValueError):
        jets.antiderivative(Jet.variable(0.0, 5), 0.0)


def test_dt_and_antiderivative_roundtrip():
    x = jets.sin(Jet.variable(0.4, 4))
    back = jets.antiderivative(jets.dt(x), x.coeffs[0])
    assert back.coeffs[:5] == pytest.approx(x.coeffs)


def test_nested_jets_give_mixed_partials():
    # f(u, v) = u^2 * v: outer series in u whose coefficients are series in v
    u0, v0 = 1.5, -0.7
    u = Jet((Jet.constant(u0, 1), Jet.constant(1.0, 1)))
    v = Jet((Jet.variable(v0, 1), Jet.constant(0.0, 1)))
    f = u * u * v
    # outer coefficient 1 is df/du as a v-series; its coefficient 1 is d2f/dudv
    assert f.coeffs[1].coeffs[1] == pytest.approx(2.0 * u0)
    assert f.coeffs[1].coeffs[0] == pytest.approx(2.0 * u0 * v0)
    assert f.coeffs[0].coeffs[0] == pytest.approx(u0 * u0 * v0)
    assert f.coeffs[0].coeffs[1] == pytest.approx(u0 * u0)


def test_nested_coefficients_reproduce_float_results():
    """Jets whose coefficients are constant jets compute the float results bitwise."""
    rng = random.Random(4)

    def lift(x):
        return Jet(tuple(Jet.constant(c, 0) for c in x.coeffs))

    def unlift(x):
        return tuple(c.coeffs[0] for c in x.coeffs)

    for _ in range(25):
        n = rng.randrange(1, 6)
        coeffs = [rng.uniform(0.3, 2.0)] + [rng.uniform(-1, 1) for _ in range(n)]
        x = Jet(coeffs)
        assert unlift(jets.exp(lift(x))) == jets.exp(x).coeffs
        assert unlift(jets.log(lift(x))) == jets.log(x).coeffs
        assert unlift(jets.sqrt(lift(x))) == jets.sqrt(x).coeffs
        assert unlift(jets.sin(lift(x))) == jets.sin(x).coeffs
        assert unlift(jets.cos(lift(x))) == jets.cos(x).coeffs
        assert unlift(jets.sinh(lift(x))) == jets.sinh(x).coeffs
        assert unlift(jets.cosh(lift(x))) == jets.cosh(x).coeffs
        y = Jet([rng.uniform(-2, 2) for _ in range(n + 1)])
        assert unlift(lift(y) / lift(x)) == (y / x).coeffs
        assert unlift(lift(y) * lift(x)) == (y * x).coeffs


def test_scalar_mixing():
    x = Jet.variable(2.0, 3)
    assert (1 + x).coeffs == (3.0, 1.0, 0.0, 0.0)
    assert (2.0 * x).coeffs == (4.0, 2.0, 0.0, 0.0)
    assert (x - 1).coeffs == (1.0, 1.0, 0.0, 0.0)
    assert (1 - x).coeffs == (-1.0, -1.0, 0.0, 0.0)
    assert (x / 2).coeffs == (1.0, 0.5, 0.0, 0.0)
    assert (6.0 / x).coeffs[0] == pytest.approx(3.0)


# -- float arrays: each element with the bits of its float (for the elementary
# functions, of an order-0 jet)


def _order0(fn, v):
    return fn(Jet((v,))).coeffs[0]


@pytest.mark.parametrize("name", ["exp", "log", "sqrt", "sin", "cos", "sinh", "cosh"])
def test_array_argument_is_the_order0_jet_bitwise(name):
    """numpy's exp, log, sinh and cosh differ from libm in the last bit on
    part of their inputs; an array maps the ``math`` function instead."""
    fn = getattr(jets, name)
    x = np.random.default_rng(5).uniform(-3.0, 3.0, 4000)
    if name in ("log", "sqrt"):
        x = np.abs(x) + 1e-3
    got = fn(x)
    assert isinstance(got, np.ndarray)
    assert [v.hex() for v in got.tolist()] == [_order0(fn, v).hex() for v in x.tolist()]


@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 3, 5])
def test_array_powi_is_the_order0_jet_bitwise(n):
    """An array takes each element's float ``**``, as a float does; a jet's
    square-and-multiply products can differ in the last bit."""
    x = np.random.default_rng(6).uniform(-3.0, 3.0, 4000)
    got = jets.powi(x, n)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert [v.hex() for v in got.tolist()] == [(v ** n).hex() for v in x.tolist()]
    assert [jets.powi(v, n).hex() for v in x.tolist()] == [(v ** n).hex() for v in x.tolist()]
    edge = np.array([math.nan, math.inf, -0.0])
    if n >= 0:
        assert [v.hex() for v in jets.powi(edge, n).tolist()] == \
            [(v ** n).hex() for v in edge.tolist()]


def test_array_errors_are_raised_not_masked():
    """A domain error or overflow on an array raises ``math``'s error, and a
    zero divisor of a negative power the float's ZeroDivisionError, whatever
    numpy's error state."""
    for fn, bad in ((jets.log, 0.0), (jets.sqrt, -1.0), (jets.sin, math.inf)):
        with pytest.raises(ValueError, match="math domain error"):
            fn(np.array([1.0, bad]))
    for fn in (jets.exp, jets.sinh, jets.cosh):
        with pytest.raises(OverflowError):
            fn(np.array([1.0, 1000.0]))
    for state in ("ignore", "raise"):
        with np.errstate(all=state):
            with pytest.raises(ZeroDivisionError, match="negative power"):
                jets.powi(np.array([1.0, 0.0]), -2)
            with pytest.raises(OverflowError):
                jets.powi(np.array([1.0, 1e200]), 2)


# -- float arrays as scalars to jets


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_float_arrays_are_scalars_to_jets_in_either_order(op):
    """``jet op array`` and ``array op jet`` give a Jet (never numpy's object
    array of jets) whose coefficients are, element by element, bitwise the
    float jet's with that element."""
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
             "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op]
    rng = random.Random(f"array-scalar-{op}")
    size = 5
    coeffs = [np.array([rng.uniform(-2.0, 2.0) for _ in range(size)]) for _ in range(3)]
    coeffs.append(0.75)  # a coefficient every sample shares
    jet = Jet(coeffs)
    array = np.array([rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)) for _ in range(size)])
    for left, right in ((jet, array), (array, jet)):
        out = apply(left, right)
        assert type(out) is Jet
        for i in range(size):
            at_i = Jet([c[i].item() if isinstance(c, np.ndarray) else c for c in coeffs])
            x = array[i].item()
            want = apply(at_i, x) if left is jet else apply(x, at_i)
            got = [c[i].item() if isinstance(c, np.ndarray) else c for c in out.coeffs]
            assert [c.hex() for c in got] == [float(c).hex() for c in want.coeffs]


def test_constant_term_checks_on_arrays_fail_where_any_sample_fails():
    """On sample arrays a constant-term check raises PerSampleCheck where it
    fails at any sample, so the caller replays per sample; it passes where
    it fails at none."""
    ok = Jet([np.array([1.0, 4.0]), 1.0])
    assert [c.tolist() for c in jets.sqrt(ok).coeffs] == \
        [[jets.sqrt(Jet([x, 1.0])).coeffs[k] for x in (1.0, 4.0)] for k in range(2)]
    zero, negative = Jet([np.array([1.0, 0.0]), 1.0]), Jet([np.array([-1.0, 4.0]), 1.0])
    for fn, bad in ((jets.sqrt, zero), (jets.sqrt, negative), (jets.log, zero),
                    (jets.log, negative), (lambda j: 1.0 / j, zero)):
        with pytest.raises(jets.PerSampleCheck) as info:
            fn(bad)
        assert info.value.test is None  # no split to run as groups
    assert jets.failing(False) is False and jets.failing(True) is True
    assert jets.failing(np.array([False, False])) is False


def test_branches_on_arrays_are_taken_where_every_sample_agrees():
    """``agreed`` passes a bool through; on sample arrays it is True where
    every sample takes the branch (also where there is no sample), False
    where none does, and raises PerSampleCheck carrying its test where the
    samples split."""
    assert jets.agreed(True) is True and jets.agreed(False) is False
    assert jets.agreed(np.array([True, True])) is True
    assert jets.agreed(np.array([False, False])) is False
    assert jets.agreed(np.array([], dtype=bool)) is True
    split = np.array([False, True])
    with pytest.raises(jets.PerSampleCheck) as info:
        jets.agreed(split)
    assert info.value.test is split


# -- jet rays over lanes: a float or array base with an array slope

_RAY_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": lambda a, b: a / b,
    "powi": lambda a, b: jets.powi(a, 3) * jets.powi(b, -2),
    "sqrt": lambda a, b: jets.sqrt(a), "exp": lambda a, b: jets.exp(b),
    "log": lambda a, b: jets.log(a), "sin": lambda a, b: jets.sin(b),
    "cos": lambda a, b: jets.cos(b), "sinh": lambda a, b: jets.sinh(a),
    "cosh": lambda a, b: jets.cosh(b),
}


def _lane(jet, i):
    return [c[i].item() if isinstance(c, np.ndarray) else c for c in jet.coeffs]


@pytest.mark.parametrize("op", list(_RAY_OPS))
@pytest.mark.parametrize("array_base", [False, True], ids=["float-base", "array-base"])
def test_an_order1_ray_with_an_array_slope_has_each_float_rays_bits(op, array_base):
    """An order-1 jet whose slope is a sample array (and whose base is a float
    or a sample array) gives, element by element, the bits of the float jet
    with that element: the submanifold command's lane pass relies on it.  So
    does a jet of any order 0-5 whose higher coefficients are arrays."""
    rng = random.Random(f"array-slope-{op}-{array_base}")
    size = 7
    for order in range(jets.MAX_ORDER + 1):
        bases = [[rng.uniform(0.3, 2.5) for _ in range(size)] for _ in range(2)]
        if not array_base:
            bases = [[row[0]] * size for row in bases]
        slopes = [[[rng.choice((0.0, 1.0, -0.0, rng.uniform(-2.0, 2.0))) for _ in range(size)]
                   for _ in range(order)] for _ in range(2)]
        lanes = [Jet((np.array(b) if array_base else b[0], *map(np.array, s)))
                 for b, s in zip(bases, slopes)]
        out = _RAY_OPS[op](*lanes)
        assert type(out) is Jet and len(out.coeffs) == order + 1
        assert all(isinstance(c, np.ndarray) for c in out.coeffs[1:])
        for i in range(size):
            want = _RAY_OPS[op](*(Jet((b[i], *(c[i] for c in s)))
                                  for b, s in zip(bases, slopes)))
            assert [float(c).hex() for c in _lane(out, i)] == \
                [c.hex() for c in want.coeffs], (op, order)
