import itertools
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullhelix import exprparse, jets, semimetric
from nullhelix.jets import Jet, const_term
from nullhelix.semimetric import (
    DegenerateMetricError,
    MetricField,
    bilinear,
    covariant_jets,
    metric_index,
)

from conftest import expr_trees

vec3 = st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3)


def test_signature():
    """``diag`` takes 3 or 4 signs of +-1; a sign-count mismatch with ``dim``
    is ``from_dict``'s check (test_schema_loading)."""
    assert metric_index(MetricField.diag((-1, -1, 1)).matrix_at((0.0, 0.0, 0.0))) == 2
    assert metric_index(
        MetricField.diag((-1, -1, 1, 1)).matrix_at((0.0, 0.0, 0.0, 0.0))) == 2
    with pytest.raises(ValueError, match=r"^point has 2 coordinates, chart has 3$"):
        MetricField.diag((-1, -1, 1)).matrix_at((0.0, 0.0))
    with pytest.raises(ValueError, match=r"^signature entries must be \+-1$"):
        MetricField.diag((-1, 0, 1))
    with pytest.raises(ValueError, match="^signature dimension must be 3 or 4$"):
        MetricField.diag((-1, 1, 1, 1, 1))


def test_metric_at_constant_field(flat3):
    assert flat3.matrix_at((7.0, -2.0, 0.1)) == [
        [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]
    ]


def test_metric_at_polar():
    polar = MetricField.from_texts(2, [["1", "0"], ["0", "x1^2"]])
    assert polar.matrix_at((2.0, 0.5)) == [[1.0, 0.0], [0.0, 4.0]]


def test_asymmetric_text_rejected():
    with pytest.raises(ValueError, match=r"not symmetric at \(1,2\)"):
        MetricField.from_texts(2, [["1", "x1"], ["x2", "1"]])


def test_degenerate_rejected():
    g = MetricField.from_texts(2, [["x1", "0"], ["0", "1"]])
    with pytest.raises(DegenerateMetricError):
        g.matrix_at((0.0, 1.0))
    # jets are checked on the constant term, which the message prints
    with pytest.raises(DegenerateMetricError, match=r"degenerate at \(0\.0, 1\.0\):"):
        g.matrix_at([Jet((0.0, 1.0)), Jet((Jet((1.0, 2.0)), 0.5))])


def test_schema_loading():
    g = MetricField.from_dict(
        {"dim": 3, "metric": {"type": "diag", "signs": [-1, -1, 1]}}
    )
    assert g.pattern == () and metric_index(g.matrix_at((0.0, 0.0, 0.0))) == 2
    f = MetricField.from_dict(
        {"dim": 2, "metric": {"type": "field", "entries": [["1", "0"], ["0", "x1^2"]]}}
    )
    assert f.pattern == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    with pytest.raises(ValueError, match="'signs' length must equal dim"):
        MetricField.from_dict({"dim": 2, "metric": {"type": "diag", "signs": [-1, 1, 1]}})
    with pytest.raises(ValueError):
        MetricField.from_dict({"dim": 2, "metric": {"type": "sparse"}})
    with pytest.raises(ValueError):
        MetricField.from_dict({"dim": 2, "metric": {"type": "diag", "signs": [-1, 1]},
                               "extra": 1})


def test_christoffel_constant_metric_is_exactly_zero(flat3):
    ce = flat3.christoffel([0.3, -1.2, 9.9])
    assert all(v == 0.0 for plane in ce for row in plane for v in row)


CURVED3 = [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]]
CONFORMAL3 = [["-exp(0.4*x3)", "0", "0"], ["0", "-exp(0.4*x3)", "0"],
              ["0", "0", "exp(0.4*x3)"]]
OFF_DIAGONAL2 = [["1 + x2^2", "x1*x2"], ["x1*x2", "2 + x1^2"]]
PSEUDOSPHERE3 = [["-1", "0", "0"], ["0", "-sinh(x1)^2", "0"], ["0", "0", "cosh(x1)^2"]]
DISGUISED_FLAT3 = [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + 0*x3"]]
# (metric, exact pattern, sampled coordinate range, the pattern symbols whose
# emitted terms cancel to zero).  Off-diagonal's dg[i][j][l] + dg[j][i][l] -
# dg[l][i][j] is x2 + x2 - (x2 + x2) for four (k, i, j); the emitter binds
# both sides to one temporary, so that difference is a structural zero and
# the four symbols are left out of the pattern.
PATTERN_CASES = [
    (MetricField.diag([-1, -1, 1]), (), (-1.5, 1.5), set()),
    (MetricField.from_texts(3, CURVED3), ((2, 2, 2),), (-1.5, 1.5), set()),
    (MetricField.from_texts(3, CONFORMAL3),
     ((0, 0, 2), (0, 2, 0), (1, 1, 2), (1, 2, 1), (2, 0, 0), (2, 1, 1), (2, 2, 2)),
     (-1.5, 1.5), set()),
    (MetricField.from_texts(2, OFF_DIAGONAL2),
     ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)), (-1.5, 1.5), set()),
    # det g = sinh(x1)^2 cosh(x1)^2, away from x1 = 0
    (MetricField.from_texts(3, PSEUDOSPHERE3),
     ((0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 0), (2, 0, 2), (2, 2, 0)), (0.3, 1.5),
     set()),
    (MetricField.from_texts(3, DISGUISED_FLAT3), (), (-1.5, 1.5), set()),
]
PATTERN_IDS = ["flat", "curved", "conformal", "off-diagonal", "pseudosphere",
               "disguised-flat"]


def _deriv_part(v):
    """First coefficient of a seeded order-1 evaluation (0 for constants)."""
    return v.coeffs[1] if isinstance(v, Jet) else 0.0


def _entries(metric, coords):
    """Reference g: every entry tree through ``exprparse._eval``."""
    env = dict(zip(metric._coord_names, coords))
    return [[exprparse._eval(e, env) for e in row] for row in metric.entries]


def _dense_christoffel(metric, coords):
    """Reference: every coordinate seeded and every gamma[k][i][j] computed."""
    n = metric.dim
    g = _entries(metric, list(coords))
    ginv = semimetric.mat_inverse(g, semimetric.mat_det(g))
    dg = []
    for l in range(n):
        entries = _entries(
            metric, [Jet((coords[m], 1.0 if m == l else 0.0)) for m in range(n)])
        dg.append([[_deriv_part(entries[i][j]) for j in range(n)]
                   for i in range(n)])
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = None
                for l in range(n):
                    term = ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    acc = term if acc is None else acc + term
                gamma[k][i][j] = gamma[k][j][i] = 0.5 * acc
    return gamma


@pytest.mark.parametrize("metric, pattern, span, cancelled", PATTERN_CASES,
                         ids=PATTERN_IDS)
def test_connection_pattern_is_exact(metric, pattern, span, cancelled):
    """Every symbol outside the pattern is zero, and every symbol in it is
    nonzero at one of the sampled points, unless its terms cancel."""
    assert metric.pattern == pattern
    rng = random.Random(11)
    nonzero = set()
    for _ in range(4):
        p = [rng.uniform(*span) for _ in range(metric.dim)]
        gamma, dense = metric.christoffel(p), _dense_christoffel(metric, p)
        for k in range(metric.dim):
            for i in range(metric.dim):
                for j in range(metric.dim):
                    assert gamma[k][i][j] == dense[k][i][j]
                    if gamma[k][i][j] != 0.0:
                        nonzero.add((k, i, j))
        assert nonzero <= set(pattern)
        a = [rng.uniform(-2.0, 2.0) for _ in range(metric.dim)]
        b = [rng.uniform(-2.0, 2.0) for _ in range(metric.dim)]
        dense_term = [sum(gamma[k][i][j] * a[i] * b[j] for i in range(metric.dim)
                          for j in range(metric.dim)) for k in range(metric.dim)]
        assert semimetric.connection_term(metric, gamma, a, b) == dense_term
    assert nonzero == set(pattern) - cancelled


def test_generated_connection_differentiates_only_along_read_coordinates(monkeypatch):
    metric = MetricField.from_texts(3, CURVED3)
    metric._generated  # taking the derivative trees folds constants with _eval
    calls = []
    original = exprparse._eval

    def counted(node, env):
        calls.append(env)
        return original(node, env)

    monkeypatch.setattr(exprparse, "_eval", counted)
    gamma = metric.christoffel([0.3, -0.2, 0.7])
    g = metric.matrix_at([Jet((0.3, 1.0)), Jet((-0.2, 0.0)), Jet((0.7, 0.5))])
    # the one nonzero derivative is d g_33 / d x3 = 2 x3, and no tree is
    # evaluated outside the generated function, on floats or on jets
    assert list(metric._derivatives) == [(2, 2, 2)]
    assert exprparse.to_text(metric._derivatives[(2, 2, 2)]) == "x3 + x3"
    assert calls == []
    assert gamma[2][2][2] == 0.5 * ((1.0 / (1.0 + 0.7 ** 2)) * (0.7 + 0.7))
    assert g[2][2].coeffs == (1.0 + 0.7 * 0.7, 0.5 * 0.7 + 0.7 * 0.5)


def _coefficients(v, n):
    """v's Taylor coefficients padded to n (a float is a constant jet)."""
    c = v.coeffs if isinstance(v, Jet) else (v,)
    return tuple(c) + (0.0,) * (n - len(c))


@pytest.mark.parametrize("dim, texts", [
    (3, CURVED3), (3, CONFORMAL3), (2, OFF_DIAGONAL2), (3, PSEUDOSPHERE3),
], ids=["curved", "conformal", "off-diagonal", "pseudosphere"])
def test_generated_connection_equals_the_seeded_oracle(dim, texts):
    """Floats at 200 points and order-4 jets at 20: every coefficient equal
    (zero signs aside), not just within a tolerance."""
    metric = MetricField.from_texts(dim, texts)
    rng = random.Random(23)
    points = [[rng.uniform(0.2, 1.5) for _ in range(dim)] for _ in range(200)]
    points += [[Jet(tuple(rng.uniform(0.2, 1.5) for _ in range(5))) for _ in range(dim)]
               for _ in range(20)]
    for p in points:
        gamma, dense = metric.christoffel(p), _dense_christoffel(metric, p)
        for k in range(dim):
            for i in range(dim):
                for j in range(dim):
                    assert _coefficients(gamma[k][i][j], 5) == \
                        _coefficients(dense[k][i][j], 5)


def _bits(v):
    """A value, jet or nested list of them, with every float as its bytes."""
    if isinstance(v, Jet):
        return ("jet", _bits(v.coeffs))
    if isinstance(v, (list, tuple)):
        return tuple(_bits(c) for c in v)
    return struct.pack("d", v)


@pytest.mark.parametrize("dim, texts", [
    (3, CURVED3), (3, CONFORMAL3), (2, OFF_DIAGONAL2), (3, PSEUDOSPHERE3),
], ids=["curved", "conformal", "off-diagonal", "pseudosphere"])
def test_matrix_at_equals_the_entry_trees_bit_for_bit(dim, texts):
    """Floats, jets of order 0 to 4, nested jets and jets mixed with floats:
    ``matrix_at`` returns every entry's ``exprparse._eval``, zero signs too."""
    metric = MetricField.from_texts(dim, texts)
    rng = random.Random(29)

    def value():
        return rng.uniform(-1.5, 1.5)

    def jet(n):  # higher coefficients are often signed zeros
        return Jet((value(), *(rng.choice((0.0, -0.0, value())) for _ in range(n - 1))))

    kinds = [lambda i: value(),
             *(lambda i, n=n: jet(n) for n in range(1, 6)),
             lambda i: Jet((jet(3), jet(3))),
             lambda i: jet(3) if i else value()]
    for kind in kinds:
        for _ in range(20):
            p = [kind(i) for i in range(dim)]
            g = metric.matrix_at(p)
            assert _bits(g) == _bits(_entries(metric, p))
            assert g.support == metric.support


@given(st.lists(expr_trees(depth=3), min_size=6, max_size=6),
       st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_generated_connection_matches_the_seeded_oracle_on_random_metrics(trees, p):
    upper = iter(trees)
    entries = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            entries[i][j] = entries[j][i] = next(upper)
    metric = MetricField(3, entries)
    try:
        gamma, dense = metric.christoffel(p), _dense_christoffel(metric, p)
    except (exprparse.DomainError, DegenerateMetricError, ZeroDivisionError):
        return  # outside the domain, or degenerate
    for k, i, j in itertools.product(range(3), repeat=3):
        a, b = gamma[k][i][j], dense[k][i][j]
        if math.isfinite(a) and math.isfinite(b):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def test_christoffel_rejects_a_degenerate_point():
    g = MetricField.from_texts(2, [["x1", "0"], ["0", "1 + x2^2"]])
    for x1 in (0.0, 1e-11, Jet((0.0, 1.0, 0.5))):
        with pytest.raises(DegenerateMetricError, match="degenerate along evaluation"):
            g.christoffel([x1, 0.3])
    assert g.christoffel([1e-9, 0.3])[0][0][0] != 0.0


def test_generated_function_errors_name_the_subexpression():
    log3 = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                      ["0", "0", "log(x3)"]])
    with pytest.raises(exprparse.DomainError, match=r"in 'log\(x3\)'"):
        log3.christoffel([0.0, 0.0, -1.0])
    with pytest.raises(exprparse.DomainError, match=r"in 'log\(x3\)'"):
        log3.matrix_at((0.0, 0.0, 0.0))
    # the entry is finite at x3 = 0, its derivative is not
    root3 = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                       ["0", "0", "1 + sqrt(x3)"]])
    assert root3.matrix_at((0.0, 0.0, 0.0))[2][2] == 1.0
    with pytest.raises(exprparse.DomainError, match=r"in '1 / \(2 \* sqrt\(x3\)\)'"):
        root3.christoffel([0.0, 0.0, 0.0])


def test_christoffel_polar_oracle():
    # hand oracle: diag(1, r^2) gives G^1_22 = -r, G^2_12 = G^2_21 = 1/r
    polar = MetricField.from_texts(2, [["1", "0"], ["0", "x1^2"]])
    ce = polar.christoffel([2.0, 0.0])
    assert ce[0][1][1] == pytest.approx(-2.0, abs=1e-12)
    assert ce[1][0][1] == pytest.approx(0.5, abs=1e-12)
    assert ce[1][1][0] == ce[1][0][1]
    for r in (0.5, 1.0, 3.7):
        ce = polar.christoffel([r, 1.0])
        assert ce[0][1][1] == pytest.approx(-r, abs=1e-12)
        assert ce[1][0][1] == pytest.approx(1.0 / r, abs=1e-12)


def test_christoffel_exponential_oracle():
    g = MetricField.from_texts(2, [["1", "0"], ["0", "exp(2*x1)"]])
    ce = g.christoffel([0.0, 0.3])
    assert ce[0][1][1] == pytest.approx(-1.0, abs=1e-12)
    assert ce[1][0][1] == pytest.approx(1.0, abs=1e-12)


def test_christoffel_symmetry_exact():
    g = MetricField.from_texts(
        2, [["1 + x2^2", "x1 * x2"], ["x1 * x2", "2 + x1^2"]]
    )
    ce = g.christoffel([0.7, -0.4])
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert ce[k][i][j] == ce[k][j][i]


def test_inner_examples(flat3):
    g = flat3.matrix_at((0.0, 0.0, 0.0))
    assert bilinear(g, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == -1.0
    assert bilinear(g, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) == 0.0
    for t in (0.0, 0.9, 4.2):
        x = (-math.sin(t), math.cos(t), 1.0)
        assert bilinear(g, x, x) == pytest.approx(0.0, abs=1e-15)


@given(vec3, vec3, vec3, st.floats(min_value=-3, max_value=3))
@settings(max_examples=50, deadline=None)
def test_inner_symmetric_and_bilinear(x, y, z, lam):
    g = MetricField.diag([-1, -1, 1]).matrix_at((0.0, 0.0, 0.0))
    assert bilinear(g, x, y) == pytest.approx(bilinear(g, y, x), abs=1e-12)
    lhs = bilinear(g, [lam * a + b for a, b in zip(x, z)], y)
    rhs = lam * bilinear(g, x, y) + bilinear(g, z, y)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


def _dense_bilinear(g, x, y):
    """Every n^2 term, structural zeros included."""
    acc = 0.0
    for i in range(len(x)):
        for j in range(len(y)):
            acc = acc + g[i][j] * x[i] * y[j]
    return acc


def _dense_mat_vec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


SPARSE_ENTRIES = ["0", "0", "0", "1", "-1", "2.5", "x1", "x2 - 0.5", "1 + x1^2",
                  "sin(x2)", "x1 * x2"]


@st.composite
def sparse_metrics(draw):
    """(metric, entry texts): a diag metric, or a field metric whose entries
    are often the literal 0."""
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=4))
        return MetricField.diag(signs), [[str(s) if i == j else "0" for j in
                                          range(len(signs))]
                                         for i, s in enumerate(signs)]
    dim = draw(st.integers(2, 4))
    texts = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            texts[i][j] = texts[j][i] = draw(st.sampled_from(SPARSE_ENTRIES))
    return MetricField.from_texts(dim, texts), texts


COMPONENTS = st.floats(-1e3, 1e3)


def _same_bits(a, b) -> bool:
    return struct.pack("d", a) == struct.pack("d", b)


def _same_jets(a, b) -> bool:
    """Equal coefficient by coefficient; 0.0 == -0.0, so zero signs may differ.
    A row with no support entry sums to the float 0.0, where the dense sum
    gives a jet of zeros."""
    return _coefficients(a, 3) == _coefficients(b, 3)


@given(sparse_metrics(), st.data())
@settings(max_examples=80, deadline=None)
def test_support_sums_equal_the_dense_sums(drawn, data):
    metric, texts = drawn
    n = metric.dim
    assert metric.support == tuple((i, j) for i in range(n) for j in range(n)
                                   if texts[i][j] != "0")
    vec = st.lists(COMPONENTS, min_size=n, max_size=n)
    p, x, y = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)), \
        data.draw(vec), data.draw(vec)
    g = semimetric.Matrix(metric._generated(*p, False)[0], metric.support)
    assert _same_bits(semimetric.bilinear(g, x, y), _dense_bilinear(g, x, y))
    assert all(map(_same_bits, semimetric.mat_vec(g, x), _dense_mat_vec(g, x)))

    # along a jet ray: g's entries on the support are jets or constants, its
    # structural zeros stay the float 0.0
    d = data.draw(vec)
    gj = semimetric.Matrix(
        metric._generated(*[Jet((a, b, 0.0)) for a, b in zip(p, d)], False)[0],
        metric.support)
    xj = [Jet((a, b, 0.5 * a)) for a, b in zip(x, data.draw(vec))]
    yj = [Jet((a, b, -b)) for a, b in zip(y, data.draw(vec))]
    assert _same_jets(semimetric.bilinear(gj, xj, yj), _dense_bilinear(gj, xj, yj))
    assert all(map(_same_jets, semimetric.mat_vec(gj, xj), _dense_mat_vec(gj, xj)))


def test_support_sum_skips_zero_times_infinity(flat3):
    """The support sum never forms 0 * inf: where the dense sum gives NaN,
    an infinite component stays infinite."""
    g, x, y = flat3.matrix_at((0.0, 0.0, 0.0)), [math.inf, 1.0, 0.0], [1.0, 0.0, 0.0]
    assert math.isnan(_dense_bilinear(g, x, y))
    assert semimetric.bilinear(g, x, y) == -math.inf
    assert math.isnan(_dense_mat_vec(g, x)[1])
    assert semimetric.mat_vec(g, x) == [-math.inf, -1.0, 0.0]


def _covariant_value(pos_jets, field_jets, metric):
    """The covariant derivative along the curve at its base point."""
    return tuple(const_term(c) for c in covariant_jets(pos_jets, field_jets, metric))


def test_covariant_flat_reduces_to_derivative(flat3):
    T = Jet.variable(0.5, 3)
    zero = Jet.constant(0.0, 3)
    v = [T, zero, zero]
    assert _covariant_value([T, T, T], v, flat3) == (1.0, 0.0, 0.0)


def test_covariant_circle_oracle(flat3):
    for t in (0.0, 0.9, 2.2):
        T = Jet.variable(t, 4)
        pos = [jets.cos(T), jets.sin(T), T]
        zeta = [jets.dt(p) for p in pos]
        cz = _covariant_value(pos, zeta, flat3)
        assert cz == pytest.approx((-math.cos(t), -math.sin(t), 0.0), abs=1e-14)


def test_covariant_polar_radial_geodesic():
    polar = MetricField.from_texts(2, [["1", "0"], ["0", "x1^2"]])
    T = Jet.variable(2.0, 3)
    pos = [T, Jet.constant(0.0, 3)]
    v = [Jet.constant(1.0, 2), Jet.constant(0.0, 2)]
    assert _covariant_value(pos, v, polar) == pytest.approx((0.0, 0.0), abs=1e-14)


def test_covariant_nesting_matches_closed_form(flat3):
    # circle curve: each covariant application is one more t-derivative
    t = 1.1
    T = Jet.variable(t, 5)
    pos = [jets.cos(T), jets.sin(T), T]
    zeta = [jets.dt(p) for p in pos]
    c1 = covariant_jets(pos, zeta, flat3)
    c2 = covariant_jets(pos, c1, flat3)
    c3 = covariant_jets(pos, c2, flat3)
    vals = [c.coeffs[0] for c in c3]
    # three applications on the tangent equal the fourth position derivative
    assert vals == pytest.approx((math.cos(t), math.sin(t), 0.0), abs=1e-13)


def test_metric_compatibility_property():
    """d/dt g(V, W) = g(cov V, W) + g(V, cov W), finite-differenced left side."""
    rng = random.Random(5)
    polar = MetricField.from_texts(2, [["1", "0"], ["0", "x1^2"]])

    def fields(t, order):
        T = Jet.variable(t, order)
        pos = [1.5 + 0.3 * jets.sin(T), T]
        v = [jets.cos(T), 0.2 * T]
        w = [T * T * 0.1 + 1.0, jets.sinh(0.3 * T)]
        return pos, v, w

    for _ in range(10):
        t = rng.uniform(0.3, 2.0)
        pos, v, w = fields(t, 4)
        g = semimetric.Matrix(_entries(polar, [p.coeffs[0] for p in pos]), polar.support)
        cv = covariant_jets(pos, v, polar)
        cw = covariant_jets(pos, w, polar)
        rhs = semimetric.bilinear(g, [c.coeffs[0] for c in cv], [c.coeffs[0] for c in w]) \
            + semimetric.bilinear(g, [c.coeffs[0] for c in v], [c.coeffs[0] for c in cw])
        h = 1e-5

        def gvw(tt):
            pos2, v2, w2 = fields(tt, 1)
            g2 = semimetric.Matrix(_entries(polar, [p.coeffs[0] for p in pos2]),
                                   polar.support)
            return semimetric.bilinear(g2, [c.coeffs[0] for c in v2],
                                       [c.coeffs[0] for c in w2])

        lhs = (gvw(t + h) - gvw(t - h)) / (2.0 * h)
        assert abs(lhs - rhs) < 1e-7


def test_dim2_signature_rejected_but_field_allowed():
    with pytest.raises(ValueError):
        MetricField.diag([1, 1])  # diagonal shorthand is 3D/4D only
    g = MetricField.from_texts(2, [["1", "0"], ["0", "1"]])
    assert g.dim == 2
