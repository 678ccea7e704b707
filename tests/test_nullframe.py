import dataclasses
import math
import random
import tracemalloc

import pytest

from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix.helix import GramDriftError
from nullhelix.jets import Jet, const_term
from nullhelix.nullframe import (
    NoUsableSeedError,
    NotNullError,
    NullCurve,
    ScreenPolicy,
    ScreenSignatureError,
    build_frame,
    curvatures_at,
    frame_field,
    frenet_residuals,
)
from nullhelix.semimetric import MetricField, bilinear, mat_vec

from conftest import uniform_grid

TWO_PI = 2.0 * math.pi


def _reference_null_residual(curve, t):
    """|g(zeta, zeta)| at t evaluated afresh: the order-1 tangent, the
    position and g read again at the point."""
    z = [const_term(j) for j in curve.zeta_jets(t, 0)]
    p = curve.position_at(t)
    return abs(bilinear(curve.metric.matrix_at(p), z, z))


def test_null_residual_examples(flat3, c1_curve):
    for fr in frame_field(c1_curve, [0.0, 1.0, 5.5]):
        assert fr.null_residual <= 1e-12
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    assert build_frame(line, 2.0).null_residual <= 1e-15


def test_null_residual_matches_a_fresh_evaluation_bitwise(flat3, c1_curve):
    e = "exp(0.4*x3)"
    conformal = MetricField.from_texts(3, [[f"-{e}", "0", "0"], ["0", f"-{e}", "0"],
                                           ["0", "0", e]])
    curves = [
        c1_curve,
        NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0)),
        NullCurve.position(conformal, ["sin(t)", "cos(t)", "t"], (0.0, 2.0)),
        NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.0, 3.0)),
    ]
    for curve in curves:
        grid = uniform_grid(*curve.domain, 9)
        for fr in frame_field(curve, grid):
            assert _bits(fr.null_residual) == _bits(_reference_null_residual(curve, fr.t))


def test_c1_frame_closed_form(c1_curve):
    # hand-derived oracle: N = (sin t/2, -cos t/2, 1/2), W = (-cos t, -sin t, 0)
    for t in (0.0, 0.7, 2.9, 5.8):
        fr = build_frame(c1_curve, t)
        assert fr.n == pytest.approx((math.sin(t) / 2, -math.cos(t) / 2, 0.5), abs=1e-12)
        assert fr.w == pytest.approx((-math.cos(t), -math.sin(t), 0.0), abs=1e-12)
        assert fr.gram_residual <= 1e-9


def test_straight_null_line_frame(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = build_frame(line, 1.0)
    assert fr.zeta == (1.0, 0.0, 1.0)
    assert fr.n == pytest.approx((-0.5, 0.0, 0.5))
    assert abs(fr.w[1]) == pytest.approx(1.0)  # (0, +-1, 0) by orientation rule
    assert fr.w[0] == 0.0 and fr.w[2] == 0.0
    assert fr.w[1] == 1.0  # deterministic tie-break: first significant component positive


def test_spacelike_curve_rejected(flat3):
    c = NullCurve.position(flat3, ["0", "0", "t"], (0.0, 1.0))
    with pytest.raises(NotNullError):
        build_frame(c, 0.5)


def test_c1_curvatures(c1_curve):
    for t in (0.0, 1.3, 4.4):
        fr = build_frame(c1_curve, t)
        cs = curvatures_at(c1_curve, fr)
        assert cs.h == pytest.approx(0.0, abs=1e-12)
        assert cs.k1 == pytest.approx(1.0, abs=1e-12)
        assert cs.k2 == pytest.approx(-0.5, abs=1e-12)
        assert not cs.geodesic_type


def test_geodesic_curvatures(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = build_frame(line, 2.0)
    cs = curvatures_at(line, fr)
    assert (cs.h, cs.k1, cs.k2) == (0.0, 0.0, 0.0)
    assert cs.geodesic_type


def test_tangent_mode_nonconstant_k1(flat3):
    c = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.0, 3.0))
    for t in (0.6, 1.0, 1.7):
        fr = build_frame(c, t)
        cs = curvatures_at(c, fr)
        assert cs.k1 == pytest.approx(2.0 * abs(t), abs=1e-9)


def test_frenet_residuals_c1(c1_curve):
    for t in (0.0, 2.0, 5.1):
        fr = build_frame(c1_curve, t)
        cs = curvatures_at(c1_curve, fr)
        r1, r2, r3 = frenet_residuals(c1_curve, fr, cs)
        assert nf.euclid_norm(r1) <= 1e-9
        assert nf.euclid_norm(r2) <= 1e-9
        assert nf.euclid_norm(r3) <= 1e-9


def test_corrupted_frame_residual(c1_curve):
    """Scaling W by 2 shifts the first residual by |k1| = 1 (linearity)."""
    t = 1.0
    fr = build_frame(c1_curve, t)
    bad = dataclasses.replace(fr, w=tuple(2.0 * c for c in fr.w))
    cs = curvatures_at(c1_curve, fr)
    r1, _, _ = frenet_residuals(c1_curve, bad, cs)
    assert nf.euclid_norm(r1) == pytest.approx(1.0, abs=1e-9)


def test_frame_field_c1(flat3, c1_curve):
    grid = uniform_grid(0.0, TWO_PI, 100)
    frames = frame_field(c1_curve, grid)
    assert len(frames) == 100
    for fr in frames:
        assert fr.gram_residual == \
            nf.max_gram_residual(flat3.matrix_at(fr.point), fr.zeta, fr.n, fr.w)
        assert fr.gram_residual <= 1e-9
    # continuity: W never jumps across neighbours
    for a, b in zip(frames, frames[1:]):
        assert sum(x * y for x, y in zip(a.w, b.w)) > 0.5


def test_frame_field_single_and_empty(c1_curve):
    single = frame_field(c1_curve, [1.0])
    assert len(single) == 1
    assert single[0] == build_frame(c1_curve, 1.0)
    assert frame_field(c1_curve, []) == []


def test_pairing_derivative_vanishes_along_field(flat3, c1_curve):
    """d/dt g(zeta, N) = 0 numerically (frame-equation consequence)."""
    grid = uniform_grid(0.5, 5.5, 201)
    frames = frame_field(c1_curve, grid)
    dt = grid[1] - grid[0]
    pair = [bilinear(flat3.matrix_at(f.point), f.zeta, f.n) for f in frames]
    for i in range(1, len(pair) - 1):
        deriv = (pair[i + 1] - pair[i - 1]) / (2.0 * dt)
        assert abs(deriv) < 1e-6


def test_k1_magnitude_is_screen_free(flat3, c1_curve):
    """k1^2 equals -g(cov zeta, cov zeta), independently of the screen."""
    from nullhelix import semimetric

    curves = [
        c1_curve,
        NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.0, 3.0)),
    ]
    for curve in curves:
        for t in (0.5, 1.2, 2.4):
            fr = build_frame(curve, t)
            cs = curvatures_at(curve, fr)
            pos = curve.position_jets(t, 4)
            zeta = [nf.jets.dt(p) for p in pos]
            cz = [nf.jets.const_term(c)
                  for c in semimetric.covariant_jets(pos, zeta, flat3)]
            mag = -bilinear(flat3.matrix_at(fr.point), cz, cz)
            assert cs.k1 ** 2 == pytest.approx(mag, abs=1e-8)


def test_screen_independence_of_k1(c1_curve):
    """k1^2 agrees across seed policies (both equal -g(cov zeta, cov zeta))."""
    pol_a = ScreenPolicy.from_names("e3,e1,e2")
    pol_b = ScreenPolicy.from_names("e1,e3,e2")
    for t in (0.4, 1.9, 3.0):
        fa = build_frame(c1_curve, t, pol_a)
        fb = build_frame(c1_curve, t, pol_b)
        ka = curvatures_at(c1_curve, fa, pol_a)
        kb = curvatures_at(c1_curve, fb, pol_b)
        assert ka.k1 ** 2 == pytest.approx(kb.k1 ** 2, abs=1e-8)


def test_no_usable_seed(flat3):
    # tangent (1, 0, 1) is g-orthogonal to e2 only; restrict the policy to e2
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    with pytest.raises(NoUsableSeedError):
        build_frame(line, 1.0, ScreenPolicy(seeds=(1,)))


def test_wrong_signature_rejected():
    lorentz = nf.semimetric.MetricField.diag([-1, 1, 1])
    with pytest.raises(ScreenSignatureError):
        NullCurve.position(lorentz, ["t", "0", "t"], (0.0, 1.0))


def test_domain_validation(flat3):
    with pytest.raises(ValueError, match="empty domain"):
        NullCurve.position(flat3, ["t", "0", "t"], (2.0, 1.0))
    c = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 1.0))
    with pytest.raises(ValueError, match="outside curve domain"):
        build_frame(c, 3.0)
    with pytest.raises(ValueError):
        NullCurve.tangent(flat3, ["1", "0", "1"], None, (0.0, 1.0))
    for quad_step in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="quad_step"):
            NullCurve.tangent(flat3, ["cos(t)", "sin(t)", "1"], (0.0, 1.0, 0.0),
                              (0.0, 1.0), quad_step=quad_step)


def test_tangent_mode_positions_match_quadrature(flat3):
    c = NullCurve.tangent(flat3, ["cos(t)", "sin(t)", "1"], (0.0, 1.0, 0.0), (0.0, TWO_PI),
                          quad_step=1e-3)
    # closed form: x = sin t, y = 1 + (1 - cos t) ... y' = sin t -> y = 2 - cos t
    for t in (0.5, 2.0, 5.0):
        p = c.position_at(t)
        assert p[0] == pytest.approx(math.sin(t), abs=1e-10)
        assert p[1] == pytest.approx(2.0 - math.cos(t), abs=1e-10)
        assert p[2] == pytest.approx(t, abs=1e-12)


def test_tangent_mode_positions_do_not_depend_on_query_order(flat3, rng):
    def curve():
        return NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"],
                                 (0.1, -0.2, 0.3), (0.0, 3.0))

    # 1.0 is a quadrature node; its neighbouring float is not
    ts = [2.7, 0.3, 1.0, math.nextafter(1.0, 2.0), 0.0, 2.9995, 1.7, 3.0]
    alone = {t: curve().position_at(t) for t in ts}
    shuffled = list(ts)
    rng.shuffle(shuffled)
    for order in (ts, sorted(ts), sorted(ts, reverse=True), shuffled):
        c = curve()
        for t in order:
            assert c.position_at(t) == alone[t]


def test_tangent_mode_quadrature_keeps_one_node(flat3):
    """1e4 Simpson nodes to reach t = 10 are marched through, not stored."""
    c = NullCurve.tangent(flat3, ["cos(t)", "sin(t)", "1"], (0.0, 1.0, 0.0), (0.0, 10.0))
    tracemalloc.start()
    try:
        c.position_at(10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_policy_names_roundtrip():
    pol = ScreenPolicy.from_names("e1,e3,e2")
    assert pol.seeds == (0, 2, 1)
    assert pol.seed_indices(3) == [0, 2, 1]
    assert ScreenPolicy(seeds=(2, 0, 1, 3)).seed_indices(3) == [2, 0, 1]
    with pytest.raises(ValueError):
        ScreenPolicy.from_names("a,b")


# -- the shared frame algebra, bit for bit against the inline formulas it replaced


def _bits(value):
    """Floats as hex (NaN equal to NaN, -0.0 apart from 0.0), jets as their
    coefficients, sequences elementwise, None as itself."""
    if value is None:
        return None
    if isinstance(value, Jet):
        return ("jet", _bits(value.coeffs))
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return float(value).hex()


def _outcome(fn, *args):
    """``("ok", bits)`` of fn's result, or ``("raise", type, message)``."""
    try:
        return ("ok", _bits(fn(*args)))
    except (ArithmeticError, ValueError, GramDriftError) as exc:
        return ("raise", type(exc).__name__, str(exc))


def _inline_gram_residual(g, z, n, w):
    """``NullFrame.gram_residuals`` and ``max_gram_residual`` as they were."""
    residuals = (
        bilinear(g, z, z),
        bilinear(g, n, n),
        bilinear(g, z, n) - 1.0,
        bilinear(g, n, w),
        bilinear(g, z, w),
        bilinear(g, w, w) + 1.0,
    )
    return max(abs(r) for r in residuals)


def _inline_triple_worst(g, xi_i, xi_j, xi_k):
    """``umbilical_diagnostic``'s six checks as they were, in their order."""
    checks = (
        bilinear(g, list(xi_i), list(xi_i)),
        bilinear(g, list(xi_j), list(xi_j)),
        bilinear(g, list(xi_i), list(xi_j)) - 1.0,
        bilinear(g, list(xi_i), list(xi_k)),
        bilinear(g, list(xi_j), list(xi_k)),
        bilinear(g, list(xi_k), list(xi_k)) + 1.0,
    )
    return max(abs(c) for c in checks)


def _inline_project_frame(metric, state):
    """``helix._project_frame``'s body as it was."""
    x = state[0:3]
    z = state[3:6]
    n = list(state[6:9])
    w = list(state[9:12])
    g = metric.matrix_at(x)
    n = [c / bilinear(g, z, n) for c in n]
    nn = bilinear(g, n, n)
    n = [n[i] - 0.5 * nn * z[i] for i in range(3)]
    w = [w[i] - bilinear(g, w, n) * z[i] - bilinear(g, w, z) * n[i] for i in range(3)]
    w2 = -bilinear(g, w, w)
    if w2 <= 0.0:
        raise GramDriftError("projection lost the timelike screen direction", math.nan)
    scale = 1.0 / math.sqrt(w2)
    w = [c * scale for c in w]
    return state[0:6] + n + w


def _inline_ambient_screen(g, z, nv, cand):
    """``_ambient_frames``' projection of one candidate as it was: W, or None
    where the screen part is not timelike enough."""
    n = len(cand)
    proj = [
        cand[i]
        - bilinear(g, cand, nv) * z[i]
        - bilinear(g, cand, list(z)) * nv[i]
        for i in range(n)
    ]
    w2 = -bilinear(g, proj, proj)
    if w2 > 1e-12:
        scale = 1.0 / math.sqrt(w2)
        return [c * scale for c in proj]
    return None


def _shared_ambient_screen(g, z, nv, cand):
    proj, w2 = nf.screen_projection(g, cand, z, nv)
    return nf.unit_screen(proj, w2) if w2 > 1e-12 else None


def _inline_null_transversal(g, zeta, seeds):
    """``null_transversal``'s N as it was, for the first usable seed."""
    gz = mat_vec(g, zeta)
    idx = next(i for i in seeds if abs(const_term(gz[i])) > nf.SEED_TOL)
    phi = gz[idx]
    dim = len(zeta)
    ntilde = [(1.0 if i == idx else 0.0) / phi for i in range(dim)]
    nn = bilinear(g, ntilde, ntilde)
    return idx, gz, [ntilde[i] - 0.5 * nn * zeta[i] for i in range(dim)]


ALGEBRA_CHARTS = {
    "flat": MetricField.diag([-1, -1, 1]),
    "curved": MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]]),
    "skew": MetricField.from_texts(
        3, [["-1", "0.5", "0"], ["0.5", "-1", "0"], ["0", "0", "1"]]),
}


def _algebra_states(metric, rng):
    """12-float states (x, zeta, N, W): near-frames, raw vectors and both
    with an inf or NaN component."""
    states = []
    for _ in range(30):
        x = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        g = metric.matrix_at(x)
        a = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        q = -(g[0][0] * a[0] * a[0] + 2.0 * g[0][1] * a[0] * a[1] + g[1][1] * a[1] * a[1])
        z = [a[0], a[1], math.sqrt(q / g[2][2])]
        _, gz, n = nf.null_transversal(g, z, (2, 0, 1), "at the sample")
        w = nf.screen_vector(g, gz, n, "at the sample")
        frame = [c * (1.0 + rng.uniform(-1e-3, 1e-3)) for c in (*z, *n, *w)]
        states.append(x + frame)
        states.append(x + [rng.uniform(-2.0, 2.0) for _ in range(9)])
    for state in list(states[:12]):
        for bad in (math.inf, -math.inf, math.nan):
            broken = list(state)
            broken[rng.randrange(3, 12)] = bad
            states.append(broken)
    return states


@pytest.mark.parametrize("chart", list(ALGEBRA_CHARTS))
def test_frame_algebra_matches_the_inline_formulas_bitwise(chart):
    metric = ALGEBRA_CHARTS[chart]
    rng = random.Random(f"frame-algebra-{chart}")
    outcomes = set()
    for state in _algebra_states(metric, rng):
        g = metric.matrix_at(state[0:3])
        z, n, w = state[3:6], state[6:9], state[9:12]
        assert _bits(nf.max_gram_residual(g, z, n, w)) == \
            _bits(_inline_gram_residual(g, tuple(z), tuple(n), tuple(w)))
        assert _bits(hx._gram_drift(metric, state)) == \
            _bits(_inline_gram_residual(g, tuple(z), tuple(n), tuple(w)))
        assert _bits(nf.max_gram_residual(g, tuple(z), tuple(n), tuple(w))) == \
            _bits(_inline_triple_worst(g, tuple(z), tuple(n), tuple(w)))
        new = _outcome(hx._project_frame, metric, state)
        assert new == _outcome(_inline_project_frame, metric, state)
        outcomes.add(new[0])
        for cand in (w, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
            assert _outcome(_shared_ambient_screen, g, tuple(z), n, tuple(cand)) == \
                _outcome(_inline_ambient_screen, g, tuple(z), n, list(cand))
    assert outcomes == {"ok", "raise"}  # both branches of the projection ran


@pytest.mark.parametrize("chart", list(ALGEBRA_CHARTS))
def test_null_transversal_on_jets_matches_the_inline_formula_bitwise(chart):
    metric = ALGEBRA_CHARTS[chart]
    rng = random.Random(f"transversal-{chart}")
    for _ in range(20):
        pos = [Jet([rng.uniform(-1.0, 1.0) for _ in range(4)]) for _ in range(3)]
        zeta = [Jet([rng.uniform(-1.0, 1.0) for _ in range(4)]) for _ in range(3)]
        g = metric.matrix_at([p.truncated(2) for p in pos])
        for seeds in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
            assert _bits(nf.null_transversal(g, zeta, seeds, "here")) == \
                _bits(_inline_null_transversal(g, zeta, seeds))
    g = metric.matrix_at((0.1, 0.2, 0.3))
    for bad in (math.inf, math.nan):
        zeta = [0.5, bad, 0.25]
        assert _bits(nf.null_transversal(g, zeta, (2, 0, 1), "here")) == \
            _bits(_inline_null_transversal(g, zeta, (2, 0, 1)))
