import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix.exprparse import DomainError, eval_jet
from nullhelix.helix import GramDriftError
from nullhelix.jets import Jet, PerSampleCheck, antiderivative, const_term
from nullhelix.nullframe import (
    NoUsableSeedError,
    NotNullError,
    NullCurve,
    ScreenPolicy,
    ScreenSignatureError,
    curvatures_at,
    frame_field,
    frenet_residuals,
)
from nullhelix.semimetric import Matrix, MetricField, bilinear, mat_vec

from conftest import (INJECTED, array_run, inject, outcome, reference_frames, reference_run,
                      uniform_grid, value_bits)

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
    assert frame_field(line, [2.0])[0].null_residual <= 1e-15


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
        fr = frame_field(c1_curve, [t])[0]
        assert fr.n == pytest.approx((math.sin(t) / 2, -math.cos(t) / 2, 0.5), abs=1e-12)
        assert fr.w == pytest.approx((-math.cos(t), -math.sin(t), 0.0), abs=1e-12)
        assert fr.gram_residual <= 1e-9


def test_straight_null_line_frame(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = frame_field(line, [1.0])[0]
    assert fr.zeta == (1.0, 0.0, 1.0)
    assert fr.n == pytest.approx((-0.5, 0.0, 0.5))
    assert abs(fr.w[1]) == pytest.approx(1.0)  # (0, +-1, 0) by orientation rule
    assert fr.w[0] == 0.0 and fr.w[2] == 0.0
    assert fr.w[1] == 1.0  # deterministic tie-break: first significant component positive


def test_spacelike_curve_rejected(flat3):
    c = NullCurve.position(flat3, ["0", "0", "t"], (0.0, 1.0))
    with pytest.raises(NotNullError):
        frame_field(c, [0.5])[0]


def test_c1_curvatures(c1_curve):
    for t in (0.0, 1.3, 4.4):
        fr = frame_field(c1_curve, [t])[0]
        cs = curvatures_at(c1_curve, fr)
        assert cs.h == pytest.approx(0.0, abs=1e-12)
        assert cs.k1 == pytest.approx(1.0, abs=1e-12)
        assert cs.k2 == pytest.approx(-0.5, abs=1e-12)
        assert not cs.geodesic_type


def test_geodesic_curvatures(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = frame_field(line, [2.0])[0]
    cs = curvatures_at(line, fr)
    assert (cs.h, cs.k1, cs.k2) == (0.0, 0.0, 0.0)
    assert cs.geodesic_type


def test_tangent_mode_nonconstant_k1(flat3):
    c = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.0, 3.0))
    for t in (0.6, 1.0, 1.7):
        fr = frame_field(c, [t])[0]
        cs = curvatures_at(c, fr)
        assert cs.k1 == pytest.approx(2.0 * abs(t), abs=1e-9)


def test_frenet_residuals_c1(c1_curve):
    for t in (0.0, 2.0, 5.1):
        fr = frame_field(c1_curve, [t])[0]
        cs = curvatures_at(c1_curve, fr)
        r1, r2, r3 = frenet_residuals(c1_curve, fr, cs)
        assert nf.euclid_norm(r1) <= 1e-9
        assert nf.euclid_norm(r2) <= 1e-9
        assert nf.euclid_norm(r3) <= 1e-9


def test_corrupted_frame_residual(c1_curve):
    """Scaling W by 2 shifts the first residual by |k1| = 1 (linearity)."""
    t = 1.0
    fr = frame_field(c1_curve, [t])[0]
    bad = dataclasses.replace(fr, w=tuple(2.0 * c for c in fr.w))
    cs = curvatures_at(c1_curve, fr)
    r1, _, _ = frenet_residuals(c1_curve, bad, cs)
    assert nf.euclid_norm(r1) == pytest.approx(1.0, abs=1e-9)


def test_frame_field_c1(flat3, c1_curve):
    grid = uniform_grid(0.0, TWO_PI, 100)
    frames = list(frame_field(c1_curve, grid))
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
    assert len(single.t) == 1
    assert list(single) == [frame_field(c1_curve, [1.0])[0]]
    assert type(single[0].t) is float and type(single[0].w[0]) is float
    assert list(frame_field(c1_curve, [])) == []


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
            fr = frame_field(curve, [t])[0]
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
        fa = frame_field(c1_curve, [t], pol_a)[0]
        fb = frame_field(c1_curve, [t], pol_b)[0]
        ka = curvatures_at(c1_curve, fa, pol_a)
        kb = curvatures_at(c1_curve, fb, pol_b)
        assert ka.k1 ** 2 == pytest.approx(kb.k1 ** 2, abs=1e-8)


def test_no_usable_seed(flat3):
    # tangent (1, 0, 1) is g-orthogonal to e2 only; restrict the policy to e2
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    with pytest.raises(NoUsableSeedError):
        frame_field(line, [1.0], ScreenPolicy(seeds=(1,)))


def test_wrong_signature_rejected():
    lorentz = nf.semimetric.MetricField.diag([-1, 1, 1])
    with pytest.raises(ScreenSignatureError):
        NullCurve.position(lorentz, ["t", "0", "t"], (0.0, 1.0))


def test_domain_validation(flat3):
    with pytest.raises(ValueError, match="empty domain"):
        NullCurve.position(flat3, ["t", "0", "t"], (2.0, 1.0))
    c = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 1.0))
    with pytest.raises(ValueError, match="outside curve domain"):
        frame_field(c, [3.0])[0]
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


# -- tangent-mode quadrature in array blocks, bit for bit against the per-node march


def _node_tangent(curve, t):
    env = {"t": Jet.variable(t, 0)}
    return [const_term(eval_jet(c, env)) for c in curve.components]


def _simpson_step(curve, node, t):
    ta, pos, za = node
    dt = t - ta
    zm, zb = _node_tangent(curve, ta + 0.5 * dt), _node_tangent(curve, t)
    return t, tuple(pos[i] + dt * (za[i] + 4.0 * zm[i] + zb[i]) / 6.0
                    for i in range(3)), zb


class _PerNodeMarch:
    """The tangent-mode quadrature one Simpson step per node, on order-0 jets
    through ``eval_jet``, keeping every node it reaches."""

    def __init__(self, curve):
        self.curve = curve
        t0 = curve.domain[0]
        self.nodes = [(t0, curve.initial, _node_tangent(curve, t0))]

    def position_at(self, t):
        t0, step = self.curve.domain[0], self.curve.quad_step
        k = max(0, int(math.floor((t - t0) / step)))
        while len(self.nodes) <= k:
            self.nodes.append(_simpson_step(self.curve, self.nodes[-1],
                                            t0 + len(self.nodes) * step))
        node = self.nodes[k]
        return node[1] if t == node[0] else _simpson_step(self.curve, node, t)[1]


# between them every function and operator of the grammar, powers n < 0,
# n = 0 and n > 1, and a constant component; several QUAD_BLOCKs long
GRAMMAR_TANGENTS = [
    (["sin(t) * cosh(0.5*t) - exp(-t) / sqrt(1 + t^2)",
      "log(2 + t)^(-2) + sinh(t) * cos(3*t)^3 - (1 + t)^0", "-0.75"],
     (0.1, -0.2, 0.3), (0.0, 1.3), 1e-3),
    (["-t^5 / (3 + t)", "1.5", "cos(t)^(-1) - sqrt(t + 4) * exp(t/3)"],
     (1.0, 0.0, -1.0), (-0.4, 1.1), 7e-4),
]


@pytest.mark.parametrize("texts, initial, domain, quad_step", GRAMMAR_TANGENTS)
def test_tangent_mode_block_march_is_the_per_node_march_bitwise(flat3, rng, texts,
                                                                initial, domain, quad_step):
    def curve():
        return NullCurve.tangent(flat3, texts, initial, domain, quad_step=quad_step)

    t0, t1 = domain
    assert (t1 - t0) / quad_step > 3 * nf.QUAD_BLOCK
    ks = [0, 1, nf.QUAD_BLOCK - 1, nf.QUAD_BLOCK, nf.QUAD_BLOCK + 1,
          2 * nf.QUAD_BLOCK, 3 * nf.QUAD_BLOCK + 5]
    on_nodes = [t0 + k * quad_step for k in ks]
    ts = (on_nodes + [t + 0.37 * quad_step for t in on_nodes]
          + [math.nextafter(t, t1) for t in on_nodes[1:]]
          + [rng.uniform(t0, t1) for _ in range(16)] + [t1])
    rng.shuffle(ts)
    reference, marched = _PerNodeMarch(curve()), curve()
    for t in ts:
        expected = _bits(reference.position_at(t))
        assert _bits(marched.position_at(t)) == expected
        assert _bits(curve().position_at(t)) == expected


@pytest.mark.parametrize("text, before, at, message", [
    ("1 + 0*log(0.6 - t)", 0.55, 0.8, "log of non-positive value in 'log(0.6 - t)'"),
    ("1/(t - 0.75)", 0.7, 0.8, "division by zero constant term in '1 / (t - 0.75)'"),
    # numpy's 1/0 is inf, and 1/inf a finite 0: the zero divisor must raise
    ("1/(1/(t - 0.75))", 0.7, 0.8,
     "division by zero constant term in '1 / (t - 0.75)'"),
    ("exp(1000*t^3)", 0.85, 0.95, "result overflows a float in 'exp(1000 * t^3)'"),
    # numpy divides inf by zero without a flag: such a tree marches per node
    ("1/(1e999/(t - 0.75))", 0.7, 0.8,
     "division by zero constant term in '1e999 / (t - 0.75)'"),
    ("1/(1e300*1e300/(t - 0.75))", 0.7, 0.8,
     "division by zero constant term in '1e300 * 1e300 / (t - 0.75)'"),
], ids=["log", "zero-divisor", "zero-divisor-inverted", "overflow",
        "infinite-literal", "infinite-constant"])
def test_tangent_mode_quadrature_errors_are_the_per_node_ones(flat3, text, before, at,
                                                              message):
    def curve():
        return NullCurve.tangent(flat3, [text, "1", "0"], (0.0, 0.0, 0.0), (0.0, 1.0))

    assert 750 * 1e-3 == 0.75  # the zero divisor falls on a node
    reference, marched = _PerNodeMarch(curve()), curve()
    assert _bits(marched.position_at(before)) == _bits(reference.position_at(before))
    failure = ("raise", "DomainError", message)
    assert _outcome(reference.position_at, at) == failure
    assert _outcome(marched.position_at, at) == failure
    assert _outcome(curve().position_at, at) == failure
    assert _bits(marched.position_at(before)) == _bits(reference.position_at(before))
    got, want = _sample_outcomes(3, lambda t: marched.position_jets(t, 2),
                                 np.array([before, at, 0.1]))
    assert got == want == (DomainError, message)


@pytest.mark.parametrize("text", [
    "t*1e300*1e300", "t*1e300*1e300 - t*1e300*1e300",
    # inf only at node QUAD_BLOCK, the last of the first block: its pass
    # runs per node, and the next block starts from that stored tangent
    "1e300 * (1e10 * exp(-1e8*(t - 0.256)^2))",
], ids=["inf", "nan", "inf-at-a-block-edge"])
def test_tangent_mode_quadrature_keeps_non_finite_nodes(flat3, text):
    """Float arithmetic that overflows raises nothing per node: the positions
    are the per-node march's inf and NaN."""
    def curve():
        return NullCurve.tangent(flat3, [text, "1", "0"], (0.0, 0.0, 0.0), (0.0, 1.0))

    reference, marched = _PerNodeMarch(curve()), curve()
    for t in (0.0, 0.5, 0.9, 1.0):
        expected = _bits(reference.position_at(t))
        assert _bits(marched.position_at(t)) == expected
    assert not math.isfinite(marched.position_at(1.0)[0])
    grid = np.array([0.9, 0.0, 1.0, 0.5])
    got, want = _sample_outcomes(4, lambda t: marched.position_jets(t, 2), grid)
    assert got == want
    assert [[c[0] for c in sample] for sample in got[1]] == \
        [value_bits(reference.position_at(t)) for t in grid.tolist()]


@pytest.mark.parametrize("texts, initial, domain, quad_step", GRAMMAR_TANGENTS)
def test_position_jets_on_a_grid_are_the_per_node_march_bitwise(flat3, rng, texts,
                                                                initial, domain, quad_step):
    """Grid times unsorted and repeated, on nodes, next to them and at both
    domain ends, through one march: each sample's position jet is the
    per-node march's position and the tangent's jet at that float t."""
    def curve():
        return NullCurve.tangent(flat3, texts, initial, domain, quad_step=quad_step)

    t0, t1 = domain
    on_nodes = [t0 + k * quad_step for k in (1, nf.QUAD_BLOCK, 2 * nf.QUAD_BLOCK + 1,
                                             3 * nf.QUAD_BLOCK + 5)]
    times = (on_nodes + [math.nextafter(t, t1) for t in on_nodes]
             + [math.nextafter(t, t0) for t in on_nodes]
             + [rng.uniform(t0, t1) for _ in range(8)] + [t0, t1])
    times += times[::3]
    rng.shuffle(times)
    assert max(times) - min(times) > 3 * nf.QUAD_BLOCK * quad_step
    got = curve().position_jets(np.array(times), 2)
    reference = _PerNodeMarch(curve())
    for i, t in enumerate(times):
        want = [antiderivative(z, p)
                for z, p in zip(curve().zeta_jets(t, 1), reference.position_at(t))]
        assert _bits(nf._sample(got, i)) == _bits(want)


def test_a_tangent_grid_is_marched_once_without_position_at(monkeypatch, flat3):
    """The frames on a tangent-mode grid read their base points from one
    march: ``position_at`` runs once, from ``__init__``, and ``_block`` once
    per QUAD_BLOCK nodes up to the node below the last grid time."""
    calls = []
    position_at, block = NullCurve.position_at, NullCurve._block

    def counted_position_at(self, t):
        calls.append("position_at")
        return position_at(self, t)

    def counted_block(self, node, i, j):
        calls.append("_block")
        return block(self, node, i, j)

    monkeypatch.setattr(NullCurve, "position_at", counted_position_at)
    monkeypatch.setattr(NullCurve, "_block", counted_block)
    curve = NullCurve.tangent(flat3, ["cos(t)", "sin(t)", "1"], (0, 0, 0), (0.0, 2.0))
    grid = uniform_grid(0.1, 1.9, 30)
    frame_field(curve, grid)
    nodes = math.floor(grid[-1] / curve.quad_step)
    assert calls.count("position_at") == 1
    assert calls.count("_block") == math.ceil(nodes / nf.QUAD_BLOCK)


def test_screen_vector_rejects_a_spacelike_screen():
    euclid = Matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ScreenSignatureError) as exc:
        nf.screen_vector(euclid, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], "at t = 0.5")
    assert str(exc.value) == ("screen complement not timelike at t = 0.5: "
                              "metric is not index 2")


def test_euclid_norm_is_inf_where_a_square_overflows():
    assert nf.euclid_norm((1e200, 1.0, 0.0)) == math.inf
    assert nf.euclid_norm((3.0, 4.0, 0.0)) == 5.0


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
        assert _bits(nf.max_gram_residual(g, tuple(z), tuple(n), tuple(w))) == \
            _bits(_inline_triple_worst(g, tuple(z), tuple(n), tuple(w)))
        new = _outcome(hx._project_frame, metric, state)
        assert new == _outcome(_inline_project_frame, metric, state)
        outcomes.add(new[0])
        for cand in (w, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
            assert _outcome(_shared_ambient_screen, g, tuple(z), n, tuple(cand)) == \
                _outcome(_inline_ambient_screen, g, tuple(z), n, list(cand))
    assert outcomes == {"ok", "raise"}  # both branches of the projection ran
    # synthesize's block check of every state, its g read on the states' arrays:
    # the drifts, or the first NaN drift's GramDriftError, of a loop over states
    states = _algebra_states(metric, random.Random(f"frame-algebra-{chart}"))
    want = [_inline_gram_residual(metric.matrix_at(s[0:3]), tuple(s[3:6]), tuple(s[6:9]),
                                  tuple(s[9:12])) for s in states]
    for keep in ([all(map(math.isfinite, s)) for s in states],  # one pass on the arrays
                 [d == d for d in want]):  # per state, as some state is not finite
        block = [(0.5, s, s) for s, k in zip(states, keep) if k]
        _, drifts, _ = hx._check_block(metric, None, block, math.inf)
        assert _bits(drifts.tolist()) == _bits([d for d, k in zip(want, keep) if k])
    first = next(i for i, d in enumerate(want) if d != d)
    with pytest.raises(GramDriftError) as info:
        hx._check_block(metric, None, [(float(i), s, s) for i, s in enumerate(states)],
                        math.inf)
    assert (str(info.value), info.value.t) == \
        (f"Gram drift nan exceeds inf at t = {float(first)}", float(first))


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


# -- frame bundles over sample arrays against the per-sample loop, bit for bit

FLAT = MetricField.diag([-1, -1, 1])
# a chart where g(zeta, e1) = (t - 1)^2 vanishes at t = 1: the e1-first policy
# switches seed axis there, and the frames stay continuous
OFF_DIAGONAL = MetricField.from_texts(3, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]])
C1_TEXTS = ["cos(t)", "sin(t)", "t"]


def _conformal_by(e):
    return MetricField.from_texts(3, [[f"-({e})", "0", "0"], ["0", f"-({e})", "0"],
                                      ["0", "0", e]])


def _conformal(c):
    return _conformal_by(f"exp({c}*x3)")


def _switching_curve():
    return NullCurve.position(OFF_DIAGONAL, ["t", "(t - 1)^3/3", "(t - 1)^2/sqrt(2)"],
                              (0.0, 2.0))


# name -> (curve, grid, policy)
ARRAY_CASES = {
    "c1": lambda: (NullCurve.position(FLAT, C1_TEXTS, (0.0, TWO_PI)),
                   uniform_grid(0.0, TWO_PI, 30), None),
    "conformal +0.4": lambda: (NullCurve.position(_conformal(0.4), C1_TEXTS, (0.0, TWO_PI)),
                               uniform_grid(0.0, TWO_PI, 30), None),
    "conformal -0.7": lambda: (NullCurve.position(_conformal(-0.7), C1_TEXTS,
                                                  (0.0, TWO_PI)),
                               uniform_grid(0.2, 5.0, 17), None),
    "tangent": lambda: (NullCurve.tangent(FLAT, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0),
                                          (0.1, 3.0)), uniform_grid(0.5, 2.0, 25), None),
    # sinh and cosh map libm over arrays, where numpy's can differ in the last bit
    "cosh chart": lambda: (NullCurve.position(_conformal_by("cosh(0.3*x3) + sinh(0.3*x3)^2"),
                                              C1_TEXTS, (0.0, TWO_PI)),
                           uniform_grid(0.0, TWO_PI, 13), None),
    "vanishing tangent": lambda: (NullCurve.position(FLAT, ["t^2", "0", "t^2"], (-1.0, 1.0)),
                                  uniform_grid(-1.0, 1.0, 5), None),
    "one sample": lambda: (NullCurve.position(FLAT, C1_TEXTS, (0.0, TWO_PI)), [1.0], None),
    "two samples": lambda: (NullCurve.position(_conformal(0.4), C1_TEXTS, (0.0, TWO_PI)),
                            [0.5, 2.5], None),
    "seed switch": lambda: (_switching_curve(), uniform_grid(0.5, 1.5, 9),
                            ScreenPolicy(seeds=(0, 2, 1))),
    "seed switch jumps": lambda: (_switching_curve(), uniform_grid(0.5, 1.5, 9),
                                  ScreenPolicy(seeds=(2, 0, 1))),
    # products overflow: numpy flags them, so every stage runs per sample
    "overflow": lambda: (NullCurve.position(FLAT, ["1e200*cos(t)", "1e200*sin(t)",
                                                   "1e200*t"], (0.0, 1.0)),
                         uniform_grid(0.0, 1.0, 5), None),
    # an infinite constant keeps every stage per sample from the start
    "non-finite constant": lambda: (NullCurve.position(FLAT, ["cos(t)", "sin(t)",
                                                              "t + 0*1e999"], (0.0, 1.0)),
                                    uniform_grid(0.0, 1.0, 5), None),
}


@pytest.mark.parametrize("case", list(ARRAY_CASES))
def test_frames_and_measures_on_arrays_match_the_per_sample_loop(case):
    """Frame rows, (h, k1, k2) and the Frenet residuals (and the identities
    and cubic residual) of ``frame_field`` over sample arrays are, sample by
    sample, bitwise those of the per-sample loop, or both raise one error."""
    curve, grid, policy = ARRAY_CASES[case]()
    got = outcome(array_run, curve, grid, policy)
    assert got == outcome(reference_run, curve, grid, policy)
    assert got[:1] == ("ok",) or got == {
        "seed switch jumps": (nf.FrameDiscontinuityError,
                              "screen direction jumps between t = 0.875 and t = 1.0"),
        "vanishing tangent": (ValueError, "vanishing tangent at t = 0.0")}[case]


# conformal factors with powers, which a frame's float g takes per sample by
# Python's ``**``: square-and-multiply products give other last bits at some
# of the 400 samples of C1 on [0, 2] for x1^3 and x1^-2
POWER_CHARTS = {"x1^3": "1 + 0.3*x1^3", "x3^2": "1 + 0.3*x3^2",
                "x1^-2": "1 + 0.3*(2 + x1)^-2"}


@pytest.mark.parametrize("chart", list(POWER_CHARTS))
def test_frames_on_power_charts_match_the_per_sample_loop(chart):
    """A power takes each element's ``**`` on a sample array, as on a float,
    so the frames' null and Gram residuals and every measure over the grid
    are bitwise the per-sample loop's."""
    curve = NullCurve.position(_conformal_by(POWER_CHARTS[chart]), C1_TEXTS, (0.0, 2.0))
    grid = uniform_grid(0.0, 2.0, 400)
    got = outcome(array_run, curve, grid)
    assert got[0] == "ok"
    assert got == outcome(reference_run, curve, grid)


def _jet_bits(jets_):
    return [[float(c).hex() for c in jet.coeffs] for jet in jets_]


@pytest.mark.parametrize("case", [c for c in ARRAY_CASES
                                  if c not in ("non-finite constant", "vanishing tangent")])
def test_bundle_over_a_grid_matches_the_bundles_per_t(case):
    """zeta, N, W and the layers cov zeta, cov N, cov W and cov^3 zeta of
    the one bundle over the grid are bitwise the per-t bundles'."""
    curve, grid, policy = ARRAY_CASES[case]()
    policy = policy or ScreenPolicy()
    bundle = nf._frame_jets(curve, np.array(grid), policy)
    layers = [("zeta", 1), ("n", 1), ("w", 1), ("zeta", 3)]
    for i, t in enumerate(grid):
        single = nf._build_frame_jets(curve, t, policy)
        at_i = bundle.sample(i)
        for a, b in ((at_i, single),):
            assert _jet_bits(a.pos) == _jet_bits(b.pos)
            for field in ("zeta", "n", "w"):
                assert _jet_bits(getattr(a, field)) == _jet_bits(getattr(b, field))
    for field, times in layers:
        arrays = bundle.cov(field, times)
        for i, t in enumerate(grid):
            single = nf._build_frame_jets(curve, t, policy)
            assert _jet_bits(nf._sample(arrays, i)) == _jet_bits(single.cov(field, times))


def test_seed_axis_is_selected_per_sample():
    curve, grid, policy = ARRAY_CASES["seed switch"]()
    bundle = nf._frame_jets(curve, np.array(grid), policy)
    idx, _, _ = nf.null_transversal(bundle.gmat, bundle.zeta, policy.seeds, "here")
    assert idx.tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0]
    frames = frame_field(curve, grid, policy)
    assert [value_bits(fr) for fr in frames] == \
        [value_bits(fr) for fr in reference_frames(curve, grid, policy)]


@pytest.mark.parametrize("case", ["c1", "conformal +0.4", "tangent", "seed switch",
                                  "overflow", "non-finite constant"])
def test_each_stage_runs_once_on_arrays_unless_it_must_replay(monkeypatch, case):
    """The bundle is built in one array pass (one ``position_jets`` call at
    the grid times), unless a numpy flag or a non-finite constant sends it
    per sample: then once per sample more.  A curve whose trees hold a
    non-finite constant refuses arrays inside that call, so no tree of it
    is evaluated on arrays (no ``eval_jet`` call binds t to an array)."""
    curve, grid, policy = ARRAY_CASES[case]()
    calls, bound = [], []
    position_jets = NullCurve.position_jets

    def counted(self, t, order):
        calls.append(t)
        return position_jets(self, t, order)

    def traced(node, env):
        bound.append(isinstance(const_term(env["t"]), np.ndarray))
        return eval_jet(node, env)

    monkeypatch.setattr(NullCurve, "position_jets", counted)
    monkeypatch.setattr(nf, "eval_jet", traced)
    try:
        array_run(curve, grid, policy)
    except ValueError:
        pass
    arrays = [c for c in calls if isinstance(c, np.ndarray)]
    floats = [c for c in calls if not isinstance(c, np.ndarray)]
    assert len(arrays) == 1
    assert floats == (grid if case in ("overflow", "non-finite constant") else [])
    assert any(bound) == (case != "non-finite constant")


# -- the tree evaluators refuse sample arrays where numpy may differ from floats

NONFINITE_TEXT = "1 + x3^2/1e999"  # 1e999 is inf, so x3^2/1e999 is 0.0 at a float


def _plain(x):
    """Jets as their coefficients and arrays as lists, part by part."""
    if isinstance(x, Jet):
        return [_plain(c) for c in x.coeffs]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(c) for c in x]
    return x


def _sample_outcomes(size, fn, *args):
    """The outcomes, sample by sample, of ``_on_samples`` and of the loop
    over samples."""
    def on_samples():
        out = nf._on_samples(size, fn, *args)
        return [_plain(nf._sample(out, i)) for i in range(size)]

    def loop():
        return [_plain(fn(*(nf._sample(a, i) for a in args))) for i in range(size)]

    return outcome(on_samples), outcome(loop)


def _refusal_cases():
    """name -> (function, sample arrays it refuses): a tree with a non-finite
    constant (any arrays), and finite trees given a point with inf or NaN."""
    from nullhelix.submanifold import Immersion

    nonfinite = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                           ["0", "0", NONFINITE_TEXT]])
    chart = _conformal(0.4)
    finite = [np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.0, -1.0]),
              np.array([0.25, 1.0, 2.0])]
    bad = [np.array([0.1, 0.2, 0.3]), np.array([0.5, math.inf, -1.0]),
           np.array([0.25, 1.0, math.nan])]
    jet_point = [Jet([c, 1.0, 0.5]) for c in finite]
    amb4 = MetricField.diag([-1, -1, 1, 1])
    curve = NullCurve.position(FLAT, ["cos(t)", "sin(t)", "t + 0*1e999"], (0.0, 1.0))
    tangent = NullCurve.tangent(FLAT, ["cos(t)", "sin(t)", "1 + 0*1e999"], (0, 0, 0),
                                (0.0, 1.0))
    times = np.array([0.0, 0.5, 1.0])
    return {
        "matrix_at, constant": (nonfinite.matrix_at, finite),
        "matrix_at on jets, constant": (nonfinite.matrix_at, jet_point),
        "christoffel, constant": (nonfinite.christoffel, finite),
        "christoffel on jets, constant": (nonfinite.christoffel, jet_point),
        "map_and_tangent, constant": (Immersion.from_texts(
            3, amb4, ["u1", "u2", "u3", NONFINITE_TEXT.replace("x", "u")]).map_and_tangent,
            finite),
        "zeta_jets, constant": (lambda t: curve.zeta_jets(t, 2), times),
        "position_jets, constant": (lambda t: curve.position_jets(t, 2), times),
        "tangent position_jets, constant": (lambda t: tangent.position_jets(t, 2), times),
        "matrix_at, point": (chart.matrix_at, bad),
        "christoffel, point": (chart.christoffel, bad),
        "map_and_tangent, point": (Immersion.from_texts(
            3, amb4, ["u1", "u2", "u3", "exp(u3)"]).map_and_tangent, bad),
        "zeta_jets, point": (lambda t: curve.zeta_jets(t, 2),
                             np.array([0.0, math.nan, 1.0])),
        "position_jets, point": (lambda t: curve.position_jets(t, 2),
                                 np.array([0.0, math.inf, 1.0])),
    }


@pytest.mark.parametrize("case", list(_refusal_cases()))
def test_tree_evaluators_refuse_sample_arrays(case):
    """Each raises PerSampleCheck on the sample arrays, and ``_on_samples``
    then gives the loop over samples' bits, or raises its error."""
    fn, arrays = _refusal_cases()[case]
    with pytest.raises(PerSampleCheck):
        fn(arrays)
    got, want = _sample_outcomes(3, fn, arrays)
    assert got == want


def test_a_division_by_zero_past_an_infinite_point_is_the_per_sample_error():
    """At x3 = inf and x1 = 0, numpy's inf / 0 is inf without a flag, where
    a float raises: the refusal keeps the loop's DomainError."""
    chart = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                       ["0", "0", "2 + x3/x1"]])
    points = [np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([0.5, math.inf])]
    got, want = _sample_outcomes(2, chart.matrix_at, points)
    assert got == want
    assert got[0] is DomainError


def test_a_replay_per_sample_marches_the_quadrature_once_more(monkeypatch):
    """The chart refuses arrays, so the bundle's array pass over the grid is
    run again per sample: each march goes on from the last t's node, so the
    replay marches the nodes once more, not once per sample from t0."""
    metric = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                        ["0", "0", NONFINITE_TEXT]])
    curve = NullCurve.tangent(metric, ["cos(t)", "sin(t)", "1"], (0, 0, 0), (0.0, 2.0))
    grid = uniform_grid(0.1, 1.9, 20)
    marched = []
    block = NullCurve._block

    def counted(self, node, i, j):
        marched.append(j - i)
        return block(self, node, i, j)

    monkeypatch.setattr(NullCurve, "_block", counted)
    frames = frame_field(curve, grid)
    assert 0 < sum(marched) <= 2 * math.floor(grid[-1] / curve.quad_step)
    assert [value_bits(fr) for fr in frames] == \
        [value_bits(fr) for fr in reference_frames(curve, grid)]


def test_finite_trees_on_finite_arrays_run_in_one_pass():
    chart = _conformal(0.4)
    points = [np.array([0.1, 0.5]), np.array([0.2, 0.0]), np.array([0.3, -1.0])]
    for fn in (chart.matrix_at, chart.christoffel):
        fn(points)  # not refused
        got, want = _sample_outcomes(2, fn, points)
        assert got == want and got[0] == "ok"


INJECTED_ERRORS = {"not null": NotNullError, "domain": DomainError,
                   "degenerate": nf.semimetric.DegenerateMetricError,
                   "christoffel": DomainError, "gram": ValueError,
                   "discontinuity": nf.FrameDiscontinuityError}


@pytest.mark.parametrize("where", [0, 5, 10])
@pytest.mark.parametrize("kind", INJECTED)
def test_injected_failure_raises_the_per_sample_error(monkeypatch, kind, where):
    """A failure at the first, a middle or the last sample of the grid
    raises what the per-sample loop raises: type, text and sample."""
    grid = uniform_grid(0.5, 3.0, 11)
    metric, texts = inject(monkeypatch, kind, grid[where])
    curve = NullCurve.position(metric, texts, (0.0, TWO_PI))
    got = outcome(array_run, curve, grid)
    assert got == outcome(reference_run, curve, grid)
    assert got[0] is INJECTED_ERRORS[kind]
    assert repr(grid[where]) in got[1]


@pytest.mark.parametrize("first, second", [(("christoffel", 2), ("gram", 7)),
                                           (("christoffel", 0), ("gram", 5)),
                                           (("christoffel", 7), ("discontinuity", 2)),
                                           (("degenerate", 7), ("christoffel", 2)),
                                           (("not null", 9), ("gram", 1))])
def test_failures_of_two_stages_raise_in_the_per_sample_order(monkeypatch, first, second):
    """Across stages the first error is the per-sample loop's: every bundle,
    then the orientation, the frames, and only then the measurements."""
    grid = uniform_grid(0.5, 3.0, 11)
    metric, texts = inject(monkeypatch, first[0], grid[first[1]])
    inject(monkeypatch, second[0], grid[second[1]])
    curve = NullCurve.position(metric, texts, (0.0, TWO_PI))
    got = outcome(array_run, curve, grid)
    assert got == outcome(reference_run, curve, grid)
    assert got[0] != "ok"
