import copy
import dataclasses
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullhelix import cli, exprparse
from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix import submanifold as sb
from nullhelix.jets import Jet, PerSampleCheck, const_term
from nullhelix.nullframe import NullCurve, curvatures_at, euclid_norm, frame_field
from nullhelix.semimetric import MetricField, bilinear, full_support
from nullhelix.submanifold import (
    DegenerateNormalError,
    Immersion,
    RankDeficiencyError,
    duality_residual,
    geodesic_residual,
    helix_transfer,
    induced_metric,
    mean_curvature,
    nabla_B,
    normal_basis,
    null_triple,
    parallel_H_residual,
    second_fundamental,
    umbilical_diagnostic,
    umbilical_residual,
)

from conftest import expr_trees, reference_ambient_frames, uniform_grid

# closed-form induced metrics of the conftest immersions: independent oracles
# for the connection that submanifold reads off the Gauss formula
GRAPH_METRIC = MetricField.from_texts(
    3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]])
PSEUDOSPHERE_METRIC = MetricField.from_texts(
    3, [["-1", "0", "0"], ["0", "-sinh(x1)^2", "0"], ["0", "0", "cosh(x1)^2"]])
SPHERE2_METRIC = MetricField.from_texts(2, [["4", "0"], ["0", "4*sin(x1)^2"]])


# -- induced metric and normals ---------------------------------------------------


def test_induced_metric_slice(slice_immersion):
    g = induced_metric(slice_immersion, [0.3, -1.0, 2.0])
    assert g == [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]


def test_induced_metric_sphere(sphere2):
    g = induced_metric(sphere2, [math.pi / 2, 0.0])
    assert g[0][0] == pytest.approx(4.0, abs=1e-12)
    assert g[1][1] == pytest.approx(4.0, abs=1e-12)
    assert g[0][1] == pytest.approx(0.0, abs=1e-12)


def test_rank_deficiency(amb4):
    bad = Immersion.from_texts(2, amb4, ["u1", "u1", "0", "0"])
    with pytest.raises(RankDeficiencyError):
        induced_metric(bad, [0.5, 1.0])
    with pytest.raises(RankDeficiencyError):
        normal_basis(bad, [0.5, 1.0])


def test_a_differential_that_is_not_finite_is_named(amb4):
    # d/du1 of u1*u1*1e300*1e300 overflows to inf at u1 = 1, so T has no rank
    F = Immersion.from_texts(3, amb4, ["u1", "u2", "u3", "u1*u1*1e300*1e300"])
    assert sb._at(F, [1.0, 0.5, 0.2]).rank is None
    with pytest.raises(ValueError, match=r"^differential is not finite at \(1.0, 0.5, 0.2\)$"):
        normal_basis(F, [1.0, 0.5, 0.2])


def test_normal_basis_slice(slice_immersion):
    nb = normal_basis(slice_immersion, [0.0, 0.0, 0.0])
    assert nb.vectors == ((0.0, 0.0, 0.0, 1.0),)
    assert nb.signs == (1.0,)


def test_normal_basis_sphere(sphere2):
    nb = normal_basis(sphere2, [math.pi / 2, 0.0])
    assert nb.vectors[0] == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert nb.signs == (1.0,)


def test_normal_basis_degenerate(amb4):
    # tangent plane contains the null direction e1 + e3: no +-1 normal exists
    nullplane = Immersion.from_texts(3, amb4, ["u1", "u2", "u1", "u3"])
    with pytest.raises(DegenerateNormalError):
        normal_basis(nullplane, [0.1, 0.2, 0.3])


def test_induced_metric_graph_hand_values(graph_immersion):
    u = (0.0, 0.0, 1.0)
    assert induced_metric(graph_immersion, u)[2][2] == pytest.approx(2.0, abs=1e-12)
    e3 = [0.0, 0.0, 1.0]
    gamma = sb._intrinsic_nabla(sb._point(graph_immersion, list(u)), e3, e3)
    # hand oracle on diag(-1, -1, 1 + u3^2): G^3_33 = u3 / (1 + u3^2)
    assert gamma[2] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name, metric, box", [
    ("graph_immersion", GRAPH_METRIC, [(-2.0, 2.0)] * 3),
    ("pseudosphere", PSEUDOSPHERE_METRIC, [(0.3, 1.5), (-3.0, 3.0), (-3.0, 3.0)]),
    ("sphere2", SPHERE2_METRIC, [(0.5, 2.6), (-3.0, 3.0)]),
])
def test_gauss_connection_matches_closed_form(request, rng, name, metric, box):
    """nabla_{e_b} e_c from the Gauss formula equals the closed-form Gamma^a_bc."""
    F = request.getfixturevalue(name)
    m = F.m
    basis = [[1.0 if i == a else 0.0 for i in range(m)] for a in range(m)]
    for _ in range(10):
        u = [rng.uniform(lo, hi) for lo, hi in box]
        gamma = metric.christoffel(u)
        pt = sb._point(F, u)
        for b in range(m):
            for c in range(m):
                got = sb._intrinsic_nabla(pt, basis[b], basis[c])
                want = [gamma[a][b][c] for a in range(m)]
                assert got == pytest.approx(want, abs=1e-13), (u, b, c)


# -- the generated map and Jacobian ----------------------------------------------------


def _seeded_map(F, u):
    """Reference for f: every component through ``exprparse._eval``."""
    env = dict(zip(F._uvars, u))
    return [exprparse._eval(c, env) for c in F.components]


def _seeded_tangent(F, u):
    """Reference for T: one pass of order-1 jets seeded along each u_a."""
    rows = []
    for a in range(F.m):
        seeded = [Jet((u[b], 1.0 if b == a else 0.0)) for b in range(F.m)]
        env = dict(zip(F._uvars, seeded))
        rows.append([sb._slope(exprparse._eval(c, env)) for c in F.components])
    return rows


def _bits(v):
    """v's Taylor coefficients, nested, with -0.0 mapped to 0.0 (a float is a
    constant jet: trailing zero coefficients are dropped)."""
    if not isinstance(v, Jet):
        return (v + 0.0,)
    coeffs = [_bits(c) for c in v.coeffs]
    while len(coeffs) > 1 and coeffs[-1] == (0.0,):
        coeffs.pop()
    return coeffs[0] if len(coeffs) == 1 else tuple(coeffs)


IMMERSION_BOXES = [
    ("slice_immersion", [(-2.0, 2.0)] * 3),
    ("sphere2", [(0.5, 2.6), (-3.0, 3.0)]),
    ("pseudosphere", [(0.3, 1.5), (-3.0, 3.0), (-3.0, 3.0)]),
    ("graph_immersion", [(-2.0, 2.0)] * 3),
]


@pytest.mark.parametrize("name, box", IMMERSION_BOXES,
                         ids=[name for name, _ in IMMERSION_BOXES])
def test_generated_map_and_tangent_equal_the_seeded_oracle(request, name, box):
    """Floats, order-1 jet rays (as the ray bundles use) and nested jets (as
    the reference for S on rays below uses): every coefficient equal, zero
    signs aside."""
    F = request.getfixturevalue(name)
    rng = random.Random(31)
    points = []
    for _ in range(20):
        u = [rng.uniform(lo, hi) for lo, hi in box]
        x = [rng.uniform(-1.0, 1.0) for _ in box]
        y = [rng.uniform(-1.0, 1.0) for _ in box]
        points.append(u)
        points.append([Jet((a, b)) for a, b in zip(u, x)])
        points.append([Jet((Jet((a, b)), c)) for a, b, c in zip(u, x, y)])
    for u in points:
        f, T = F.map_and_tangent(u)
        assert [_bits(c) for c in f] == [_bits(c) for c in _seeded_map(F, u)]
        assert [[_bits(c) for c in row] for row in T] == \
            [[_bits(c) for c in row] for row in _seeded_tangent(F, u)]


@given(st.lists(expr_trees(("u1", "u2", "u3")), min_size=4, max_size=4),
       st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_generated_map_and_tangent_match_the_seeded_oracle_on_random_maps(trees, u):
    F = Immersion(3, MetricField.diag([-1, -1, 1, 1]), trees)
    try:
        want = [_seeded_map(F, u), *_seeded_tangent(F, u)]
    except exprparse.DomainError:
        return  # outside the domain
    f, T = F.map_and_tangent(u)
    for got_row, want_row in zip([f, *T], want):
        for a, b in zip(got_row, want_row):
            if math.isfinite(b):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _ray_hessian(tangent, u):
    """Reference for S that reads no second-derivative tree: T, from
    ``tangent`` (a map from points to T), on the jet ray through u along each
    axis, differentiated along that ray."""
    m = len(u)
    rows = [tangent([Jet((c, 1.0 if i == b else 0.0)) for i, c in enumerate(u)])
            for b in range(m)]
    return [[[sb._slope(c) for c in rows[b][a]] for b in range(m)] for a in range(m)]


# products of the coordinates make d/du_a d/du_b round differently from
# d/du_b d/du_a, so S[a][b] and S[b][a] need not share their bits
MIXED_MAP = ["exp(u1*u2)", "log(1 + u2^2)*u3", "sqrt(2 + u1*u3)", "cosh(u1 - u2*u3)"]
HESSIAN_BOXES = [*IMMERSION_BOXES, ("mixed", [(-1.0, 1.0)] * 3)]


@pytest.mark.parametrize("name, box", HESSIAN_BOXES,
                         ids=[name for name, _ in HESSIAN_BOXES])
def test_generated_hessian_equals_t_differentiated_along_axis_rays(request, name, box):
    """S at floats and at order-1 jet rays (as the ray bundles of B read it)
    from the generated function: every coefficient of T differentiated along
    the axis rays, zero signs aside."""
    F = (Immersion.from_texts(3, request.getfixturevalue("amb4"), MIXED_MAP)
         if name == "mixed" else request.getfixturevalue(name))
    rng = random.Random(37)
    for _ in range(25):
        u = [rng.uniform(lo, hi) for lo, hi in box]
        x = [rng.uniform(-1.0, 1.0) for _ in box]
        for point in (u, [Jet((a, b)) for a, b in zip(u, x)]):
            got = sb._Point(F, point).S
            want = _ray_hessian(lambda p: F.map_and_tangent(p)[1], point)
            assert [[[_bits(c) for c in col] for col in row] for row in got] == \
                [[[_bits(c) for c in col] for col in row] for row in want]


@given(st.lists(expr_trees(("u1", "u2", "u3")), min_size=4, max_size=4),
       st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_generated_hessian_matches_the_seeded_oracle_on_random_maps(trees, u):
    F = Immersion(3, MetricField.diag([-1, -1, 1, 1]), trees)
    try:
        want = _ray_hessian(lambda p: _seeded_tangent(F, p), u)
    except exprparse.DomainError:
        return  # outside the domain
    got = F._generated_hessian(*u)
    for a in range(3):
        for b in range(3):
            for x, y in zip(got[a][b], want[a][b]):
                if math.isfinite(y):
                    assert math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0), (a, b)


# -- fundamental forms --------------------------------------------------------------


def test_second_fundamental_slice_vanishes(slice_immersion, rng):
    for _ in range(5):
        u = [rng.uniform(-2, 2) for _ in range(3)]
        x = [rng.uniform(-1, 1) for _ in range(3)]
        y = [rng.uniform(-1, 1) for _ in range(3)]
        b = second_fundamental(slice_immersion, u, x, y)
        assert euclid_norm(b) <= 1e-10


def test_second_fundamental_sphere(sphere2):
    u = [math.pi / 2, 0.0]
    x = (0.5, 0.0)  # unit tangent
    b = second_fundamental(sphere2, u, x, x)
    # inward radial vector of length 1/r = 1/2
    assert b == pytest.approx((-0.5, 0.0, 0.0), abs=1e-12)


def test_second_fundamental_graph(graph_immersion):
    b = second_fundamental(graph_immersion, [0, 0, 0], (0, 0, 1), (0, 0, 1))
    assert b == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-12)


def test_b_symmetry_random(graph_immersion, rng):
    u = [0.3, -0.7, 0.9]
    for _ in range(10):
        x = [rng.uniform(-1, 1) for _ in range(3)]
        y = [rng.uniform(-1, 1) for _ in range(3)]
        bxy = second_fundamental(graph_immersion, u, x, y)
        byx = second_fundamental(graph_immersion, u, y, x)
        assert max(abs(a - b) for a, b in zip(bxy, byx)) <= 1e-10


def test_shape_operator_examples(sphere2, slice_immersion):
    u = [math.pi / 2, 0.0]
    x = (0.5, 0.0)
    a = sb._shape_value(sb._at(sphere2, u), 0, list(x))
    # outward normal: A(X) = -X / r = -X / 2 (consistent with duality)
    assert a == pytest.approx((-0.25, 0.0), abs=1e-12)
    assert sb._shape_value(sb._at(slice_immersion, [0, 0, 0]), 0, [1, 0, 0]) == \
        pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_duality_residual(sphere2, slice_immersion, graph_immersion, rng):
    for _ in range(10):
        u = [rng.uniform(0.5, 2.5), rng.uniform(0.0, 3.0)]
        x = [rng.uniform(-1, 1) for _ in range(2)]
        y = [rng.uniform(-1, 1) for _ in range(2)]
        assert duality_residual(sphere2, u, x, y, 0) <= 1e-9
    assert duality_residual(slice_immersion, [0, 0, 0], (1, 0, 0), (0, 1, 0), 0) == 0.0
    for _ in range(10):
        u = [rng.uniform(-1, 1) for _ in range(3)]
        x = [rng.uniform(-1, 1) for _ in range(3)]
        y = [rng.uniform(-1, 1) for _ in range(3)]
        assert duality_residual(graph_immersion, u, x, y, 0) <= 1e-8


def test_mean_curvature_examples(sphere2, slice_immersion, euclid3):
    assert mean_curvature(slice_immersion, [1, 2, 3]) == \
        pytest.approx((0, 0, 0, 0), abs=1e-14)
    h = mean_curvature(sphere2, [math.pi / 2, 0.0])
    assert euclid_norm(h) == pytest.approx(0.5, abs=1e-10)
    par = Immersion.from_texts(2, euclid3, ["u1", "u2", "(u1^2 + u2^2)/2"])
    assert mean_curvature(par, [0.0, 0.0]) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_mean_curvature_frame_independence(sphere2):
    """H from the standard frame equals H from a rotated orthonormal frame."""
    u = [1.1, 0.4]
    h_std = mean_curvature(sphere2, u)
    g = induced_metric(sphere2, u)
    # build a second orthonormal frame by rotating the first one
    pt = sb._point(sphere2, u)
    # the induced metric and its inverse have no structural zero
    assert g.support == pt.g.support == pt.g_inv.support == full_support(2)
    (e1, s1), (e2, s2) = pt.frame
    c, s = math.cos(0.77), math.sin(0.77)
    f1 = [c * e1[i] + s * e2[i] for i in range(2)]
    f2 = [-s * e1[i] + c * e2[i] for i in range(2)]
    acc = [0.0, 0.0, 0.0]
    for vec, sign in ((f1, s1), (f2, s2)):
        nrm = bilinear(g, vec, vec)
        b = sb._b_value(pt, vec, vec)
        for k in range(3):
            acc[k] += (1.0 if nrm > 0 else -1.0) * b[k]
    h_rot = [a / 2.0 for a in acc]
    assert max(abs(a - b) for a, b in zip(h_std, h_rot)) <= 1e-8


def test_umbilical_residuals(sphere2, slice_immersion, euclid3, rng):
    for _ in range(4):
        u = [rng.uniform(0.5, 2.5), rng.uniform(0.0, 3.0)]
        assert umbilical_residual(sphere2, u) <= 1e-8
    assert umbilical_residual(slice_immersion, [0, 0, 0]) == 0.0
    cyl = Immersion.from_texts(2, euclid3, ["cos(u1)", "sin(u1)", "u2"])
    assert umbilical_residual(cyl, [0.3, 1.0]) >= 0.4


def test_geodesic_residuals(sphere2, slice_immersion, graph_immersion):
    assert geodesic_residual(slice_immersion, [0, 0, 0]) == 0.0
    assert geodesic_residual(sphere2, [1.0, 0.5]) == pytest.approx(0.5, abs=1e-10)
    assert geodesic_residual(graph_immersion, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_parallel_H(sphere2, slice_immersion, euclid3):
    assert parallel_H_residual(sphere2, [1.0, 0.7], (1.0, 0.3)) <= 1e-7
    assert parallel_H_residual(slice_immersion, [0, 0, 0], (1, 0, 0)) == 0.0
    par = Immersion.from_texts(2, euclid3, ["u1", "u2", "(u1^2 + u2^2)/2"])
    assert parallel_H_residual(par, [0.8, 0.4], (1.0, 0.0)) > 1e-3


# -- covariant derivatives of B -----------------------------------------------------


def test_nabla_b_slice_and_sphere(slice_immersion, sphere2):
    assert nabla_B(slice_immersion, [0, 0, 0], (1, 0, 0), (0, 1, 0), (0, 0, 1)) == \
        pytest.approx((0, 0, 0, 0), abs=1e-14)
    v = nabla_B(sphere2, [1.0, 0.6], (1, 0), (0, 1), (1, 0))
    assert euclid_norm(v) <= 1e-7  # spheres have parallel second fundamental form


def _fd_nabla_b(F, u, x, y, z, h=1e-5):
    """Independent finite-difference oracle for (nabla B)(x, y, z) on the graph."""
    up = [u[a] + h * z[a] for a in range(F.m)]
    um = [u[a] - h * z[a] for a in range(F.m)]
    bp = second_fundamental(F, up, x, y)
    bm = second_fundamental(F, um, x, y)
    d = [(bp[k] - bm[k]) / (2.0 * h) for k in range(F.ambient.dim)]
    # ambient connection vanishes on a flat chart; project onto the normal space
    perp = sb._normal_projection(sb._point(F, [float(c) for c in u]), d)
    gamma = GRAPH_METRIC.christoffel([float(c) for c in u])
    m = F.m
    zx = [sum(gamma[a][b][c] * z[b] * x[c] for b in range(m) for c in range(m))
          for a in range(m)]
    zy = [sum(gamma[a][b][c] * z[b] * y[c] for b in range(m) for c in range(m))
          for a in range(m)]
    bx = second_fundamental(F, u, zx, y)
    by = second_fundamental(F, u, zy, x)
    return [perp[k] - bx[k] - by[k] for k in range(F.ambient.dim)]


def test_nabla_b_against_finite_differences(graph_immersion):
    u = [0.2, -0.4, 1.0]
    x, y, z = (0, 0, 1), (0, 0, 1), (0, 0, 1)
    exact = nabla_B(graph_immersion, u, x, y, z)
    assert euclid_norm(exact) > 1e-3  # genuinely nonzero on the curved graph
    fd = _fd_nabla_b(graph_immersion, u, x, y, z)
    assert max(abs(a - b) for a, b in zip(exact, fd)) <= 1e-6


def test_fundamental_forms_aggregate(sphere2):
    u = [1.0, 0.7]
    basis = [[1.0 if i == a else 0.0 for i in range(2)] for a in range(2)]
    b = [[second_fundamental(sphere2, u, ea, eb) for eb in basis] for ea in basis]
    h = mean_curvature(sphere2, u)
    g = induced_metric(sphere2, u)
    # B symmetric on the coordinate basis
    for a in range(2):
        for c in range(2):
            assert b[a][c] == pytest.approx(b[c][a], abs=1e-12)
    assert euclid_norm(h) == pytest.approx(0.5, abs=1e-10)
    # umbilical point: B(E_a, E_b) = g(E_a, E_b) H on the coordinate basis
    for a in range(2):
        for c in range(2):
            expected = [g[a][c] * h[k] for k in range(3)]
            assert b[a][c] == pytest.approx(tuple(expected), abs=1e-9)


def test_derived_form_sample_aggregate(slice_immersion, graph_immersion):
    x = (0.0, 0.0, 1.0)
    u = [0.0, 0.0, 0.0]
    assert euclid_norm(nabla_B(slice_immersion, u, x, x, x)) == 0.0
    assert euclid_norm(nabla_B(graph_immersion, [0.2, -0.4, 1.0], x, x, x)) > 1e-3


# -- pseudosphere diagnostics --------------------------------------------------------


def test_pseudosphere_is_umbilical(pseudosphere):
    for u in ([0.8, 0.3, 0.5], [1.2, -0.9, 2.0]):
        assert umbilical_residual(pseudosphere, u) <= 1e-8
        h = mean_curvature(pseudosphere, u)
        f, _ = pseudosphere.map_and_tangent(u)
        # H = -position for the unit index-2 pseudosphere
        assert max(abs(h[k] + f[k]) for k in range(4)) <= 1e-10


def test_umbilical_diagnostic_pseudosphere(pseudosphere):
    u = [0.8, 0.3, 0.5]
    xi_i, xi_j, xi_k = null_triple(pseudosphere, u)
    d1, d2 = umbilical_diagnostic(pseudosphere, u, xi_i, xi_j, xi_k)
    h = mean_curvature(pseudosphere, u)
    assert max(abs(a - b) for a, b in zip(d1, h)) <= 1e-8
    assert euclid_norm(d2) <= 1e-10


# -- conformally flat ambients (docs/conformal_umbilic.md) ----------------------------

PSEUDOSPHERE_MAP = ["sinh(u1)*cos(u2)", "sinh(u1)*sin(u2)",
                    "cosh(u1)*cos(u3)", "cosh(u1)*sin(u3)"]
# phi's text in x1..x4 and its (constant) gradient
CONFORMAL_PHIS = [("0.4*x3", (0.0, 0.0, 0.4, 0.0)),
                  ("0.3*x1 + 0.2*x4", (0.3, 0.0, 0.0, 0.2))]


def _conformal_amb4(phi: str) -> MetricField:
    """e^{2 phi} diag(-1, -1, 1, 1)."""
    factor = f"exp(2*({phi}))"
    return MetricField.from_texts(4, [[("-" if i < 2 else "") + factor if i == j else "0"
                                       for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("phi, grad", CONFORMAL_PHIS, ids=["x3", "x1-x4"])
def test_pseudosphere_stays_umbilical_in_a_conformal_ambient(rng, phi, grad):
    """B~ = g~ H~ with H~ = -e^{-2 phi} (1 + x^l d_l phi) x, and the Weingarten
    and Gauss computations agree: the ambient connection terms at work."""
    F = Immersion.from_texts(3, _conformal_amb4(phi), PSEUDOSPHERE_MAP)
    coords = [[1.0 if b == a else 0.0 for b in range(3)] for a in range(3)]
    for _ in range(12):
        u = [rng.uniform(0.3, 1.5), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
        x, _ = F.map_and_tangent(u)
        slope = sum(a * b for a, b in zip(grad, x))  # x^l d_l phi, and phi itself
        expected = [-math.exp(-2.0 * slope) * (1.0 + slope) * c for c in x]
        assert umbilical_residual(F, u) <= 1e-12
        h = mean_curvature(F, u)
        assert euclid_norm([a - b for a, b in zip(h, expected)]) \
            <= 1e-12 * euclid_norm(expected)
        assert len(normal_basis(F, u)) == 1
        assert max(duality_residual(F, u, a, b, 0) for a in coords for b in coords) \
            <= 1e-10


@pytest.mark.parametrize("phi", [phi for phi, _ in CONFORMAL_PHIS], ids=["x3", "x1-x4"])
def test_graph_is_not_umbilical_in_a_conformal_ambient(rng, phi):
    """The control: its B(E3, E3) falls like e^{-2 phi} (1 + u3^2)^(-3/2), so
    it is sampled where |u3| <= 0.5."""
    F = Immersion.from_texts(3, _conformal_amb4(phi), ["u1", "u2", "u3", "u3^2/2"])
    for _ in range(12):
        u = [rng.uniform(0.3, 1.5), rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 0.5)]
        assert umbilical_residual(F, u) > 0.1


def test_umbilical_diagnostic_slice(slice_immersion):
    u = [0.5, -0.5, 1.0]
    xi_i, xi_j, xi_k = null_triple(slice_immersion, u)
    d1, d2 = umbilical_diagnostic(slice_immersion, u, xi_i, xi_j, xi_k)
    assert euclid_norm(d1) == 0.0
    assert euclid_norm(d2) == 0.0


def test_umbilical_diagnostic_validates_frame(slice_immersion):
    with pytest.raises(ValueError, match="null-triple"):
        umbilical_diagnostic(slice_immersion, [0, 0, 0],
                             (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_umbilical_diagnostic_names_the_worst_orthogonality_check(slice_immersion):
    # the induced metric is diag(-1, -1, 1): xi_i and xi_j are null with
    # g(xi_i, xi_j) = 1 and g(xi_k, xi_k) = -1, exactly, but xi_k is not
    # orthogonal to them: g(xi_i, xi_k) = 0.75 and g(xi_j, xi_k) = 0.375
    xi_i, xi_j, xi_k = (1.0, 0.0, 1.0), (-0.5, 0.0, 0.5), (0.0, 1.25, 0.75)
    with pytest.raises(ValueError) as err:
        umbilical_diagnostic(slice_immersion, [0.0, 0.0, 0.0], xi_i, xi_j, xi_k)
    assert str(err.value) == "frame violates the null-triple conditions by 7.500e-01"
    for xi_k in ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)):  # the same triple, orthogonal
        umbilical_diagnostic(slice_immersion, [0.0, 0.0, 0.0], xi_i, xi_j, xi_k)


def test_null_triple_requires_index_2(sphere2):
    with pytest.raises(ValueError):
        null_triple(sphere2, [1.0, 0.5])


# -- memoized point bundles ------------------------------------------------------------


def _public_calls(F, u):
    """Every public pointwise function of the module, as (name, call) pairs
    (helix_transfer integrates a whole helix and is left out)."""
    m = F.m
    x = [0.3, -0.7, 0.5][:m]
    y = [1.0, 0.25, -0.4][:m]
    z = [0.0, 1.0, 0.6][:m]
    e0 = [1.0] + [0.0] * (m - 1)

    def diagnostic():
        return umbilical_diagnostic(F, u, *null_triple(F, u))

    return [
        ("induced_metric", lambda: induced_metric(F, u)),
        ("normal_basis", lambda: normal_basis(F, u)),
        ("second_fundamental", lambda: second_fundamental(F, u, x, y)),
        ("duality_residual", lambda: duality_residual(F, u, x, y, 0)),
        ("mean_curvature", lambda: mean_curvature(F, u)),
        ("umbilical_residual", lambda: umbilical_residual(F, u)),
        ("geodesic_residual", lambda: geodesic_residual(F, u)),
        ("parallel_H_residual", lambda: parallel_H_residual(F, u, x)),
        ("parallel_H_axis", lambda: parallel_H_residual(F, u, e0)),
        ("nabla_B", lambda: nabla_B(F, u, x, y, z)),
        ("null_triple", lambda: null_triple(F, u)),
        ("umbilical_diagnostic", diagnostic),
    ]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # e.g. no null triple on a Riemannian sphere
        return (type(exc).__name__, str(exc))


def _scribble(obj):
    """Overwrite every float reachable through a list: a caller's worst case."""
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            if isinstance(item, float):
                obj[i] = 123.0
            else:
                _scribble(item)
    elif isinstance(obj, tuple):
        for item in obj:
            _scribble(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _scribble(getattr(obj, field.name))


@pytest.mark.parametrize("name, u", [
    ("sphere2", [1.1, 0.4]),
    ("pseudosphere", [0.8, 0.3, 0.5]),
    ("graph_immersion", [0.2, -0.4, 1.0]),
])
def test_memoized_points_match_a_fresh_immersion(request, name, u):
    F0 = request.getfixturevalue(name)

    def fresh():
        return Immersion(F0.m, F0.ambient, F0.components)

    names = [n for n, _ in _public_calls(F0, u)]
    expected = {n: _outcome(dict(_public_calls(fresh(), list(u)))[n]) for n in names}
    for order in (names, names[::-1]):
        shared = fresh()
        calls = dict(_public_calls(shared, list(u)))
        got = {}
        for n in order:
            result = _outcome(calls[n])
            got[n] = copy.deepcopy(result)
            _scribble(result)  # nothing handed out may alias a cached bundle
        for n in order:  # and a second round reads the bundles back
            assert _outcome(calls[n]) == expected[n], n
        assert got == expected


def _pairwise_mean_curvature(pt):
    """Reference H: B evaluated on each frame diagonal pair, in frame order."""
    n = pt.F.ambient.dim
    acc = [0.0] * n
    for vec, sign in pt.frame:
        b = sb._b_value(pt, vec, vec)
        for k in range(n):
            acc[k] = acc[k] + sign * b[k]
    return [c / float(pt.F.m) for c in acc]


def _pairwise_frame_pairs(pt):
    frame = pt.frame
    for i, (ei, si) in enumerate(frame):
        for j in range(i, len(frame)):
            yield i, j, si, sb._b_value(pt, ei, frame[j][0])


def _pairwise_umbilical(pt):
    h = _pairwise_mean_curvature(pt)
    worst = 0.0
    for i, j, si, b in _pairwise_frame_pairs(pt):
        gij = si if i == j else 0.0
        worst = max(worst, euclid_norm([b[k] - gij * h[k] for k in range(len(b))]))
    return worst


def _pairwise_geodesic(pt):
    worst = 0.0
    for _, _, _, b in _pairwise_frame_pairs(pt):
        worst = max(worst, euclid_norm([const_term(c) for c in b]))
    return worst


def _pairwise_parallel_H(pt, x):
    val = sb._perp_derivative(pt, x, _pairwise_mean_curvature)
    return euclid_norm([const_term(c) for c in val])


@pytest.mark.parametrize("name, box", IMMERSION_BOXES,
                         ids=[name for name, _ in IMMERSION_BOXES])
def test_bundle_forms_keep_the_pairwise_loops_bits(request, rng, name, box):
    """H, the umbilical and geodesic residuals and the parallel-H residual
    read the bundle's frame-pair B and H, and keep the bits of loops that
    evaluate B pair by pair (run here on a fresh immersion)."""
    F = request.getfixturevalue(name)
    for _ in range(3):
        u = [rng.uniform(lo, hi) for lo, hi in box]
        axes = [[1.0 if b == a else 0.0 for b in range(F.m)] for a in range(F.m)]
        dirs = [*axes, [rng.uniform(-1.0, 1.0) for _ in range(F.m)]]
        got = [*mean_curvature(F, u), umbilical_residual(F, u),
               geodesic_residual(F, u), *(parallel_H_residual(F, u, x) for x in dirs)]
        fresh = Immersion(F.m, F.ambient, F.components)  # bundles refer to it weakly
        pt = sb._at(fresh, u)
        want = [*map(const_term, _pairwise_mean_curvature(pt)), _pairwise_umbilical(pt),
                _pairwise_geodesic(pt), *(_pairwise_parallel_H(pt, x) for x in dirs)]
        packed = [struct.pack(f"{len(v)}d", *v) for v in (got, want)]
        assert packed[0] == packed[1], (name, u)


PSEUDOSPHERE_DOC = {
    "kind": "immersion",
    "immersion": {"intrinsic_dim": 3,
                  "ambient": {"dim": 4, "metric": {"type": "diag", "signs": [-1, -1, 1, 1]}},
                  "map": ["sinh(u1)*cos(u2)", "sinh(u1)*sin(u2)",
                          "cosh(u1)*cos(u3)", "cosh(u1)*sin(u3)"]},
    "samples": [[0.7, 0.3, 1.1], [1.2, -0.4, 2.0], [0.5, 2.5, -1.0]],
}
SPHERE_DOC = {
    "kind": "immersion",
    "immersion": {"intrinsic_dim": 2,
                  "ambient": {"dim": 3, "metric": {"type": "diag", "signs": [1, 1, 1]}},
                  "map": ["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)", "2*cos(u1)"]},
    "samples": [[1.2, 0.4], [0.9, 2.0]],
}


@pytest.mark.parametrize("doc, float_b, ray_b, diagnosed, shapes", [
    (PSEUDOSPHERE_DOC, 18, 9, True, 3),
    (SPHERE_DOC, 7, 4, False, 2),
], ids=["pseudosphere", "sphere"])
def test_submanifold_command_checks_rank_and_frame_pairs_once_per_sample(
        monkeypatch, tmp_path, doc, float_b, ray_b, diagnosed, shapes):
    """Per sample of the ``submanifold`` command: one SVD rank check; B at the
    float point on the m(m+1)/2 frame pairs, the m^2 coordinate pairs of the
    duality loop and, with a null triple, its 3 pairs; B on the frame
    diagonal of each of the m jet rays that differentiate H; and one
    Weingarten derivative per axis and unit normal, A^{N_d}(e_a), which the
    duality loop reads for every e_b."""
    counts = {"rank": 0, "float": 0, "ray": 0, "shape": 0}
    matrix_rank, b_value, shape_value = (np.linalg.matrix_rank, sb._b_value,
                                         sb._shape_value)

    def counted_rank(*args, **kwargs):
        counts["rank"] += 1
        return matrix_rank(*args, **kwargs)

    def counted_b(pt, x, y):
        counts["float" if all(type(c) is float for c in pt.u) else "ray"] += 1
        return b_value(pt, x, y)

    def counted_shape(pt, a, y):
        counts["shape"] += 1
        return shape_value(pt, a, y)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
    monkeypatch.setattr(sb, "_b_value", counted_b)
    monkeypatch.setattr(sb, "_shape_value", counted_shape)
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(doc))
    assert cli.run(["submanifold", "--spec", str(spec), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["diag_D2_norm"] is not None for row in rows] == [diagnosed] * len(rows)
    samples = len(doc["samples"])
    assert counts == {"rank": samples, "float": float_b * samples,
                      "ray": ray_b * samples, "shape": shapes * samples}


# -- helix transfer -------------------------------------------------------------------


def test_transfer_through_slice(slice_immersion, c1_spec):
    grid = uniform_grid(0.0, 2.0, 2001)
    rep = helix_transfer(slice_immersion, c1_spec, grid, step=1e-3)
    assert max(rep.constancy.values()) <= 1e-6
    assert rep.curvatures.h[0] == pytest.approx(0.0, abs=1e-9)
    assert rep.curvatures.k1[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.curvatures.k2[0] == pytest.approx(-0.5, abs=1e-9)
    assert rep.geodesic_max <= 1e-12
    assert rep.nullity_max <= 1e-10
    assert rep.isometry_max == 0.0


def test_transfer_identity_immersion(flat3, c1_spec):
    ident = Immersion.from_texts(3, flat3, ["u1", "u2", "u3"])
    grid = uniform_grid(0.0, 2.0, 2001)
    rep = helix_transfer(ident, c1_spec, grid, step=1e-3)
    trace = hx.synthesize(c1_spec, grid, step=1e-3)
    samples = hx.extract_curvatures(trace)
    by_t = {t: j for j, t in enumerate(samples.t.tolist())}
    for i, t in enumerate(rep.curvatures.t.tolist()):
        j = by_t[t]
        assert rep.curvatures.h[i] == pytest.approx(samples.h[j], abs=1e-10)
        assert rep.curvatures.k1[i] == pytest.approx(samples.k1[j], abs=1e-10)
        assert rep.curvatures.k2[i] == pytest.approx(samples.k2[j], abs=1e-10)


def test_transfer_through_curved_graph(graph_immersion):
    spec = hx.HelixSpec(0.0, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                        (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=GRAPH_METRIC)
    grid = uniform_grid(0.0, 1.5, 751)
    rep = helix_transfer(graph_immersion, spec, grid, step=2e-3)
    assert max(rep.constancy.values()) > 1e-3
    assert rep.geodesic_max > 0.1


def test_transfer_needs_a_three_dimensional_intrinsic_chart(amb4, c1_spec):
    surface = Immersion.from_texts(2, amb4, ["u1", "u2", "0", "0"])
    with pytest.raises(ValueError) as exc:
        helix_transfer(surface, c1_spec, uniform_grid(0.0, 1.0, 101), step=1e-2)
    assert str(exc.value) == "helix transfer needs a 3-dimensional intrinsic chart"


def test_transfer_rejects_an_induced_metric_of_index_3():
    """diag(-1, -1, -e) is within ISOMETRY_TOL of the helix chart's
    diag(-1, -1, e), which has index 2, for e = 2^-24; its index is 3."""
    e, s = 2.0 ** -24, 2.0 ** -12  # s^2 = e, so every frame entry is exact
    chart = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                       ["0", "0", repr(e)]])
    # zeta = (0, s, 1) and N = (0, -s, 1) / (2 e) are null with g(zeta, N) = 1
    spec = hx.HelixSpec(0.0, 0.0, 0.0, (0.0, 0.0, 0.0), (0.0, s, 1.0),
                        (0.0, -s / (2 * e), 1.0 / (2 * e)), (1.0, 0.0, 0.0),
                        metric=chart)
    squeezed = Immersion.from_texts(3, MetricField.diag([-1, -1, -1, 1]),
                                    ["u1", "u2", f"{s!r}*u3", "0"])
    with pytest.raises(ValueError) as exc:
        helix_transfer(squeezed, spec, uniform_grid(0.0, 1.0, 101), step=1e-2)
    assert str(exc.value) == "induced metric has index 3 along the curve, need 2"


def test_transfer_rejects_non_isometric_chart(graph_immersion, flat3, c1_spec):
    # flat chart metric does not match the graph pullback
    with pytest.raises(ValueError, match="isometric"):
        helix_transfer(graph_immersion, c1_spec, uniform_grid(0.0, 1.0, 501),
                       step=2e-3)


# -- transfer's ambient frames against the loop over samples ----------------------


def _frame_bits(frames):
    return [(a.shape, a.tobytes()) for a in frames]


def _transfer_frames(monkeypatch, *args):
    """``helix_transfer(*args)``, with its ambient N and W checked bit for bit
    against ``reference_ambient_frames`` on the same curve; returns them and
    the number of ``_ambient_frame`` calls (1 for one pass on the arrays)."""
    frames, frame, built, calls = sb._ambient_frames, sb._ambient_frame, [], []

    def checked(curve, policy):
        got = frames(curve, policy)
        assert _frame_bits(got) == _frame_bits(reference_ambient_frames(curve, policy))
        built.append(got)
        return got

    def counted(*args):
        calls.append(args)
        return frame(*args)

    monkeypatch.setattr(sb, "_ambient_frames", checked)
    monkeypatch.setattr(sb, "_ambient_frame", counted)
    helix_transfer(*args)
    assert len(built) == 1
    return built[0], len(calls)


def _pseudosphere_spec():
    """The helix through (0.7, 0, 0) along (0, coth 0.7, 1) on S^3_2's chart,
    with the frame and curvatures ``frame`` measures there."""
    curve = NullCurve.position(PSEUDOSPHERE_METRIC, ["0.7", "cosh(0.7)/sinh(0.7)*t", "t"],
                               (0.0, 1.0))
    frames = frame_field(curve, [0.0])
    cs, fr = curvatures_at(curve, frames), frames[0]
    return hx.HelixSpec(float(cs.h[0]), float(cs.k1[0]), float(cs.k2[0]), fr.point,
                        fr.zeta, fr.n, fr.w, metric=PSEUDOSPHERE_METRIC)


def _graph_spec():
    return hx.HelixSpec(0.0, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                        (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=GRAPH_METRIC)


@pytest.mark.parametrize("immersion, make_spec, step", [
    ("slice_immersion", lambda request: request.getfixturevalue("c1_spec"), 1e-3),
    ("graph_immersion", lambda request: _graph_spec(), 2e-3),
    ("pseudosphere", lambda request: _pseudosphere_spec(), 1e-3),
], ids=["slice", "graph", "pseudosphere"])
def test_ambient_frames_equal_the_loop_over_samples_bitwise(monkeypatch, request,
                                                            immersion, make_spec, step):
    F = request.getfixturevalue(immersion)
    (ns, ws), calls = _transfer_frames(monkeypatch, F, make_spec(request),
                                       uniform_grid(0.0, 1.0, 201), step)
    assert ns.shape == ws.shape == (4, 95)
    assert calls == 1  # one pass on the arrays, no replay per sample


def test_ambient_frames_take_each_samples_first_usable_seed(monkeypatch, amb4):
    """With seeds e1, e2, e3 along (cos t, sin t, t, 0), g(zeta, e1) = sin t
    vanishes at t = 0 alone, so the samples split on e1: the array pass
    raises PerSampleCheck, and the replay per sample takes e2 at that sample
    and e1 elsewhere, bit for bit as the loop over samples."""
    times = np.array([0.01 * (i - 30) for i in range(61)])
    points = np.array([np.cos(times), np.sin(times), times, 0.0 * times])
    zetas = np.array([-np.sin(times), np.cos(times), 1.0 + 0.0 * times, 0.0 * times])
    curve = hx.SampledCurve(amb4, times, points, zetas, 0.01)
    transversal, chosen = sb.null_transversal, []

    def spy(*args):
        try:
            out = transversal(*args)
        except PerSampleCheck:
            chosen.append("split")
            raise
        chosen.append(out[0])
        return out

    monkeypatch.setattr(sb, "null_transversal", spy)
    policy = nf.ScreenPolicy(seeds=(0, 1, 2))
    got = sb._ambient_frames(curve, policy)
    assert chosen == ["split"] + [0] * 27 + [1] + [0] * 27
    assert _frame_bits(got) == _frame_bits(reference_ambient_frames(curve, policy))


def test_ambient_frames_keep_w_continuous_where_the_acceleration_reverses(monkeypatch,
                                                                          amb4):
    """Along zeta = (cos t^2, sin t^2, 1, 0) the acceleration
    2t (-sin t^2, cos t^2, 0, 0) reverses at t = 0, so W's raw sign flips
    there and the continuity rule flips it back, bit for bit as the loop
    over samples."""
    times = np.array([0.01 * (i - 30) for i in range(61)])
    zetas = np.array([np.cos(times * times), np.sin(times * times), 1.0 + 0.0 * times,
                      0.0 * times])
    curve = hx.SampledCurve(amb4, times, 0.0 * zetas, zetas, 0.01)
    flip_signs, signs = sb._flip_signs, []

    def spy(dots):
        signs.extend(flip_signs(dots))
        return list(signs)

    monkeypatch.setattr(sb, "_flip_signs", spy)
    got = sb._ambient_frames(curve, nf.ScreenPolicy())
    assert _frame_bits(got) == _frame_bits(reference_ambient_frames(curve, nf.ScreenPolicy()))
    assert signs[0] == 1.0 and -1.0 in signs


def test_ambient_frames_of_a_null_geodesic_fall_back_to_a_seed_axis(monkeypatch,
                                                                     slice_immersion,
                                                                     flat3):
    """k1 = 0: the acceleration has no screen part at any sample, so the one
    pass on the arrays projects the seed axes in turn (e3, whose screen part
    vanishes too, then e1)."""
    spec = hx.HelixSpec(0.0, 0.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                        (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=flat3)
    (_, ws), calls = _transfer_frames(monkeypatch, slice_immersion, spec,
                                      uniform_grid(0.0, 1.0, 201), 1e-3)
    assert calls == 1  # every sample falls back alike, so no replay per sample
    assert np.array_equal(np.abs(ws), [[1.0] * ws.shape[1]] + [[0.0] * ws.shape[1]] * 3)


# -- transfer's isometry and geodesic checks against the loop over points ---------


def _packed(x) -> bytes:
    """The bits of every float in a nested structure of lists and tuples, in order."""
    if isinstance(x, (list, tuple)):
        return b"".join(_packed(c) for c in x)
    return struct.pack("d", x)


def _pointwise_checks(F, spec, grid, step):
    """The induced g and the largest |g - chart| at each isometry point, and
    the geodesic residual at each geodesic point, from a loop over the trace
    points (Python floats) with bundles of a fresh immersion."""
    fresh = Immersion(F.m, F.ambient, F.components)
    path = hx.synthesize(spec, grid, step).points.tolist()
    gs, gaps = [], []
    for u in path[:: max(1, len(path) // 64)]:
        gp, gh = sb._induced(fresh, u), spec.metric.matrix_at(u)
        gs.append(gp)
        gaps.append(max(abs(x - y) for a, b in zip(gp, gh) for x, y in zip(a, b)))
    geo = [_pairwise_geodesic(sb._at(fresh, u)) for u in path[:: max(1, len(path) // 32)]]
    return gs, gaps, geo


@pytest.mark.parametrize("immersion, make_spec, step, replayed", [
    ("slice_immersion", lambda request: request.getfixturevalue("c1_spec"), 1e-3, False),
    ("graph_immersion", lambda request: _graph_spec(), 2e-3, True),
], ids=["slice", "graph"])
def test_transfer_checks_equal_the_loop_over_points_bitwise(monkeypatch, request, immersion,
                                                            make_spec, step, replayed):
    """The isometry gaps and the induced g come from one array pass, and the
    geodesic residuals from one more, bit for bit as the loop over points.
    The graph's first geodesic point sits at u3 = 0, where the normal is e4
    rather than e3's normal part, so that pass splits and replays per point."""
    F, spec, grid = request.getfixturevalue(immersion), make_spec(request), \
        uniform_grid(0.0, 1.0, 201)
    gs, gaps, geo = _pointwise_checks(F, spec, grid, step)
    gap, residual, passes, calls = sb._isometry_gap, sb.geodesic_residual, [], []

    def gap_pass(*args):
        passes.append(gap(*args))
        return passes[-1]

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(sb, "_isometry_gap", gap_pass)
    monkeypatch.setattr(sb, "geodesic_residual", counted)
    rep = helix_transfer(F, spec, grid, step)
    assert len(passes) == 1  # one pass, no replay per point
    g, got = nf._spread(passes[0], len(gaps))
    assert _packed(got.tolist()) == _packed(gaps)
    assert [_packed(nf._sample(g, i)) for i in range(len(gs))] == list(map(_packed, gs))
    assert rep.isometry_max == max([0.0, *gaps])
    assert _packed(rep.geodesic_samples) == _packed(geo)
    assert len(calls) == (1 + len(geo) if replayed else 1)


def test_unit_basis_on_sample_arrays_takes_each_samples_basis_or_splits(graph_immersion):
    """On the graph the normal is e3's normal part, which vanishes at u3 = 0
    alone (e4's is taken there).  Over sample arrays whose samples all take
    e3, the normals and the tangent frame are each sample's, bit for bit;
    with u3 = 0 beside u3 = 0.3 the samples split on e3, and PerSampleCheck
    is raised for the caller to replay per sample."""
    F = graph_immersion
    fresh = Immersion(F.m, F.ambient, F.components)
    points = [[0.1, -0.2, 0.3], [0.4, 0.5, -0.7], [-1.0, 2.0, 1.5]]
    pt = sb._at(F, [np.array(c) for c in zip(*points)])
    for i, u in enumerate(points):
        ref = sb._at(fresh, u)
        assert _packed(nf._sample(pt.normals, i)) == _packed(ref.normals)
        assert _packed(nf._sample(pt.frame, i)) == _packed(ref.frame)
    split = sb._at(F, [np.array([0.1, 0.1]), np.array([0.2, 0.2]), np.array([0.0, 0.3])])
    with pytest.raises(PerSampleCheck):
        split.normals
    assert _packed(sb._at(fresh, [0.1, 0.2, 0.0]).normals[0][0]) == _packed((0.0,) * 3 + (1.0,))


# -- input checks of the immersion and its tangent frame -------------------------


@pytest.mark.parametrize("m, ambient, texts, message", [
    (0, MetricField.diag([-1, 1, 1]), [], "intrinsic dimension must be 1, 2 or 3"),
    (4, MetricField.diag([-1, -1, 1, 1]), ["u1", "u2", "u3", "u4"],
     "intrinsic dimension must be 1, 2 or 3"),
    (3, MetricField.from_texts(2, [["1", "0"], ["0", "1"]]), ["u1", "u2"],
     "intrinsic dimension exceeds the ambient dimension"),
    (2, MetricField.diag([-1, 1, 1]), ["u1", "u2"],
     "map needs one component per ambient coordinate"),
], ids=["zero", "four", "above-ambient", "short-map"])
def test_immersion_dimension_checks(m, ambient, texts, message):
    with pytest.raises(ValueError) as exc:
        Immersion(m, ambient, [exprparse.parse(s) for s in texts])
    assert str(exc.value) == message


def test_null_tangent_plane_has_no_orthonormal_frame():
    """(u1, u1, u2) in diag(-1, 1, 1) has rank-2 differential and the
    degenerate induced metric diag(0, 1)."""
    F = Immersion.from_texts(2, MetricField.diag([-1, 1, 1]), ["u1", "u1", "u2"])
    for measure in (mean_curvature, null_triple):
        with pytest.raises(sb.semimetric.DegenerateMetricError) as exc:
            measure(F, [0.1, 0.2])
        assert str(exc.value) == ("tangent frame cannot be orthonormalized "
                                  "(degenerate or null pivots)")

