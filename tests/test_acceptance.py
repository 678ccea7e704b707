"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the stated tolerance and runtime budget, as stated, with no
allowance: the pure-Python package's slowest of three timed runs took under
half of each budget.  Tolerances never change.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix import submanifold as sb
from nullhelix.nullframe import NullCurve, ScreenPolicy, curvatures_at, frame_field
from nullhelix.semimetric import MetricField
from nullhelix.submanifold import Immersion

from conftest import policy_frames, random_helix_spec, uniform_grid

TWO_PI = 2.0 * math.pi


def _line(num, ok, detail, elapsed):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_c1_fixture(flat3, c1_curve):
    """C1 curvatures (0, 1, -1/2) and frame-equation residuals at 1e-9."""
    start = time.perf_counter()
    grid = uniform_grid(0.0, TWO_PI, 50)
    frames = nf.frame_field(c1_curve, grid)
    max_dev = 0.0
    max_resid = 0.0
    for fr in frames:
        cs = curvatures_at(c1_curve, fr)
        max_dev = max(max_dev, abs(cs.h), abs(cs.k1 - 1.0), abs(cs.k2 + 0.5))
        r1, r2, r3 = nf.frenet_residuals(c1_curve, fr, cs)
        max_resid = max(max_resid, nf.euclid_norm(r1), nf.euclid_norm(r2),
                        nf.euclid_norm(r3))
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-9 and max_resid <= 1e-9 and elapsed < 1.0
    _line(1, ok, f"curvature dev {max_dev:.2e}, frenet residual {max_resid:.2e}",
          elapsed)
    assert max_dev <= 1e-9
    assert max_resid <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_cubic_identity(flat3, c1_curve):
    """Cubic identity: 1e-8 on the circle helix, >0.01 on the non-helix."""
    start = time.perf_counter()
    worst = 0.0
    for t in uniform_grid(0.1, TWO_PI - 0.1, 12):
        fr = frame_field(c1_curve, [t])[0]
        cs = curvatures_at(c1_curve, fr)
        assert cs.h ** 2 + 2.0 * cs.k1 * cs.k2 == pytest.approx(-1.0, abs=1e-10)
        worst = max(worst, hx.cubic_identity_residual(c1_curve, fr, cs))
    nonhelix = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"],
                                 (0, 0, 0), (0.0, 3.0))
    fr = frame_field(nonhelix, [1.0])[0]
    cs = curvatures_at(nonhelix, fr)
    nh = hx.cubic_identity_residual(nonhelix, fr, cs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and nh > 0.01 and elapsed < 1.0
    _line(2, ok, f"helix residual {worst:.2e}, non-helix residual {nh:.2e}", elapsed)
    assert worst <= 1e-8
    assert nh > 0.01
    assert elapsed < 1.0


def test_criterion_3_metric_identity_block(flat3, c1_curve, rng):
    """Identity block scalars on C1 at 1e-9 and on 20 random traces at 1e-6."""
    start = time.perf_counter()
    worst_c1 = 0.0
    for t in uniform_grid(0.2, TWO_PI - 0.2, 10):
        fr = frame_field(c1_curve, [t])[0]
        cs = curvatures_at(c1_curve, fr)
        rep = hx.metric_identity_suite(c1_curve, fr, cs)
        assert rep.scalars == pytest.approx((-1.0, -0.25, -1.0, 0.5), abs=1e-9)
        worst_c1 = max(worst_c1, *rep.deviations)
    worst_synth = 0.0
    for _ in range(20):
        spec = random_helix_spec(rng, flat3)
        trace = hx.synthesize(spec, uniform_grid(0.0, 2.5, 626), step=1e-3)
        report = hx.identity_reports_from_trace(trace)
        worst_synth = max(worst_synth, np.max(report.deviations))
    elapsed = time.perf_counter() - start
    ok = worst_c1 <= 1e-9 and worst_synth <= 1e-6 and elapsed < 5.0
    _line(3, ok, f"C1 dev {worst_c1:.2e}, synthesized dev {worst_synth:.2e}", elapsed)
    assert worst_c1 <= 1e-9
    assert worst_synth <= 1e-6
    assert elapsed < 5.0


def test_criterion_4_roundtrip_synthesis(flat3, c1_spec, rng):
    """20 random specs over [0,5] at step 1e-3 re-extract to 1e-6; RK4 order."""
    start = time.perf_counter()
    worst = 0.0
    grid = uniform_grid(0.0, 5.0, 5001)
    for _ in range(20):
        spec = random_helix_spec(rng, flat3)
        trace = hx.synthesize(spec, grid, step=1e-3)
        samples = hx.extract_curvatures(trace)
        dev = max(np.max(abs(samples.h - spec.h)), np.max(abs(samples.k1 - spec.k1)),
                  np.max(abs(samples.k2 - spec.k2)))
        worst = max(worst, dev)
    errors = []
    for step in (0.02, 0.01):
        tr = hx.synthesize(c1_spec, [0.0, 1.0], step=step)
        exact = (math.cos(1.0), math.sin(1.0), 1.0)
        errors.append(max(abs(a - b) for a, b in zip(tr.points[-1], exact)))
    order = math.log2(errors[0] / errors[1])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and order >= 3.7 and elapsed < 30.0
    _line(4, ok, f"round-trip dev {worst:.2e}, RK4 order {order:.2f}", elapsed)
    assert worst <= 1e-6
    assert order >= 3.7
    assert elapsed < 30.0


def test_criterion_5_christoffel(flat3, rng):
    """Flat charts give exactly zero; polar matches the hand oracle at 1e-9."""
    start = time.perf_counter()
    for p in [(0, 0, 0), (1.5, -2.0, 3.0), (0.1, 0.2, 0.3)]:
        ce = flat3.christoffel([float(c) for c in p])
        assert all(v == 0.0 for plane in ce for row in plane for v in row)
    polar = MetricField.from_texts(2, [["1", "0"], ["0", "x1^2"]])
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0.4, 4.0)
        theta = rng.uniform(0.0, TWO_PI)
        ce = polar.christoffel([r, theta])
        worst = max(
            worst,
            abs(ce[0][1][1] + r),
            abs(ce[1][0][1] - 1.0 / r),
            abs(ce[1][1][0] - 1.0 / r),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _line(5, ok, f"polar oracle dev {worst:.2e}", elapsed)
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_6_submanifold_suite(slice_immersion, sphere2, euclid3,
                                       graph_immersion, rng):
    """Slice/sphere/cylinder classification plus duality on random inputs."""
    start = time.perf_counter()
    slice_b = 0.0
    for _ in range(5):
        u = [rng.uniform(-2, 2) for _ in range(3)]
        x = [rng.uniform(-1, 1) for _ in range(3)]
        y = [rng.uniform(-1, 1) for _ in range(3)]
        slice_b = max(slice_b, nf.euclid_norm(
            sb.second_fundamental(slice_immersion, u, x, y)))
    sphere_umb = 0.0
    sphere_nb = 0.0
    h_norm_dev = 0.0
    for _ in range(4):
        u = [rng.uniform(0.5, 2.5), rng.uniform(0.0, 3.0)]
        sphere_umb = max(sphere_umb, sb.umbilical_residual(sphere2, u))
        h = sb.mean_curvature(sphere2, u)
        h_norm_dev = max(h_norm_dev, abs(nf.euclid_norm(h) - 0.5))
        sphere_nb = max(sphere_nb, nf.euclid_norm(
            sb.nabla_B(sphere2, u, (1, 0), (0, 1), (1, 0))))
    cyl = Immersion.from_texts(2, euclid3, ["cos(u1)", "sin(u1)", "u2"])
    cyl_umb = min(sb.umbilical_residual(cyl, [rng.uniform(0, 3), rng.uniform(-1, 1)])
                  for _ in range(3))
    duality = 0.0
    for k in range(100):
        if k % 2 == 0:
            u = [rng.uniform(0.5, 2.5), rng.uniform(0.0, 3.0)]
            x = [rng.uniform(-1, 1) for _ in range(2)]
            y = [rng.uniform(-1, 1) for _ in range(2)]
            duality = max(duality, sb.duality_residual(sphere2, u, x, y, 0))
        else:
            u = [rng.uniform(-1, 1) for _ in range(3)]
            x = [rng.uniform(-1, 1) for _ in range(3)]
            y = [rng.uniform(-1, 1) for _ in range(3)]
            duality = max(duality, sb.duality_residual(graph_immersion, u, x, y, 0))
    elapsed = time.perf_counter() - start
    ok = (slice_b <= 1e-10 and sphere_umb <= 1e-8 and h_norm_dev <= 1e-8
          and sphere_nb <= 1e-7 and cyl_umb >= 0.4 and duality <= 1e-8
          and elapsed < 5.0)
    _line(6, ok, f"slice B {slice_b:.1e}, sphere umb {sphere_umb:.1e}, "
                 f"|H| dev {h_norm_dev:.1e}, nablaB {sphere_nb:.1e}, "
                 f"cylinder {cyl_umb:.2f}, duality {duality:.1e}", elapsed)
    assert slice_b <= 1e-10
    assert sphere_umb <= 1e-8
    assert h_norm_dev <= 1e-8
    assert sphere_nb <= 1e-7
    assert cyl_umb >= 0.4
    assert duality <= 1e-8
    assert elapsed < 5.0


def test_criterion_7_transfer_experiment(slice_immersion, graph_immersion,
                                         pseudosphere, c1_spec):
    """Totally geodesic transfer keeps constants; the curved graph breaks them."""
    start = time.perf_counter()
    rep_slice = sb.helix_transfer(slice_immersion, c1_spec,
                                  uniform_grid(0.0, 2.0, 2001), step=1e-3)
    gm = MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]]
    )
    spec_g = hx.HelixSpec(0.0, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                          (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=gm)
    rep_graph = sb.helix_transfer(graph_immersion, spec_g,
                                  uniform_grid(0.0, 1.5, 751), step=2e-3)
    u = [0.8, 0.3, 0.5]
    xi = sb.null_triple(pseudosphere, u)
    d1, d2 = sb.umbilical_diagnostic(pseudosphere, u, *xi)
    h = sb.mean_curvature(pseudosphere, u)
    d1_dev = max(abs(a - b) for a, b in zip(d1, h))
    d2_norm = nf.euclid_norm(d2)
    elapsed = time.perf_counter() - start
    slice_dev = max(rep_slice.constancy.values())
    graph_dev = max(rep_graph.constancy.values())
    ok = (slice_dev <= 1e-6 and graph_dev > 1e-3 and rep_graph.geodesic_max > 0.1
          and d1_dev <= 1e-7 and d2_norm <= 1e-8 and elapsed < 10.0)
    _line(7, ok, f"slice constancy {slice_dev:.1e}, graph constancy "
                 f"{graph_dev:.1e}, graph geodesic {rep_graph.geodesic_max:.2f}, "
                 f"D1-H {d1_dev:.1e}, D2 {d2_norm:.1e}", elapsed)
    assert slice_dev <= 1e-6
    assert graph_dev > 1e-3
    assert rep_graph.geodesic_max > 0.1
    assert d1_dev <= 1e-7
    assert d2_norm <= 1e-8
    assert elapsed < 10.0


def _with_policy_frames(trace, policy):
    """The trace with N and W rebuilt per sample from the tangent by ``policy``."""
    ns, ws = policy_frames(trace.spec.metric, trace.points, trace.zetas, policy)
    return dataclasses.replace(trace, ns=tuple(ns), ws=tuple(ws))


def test_criterion_8_screen_policy_independence(flat3, c1_curve, rng):
    """|k1| agrees across the two stated seed orders (C1 and random helices)."""
    start = time.perf_counter()
    pol_a = ScreenPolicy.from_names("e3,e1,e2")
    pol_b = ScreenPolicy.from_names("e1,e3,e2")
    worst = 0.0
    for t in uniform_grid(0.0, TWO_PI, 20):
        fa = frame_field(c1_curve, [t], pol_a)[0]
        fb = frame_field(c1_curve, [t], pol_b)[0]
        ka = curvatures_at(c1_curve, fa, pol_a)
        kb = curvatures_at(c1_curve, fb, pol_b)
        worst = max(worst, abs(abs(ka.k1) - abs(kb.k1)))
    for _ in range(10):
        spec = random_helix_spec(rng, flat3)
        trace = hx.synthesize(spec, uniform_grid(0.0, 1.0, 501), step=1e-3)
        sa = hx.extract_curvatures(_with_policy_frames(trace, pol_a))
        sb_ = hx.extract_curvatures(_with_policy_frames(trace, pol_b))
        worst = max(worst, np.max(abs(abs(sa.k1) - abs(sb_.k1))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _line(8, ok, f"|k1| policy disagreement {worst:.2e}", elapsed)
    assert worst <= 1e-8
