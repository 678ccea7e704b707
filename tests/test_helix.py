import dataclasses
import math
import random
import struct
import warnings
from fractions import Fraction

import pytest

from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix import semimetric
from nullhelix.exprparse import DomainError
from nullhelix.helix import (
    GramDriftError,
    HelixSpec,
    constancy_report,
    cubic_identity_residual,
    extract_curvatures,
    metric_identity_suite,
    synthesize,
)
from nullhelix.jets import const_term
from nullhelix.nullframe import NullCurve, build_frame, curvatures_at, frame_field
from nullhelix.semimetric import MetricField

from conftest import policy_frames, random_helix_spec, uniform_grid

TWO_PI = 2.0 * math.pi


def test_spec_validates_initial_frame(flat3):
    with pytest.raises(ValueError, match="Gram"):
        HelixSpec(0.0, 1.0, -0.5, (0, 0, 0), (0, 1, 1), (0, -0.5, 0.5), (-1, 0.2, 0),
                  metric=flat3)


def test_synthesize_reproduces_circle_helix(c1_spec):
    grid = uniform_grid(0.0, 1.0, 11)
    trace = synthesize(c1_spec, grid, step=1e-3)
    x = trace.points[-1]
    assert x == pytest.approx((math.cos(1.0), math.sin(1.0), 1.0), abs=1e-6)
    assert max(trace.gram_drift) < 1e-10


def test_synthesize_null_geodesic(flat3):
    spec = HelixSpec(0.0, 0.0, 0.0, (0, 0, 0), (1, 0, 1), (-0.5, 0, 0.5), (0, 1, 0),
                     metric=flat3)
    trace = synthesize(spec, uniform_grid(0.0, 2.0, 5), step=1e-2)
    assert trace.points[-1] == pytest.approx((2.0, 0.0, 2.0), abs=1e-12)
    for i in range(len(trace)):
        assert trace.zetas[i] == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)
        assert trace.ws[i] == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_synthesize_argument_errors(c1_spec):
    with pytest.raises(ValueError, match="step"):
        synthesize(c1_spec, [0.0, 1.0], step=0.0)
    with pytest.raises(ValueError, match="step"):
        synthesize(c1_spec, [0.0, 1.0], step=-1e-3)
    with pytest.raises(ValueError, match="increasing"):
        synthesize(c1_spec, [0.0, 1.0, 0.5], step=1e-3)
    # a negative project_every used to make the RK4 chunk negative: no end
    for project_every in (-3, -1, 2.5, True, "100"):
        with pytest.raises(ValueError, match="project_every"):
            synthesize(c1_spec, [0.0, 0.1], step=1e-2, project_every=project_every)


def test_synthesize_rejects_a_step_too_small_for_its_segment(c1_spec):
    # span / step overflows to infinity for a subnormal step
    with pytest.raises(ValueError, match=r"step 5e-324 .*\[0\.0, 0\.5\]"):
        synthesize(c1_spec, [0.0, 0.5, 1.0], step=5e-324)


def test_synthesize_caps_the_total_rk4_steps(c1_spec):
    # two segments of 5e5 steps each reach the cap exactly; the flat
    # propagator takes them at once
    assert hx.MAX_RK4_STEPS == 10 ** 6
    trace = synthesize(c1_spec, [0.0, 0.5, 1.0], step=1e-6)
    assert len(trace) == 3
    with pytest.raises(ValueError, match=r"needs 1000002 RK4 steps over the grid, "
                                         r"more than MAX_RK4_STEPS = 1000000"):
        synthesize(c1_spec, [0.0, 0.5, 1.0], step=0.5 / 500001)


def test_rk4_convergence_order(c1_spec):
    """Halving the step cuts the closed-form error by about 2^4."""
    errors = []
    for step in (0.02, 0.01):
        trace = synthesize(c1_spec, [0.0, 1.0], step=step)
        x = trace.points[-1]
        exact = (math.cos(1.0), math.sin(1.0), 1.0)
        errors.append(max(abs(a - b) for a, b in zip(x, exact)))
    order = math.log2(errors[0] / errors[1])
    assert order >= 3.7


def test_error_estimate_tracks_truncation(c1_spec):
    coarse = synthesize(c1_spec, [0.0, 1.0], step=0.05)
    fine = synthesize(c1_spec, [0.0, 1.0], step=0.01)
    assert coarse.err_est[-1] > fine.err_est[-1] > 0.0


def test_gram_drift_limit_enforced(flat3):
    spec = HelixSpec(0.0, 1.0, -0.5, (1, 0, 0), (0, 1, 1), (0, -0.5, 0.5), (-1, 0, 0),
                     metric=flat3)
    with pytest.raises(GramDriftError):
        # absurd step size destroys orthonormality quickly
        synthesize(spec, uniform_grid(0.0, 40.0, 5), step=2.0, drift_limit=1e-12)


def test_projection_restores_gram(c1_spec):
    base = synthesize(c1_spec, uniform_grid(0.0, 5.0, 51), step=1e-2)
    proj = synthesize(c1_spec, uniform_grid(0.0, 5.0, 51), step=1e-2,
                      project_every=10)
    assert max(proj.gram_drift) <= max(base.gram_drift) + 1e-15
    # zeta is untouched by projection
    assert proj.zetas[-1] == pytest.approx(base.zetas[-1], abs=1e-9)


def test_roundtrip_random_specs(flat3, rng):
    """Trace re-extraction recovers the spec constants (reduced-size variant)."""
    for _ in range(5):
        spec = random_helix_spec(rng, flat3)
        grid = uniform_grid(0.0, 2.0, 2001)
        trace = synthesize(spec, grid, step=1e-3)
        samples = extract_curvatures(trace)
        assert max(abs(s.h - spec.h) for s in samples) < 1e-6
        assert max(abs(s.k1 - spec.k1) for s in samples) < 1e-6
        assert max(abs(s.k2 - spec.k2) for s in samples) < 1e-6


def test_cubic_identity_on_circle_helix(c1_curve):
    for t in (0.3, 2.0, 4.7):
        fr = build_frame(c1_curve, t)
        cs = curvatures_at(c1_curve, fr)
        assert cs.h ** 2 + 2 * cs.k1 * cs.k2 == pytest.approx(-1.0, abs=1e-12)
        assert cubic_identity_residual(c1_curve, fr, cs) <= 1e-8


def test_cubic_identity_rejects_non_helix(flat3):
    c = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.0, 3.0))
    fr = build_frame(c, 1.0)
    cs = curvatures_at(c, fr)
    assert cubic_identity_residual(c, fr, cs) > 0.01


def test_cubic_identity_geodesic_exact_zero(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = build_frame(line, 1.0)
    cs = curvatures_at(line, fr)
    assert cubic_identity_residual(line, fr, cs) == 0.0


def test_metric_identity_suite_circle(c1_curve):
    t = 2.2
    fr = build_frame(c1_curve, t)
    cs = curvatures_at(c1_curve, fr)
    rep = metric_identity_suite(c1_curve, fr, cs)
    assert rep.scalars == pytest.approx((-1.0, -0.25, -1.0, 0.5), abs=1e-9)
    assert rep.targets == pytest.approx((-1.0, -0.25, -1.0, 0.5), abs=1e-12)
    assert max(rep.deviations) <= 1e-9


def test_metric_identity_suite_geodesic(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = build_frame(line, 1.0)
    cs = curvatures_at(line, fr)
    rep = metric_identity_suite(line, fr, cs)
    assert rep.scalars == (0.0, 0.0, 0.0, 0.0)
    assert rep.targets == (0.0, 0.0, 0.0, 0.0)


def test_identity_suite_on_synthesized_trace(flat3):
    spec = HelixSpec(0.3, 1.0, 0.7, (0, 0, 0), (1, 0, 1), (-0.5, 0, 0.5), (0, 1, 0),
                     metric=flat3)
    trace = synthesize(spec, uniform_grid(0.0, 2.0, 1001), step=1e-3)
    reports = hx.identity_reports_from_trace(trace)
    assert reports
    first = reports[0]
    assert first.targets == pytest.approx((-1.0, -0.49, 1.4, -0.79), abs=1e-9)
    assert max(max(r.deviations) for r in reports) <= 1e-6


def test_cubic_along_synthesized_traces(flat3, rng):
    for _ in range(3):
        spec = random_helix_spec(rng, flat3)
        trace = synthesize(spec, uniform_grid(0.0, 2.0, 2001), step=1e-3)
        residuals = hx.cubic_residuals_from_trace(trace)
        assert max(r for _, r in residuals) <= 1e-6


def test_fd_derivative_without_interior_is_empty():
    assert hx.fd_derivative([], 0.01) == []
    assert hx.fd_derivative([(0.0, 1.0)] * (2 * hx.FD_RADIUS), 0.01) == []
    assert len(hx.fd_derivative([(0.0, 1.0)] * (2 * hx.FD_RADIUS + 1), 0.01)) == 1


def _scalar_fd_derivative(values, dt):
    """The stencil as a loop over samples and components."""
    m = len(values)
    if m < 2 * hx.FD_RADIUS + 1:
        return []
    dim = len(values[0])
    out = []
    for i in range(hx.FD_RADIUS, m - hx.FD_RADIUS):
        acc = [0.0] * dim
        for off, wgt in zip(hx._D1_OFFSETS, hx._D1_WEIGHTS):
            row = values[i + off]
            for d in range(dim):
                acc[d] += wgt * row[d]
        out.append(tuple(a / dt for a in acc))
    return out


def _scalar_cov(curve, key, layer):
    """``SampledCurve.cov`` as a loop over samples, one connection_term each."""
    values = curve.fields[key] if layer == 1 else _scalar_cov(curve, key, layer - 1)
    lo = next((k for k, v in enumerate(values) if v is not None), len(values))
    out = [None] * len(values)
    deriv = _scalar_fd_derivative(values[lo:len(values) - lo], curve.dt)
    for i, dv in enumerate(deriv, lo + hx.FD_RADIUS):
        term = semimetric.connection_term(curve.metric, curve.gamma(i),
                                          curve.fields["zeta"][i], values[i])
        out[i] = tuple(dv[a] + term[a] for a in range(len(dv)))
    return out


def _bits(rows):
    return [None if r is None else struct.pack(f"{len(r)}d", *r) for r in rows]


@pytest.mark.parametrize("samples", [4, 7, 12, 31])
@pytest.mark.parametrize("chart", ["flat", "curved"])
def test_array_stencils_equal_the_scalar_loop_bit_for_bit(chart, samples):
    """Every layer of every field, on a flat chart and on diag(-1, -1, 1 + x3^2)
    (non-empty pattern), down to sequences shorter than one stencil."""
    metric = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                        ["0", "0", "1" if chart == "flat" else "1 + x3^2"]])
    spec = HelixSpec(0.3, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                     (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=metric)
    trace = synthesize(spec, uniform_grid(0.0, 0.01 * (samples - 1), samples), step=1e-3)
    curve = trace.view
    assert len(curve.points) == samples and bool(metric.pattern) == (chart == "curved")
    for key in ("zeta", "n", "w"):
        values = curve.fields[key]
        array = hx.fd_derivative(values, curve.dt)
        assert _bits(array) == _bits(_scalar_fd_derivative(values, curve.dt))
        for layer in (1, 2, 3):
            assert _bits(curve.cov(key, layer)) == _bits(_scalar_cov(curve, key, layer))
    assert any(curve.cov("zeta", 3)) == (samples >= hx.CUBIC_MIN_SAMPLES)


def test_array_stencil_keeps_non_finite_values_silent():
    """Overflow, inf and NaN propagate as in float arithmetic, bit for bit,
    and raise no numpy warning (the CLI's stderr carries only its own errors)."""
    values = [(1e308 * (-1) ** k, float(k), 0.0) for k in range(9)]
    values[4] = (math.inf, math.nan, -math.inf)
    metric = MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"],
                                        ["0", "0", "1 + x3^2"]])
    curve = hx.SampledCurve(metric, [0.1 * k for k in range(9)],
                            [(0.0, 0.0, 0.1 * k) for k in range(9)], values, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = hx.fd_derivative(values, 1e-300)
        cov = curve.cov("zeta")
    assert _bits(array) == _bits(_scalar_fd_derivative(values, 1e-300))
    assert _bits(cov) == _bits(_scalar_cov(curve, "zeta", 1))


def test_cubic_identity_rejects_short_trace(c1_spec):
    trace = synthesize(c1_spec, uniform_grid(0.0, 0.09, 10), step=1e-3)
    assert hx.cubic_residuals_from_trace(trace) == []
    # one sample has no spacing and no interior
    single = synthesize(c1_spec, [0.0], step=1e-3)
    assert extract_curvatures(single) == []
    assert hx.cubic_residuals_from_trace(single) == []
    assert hx.identity_reports_from_trace(single) == []


def _conformal_metric():
    e = "exp(0.4*x3)"
    return MetricField.from_texts(3, [[f"-{e}", "0", "0"], ["0", f"-{e}", "0"],
                                      ["0", "0", e]])


def _count_calls(monkeypatch, name):
    """Record the first argument of every MetricField.<name> call."""
    calls = []
    original = getattr(MetricField, name)

    def counted(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(MetricField, name, counted)
    return calls


def test_one_christoffel_evaluation_per_frame_bundle(monkeypatch):
    curve = NullCurve.position(_conformal_metric(), ["cos(t)", "sin(t)", "t"],
                               (0.0, TWO_PI))
    calls = _count_calls(monkeypatch, "christoffel")
    t = 0.7
    frame = build_frame(curve, t)
    cs = curvatures_at(curve, frame)
    nf.frenet_residuals(curve, frame, cs)
    metric_identity_suite(curve, frame, cs)
    cubic_identity_residual(curve, frame, cs)
    assert len(curve._bundles) == 1
    assert len(calls) == 1


def _disguised_flat():
    """The flat chart with ``1 + 0*x3`` for g_33: it reads x3, so its pattern
    is not empty and its RK4 runs the stage loop, summing exactly-zero Γ."""
    return MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + 0*x3"]])


def _reference_rhs(metric, h, k1, k2, state):
    """The frame system's right-hand side as the stage loop computed it before
    it was generated: the connection evaluated at the stage's position."""
    z = state[3:6]
    n = state[6:9]
    w = state[9:12]
    gamma = metric.christoffel(state[0:3])
    gz = [0.0] * 9
    for k, i, j in metric.pattern:
        c = gamma[k][i][j] * z[i]
        gz[k] += c * z[j]
        gz[3 + k] += c * n[j]
        gz[6 + k] += c * w[j]
    return [
        z[0], z[1], z[2],
        h * z[0] + k1 * w[0] - gz[0],
        h * z[1] + k1 * w[1] - gz[1],
        h * z[2] + k1 * w[2] - gz[2],
        -h * n[0] + k2 * w[0] - gz[3],
        -h * n[1] + k2 * w[1] - gz[4],
        -h * n[2] + k2 * w[2] - gz[5],
        k2 * z[0] + k1 * n[0] - gz[6],
        k2 * z[1] + k1 * n[1] - gz[7],
        k2 * z[2] + k1 * n[2] - gz[8],
    ]


def _reference_rk4_steps(metric, h, k1, k2, state, dt, nsteps):
    """The RK4 stage loop as it was before it was generated."""
    y = list(state)
    for _ in range(nsteps):
        a = _reference_rhs(metric, h, k1, k2, y)
        b = _reference_rhs(metric, h, k1, k2, [y[i] + 0.5 * dt * a[i] for i in range(12)])
        c = _reference_rhs(metric, h, k1, k2, [y[i] + 0.5 * dt * b[i] for i in range(12)])
        d = _reference_rhs(metric, h, k1, k2, [y[i] + dt * c[i] for i in range(12)])
        y = [y[i] + dt * (a[i] + 2.0 * b[i] + 2.0 * c[i] + d[i]) / 6.0 for i in range(12)]
    return y


def _float_bits(values):
    return [struct.pack("<d", v) for v in values]


def _trace_bits(trace):
    rows = (*trace.points, *trace.zetas, *trace.ns, *trace.ws, trace.gram_drift,
            trace.err_est)
    return [_float_bits(row) for row in rows]


def test_flat_chart_rk4_never_evaluates_the_connection(monkeypatch, c1_spec):
    """Neither the flat propagator nor the generated stage loop calls
    ``christoffel``; the disguised chart still runs the stage loop, whose
    trace is the reference loop's, bit for bit."""
    gammas = _count_calls(monkeypatch, "christoffel")
    grid = uniform_grid(0.0, 0.2, 5)
    flat = synthesize(c1_spec, grid, step=1e-2, project_every=3)
    spec = dataclasses.replace(c1_spec, metric=_disguised_flat())
    staged = synthesize(spec, grid, step=1e-2, project_every=3)
    assert gammas == []
    monkeypatch.setattr(hx, "_rk4_steps", _reference_rk4_steps)
    reference = synthesize(spec, grid, step=1e-2, project_every=3)
    assert gammas  # the reference evaluates the connection at every stage
    assert _trace_bits(staged) == _trace_bits(reference)
    assert _trace_bits(staged) != _trace_bits(flat)


STAGE_LOOP_CHARTS = {
    "curved": ([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]], (-1.0, 1.0)),
    "conformal": ([["-exp(0.4*x3)", "0", "0"], ["0", "-exp(0.4*x3)", "0"],
                   ["0", "0", "exp(0.4*x3)"]], (-1.0, 1.0)),
    "pseudosphere": ([["-1", "0", "0"], ["0", "-sinh(x1)^2", "0"],
                      ["0", "0", "cosh(x1)^2"]], (0.3, 1.2)),
    "dense": ([["-1 - 0.1*x1*x2", "0.2*x3", "0.1*x1"],
               ["0.2*x3", "-1 + 0.1*x3^2", "0.05*x1*x2"],
               ["0.1*x1", "0.05*x1*x2", "1 + 0.1*x1^2 + 0.1*x2*x3"]], (-0.5, 0.5)),
    "disguised-flat": ([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + 0*x3"]],
                       (-1.0, 1.0)),
}


@pytest.mark.parametrize("chart", list(STAGE_LOOP_CHARTS))
def test_generated_stage_loop_equals_the_reference_loop_bitwise(chart):
    texts, (lo, hi) = STAGE_LOOP_CHARTS[chart]
    metric = MetricField.from_texts(3, texts)
    assert metric.pattern
    rng = random.Random(f"stage-loop-{chart}")

    def value(scale):  # signed zeros too, which every sum must keep as it did
        return rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-scale, scale)

    for _ in range(60):
        state = [rng.uniform(lo, hi) for _ in range(3)] + [value(1.5) for _ in range(9)]
        h, k1, k2 = (value(1.0) for _ in range(3))
        dt = rng.uniform(1e-3, 5e-2)
        for step in (dt, 0.5 * dt):
            for nsteps in range(1, 5):
                got = hx._rk4_steps(metric, h, k1, k2, state, step, nsteps)
                want = _reference_rk4_steps(metric, h, k1, k2, state, step, nsteps)
                assert _float_bits(got) == _float_bits(want)


def _raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_generated_stage_loop_raises_as_the_reference_loop():
    # g_33 = x3 is degenerate at x3 = 0, where the first stage sits
    degenerate = MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "x3"]])
    state = [0.1, 0.2, 0.0, 0.0, 1.0, 1.0, 0.0, -0.5, 0.5, -1.0, 0.0, 0.0]
    got = _raised(hx._rk4_steps, degenerate, 0.0, 1.0, -0.5, state, 1e-2, 3)
    assert got == (semimetric.DegenerateMetricError, "metric degenerate along evaluation")
    assert got == _raised(_reference_rk4_steps, degenerate, 0.0, 1.0, -0.5, state, 1e-2, 3)
    # from x3 = 0.05 with zeta_3 = -1, a later stage of the second step
    # reaches x3 < 0, where log(x3) fails
    log3 = MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "2 + log(x3)"]])
    state[2], state[5] = 0.05, -1.0
    got = _raised(hx._rk4_steps, log3, 0.0, 1.0, -0.5, state, 0.04, 3)
    assert got == (DomainError, "log of non-positive value in 'log(x3)'")
    assert got == _raised(_reference_rk4_steps, log3, 0.0, 1.0, -0.5, state, 0.04, 3)
    assert hx._rk4_steps(log3, 0.0, 1.0, -0.5, state, 0.04, 1)  # the first step is fine


def _max_relative_gap(a, b):
    scale = max(abs(c) for row in b for c in row)
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)) / scale


@pytest.mark.parametrize("t1, samples, step, project_every", [
    (0.3, 7, 1e-2, 7), (5.0, 501, 1e-2, 0),
], ids=["projected-7", "unprojected-501"])
def test_flat_propagator_matches_the_stage_loop(flat3, rng, t1, samples, step,
                                                project_every):
    """The flat chart's propagator against the stage loop on the same chart.

    The two sum in different orders, so they agree to rounding, not bitwise.
    With projection on frames that grow a lot the orders legitimately drift
    further apart, so no such case is asserted here.
    """
    disguised = _disguised_flat()
    assert flat3.pattern == () and disguised.pattern == ((0, 2, 2), (1, 2, 2), (2, 2, 2))
    grid = uniform_grid(0.0, t1, samples)
    for _ in range(3):
        spec = random_helix_spec(rng, flat3)
        flat = synthesize(spec, grid, step=step, project_every=project_every)
        per_stage = synthesize(dataclasses.replace(spec, metric=disguised), grid,
                               step=step, project_every=project_every)
        for name in ("points", "zetas", "ns", "ws"):
            gap = _max_relative_gap(getattr(flat, name), getattr(per_stage, name))
            assert gap <= 1e-12, name


def _exact_rk4(h, k1, k2, state, dt, nsteps):
    """Classical RK4 of the flat frame system in exact rational arithmetic."""
    h, k1, k2, dt = (Fraction(v) for v in (h, k1, k2, dt))
    half = Fraction(1, 2)

    def rhs(y):
        z, n, w = y[3:6], y[6:9], y[9:12]
        return (list(z) + [h * z[a] + k1 * w[a] for a in range(3)]
                + [-h * n[a] + k2 * w[a] for a in range(3)]
                + [k2 * z[a] + k1 * n[a] for a in range(3)])

    y = [Fraction(v) for v in state]
    for _ in range(nsteps):
        a = rhs(y)
        b = rhs([y[i] + half * dt * a[i] for i in range(12)])
        c = rhs([y[i] + half * dt * b[i] for i in range(12)])
        d = rhs([y[i] + dt * c[i] for i in range(12)])
        y = [y[i] + dt * (a[i] + 2 * b[i] + 2 * c[i] + d[i]) / 6 for i in range(12)]
    return [float(v) for v in y]


@pytest.mark.parametrize("dt, nsteps", [(1e-3, 1), (1e-3, 10), (0.05, 20)])
def test_flat_propagator_matches_exact_rational_rk4(flat3, rng, dt, nsteps):
    for _ in range(3):
        spec = random_helix_spec(rng, flat3)
        state = (list(spec.initial_point) + list(spec.zeta0) + list(spec.n0)
                 + list(spec.w0))
        got = hx._rk4_steps(flat3, spec.h, spec.k1, spec.k2, state, dt, nsteps)
        exact = _exact_rk4(spec.h, spec.k1, spec.k2, state, dt, nsteps)
        assert _max_relative_gap([got], [exact]) <= 1e-14


def _curved_c1_trace():
    """C1's frame at (1, 0, 0) on diag(-1, -1, 1 + x3^2), where g = diag(-1, -1, 1)."""
    metric = MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]])
    spec = HelixSpec(0.0, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                     (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=metric)
    return synthesize(spec, uniform_grid(0.0, 0.3, 31), step=1e-3)


def test_trace_view_evaluates_each_sample_once(monkeypatch):
    trace = _curved_c1_trace()
    gammas = _count_calls(monkeypatch, "christoffel")
    metrics = _count_calls(monkeypatch, "matrix_at")
    reports = hx.identity_reports_from_trace(trace)
    kept = hx.decimated_count(trace.times)
    assert len(reports) == kept - 2 * hx.FD_RADIUS
    assert any(r.cubic_residual is not None for r in reports)
    for calls in (gammas, metrics):
        points = [tuple(p) for p in calls]
        assert 0 < len(points) <= kept
        assert len(set(points)) == len(points)


def test_trace_view_results_do_not_depend_on_call_order():
    trace = _curved_c1_trace()
    functions = (
        extract_curvatures,
        hx.cubic_residuals_from_trace,
        hx.identity_reports_from_trace,
    )
    fresh = [f(dataclasses.replace(trace)) for f in functions]
    assert all(fresh)
    driven = [f(trace) for f in reversed(functions)][::-1]
    assert driven == fresh
    assert [f(trace) for f in functions] == fresh


def _sample_results(curve, frame, policy=None):
    """Every per-sample result the frame and verify commands derive."""
    cs = curvatures_at(curve, frame, policy)
    return (cs, nf.frenet_residuals(curve, frame, cs, policy),
            metric_identity_suite(curve, frame, cs, policy),
            cubic_identity_residual(curve, frame, cs, policy))


@pytest.mark.parametrize("conformal", [False, True])
def test_memoized_bundles_match_a_fresh_curve(flat3, conformal):
    metric = _conformal_metric() if conformal else flat3
    texts = ["cos(t)", "sin(t)", "t"]
    served = NullCurve.position(metric, texts, (0.0, TWO_PI))
    frames = frame_field(served, uniform_grid(0.0, TWO_PI, 12))
    for fr in frames[::3]:
        fresh = NullCurve.position(metric, texts, (0.0, TWO_PI))
        first = _sample_results(served, fr)
        assert first == _sample_results(fresh, fr)
        assert _sample_results(served, fr) == first


def test_flipped_frame_leaves_shared_bundle_untouched(c1_curve):
    t = 1.3
    frame = build_frame(c1_curve, t)
    before = _sample_results(c1_curve, frame)
    # past any k1, orientation falls back to W's first component: here -W
    flip_policy = nf.ScreenPolicy(orient_tol=10.0)
    flipped = build_frame(c1_curve, t, flip_policy)
    assert flipped.w == tuple(-c for c in frame.w)
    assert curvatures_at(c1_curve, flipped, flip_policy).k1 == -before[0].k1
    _sample_results(c1_curve, flipped, flip_policy)
    assert _sample_results(c1_curve, frame) == before


@pytest.mark.parametrize("conformal", [False, True])
def test_reseeded_trace_frames_match_curve_frame_jets(flat3, conformal):
    """Floats and jets run one construction: the screen policy applied to the
    C1 curve's own float samples gives the constant terms of its frame
    bundles' N and W."""
    metric = _conformal_metric() if conformal else flat3
    curve = NullCurve.position(metric, ["cos(t)", "sin(t)", "t"], (0.0, TWO_PI))
    policy = nf.ScreenPolicy()
    bundles = [nf._frame_jets(curve, t, policy) for t in uniform_grid(0.0, TWO_PI, 25)]
    points = [tuple(const_term(c) for c in fj.pos) for fj in bundles]
    zetas = [tuple(const_term(c) for c in fj.zeta) for fj in bundles]
    ns, ws = policy_frames(metric, points, zetas, policy)
    signs = nf.continuity_signs([fj.w for fj in bundles])
    for fj, sign, n, w in zip(bundles, signs, ns, ws):
        assert n == pytest.approx(tuple(const_term(c) for c in fj.n), abs=1e-12)
        assert w == pytest.approx(tuple(sign * const_term(c) for c in fj.w), abs=1e-12)


def test_constancy_report(c1_curve, flat3):
    frames = frame_field(c1_curve, uniform_grid(0.0, TWO_PI, 50))
    samples = [curvatures_at(c1_curve, f) for f in frames]
    rep = constancy_report(samples)
    assert rep["h"] <= 1e-9 and rep["k1"] <= 1e-9 and rep["k2"] <= 1e-9
    c = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.1, 3.0))
    frames = frame_field(c, uniform_grid(0.5, 2.0, 40))
    samples = [curvatures_at(c, f) for f in frames]
    rep = constancy_report(samples)
    assert rep["k1"] == pytest.approx(3.0, abs=1e-6)
    with pytest.raises(ValueError):
        constancy_report(samples[:1])
    with pytest.raises(ValueError):
        constancy_report([])


def test_frames_reconstructible_along_synthesized_traces(flat3, rng):
    """Converse scenario: a synthesized trace admits a valid frame everywhere.

    The policy construction applied to the traced tangents must produce
    vectors satisfying all six frame conditions at every sample.
    """
    spec = random_helix_spec(rng, flat3)
    trace = synthesize(spec, uniform_grid(0.0, 2.0, 201), step=1e-3)
    ns, ws = policy_frames(flat3, trace.points, trace.zetas, nf.ScreenPolicy())
    for i in range(len(trace.points)):
        g = flat3.matrix_at(trace.points[i])
        assert nf.max_gram_residual(g, trace.zetas[i], ns[i], ws[i]) <= 1e-9


def test_gram_drift_stays_tiny_without_projection(c1_spec):
    trace = synthesize(c1_spec, uniform_grid(0.0, 5.0, 251), step=1e-3)
    assert max(trace.gram_drift) < 1e-9


def test_gram_drift_bounded_by_linear_step4_growth(c1_spec):
    """Drift admits a modest envelope C * t * step^4 (projection off)."""
    for step in (1e-2, 5e-3):
        trace = synthesize(c1_spec, uniform_grid(0.0, 5.0, 51), step=step)
        for t, drift in zip(trace.times[1:], trace.gram_drift[1:]):
            assert drift <= 100.0 * t * step ** 4


def test_curved_chart_synthesis_matches_flat_in_disguise():
    """Same helix integrated on a curved-entry chart reduces correctly.

    The chart metric diag(-1, -1, 1 + x3^2) restricted to the plane x3 = 0
    has vanishing x3-motion only for curves with zeta3 = 0; instead compare a
    short integration against the pure-Python path on the flat chart, which
    exercises the curved right-hand side with nonzero connection terms.
    """
    from nullhelix.semimetric import MetricField

    g = MetricField.from_texts(
        3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]]
    )
    spec = HelixSpec(0.0, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                     (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=g)
    trace = synthesize(spec, uniform_grid(0.0, 0.5, 51), step=1e-3)
    assert max(trace.gram_drift) < 1e-8
    samples = extract_curvatures(trace)
    # frame equations hold with the requested constants on the curved chart
    assert max(abs(s.k1 - 1.0) for s in samples) < 1e-5
