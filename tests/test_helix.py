import dataclasses
import math
import random
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix import jets, semimetric
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
from nullhelix.nullframe import NullCurve, curvatures_at, frame_field
from nullhelix.semimetric import MetricField

from conftest import (continuity_signs, inject, measures, outcome, policy_frames,
                      random_helix_spec, reference_frames, uniform_grid, value_bits)

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
    with pytest.raises(ValueError) as info:
        synthesize(c1_spec, [], step=1e-3)
    assert str(info.value) == "grid must contain at least one sample"
    # a negative project_every used to make the RK4 chunk negative: no end
    for project_every in (-3, -1, 2.5, True, "100"):
        with pytest.raises(ValueError, match="project_every"):
            synthesize(c1_spec, [0.0, 0.1], step=1e-2, project_every=project_every)


def test_decimation_rejects_a_non_uniform_grid():
    with pytest.raises(ValueError) as info:
        hx.decimation([0.0, 0.01, 0.03])
    assert str(info.value) == "finite-difference extraction needs a uniform grid"


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
        assert np.max(abs(samples.h - spec.h)) < 1e-6
        assert np.max(abs(samples.k1 - spec.k1)) < 1e-6
        assert np.max(abs(samples.k2 - spec.k2)) < 1e-6


def test_cubic_identity_on_circle_helix(c1_curve):
    for t in (0.3, 2.0, 4.7):
        fr = frame_field(c1_curve, [t])[0]
        cs = curvatures_at(c1_curve, fr)
        assert cs.h ** 2 + 2 * cs.k1 * cs.k2 == pytest.approx(-1.0, abs=1e-12)
        assert cubic_identity_residual(c1_curve, fr, cs) <= 1e-8


def test_cubic_identity_rejects_non_helix(flat3):
    c = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.0, 3.0))
    fr = frame_field(c, [1.0])[0]
    cs = curvatures_at(c, fr)
    assert cubic_identity_residual(c, fr, cs) > 0.01


def test_cubic_identity_geodesic_exact_zero(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = frame_field(line, [1.0])[0]
    cs = curvatures_at(line, fr)
    assert cubic_identity_residual(line, fr, cs) == 0.0


def test_metric_identity_suite_circle(c1_curve):
    t = 2.2
    fr = frame_field(c1_curve, [t])[0]
    cs = curvatures_at(c1_curve, fr)
    rep = metric_identity_suite(c1_curve, fr, cs)
    assert rep.scalars == pytest.approx((-1.0, -0.25, -1.0, 0.5), abs=1e-9)
    assert rep.targets == pytest.approx((-1.0, -0.25, -1.0, 0.5), abs=1e-12)
    assert max(rep.deviations) <= 1e-9


def test_metric_identity_suite_geodesic(flat3):
    line = NullCurve.position(flat3, ["t", "0", "t"], (0.0, 5.0))
    fr = frame_field(line, [1.0])[0]
    cs = curvatures_at(line, fr)
    rep = metric_identity_suite(line, fr, cs)
    assert rep.scalars == (0.0, 0.0, 0.0, 0.0)
    assert rep.targets == (0.0, 0.0, 0.0, 0.0)


def test_identity_suite_on_synthesized_trace(flat3):
    spec = HelixSpec(0.3, 1.0, 0.7, (0, 0, 0), (1, 0, 1), (-0.5, 0, 0.5), (0, 1, 0),
                     metric=flat3)
    trace = synthesize(spec, uniform_grid(0.0, 2.0, 1001), step=1e-3)
    report = hx.identity_reports_from_trace(trace)
    assert len(report.t)
    first = [target[0] for target in report.targets]
    assert first == pytest.approx([-1.0, -0.49, 1.4, -0.79], abs=1e-9)
    assert np.max(report.deviations) <= 1e-6


def test_cubic_along_synthesized_traces(flat3, rng):
    for _ in range(3):
        spec = random_helix_spec(rng, flat3)
        trace = synthesize(spec, uniform_grid(0.0, 2.0, 2001), step=1e-3)
        _, residuals = hx.cubic_residuals_from_trace(trace)
        assert np.max(residuals) <= 1e-6


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


def _rows(array):
    """The per-sample rows of a component-major array, as tuples of floats."""
    return [tuple(row) for row in np.asarray(array).T.tolist()]


def _scalar_cov(curve, key, layer):
    """``SampledCurve.cov`` as a loop over samples, one ``christoffel`` and one
    ``connection_term`` each: the rows of the samples layer ``layer`` reaches."""
    values = _rows(curve.fields[key]) if layer == 1 else _scalar_cov(curve, key, layer - 1)
    points, zetas = _rows(curve.points), _rows(curve.fields["zeta"])
    first = (len(points) - len(values)) // 2 + hx.FD_RADIUS  # the first sample reached
    out = []
    for i, dv in enumerate(_scalar_fd_derivative(values, curve.dt)):
        gamma = curve.metric.christoffel(list(points[first + i]))
        term = semimetric.connection_term(curve.metric, gamma, zetas[first + i],
                                          values[hx.FD_RADIUS + i])
        out.append(tuple(dv[a] + term[a] for a in range(len(dv))))
    return out


def _scalar_measurements(trace):
    """The trace measurements as loops over samples, each sample's floats
    through the shared functions: curvature samples, identity reports and
    (t, cubic residual) pairs."""
    curve = trace.view
    r = hx.FD_RADIUS
    times = curve.times.tolist()
    points, ns, ws = (_rows(a) for a in (curve.points, curve.fields["n"], curve.fields["w"]))
    cz, cn, cw = (_scalar_cov(curve, key, 1) for key in ("zeta", "n", "w"))
    samples, reports = [], []
    for i, (a, b, c) in enumerate(zip(cz, cn, cw)):
        g = curve.metric.matrix_at(points[r + i])
        sample = nf.frame_curvatures(times[r + i], g, a, b, ns[r + i], ws[r + i])
        samples.append(sample)
        reports.append(hx._identity_report(sample.t, g, a, b, c, sample))
    factor = hx.cubic_factor(trace.spec.h, trace.spec.k1, trace.spec.k2)
    cubics = [(times[3 * r + i], hx.cubic_residual(cz[2 * r + i], c3, factor))
              for i, c3 in enumerate(_scalar_cov(curve, "zeta", 3))]
    return samples, reports, cubics


def _value_bits(values):
    """``_float_bits`` with every NaN as one: where two NaNs meet, numpy's
    loops may keep the other operand's sign and payload than Python does, and
    no report shows either (a NaN in a report is an exit-2 error)."""
    return _float_bits([math.nan if v != v else v for v in values])


def _assert_array_measurements_match(trace):
    """Curvatures, identity scalars, cubic residuals and the constancy spread
    on arrays equal the loops over samples bit for bit (NaNs as one)."""
    samples, reports, cubics = _scalar_measurements(trace)
    sample = extract_curvatures(trace)
    for key in ("t", "h", "k1", "k2"):
        want = [getattr(s, key) for s in samples]
        assert _value_bits(getattr(sample, key).tolist()) == _value_bits(want)
    assert sample.geodesic_type.tolist() == [s.geodesic_type for s in samples]
    report = hx.identity_reports_from_trace(trace)
    assert _value_bits(report.t.tolist()) == _value_bits([r.t for r in reports])
    for key in ("scalars", "targets", "deviations"):
        for q, column in enumerate(getattr(report, key)):
            want = [getattr(r, key)[q] for r in reports]
            assert _value_bits(column.tolist()) == _value_bits(want)
    times, residuals = hx.cubic_residuals_from_trace(trace)
    assert _value_bits(times.tolist()) == _value_bits([t for t, _ in cubics])
    assert _value_bits(residuals.tolist()) == _value_bits([c for _, c in cubics])
    if len(samples) >= 2:
        spread = hx.constancy_report(sample)
        for key in ("h", "k1", "k2"):
            first = getattr(samples[0], key)
            want = max(abs(getattr(s, key) - first) for s in samples)
            assert _value_bits([spread[key]]) == _value_bits([want])


def _bits(rows):
    return [struct.pack(f"{len(r)}d", *r) for r in rows]


def _chart(g33):
    return MetricField.from_texts(3, [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", g33]])


@pytest.mark.parametrize("samples", [4, 7, 12, 31])
@pytest.mark.parametrize("chart", ["flat", "curved"])
def test_array_stencils_equal_the_scalar_loop_bit_for_bit(chart, samples):
    """Every layer of every field, then the measurements on it, on a flat
    chart and on diag(-1, -1, 1 + x3^2) (non-empty pattern), down to sequences
    shorter than one stencil."""
    metric = _chart("1" if chart == "flat" else "1 + x3^2")
    spec = HelixSpec(0.3, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                     (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=metric)
    trace = synthesize(spec, uniform_grid(0.0, 0.01 * (samples - 1), samples), step=1e-3)
    curve = trace.view
    assert curve.points.shape == (3, samples)
    assert bool(metric.pattern) == (chart == "curved")
    for key in ("zeta", "n", "w"):
        values = _rows(curve.fields[key])
        array = hx.fd_derivative(values, curve.dt)
        assert _bits(array) == _bits(_scalar_fd_derivative(values, curve.dt))
        for layer in (1, 2, 3):
            assert _bits(curve.cov(key, layer).T) == _bits(_scalar_cov(curve, key, layer))
    assert (curve.cov("zeta", 3).shape[1] > 0) == (samples >= hx.CUBIC_MIN_SAMPLES)
    _assert_array_measurements_match(trace)


def _float_norm(vec):
    """The Euclidean norm as a loop over Python floats, inf where ** 2 overflows."""
    try:
        return math.sqrt(sum(c ** 2 for c in vec))
    except OverflowError:
        return math.inf


def test_array_cubic_residual_keeps_the_bits_of_float_squares():
    """Squares on arrays keep the bits of Python's ``** 2`` (on glibc,
    2.759 ** 2 is 7.612080999999999 while 2.759 * 2.759 is 7.612081), and a
    sample with a square that overflows is inf, NaN components or not."""
    rng = random.Random("cubic-squares")

    def component():
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6)

    pairs = [((0.0, 0.0, 0.0), (2.759, 0.0, 0.0))]
    pairs += [(tuple(component() for _ in range(3)), tuple(component() for _ in range(3)))
              for _ in range(2000)]
    pairs += [((0.0, 0.0, 0.0), c3) for c3 in (
        (1e200, math.nan, 0.0), (math.nan, 1e200, 0.0), (math.inf, 1e200, 0.0),
        (1e300, -1e300, 2.0), (math.inf, math.nan, 1.0), (math.nan, 0.0, 0.0))]
    factor = 0.83
    c1, c3 = (np.array([pair[k] for pair in pairs]).T for k in (0, 1))
    with np.errstate(all="ignore"):  # as on the trace route
        got = hx.cubic_residual(c1, c3, factor)
    want = [_float_norm([b - factor * a for a, b in zip(*pair)]) for pair in pairs]
    assert _value_bits(got.tolist()) == _value_bits(want)


def test_array_stencil_keeps_non_finite_values_silent():
    """Overflow, inf and NaN propagate as in float arithmetic, bit for bit,
    and raise no numpy warning (the CLI's stderr carries only its own errors):
    through the stencils, and through the curvatures, identity scalars, cubic
    residuals and constancy spread of a trace holding such values."""
    values = [(1e308 * (-1) ** k, float(k), 0.0) for k in range(9)]
    values[4] = (math.inf, math.nan, -math.inf)
    metric = _chart("1 + x3^2")
    curve = hx.SampledCurve(metric, [0.1 * k for k in range(9)],
                            [[0.0] * 9, [0.0] * 9, [0.1 * k for k in range(9)]],
                            np.transpose(values), 1e-300)
    spec = HelixSpec(0.3, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                     (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=metric)
    count = 2 * hx.CUBIC_MIN_SAMPLES
    rng = random.Random("non-finite")
    wild = (math.inf, -math.inf, math.nan, 1e200, -1e200, 1e308)

    def rows():
        return np.array([[rng.choice(wild) if rng.random() < 0.2 else rng.uniform(-2, 2)
                          for _ in range(3)] for _ in range(count)])

    points = np.array([[0.0, 0.0, 0.01 * k] for k in range(count)])
    trace = hx.HelixTrace(spec, np.array(uniform_grid(0.0, 0.01 * (count - 1), count)),
                          points, rows(), rows(), rows(), np.zeros(count), np.zeros(count))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = hx.fd_derivative(values, 1e-300)
        cov = curve.cov("zeta")
        _assert_array_measurements_match(trace)
    assert _bits(array) == _bits(_scalar_fd_derivative(values, 1e-300))
    assert _bits(cov.T) == _bits(_scalar_cov(curve, "zeta", 1))


def test_sampled_curve_reads_g_per_sample_at_a_non_finite_point():
    """numpy divides infinity by zero without a flag, where a float raises:
    a sampled curve with an infinite point reads g and the connection per
    sample, and raises the error a loop over samples raises."""
    metric = _chart("1 + 1/(x3/exp(-x3))")
    x3 = [0.5 + 0.1 * k for k in range(9)]
    x3[4] = math.inf
    rows = [(0.0, 0.0, x) for x in x3]
    want = "float division by zero in 'x3 / exp(-x3)'"
    for read in (lambda c: c.g(9), lambda c: c.cov("zeta")):
        curve = hx.SampledCurve(metric, [0.1 * k for k in range(9)], np.transpose(rows),
                                np.ones((3, 9)), 0.1)
        with pytest.raises(DomainError) as error:
            read(curve)
        assert str(error.value) == want
    with pytest.raises(DomainError, match=re.escape(want)):
        [metric.matrix_at(p) for p in rows]


def test_cubic_identity_rejects_short_trace(c1_spec):
    trace = synthesize(c1_spec, uniform_grid(0.0, 0.09, 10), step=1e-3)
    assert [len(a) for a in hx.cubic_residuals_from_trace(trace)] == [0, 0]
    # one sample has no spacing and no interior
    single = synthesize(c1_spec, [0.0], step=1e-3)
    assert len(extract_curvatures(single).t) == 0
    assert [len(a) for a in hx.cubic_residuals_from_trace(single)] == [0, 0]
    assert len(hx.identity_reports_from_trace(single).t) == 0


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
    """One connection per bundle: over the grid's sample arrays for the
    frames ``frame_field`` gives, at one t for a single frame."""
    curve = NullCurve.position(_conformal_metric(), ["cos(t)", "sin(t)", "t"],
                               (0.0, TWO_PI))
    calls = _count_calls(monkeypatch, "christoffel")
    grid = uniform_grid(0.0, TWO_PI, 12)
    frames = frame_field(curve, grid)
    for frame, key in ((frames, np.array(grid).tobytes()), (frames[7], grid[7])):
        cs = curvatures_at(curve, frame)
        nf.frenet_residuals(curve, frame, cs)
        metric_identity_suite(curve, frame, cs)
        cubic_identity_residual(curve, frame, cs)
        assert curve._bundle[0] == (key, nf.ScreenPolicy().seeds)
        assert len(calls) == 1
        assert [const_term(c) for c in calls.pop()] == \
            [const_term(c) for c in curve._bundle[1].pos]


def _disguised_flat():
    """The flat chart with ``1 + 0*x3`` for g_33: it reads x3, but every
    derivative of its entries is structurally zero, so the generated
    connection gives no symbol a value, its pattern is empty and its RK4
    takes the flat propagator."""
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
    """Neither the flat chart nor the disguised one calls ``christoffel``:
    both have an empty pattern and take the flat propagator, so their traces
    agree bit for bit."""
    gammas = _count_calls(monkeypatch, "christoffel")
    grid = uniform_grid(0.0, 0.2, 5)
    flat = synthesize(c1_spec, grid, step=1e-2, project_every=3)
    spec = dataclasses.replace(c1_spec, metric=_disguised_flat())
    disguised = synthesize(spec, grid, step=1e-2, project_every=3)
    assert gammas == []
    assert _trace_bits(disguised) == _trace_bits(flat)


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
    """The loop is called directly, so the disguised chart, whose RK4 takes
    the flat propagator, runs it too."""
    texts, (lo, hi) = STAGE_LOOP_CHARTS[chart]
    metric = MetricField.from_texts(3, texts)
    assert bool(metric.pattern) == (chart != "disguised-flat")
    loop = hx._emit_stage_loop(metric)
    rng = random.Random(f"stage-loop-{chart}")

    def value(scale):  # signed zeros too, which every sum must keep as it did
        return rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-scale, scale)

    for _ in range(60):
        state = [rng.uniform(lo, hi) for _ in range(3)] + [value(1.5) for _ in range(9)]
        h, k1, k2 = (value(1.0) for _ in range(3))
        dt = rng.uniform(1e-3, 5e-2)
        for step in (dt, 0.5 * dt):
            for nsteps in range(1, 5):
                got = loop(*state, h, k1, k2, step, nsteps)
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
def test_flat_propagator_matches_the_stage_loop(monkeypatch, flat3, rng, t1, samples,
                                                step, project_every):
    """The flat chart's propagator against the generated stage loop on the
    same chart, which its RK4 never runs otherwise.

    The two sum in different orders, so they agree to rounding, not bitwise.
    With projection on frames that grow a lot the orders legitimately drift
    further apart, so no such case is asserted here.
    """
    assert flat3.pattern == ()
    loop = hx._emit_stage_loop(flat3)

    def stage_loop(metric, h, k1, k2, state, dt, nsteps):
        return loop(*state, h, k1, k2, dt, nsteps)

    grid = uniform_grid(0.0, t1, samples)
    for _ in range(3):
        spec = random_helix_spec(rng, flat3)
        flat = synthesize(spec, grid, step=step, project_every=project_every)
        with monkeypatch.context() as patch:
            patch.setattr(hx, "_rk4_steps", stage_loop)
            per_stage = synthesize(spec, grid, step=step, project_every=project_every)
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


def _entry_bits(value):
    """The bits of a float, or of each value in nested rows of floats."""
    if isinstance(value, (list, tuple)):
        return [_entry_bits(v) for v in value]
    return struct.pack("<d", value)


def test_trace_view_evaluates_each_sample_once(monkeypatch, c1_spec):
    """A view, on a curved or a flat chart, reads g with one ``matrix_at``
    over all its samples and the connection with one ``christoffel`` over
    the samples a covariant layer reaches, each sample bitwise the reads
    of a loop over samples."""
    grid = uniform_grid(0.0, 0.3, 31)
    for trace in (_curved_c1_trace(), synthesize(c1_spec, grid, step=1e-3)):
        gammas = _count_calls(monkeypatch, "christoffel")
        metrics = _count_calls(monkeypatch, "matrix_at")
        report = hx.identity_reports_from_trace(trace)
        _, cubic = hx.cubic_residuals_from_trace(trace)
        kept = hx.decimated_count(trace.times)
        assert len(report.t) == kept - 2 * hx.FD_RADIUS
        assert len(cubic) == kept - 6 * hx.FD_RADIUS > 0
        assert len(metrics) == len(gammas) == 1
        view = trace.view
        points = view.points.T.tolist()
        reached = points[hx.FD_RADIUS:kept - hx.FD_RADIUS]
        assert _entry_bits(np.transpose(metrics[0]).tolist()) == _entry_bits(points)
        assert _entry_bits(np.transpose(gammas[0]).tolist()) == _entry_bits(reached)
        for i, p in enumerate(points):
            assert _entry_bits(nf._sample(view._g, i)) == \
                _entry_bits(view.metric.matrix_at(p))
        for i, p in enumerate(reached):
            assert _entry_bits(nf._sample(view._gamma, i)) == \
                _entry_bits(view.metric.christoffel(p))
        monkeypatch.undo()


def _result_bits(result):
    """The bytes of every array in a trace measurement's result, in order."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return b"".join(_result_bits(r) for r in result)
    return b"" if result is None else np.asarray(result, dtype=float).tobytes()


def test_trace_view_results_do_not_depend_on_call_order():
    trace = _curved_c1_trace()
    functions = (
        extract_curvatures,
        hx.cubic_residuals_from_trace,
        hx.identity_reports_from_trace,
    )
    fresh = [_result_bits(f(dataclasses.replace(trace))) for f in functions]
    assert all(fresh)
    driven = [_result_bits(f(trace)) for f in reversed(functions)][::-1]
    assert driven == fresh
    assert [_result_bits(f(trace)) for f in functions] == fresh


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
    for fr in (frames[i] for i in range(0, 12, 3)):
        fresh = NullCurve.position(metric, texts, (0.0, TWO_PI))
        first = _sample_results(served, fr)
        assert first == _sample_results(fresh, fr)
        assert _sample_results(served, fr) == first


def test_flipped_frame_leaves_shared_bundle_untouched(c1_curve):
    t = 1.3
    frame = frame_field(c1_curve, [t])[0]
    before = _sample_results(c1_curve, frame)
    # the same bundle key, carried with the opposite orientation of W
    flipped = dataclasses.replace(frame, w=tuple(-c for c in frame.w))
    assert flipped.w == tuple(-c for c in frame.w)
    assert curvatures_at(c1_curve, flipped).k1 == -before[0].k1
    _sample_results(c1_curve, flipped)
    assert _sample_results(c1_curve, frame) == before


@pytest.mark.parametrize("conformal", [False, True])
def test_reseeded_trace_frames_match_curve_frame_jets(flat3, conformal):
    """Floats and jets run one construction: the screen policy applied to the
    C1 curve's own float samples gives the constant terms of its frame
    bundles' N and W."""
    metric = _conformal_metric() if conformal else flat3
    curve = NullCurve.position(metric, ["cos(t)", "sin(t)", "t"], (0.0, TWO_PI))
    policy = nf.ScreenPolicy()
    grid = np.array(uniform_grid(0.0, TWO_PI, 25))
    bundle = nf._frame_jets(curve, grid, policy)
    bundles = [bundle.sample(i) for i in range(len(grid))]
    points = [tuple(const_term(c) for c in fj.pos) for fj in bundles]
    zetas = [tuple(const_term(c) for c in fj.zeta) for fj in bundles]
    ns, ws = policy_frames(metric, points, zetas, policy)
    signs = continuity_signs([fj.w for fj in bundles])
    for fj, sign, n, w in zip(bundles, signs, ns, ws):
        assert n == pytest.approx(tuple(const_term(c) for c in fj.n), abs=1e-12)
        assert w == pytest.approx(tuple(sign * const_term(c) for c in fj.w), abs=1e-12)


def test_constancy_report(c1_curve, flat3):
    frames = frame_field(c1_curve, uniform_grid(0.0, TWO_PI, 50))
    rep = constancy_report(curvatures_at(c1_curve, frames))
    assert rep["h"] <= 1e-9 and rep["k1"] <= 1e-9 and rep["k2"] <= 1e-9
    c = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.1, 3.0))
    frames = frame_field(c, uniform_grid(0.5, 2.0, 40))
    rep = constancy_report(curvatures_at(c, frames))
    assert rep["k1"] == pytest.approx(3.0, abs=1e-6)
    with pytest.raises(ValueError):
        constancy_report(curvatures_at(c, frame_field(c, [0.5])))
    with pytest.raises(ValueError):
        constancy_report(curvatures_at(c, frame_field(c, [])))


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
    assert np.max(abs(samples.k1 - 1.0)) < 1e-5


# -- the block checks of synthesize against the per-sample loop ------------------


def _reference_synthesize(spec, grid, step, project_every=0, drift_limit=hx.DRIFT_LIMIT):
    """``synthesize``'s integration with each sample checked as it is recorded:
    a curved chart's g read at the sample, its Gram drift, then its err_est.
    Returns the ``(states, gram_drift, err_est)`` lists or raises as that loop
    raised."""
    grid = [float(t) for t in grid]
    metric = spec.metric
    g = None if metric.pattern else metric.matrix_at(spec.initial_point)
    h, k1, k2 = spec.h, spec.k1, spec.k2
    state = list(spec.initial_point) + list(spec.zeta0) + list(spec.n0) + list(spec.w0)
    shadow = list(state)
    states, drifts, errs = [], [], []
    steps_done = 0

    def record(t, full, half):
        gm = metric.matrix_at(full[0:3]) if g is None else g
        drift = nf.max_gram_residual(gm, full[3:6], full[6:9], full[9:12])
        if not drift <= drift_limit:  # NaN included
            raise GramDriftError(
                f"Gram drift {drift:.3e} exceeds {drift_limit} at t = {t}", t
            )
        states.append(full)
        drifts.append(drift)
        total = 0  # left to right, as sum() adds floats before Python 3.12
        for a, b in zip(full, half):
            total = total + (a - b) * (a - b)
        errs.append(math.sqrt(total) / 15.0)

    record(grid[0], state, shadow)
    for ta, tb in zip(grid, grid[1:]):
        nsub = max(1, int(math.ceil((tb - ta) / step - 1e-12)))
        dt = (tb - ta) / nsub
        done = 0
        while done < nsub:
            chunk = nsub - done
            if project_every:
                chunk = min(chunk, project_every - (steps_done % project_every))
            state = hx._rk4_steps(metric, h, k1, k2, state, dt, chunk)
            shadow = hx._rk4_steps(metric, h, k1, k2, shadow, 0.5 * dt, 2 * chunk)
            done += chunk
            steps_done += chunk
            if project_every and steps_done % project_every == 0:
                state = hx._project_frame(metric, state, g)
                shadow = hx._project_frame(metric, shadow, g)
        record(tb, state, shadow)
    return states, drifts, errs


def _grid(samples, spacing=0.02):
    return [spacing * i for i in range(samples)]


def _c1_on(metric):
    """C1's frame at (1, 0, 0), where each chart below has g = diag(-1, -1, 1)."""
    return HelixSpec(0.0, 1.0, -0.5, (1.0, 0.0, 0.0), (0.0, 1.0, 1.0),
                     (0.0, -0.5, 0.5), (-1.0, 0.0, 0.0), metric=metric)


RECORD_CHARTS = {  # spec, project_every, grid spacing (two steps a segment)
    "flat": (lambda: _c1_on(_chart("1")), 0, 0.02),
    "flat-projected-3": (lambda: _c1_on(_chart("1")), 3, 0.02),
    # every component moves, and at this step the full- and half-step states
    # differ in enough bits that the order of the err_est sum shows
    "flat-coarse": (lambda: random_helix_spec(random.Random("records"), _chart("1")), 0, 0.3),
    "curved": (lambda: _c1_on(_chart("1 + x3^2")), 0, 0.02),
    "conformal": (lambda: _c1_on(_conformal_metric()), 0, 0.02),
}


@pytest.mark.parametrize("samples", [1, 64, 65, 201])
@pytest.mark.parametrize("chart", list(RECORD_CHARTS))
def test_block_records_equal_the_per_sample_loop_bitwise(chart, samples):
    """Block edges fall inside the 65- and 201-sample traces."""
    make_spec, project_every, spacing = RECORD_CHARTS[chart]
    spec = make_spec()
    grid = _grid(samples, spacing)
    limit = math.inf if chart == "flat-coarse" else hx.DRIFT_LIMIT
    trace = synthesize(spec, grid, 0.5 * spacing, project_every, limit)
    states, drifts, errs = _reference_synthesize(spec, grid, 0.5 * spacing, project_every,
                                                 limit)
    assert trace.gram_drift.tobytes() == np.array(drifts).tobytes()
    assert trace.err_est.tobytes() == np.array(errs).tobytes()
    rows = np.hstack([trace.points, trace.zetas, trace.ns, trace.ws])
    assert rows.tobytes() == np.array(states).tobytes()
    assert np.max(trace.err_est) > 0.0 or samples == 1


def _raised_by(f, *args, **kwargs):
    """``(type, message, t)`` of what ``f`` raises; ``t`` only on GramDriftError."""
    with pytest.raises(Exception) as info:
        f(*args, **kwargs)
    return type(info.value), str(info.value), getattr(info.value, "t", None)


def _first_failure_after(drifts, start):
    """A drift limit whose first exceedance lies at or after sample ``start``."""
    limit = max(drifts[:start])
    return limit, next(i for i, d in enumerate(drifts) if not d <= limit)


def test_drift_failure_in_a_later_block_raises_as_the_loop(c1_spec):
    grid = _grid(201)
    _, drifts, _ = _reference_synthesize(c1_spec, grid, 1e-2)
    limit, first = _first_failure_after(drifts, 100)
    assert hx.CHECK_BLOCK <= first < 2 * hx.CHECK_BLOCK
    want = _raised_by(_reference_synthesize, c1_spec, grid, 1e-2, drift_limit=limit)
    got = _raised_by(synthesize, c1_spec, grid, step=1e-2, drift_limit=limit)
    assert got == want
    assert got[0] is GramDriftError and got[2] == grid[first]
    assert type(got[2]) is float


def _failing_at(original, call, error):
    """``original`` wrapped to raise ``error`` on its ``call``-th call (from 1)."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        if len(calls) == call:
            raise error
        return original(*args)

    return wrapped


INTEGRATION_ERRORS = {
    "domain": ("_rk4_steps", DomainError("log of non-positive value in 'log(x3)'", "log(x3)")),
    "degenerate": ("_rk4_steps", semimetric.DegenerateMetricError(
        semimetric.DEGENERATE_ALONG)),
    "projection": ("_project_frame", GramDriftError(
        "projection lost the timelike screen direction", math.nan)),
}


INJECTION_CHARTS = {"flat": lambda: _c1_on(_chart("1")),
                    "curved": lambda: _c1_on(_chart("1 + x3^2"))}
# where a failure is injected: a few samples after a drift failure, or at the
# first sample of the second or third block, integrated right after the block
# before it is checked
FAILURE_SAMPLES = ["after-drift", hx.CHECK_BLOCK, 2 * hx.CHECK_BLOCK]


def _failure_setup(drifts, at, drift_fails_first):
    """``(drift_limit, sample)``: the sample to fail at, and a limit that some
    earlier sample's drift exceeds (or DRIFT_LIMIT when none does)."""
    # on the curved chart the projected drift peaks near sample 57
    limit, first = _first_failure_after(drifts, 40)
    sample = first + 4 if at == "after-drift" else at
    assert first < sample
    return (limit if drift_fails_first else hx.DRIFT_LIMIT), sample


@pytest.mark.parametrize("at", FAILURE_SAMPLES)
@pytest.mark.parametrize("drift_fails_first", [True, False])
@pytest.mark.parametrize("kind", list(INTEGRATION_ERRORS))
@pytest.mark.parametrize("chart", list(INJECTION_CHARTS))
def test_integration_error_comes_after_the_checks_before_it(monkeypatch, chart, kind,
                                                            drift_fails_first, at):
    """An integration error (with a drift failure before it, or none) raises
    what the per-sample loop raised."""
    spec = INJECTION_CHARTS[chart]()
    grid = _grid(201, spacing=0.01)
    _, drifts, _ = _reference_synthesize(spec, grid, 1e-2, project_every=1)
    limit, sample = _failure_setup(drifts, at, drift_fails_first)
    name, error = INTEGRATION_ERRORS[kind]
    # each segment is one step of the full-step run and two of the shadow, in
    # one call each, then one projection of each: fail in the segment that
    # ends at ``sample``
    call = 2 * (sample - 1) + 1
    results = []
    for f in (_reference_synthesize, synthesize):
        with monkeypatch.context() as patch:
            patch.setattr(hx, name, _failing_at(getattr(hx, name), call, error))
            results.append(_raised_by(f, spec, grid, 1e-2, project_every=1,
                                      drift_limit=limit))
    assert results[1][:2] == results[0][:2]
    assert results[1][2] == results[0][2] or kind == "projection"  # NaN t
    if drift_fails_first:
        assert results[1][0] is GramDriftError and results[1][2] < grid[sample]
    else:
        assert results[1][:2] == (type(error), str(error))


@pytest.mark.parametrize("at", FAILURE_SAMPLES + ["before-drift"])
@pytest.mark.parametrize("drift_fails_first", [True, False])
def test_curved_g_read_comes_before_the_drift_check(monkeypatch, at, drift_fails_first):
    """A failed g read at one sample and a drift failure at another: the
    earlier sample's error wins, as in the per-sample loop."""
    spec = _c1_on(_chart("1 + x3^2"))
    grid = _grid(201, spacing=0.01)
    states, drifts, _ = _reference_synthesize(spec, grid, 1e-2)
    if at == "before-drift":
        limit, first = _first_failure_after(drifts, 20)
        limit, sample = (limit if drift_fails_first else hx.DRIFT_LIMIT), first - 2
    else:
        limit, sample = _failure_setup(drifts, at, drift_fails_first)
    unreadable = tuple(states[sample][0:3])
    original = MetricField.matrix_at

    def matrix_at(self, p):
        # on sample arrays, as the det check: PerSampleCheck where any sample fails
        hit = (p[0] == unreadable[0]) & (p[1] == unreadable[1]) & (p[2] == unreadable[2])
        if jets.failing(hit):
            raise semimetric.DegenerateMetricError(f"metric degenerate at {unreadable}")
        return original(self, p)

    monkeypatch.setattr(MetricField, "matrix_at", matrix_at)
    want = _raised_by(_reference_synthesize, spec, grid, 1e-2, drift_limit=limit)
    drift_wins = drift_fails_first and at != "before-drift"
    assert want[0] is (GramDriftError if drift_wins else semimetric.DegenerateMetricError)
    assert _raised_by(synthesize, spec, grid, step=1e-2, drift_limit=limit) == want


def test_an_abort_integrates_at_most_one_block_past_the_failure(monkeypatch, c1_spec):
    grid = _grid(401)
    _, drifts, _ = _reference_synthesize(c1_spec, grid, 1e-2)
    limit, first = _first_failure_after(drifts, 100)
    calls, blocks = [], []
    rk4, check = hx._rk4_steps, hx._check_block

    def counted(*args):
        calls.append(args)
        return rk4(*args)

    def sized(metric, g, block, drift_limit):
        blocks.append(len(block))
        return check(metric, g, block, drift_limit)

    monkeypatch.setattr(hx, "_rk4_steps", counted)
    monkeypatch.setattr(hx, "_check_block", sized)
    with pytest.raises(GramDriftError):
        synthesize(c1_spec, grid, step=1e-2, drift_limit=limit)
    # two calls per segment: the full step and the half-step shadow
    assert 2 * first <= len(calls) <= 2 * (first + hx.CHECK_BLOCK - 1)
    assert max(blocks) <= hx.CHECK_BLOCK
    blocks.clear()
    synthesize(c1_spec, grid, step=1e-2)
    assert sum(blocks) == len(grid) and max(blocks) == hx.CHECK_BLOCK


@pytest.mark.parametrize("chart", ["curved", "conformal"])
def test_curved_synthesis_reads_g_once_per_block(monkeypatch, chart):
    """Where nothing fails, a curved chart's g is read by one array
    ``matrix_at`` call per block and at no single sample, and each drift is
    the per-sample loop's, bit for bit."""
    make_spec, _, spacing = RECORD_CHARTS[chart]
    spec = make_spec()
    grid = _grid(201, spacing)
    original, calls = MetricField.matrix_at, []

    def matrix_at(self, p):
        calls.append(isinstance(p[0], np.ndarray))
        return original(self, p)

    monkeypatch.setattr(MetricField, "matrix_at", matrix_at)
    trace = synthesize(spec, grid, 0.5 * spacing)
    assert calls == [True] * math.ceil(len(grid) / hx.CHECK_BLOCK)
    _, drifts, _ = _reference_synthesize(spec, grid, 0.5 * spacing)
    assert trace.gram_drift.tobytes() == np.array(drifts).tobytes()


def _column_loop_flat_steps(h, k1, k2, state, dt, nsteps):
    """The flat propagator as a loop over the three coordinate columns."""
    q = hx._flat_increment(h + 0.0, k1 + 0.0, k2 + 0.0, dt, nsteps)
    y = [0.0] * 12
    for a in range(3):
        col = (state[a], state[3 + a], state[6 + a], state[9 + a])
        for r, row in enumerate(q):
            y[3 * r + a] = col[r] + (row[0] * col[0] + row[1] * col[1]
                                     + row[2] * col[2] + row[3] * col[3])
    return y


def test_straight_line_flat_propagator_equals_the_column_loop_bitwise(flat3):
    rng = random.Random("flat-columns")
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e-300)

    def value():
        return rng.choice(special) if rng.random() < 0.15 else rng.uniform(-3.0, 3.0)

    for _ in range(2000):
        state = [value() for _ in range(12)]
        h, k1, k2 = (rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(3))
        dt, nsteps = rng.uniform(1e-3, 0.1), rng.randint(1, 40)
        got = hx._rk4_steps(flat3, h, k1, k2, state, dt, nsteps)
        assert _float_bits(got) == _float_bits(
            _column_loop_flat_steps(h, k1, k2, state, dt, nsteps))


# -- the verify suite over sample arrays against the per-sample loop


@pytest.mark.parametrize("chart", ["flat", "exp(0.4*x3)", "exp(-0.7*x3)", "tangent"])
def test_identity_suite_on_arrays_matches_the_per_sample_loop(flat3, chart):
    """The identity scalars, targets and deviations and the cubic residual
    over a frame of sample arrays are, sample by sample, bitwise those of
    the per-sample loop."""
    if chart == "tangent":
        curve = NullCurve.tangent(flat3, ["cos(t^2)", "sin(t^2)", "1"], (0, 0, 0), (0.1, 3.0))
        grid = uniform_grid(0.5, 2.0, 20)
    else:
        metric = flat3 if chart == "flat" else MetricField.from_texts(
            3, [[f"-{chart}", "0", "0"], ["0", f"-{chart}", "0"], ["0", "0", chart]])
        curve = NullCurve.position(metric, ["cos(t)", "sin(t)", "t"], (0.0, TWO_PI))
        grid = uniform_grid(0.0, TWO_PI, 24)
    frames = frame_field(curve, grid)
    _, _, report, cubic = measures(curve, frames)
    for i, fr in enumerate(reference_frames(curve, grid)):
        _, _, want_report, want_cubic = measures(curve, fr)
        assert value_bits(nf._sample(report, i)) == value_bits(want_report)
        assert cubic[i].item().hex() == want_cubic.hex()


@pytest.mark.parametrize("where", [0, 4, 8])
def test_connection_failure_in_the_verify_suite_is_the_per_sample_error(monkeypatch, where):
    """A connection that fails at one sample fails the suite there, with the
    per-sample error, whichever stage first reads it."""
    grid = uniform_grid(0.5, 3.0, 9)
    metric, texts = inject(monkeypatch, "christoffel", grid[where])
    curve = NullCurve.position(metric, texts, (0.0, TWO_PI))
    error = (DomainError, f"injected connection failure in 'x3 = {grid[where]!r}'")
    if where == 0:  # the orientation reads k1 at the first sample
        assert outcome(frame_field, curve, grid) == error
        return
    frames = frame_field(curve, grid)
    cs = nf.CurvatureSample(frames.t, *(np.full(len(grid), v) for v in (0.0, 1.0, -0.5)))
    for suite in (metric_identity_suite, cubic_identity_residual):
        assert outcome(suite, curve, frames, cs) == error
