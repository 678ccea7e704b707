"""Constant-curvature null helices: synthesis by integration and identity checks.

The frame equations with constant (h, k1, k2) close into the first-order
system

    dx/dt    = zeta
    dzeta/dt = h zeta + k1 w - G(x) zeta zeta
    dn/dt    = -h n   + k2 w - G(x) zeta n
    dw/dt    = k2 zeta + k1 n - G(x) zeta w

with G the connection coefficients, integrated by classical fixed-step RK4.
On a chart whose connection pattern is empty (a constant metric) G vanishes,
and each coordinate column (x_a, zeta_a, n_a, w_a) obeys the same linear
system y' = A y.  One RK4 step of it is exactly P = I + B + B^2/2 + B^3/6 +
B^4/24 with B = dt A, so ``_rk4_steps`` applies nsteps of them at once as
y + Q y, with the increment Q = P^nsteps - I built by binary powering and
memoized per (h, k1, k2, dt, nsteps).  Every other chart runs one generated
function per metric, built on its first curved ``_rk4_steps`` and kept on the
metric: nsteps RK4 steps with the four stages inlined and the state in
locals, each stage running the metric's own emitted g, det and connection
lines and summing G over the pattern symbols that have a value.  A
shadow integration at half step provides a Richardson error estimate per
sample; its Gram drift and re-projection use ``nullframe``'s frame algebra.
Residual norms are always coordinate-Euclidean: the indefinite metric can
annihilate nonzero errors and must not certify smallness.  Trace
measurements read one memoized decimated view (``HelixTrace.view``) that
evaluates g and the connection once per sample; transfer's ambient samples
use the same ``SampledCurve`` class.  Its covariant layers are numpy array
operations over all samples at once: each stencil term is ``acc += w *
values[shift]`` from zeros, then ``acc / dt``, then ``+ term`` with the
connection term summed over the pattern, so every element gets the
operations, in the order, of a loop over samples.

Each identity is one function over floats and jets alike, shared by the jet
route (curves) and the stencil route (traces): ``cubic_factor`` and
``cubic_residual`` for cov^3 zeta = (h^2 + 2 k1 k2) cov zeta,
``_identity_report`` for the four metric scalars g(cov zeta, cov zeta) =
-k1^2, g(cov N, cov N) = -k2^2, g(cov W, cov W) = 2 k1 k2 and
g(cov zeta, cov N) = -h^2 - k1 k2, and ``constancy_report`` for the spread of
(h, k1, k2) along a curve, which transfer uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .jets import const_term
from .nullframe import (CurvatureSample, NullCurve, NullFrame, ScreenPolicy, euclid_norm,
                        frame_curvatures, max_gram_residual, screen_projection,
                        transversal, unit_screen, _aligned_frame_jets, _frame_jets)
from . import codegen
from .semimetric import DEGENERATE_ALONG, DET_TOL, DegenerateMetricError, MetricField, bilinear

DRIFT_LIMIT = 1e-4
SPEC_GRAM_TOL = 1e-10
# full-size RK4 steps one synthesis may take over its whole grid; a curved
# chart runs about 3e4 to 5e4 of them a second, each with its two half-step
# shadow steps (diag(-1, -1, 1 + x3^2) and the conformal chart on a 2-vCPU
# host, Python 3.11), so larger runs are rejected up front
MAX_RK4_STEPS = 10 ** 6


class GramDriftError(RuntimeError):
    """Frame orthonormality drifted past the configured hard limit."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class HelixSpec:
    """Constant curvature functions plus a valid initial frame."""

    h: float
    k1: float
    k2: float
    initial_point: tuple
    zeta0: tuple
    n0: tuple
    w0: tuple
    metric: MetricField

    def __post_init__(self):
        for name in ("initial_point", "zeta0", "n0", "w0"):
            object.__setattr__(self, name, tuple(float(c) for c in getattr(self, name)))
        res = max_gram_residual(self.metric.matrix_at(self.initial_point),
                                self.zeta0, self.n0, self.w0)
        if res > SPEC_GRAM_TOL:
            raise ValueError(
                f"initial frame violates the Gram conditions by {res:.3e}"
            )


@dataclass(frozen=True)
class HelixTrace:
    """Sampled trajectory of the integrated frame system."""

    spec: HelixSpec
    step: float
    times: tuple
    points: tuple
    zetas: tuple
    ns: tuple
    ws: tuple
    gram_drift: tuple
    err_est: tuple

    def __len__(self):
        return len(self.times)

    @cached_property
    def view(self) -> "SampledCurve":
        """The trace decimated to about FD_SPACING, with fields "n" and "w"."""
        stride, dt = decimation(self.times)
        return SampledCurve(self.spec.metric, self.times[::stride],
                            self.points[::stride], self.zetas[::stride], dt,
                            n=self.ns[::stride], w=self.ws[::stride])


_ZERO4 = ((0.0,) * 4,) * 4
_IDENTITY4 = tuple(tuple(float(r == c) for c in range(4)) for r in range(4))


def _mat_mul(a, b):
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(4)) for c in range(4))
                 for r in range(4))


def _compose(a, b):
    """The increment of (I + a)(I + b), kept off the identity: a + b + a b."""
    ab = _mat_mul(a, b)
    return tuple(tuple(a[r][c] + b[r][c] + ab[r][c] for c in range(4))
                 for r in range(4))


@lru_cache(maxsize=256)
def _flat_increment(h, k1, k2, dt, nsteps):
    """Q = P^nsteps - I for the RK4 step P of one flat-chart column.

    The column is (x_a, zeta_a, n_a, w_a) and A its constant system matrix.
    Q_1 = B (I + B/2 (I + B/3 (I + B/4))) with B = dt A, and Q_(a+b) is
    composed from Q_a and Q_b without ever adding the identity, whose
    rounding the plain P^n form would carry into every step.
    """
    b = ((0.0, dt, 0.0, 0.0),
         (0.0, dt * h, 0.0, dt * k1),
         (0.0, 0.0, dt * -h, dt * k2),
         (0.0, dt * k2, dt * k1, 0.0))
    m = _IDENTITY4
    for d in (4.0, 3.0, 2.0):
        bm = _mat_mul(b, m)
        m = tuple(tuple(_IDENTITY4[r][c] + bm[r][c] / d for c in range(4))
                  for r in range(4))
    q, out = _mat_mul(b, m), _ZERO4
    while nsteps:
        if nsteps & 1:
            out = _compose(out, q)
        nsteps >>= 1
        q = _compose(q, q)
    return out


def _stage_code(metric, point, out) -> tuple:
    """One RK4 stage at the state named ``point``: the metric's own g, det
    and connection lines at its coordinates, then the frame system's
    right-hand side into ``out<i>``.

    Each connection sum G zeta zeta, G zeta n and G zeta w runs from 0.0
    over the pattern symbols that have a value, in pattern order, with c =
    gamma[k][i][j] zeta^i taken once per symbol.  Returns the lines and the
    names of the 4n right-hand-side components, the first n of which are
    ``point``'s zeta.
    """
    n, code = metric.dim, metric.connection_code
    x, z, nv, w = (point[a * n:(a + 1) * n] for a in range(4))
    lines = [f"{name} = {value}" for name, value in zip(code.names, x)
             if name != value]
    lines += [
        *code.early,
        f"det = {code.det}",
        f"if abs(det) <= {DET_TOL!r}:",
        f"    raise DegenerateMetricError({DEGENERATE_ALONG!r})",
        *code.late,
    ]
    sums = [[["0.0"] for _ in range(n)] for _ in range(3)]
    for m, (k, i, j) in enumerate(metric.pattern):
        gamma = code.gamma[k][i][j]
        if gamma != "0.0":
            lines.append(f"_c{m} = {gamma} * {z[i]}")
            for terms, v in zip(sums, (z, nv, w)):
                terms[k].append(f"_c{m} * {v[j]}")
    minus = [[f" - ({' + '.join(t)})" if len(t) > 1 else "" for t in s] for s in sums]
    lines += [f"{out}{n + k} = h * {z[k]} + k1 * {w[k]}{minus[0][k]}" for k in range(n)]
    lines += [f"{out}{2 * n + k} = nh * {nv[k]} + k2 * {w[k]}{minus[1][k]}"
              for k in range(n)]
    lines += [f"{out}{3 * n + k} = k2 * {z[k]} + k1 * {nv[k]}{minus[2][k]}"
              for k in range(n)]
    return lines, [*z, *(f"{out}{i}" for i in range(n, 4 * n))]


def _emit_stage_loop(metric):
    """``loop(y0, .., y(4n-1), h, k1, k2, dt, nsteps)``: ``nsteps`` classical
    RK4 steps of the frame system on ``metric``, four stages inlined per step
    and the state in locals.

    The stage states are y + (0.5 * dt) a, y + (0.5 * dt) b and y + dt c, and
    the step is y + dt * (a + 2b + 2c + d) / 6.0.  A degenerate point raises
    DegenerateMetricError; a domain, division or overflow error evaluates
    ``metric.christoffel`` at the failing stage's coordinates, whose
    ``DomainError`` names the subexpression.
    """
    n = metric.dim
    y = [f"y{i}" for i in range(4 * n)]
    xs = metric.connection_code.names
    body = []
    stages = []
    point = y
    for out, scale, later in (("a", "hdt", "b"), ("b", "hdt", "c"), ("c", "dt", "d"),
                              ("d", None, None)):
        lines, rhs = _stage_code(metric, point, out)
        body += lines
        stages.append(rhs)
        if later:  # the next stage's state; its coordinates go straight to x
            point = [*xs, *(f"y{later}{i}" for i in range(n, 4 * n))]
            body += [f"{p} = {v} + {scale} * {r}" for p, v, r in zip(point, y, rhs)]
    a, b, c, d = stages
    # in index order, so y_i (i < n) reads stage a's zeta y_(n+i) before its update
    body += [f"{v} = {v} + dt * ({a[i]} + 2.0 * {b[i]} + 2.0 * {c[i]} + {d[i]}) / 6.0"
             for i, v in enumerate(y)]

    def replay(error, coords):
        metric.christoffel(list(coords))
        raise error

    return codegen.function(
        "_rk4_stage_loop", (*y, "h", "k1", "k2", "dt", "nsteps"),
        ["hdt = 0.5 * dt", "nh = -h", "for _ in range(nsteps):",
         *(f"    {line}" for line in body), f"return [{', '.join(y)}]"],
        replay, xs, {"DegenerateMetricError": DegenerateMetricError})


def _rk4_steps(metric, h, k1, k2, state, dt, nsteps):
    """``nsteps`` classical RK4 steps of size ``dt`` from ``state``."""
    if not metric.pattern:
        # + 0.0 folds -0.0 into 0.0, so the cached Q cannot depend on which
        # signed zero reached it first
        q = _flat_increment(h + 0.0, k1 + 0.0, k2 + 0.0, dt, nsteps)
        y = [0.0] * 12
        for a in range(3):
            col = (state[a], state[3 + a], state[6 + a], state[9 + a])
            for r, row in enumerate(q):
                y[3 * r + a] = col[r] + (row[0] * col[0] + row[1] * col[1]
                                         + row[2] * col[2] + row[3] * col[3])
        return y
    # every other chart: the metric's stage loop, generated on first use and
    # kept on the metric instance
    loop = getattr(metric, "_rk4_stage_loop", None)
    if loop is None:
        loop = metric._rk4_stage_loop = _emit_stage_loop(metric)
    return loop(*state, h, k1, k2, dt, nsteps)


def _project_frame(metric: MetricField, state, g=None):
    """Restore the Gram conditions for N and W, leaving zeta untouched; ``g``
    is the metric at the state's point, read there when not given."""
    z, n = state[3:6], state[6:9]
    if g is None:
        g = metric.matrix_at(state[0:3])
    n = transversal(g, z, n, bilinear(g, z, n))
    w, w2 = screen_projection(g, state[9:12], z, n)
    if w2 <= 0.0:  # NaN passes on to the drift check
        raise GramDriftError("projection lost the timelike screen direction", math.nan)
    return state[0:6] + n + unit_screen(w, w2)


def _gram_drift(metric: MetricField, state, g=None) -> float:
    if g is None:
        g = metric.matrix_at(state[0:3])
    return max_gram_residual(g, state[3:6], state[6:9], state[9:12])


def synthesize(spec: HelixSpec, grid, step: float, project_every: int = 0,
               drift_limit: float = DRIFT_LIMIT) -> HelixTrace:
    """Integrate the frame system over a sample grid with fixed-step RK4.

    ``grid`` must be increasing; within each segment the step is
    ``span / ceil(span / step)`` so samples are hit exactly; more than
    MAX_RK4_STEPS of those steps in all is a ValueError.  ``project_every``
    re-projects N and W every that many integration steps (0 disables).  A
    half-step shadow integration supplies the per-sample error estimate.
    """
    grid = [float(t) for t in grid]
    if len(grid) < 1:
        raise ValueError("grid must contain at least one sample")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if isinstance(project_every, bool) or not isinstance(project_every, int) \
            or project_every < 0:
        raise ValueError(f"project_every must be an integer >= 0, got {project_every!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    metric = spec.metric
    # a flat chart's g is the same matrix, with the same det check, everywhere
    g = None if metric.pattern else metric.matrix_at(spec.initial_point)
    h, k1, k2 = spec.h, spec.k1, spec.k2
    state = list(spec.initial_point) + list(spec.zeta0) + list(spec.n0) + list(spec.w0)
    shadow = list(state)
    times, points, zetas, ns, ws, drifts, errs = [], [], [], [], [], [], []
    steps_done = 0

    def record(t, full, half):
        drift = _gram_drift(metric, full, g)
        if not drift <= drift_limit:  # NaN included
            raise GramDriftError(
                f"Gram drift {drift:.3e} exceeds {drift_limit} at t = {t}", t
            )
        times.append(t)
        points.append(tuple(full[0:3]))
        zetas.append(tuple(full[3:6]))
        ns.append(tuple(full[6:9]))
        ws.append(tuple(full[9:12]))
        drifts.append(drift)
        # a product gives inf where ** 2 would raise OverflowError
        errs.append(math.sqrt(sum((a - b) * (a - b) for a, b in zip(full, half))) / 15.0)

    nsubs = []
    for ta, tb in zip(grid, grid[1:]):
        if not math.isfinite((tb - ta) / step):
            raise ValueError(f"step {step!r} is too small for the segment [{ta!r}, "
                             f"{tb!r}]: span / step is not finite")
        nsubs.append(max(1, int(math.ceil((tb - ta) / step - 1e-12))))
    if sum(nsubs) > MAX_RK4_STEPS:
        raise ValueError(f"step {step!r} needs {sum(nsubs)} RK4 steps over the grid, "
                         f"more than MAX_RK4_STEPS = {MAX_RK4_STEPS}")
    record(grid[0], state, shadow)
    for ta, tb, nsub in zip(grid, grid[1:], nsubs):
        span = tb - ta
        dt = span / nsub
        done = 0
        while done < nsub:
            chunk = nsub - done
            if project_every:
                until_proj = project_every - (steps_done % project_every)
                chunk = min(chunk, until_proj)
            state = _rk4_steps(metric, h, k1, k2, state, dt, chunk)
            shadow = _rk4_steps(metric, h, k1, k2, shadow, 0.5 * dt, 2 * chunk)
            done += chunk
            steps_done += chunk
            if project_every and steps_done % project_every == 0:
                state = _project_frame(metric, state, g)
                shadow = _project_frame(metric, shadow, g)
        record(tb, state, shadow)
    return HelixTrace(
        spec=spec, step=step, times=tuple(times), points=tuple(points),
        zetas=tuple(zetas), ns=tuple(ns), ws=tuple(ws),
        gram_drift=tuple(drifts), err_est=tuple(errs),
    )


# -- identity checks on closed-form / tangent-mode curves -----------------------


@dataclass(frozen=True)
class IdentityReport:
    """Cubic residual (None where a trace's cubic stencils do not reach) plus
    the four metric scalars against their targets."""

    t: float
    cubic_residual: float
    scalars: tuple
    targets: tuple
    deviations: tuple


def cubic_factor(h, k1, k2) -> float:
    """The factor in the cubic identity cov^3 zeta = (h^2 + 2 k1 k2) cov zeta."""
    return h * h + 2.0 * k1 * k2


def cubic_residual(c1, c3, factor) -> float:
    """Euclidean norm of c3 - factor * c1 for cov zeta = c1 and cov^3 zeta = c3,
    floats or jets (constant terms taken)."""
    return euclid_norm([const_term(b) - factor * const_term(a) for a, b in zip(c1, c3)])


def _identity_report(t, g, cz, cn, cw, sample: CurvatureSample,
                     cubic) -> IdentityReport:
    """The four metric scalars g(cov zeta, cov zeta), g(cov N, cov N),
    g(cov W, cov W) and g(cov zeta, cov N) of floats or jets, against their
    targets from ``sample``'s (h, k1, k2)."""
    scalars = tuple(const_term(bilinear(g, a, b))
                    for a, b in ((cz, cz), (cn, cn), (cw, cw), (cz, cn)))
    h, k1, k2 = sample.h, sample.k1, sample.k2
    targets = (-k1 * k1, -k2 * k2, 2.0 * k1 * k2, -h * h - k1 * k2)
    deviations = tuple(abs(s - t_) for s, t_ in zip(scalars, targets))
    return IdentityReport(t=t, cubic_residual=cubic, scalars=scalars,
                          targets=targets, deviations=deviations)


def cubic_identity_residual(curve: NullCurve, frame: NullFrame,
                            sample: CurvatureSample,
                            policy: ScreenPolicy | None = None) -> float:
    """Euclidean norm of cov^3 zeta - (h^2 + 2 k1 k2) cov zeta at ``frame.t``,
    from the curve's exact frame jets, with h, k1, k2 taken from ``sample``.
    A synthesized trace takes the stencil route, ``cubic_residuals_from_trace``.
    """
    factor = cubic_factor(sample.h, sample.k1, sample.k2)
    fj = _frame_jets(curve, frame.t, policy or ScreenPolicy())
    return cubic_residual(fj.cov("zeta"), fj.cov("zeta", 3), factor)


def metric_identity_suite(curve: NullCurve, frame: NullFrame,
                          sample: CurvatureSample,
                          policy: ScreenPolicy | None = None) -> IdentityReport:
    """The four frame-equation metric scalars, their targets, and deviations
    at frame.t."""
    policy = policy or ScreenPolicy()
    fj, sign = _aligned_frame_jets(curve, frame, policy)
    cz, cn = fj.cov("zeta"), fj.cov("n")
    cw = [sign * c for c in fj.cov("w")]
    cubic = cubic_identity_residual(curve, frame, sample, policy)
    return _identity_report(frame.t, fj.gmat, cz, cn, cw, sample, cubic)


def constancy_report(samples) -> dict:
    """Max deviation of each curvature function from its first sample."""
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("constancy needs at least two curvature samples")
    first = samples[0]
    return {
        "h": max(abs(s.h - first.h) for s in samples),
        "k1": max(abs(s.k1 - first.k1) for s in samples),
        "k2": max(abs(s.k2 - first.k2) for s in samples),
    }


# -- finite-difference machinery on traces ---------------------------------------

# 7-point central first-derivative stencil (h^6 accurate)
_D1_OFFSETS = (-3, -2, -1, 1, 2, 3)
_D1_WEIGHTS = (-1.0 / 60.0, 3.0 / 20.0, -3.0 / 4.0, 3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0)
FD_RADIUS = 3
# Traces are decimated to about this spacing before differencing: each stencil
# layer amplifies roundoff by 1/spacing, and frames of helices with a positive
# cubic factor grow exponentially.  Near 1e-2 the extraction noise sits at its
# floor while stencil truncation stays far below it.
FD_SPACING = 0.01
# the cubic identity chains three stencils, each trimming FD_RADIUS per side
CUBIC_MIN_SAMPLES = 6 * FD_RADIUS + 1


def decimation(times):
    """``(stride, spacing)`` that thin a uniform grid to about FD_SPACING;
    fewer than two samples have no spacing, hence no stencil interior."""
    if len(times) < 2:
        return 1, 0.0
    dt = times[1] - times[0]
    for a, b in zip(times, times[1:]):
        if abs((b - a) - dt) > 1e-9 * max(1.0, abs(dt)):
            raise ValueError("finite-difference extraction needs a uniform grid")
    stride = max(1, round(FD_SPACING / dt))
    return stride, dt * stride


def decimated_count(times) -> int:
    """Number of samples a uniform grid keeps after ``decimation``."""
    return len(times[::decimation(times)[0]])


def require_stencil_samples(command: str, times, chains: str, needed: int):
    """ValueError unless the grid ``times`` keeps ``needed`` samples after
    ``decimation``, as ``command``'s ``chains`` chained stencils need."""
    kept = decimated_count(times)
    if kept < needed:
        raise ValueError(
            f"{command} grid keeps {kept} samples after decimation to spacing "
            f"{FD_SPACING}; the {chains} chained 7-point stencils need at least "
            f"{needed}"
        )


def fd_derivative(values, dt):
    """Stencil first derivative of a sequence of vectors (interior only), as
    an array with one row per interior sample.

    Each stencil layer is one array operation over every sample: from zeros,
    ``acc += w * values[shift]`` in stencil order, then ``acc / dt``.
    Sequences shorter than one stencil have no interior and give ``[]``.
    """
    m = len(values)
    if m < 2 * FD_RADIUS + 1:
        return []
    values = np.asarray(values, dtype=float)
    acc = np.zeros((m - 2 * FD_RADIUS, values.shape[1]))
    with np.errstate(all="ignore"):  # inf and NaN propagate as float arithmetic does
        for off, wgt in zip(_D1_OFFSETS, _D1_WEIGHTS):
            acc += wgt * values[FD_RADIUS + off:m - FD_RADIUS + off]
        return acc / dt


class SampledCurve:
    """Curve samples at uniform spacing ``dt``; g and the connection are
    evaluated at most once per sample, each covariant layer once per field.

    ``fields`` maps a key to a sequence aligned with the samples ("zeta" is
    the tangent); None marks the end samples a field does not reach, and each
    covariant layer reaches FD_RADIUS fewer per side.  Holds arrays only,
    never the trace it came from.
    """

    def __init__(self, metric: MetricField, times, points, zetas, dt, **fields):
        self.metric = metric
        self.times = times
        self.points = points
        self.dt = dt
        self.fields = {"zeta": zetas, **fields}
        self._covs = {}
        # g(i) and gamma(i), memoized per sample index
        self.g = cache(lambda i: metric.matrix_at(points[i]))
        self.gamma = cache(lambda i: metric.christoffel(list(points[i])))

    def interior(self, layer: int):
        """Samples reached by layer ``layer`` of a field that reaches them all."""
        return range(layer * FD_RADIUS, len(self.points) - layer * FD_RADIUS)

    def cov(self, key, layer: int = 1):
        """The ``layer``-fold covariant derivative of ``fields[key]``: the
        stencil derivative plus the connection term at every reached sample,
        both array operations over those samples."""
        if (key, layer) not in self._covs:
            values = self.fields[key] if layer == 1 else self.cov(key, layer - 1)
            lo = next((k for k, v in enumerate(values) if v is not None), len(values))
            out = [None] * len(values)
            block = np.array(values[lo:len(values) - lo], dtype=float)
            deriv = fd_derivative(block, self.dt)
            if len(deriv):
                rows = range(lo + FD_RADIUS, len(values) - lo - FD_RADIUS)
                with np.errstate(all="ignore"):
                    term = self._connection_terms(rows, block[FD_RADIUS:-FD_RADIUS])
                    out[rows.start:rows.stop] = map(tuple, (deriv + term).tolist())
            self._covs[(key, layer)] = out
        return self._covs[(key, layer)]

    def _connection_terms(self, rows, values):
        """``connection_term`` at the samples ``rows`` for the field ``values``
        there: per pattern entry, in order, one array operation over them."""
        gammas = [self.gamma(i) for i in rows]
        out = np.zeros(values.shape)
        if not self.metric.pattern:  # each gamma is the shared zero connection
            return out
        gamma = np.array(gammas, dtype=float)
        zeta = np.array(self.fields["zeta"][rows.start:rows.stop], dtype=float)
        for k, i, j in self.metric.pattern:
            out[:, k] = out[:, k] + gamma[:, k, i, j] * zeta[:, i] * values[:, j]
        return out


def extract_curvatures(trace: HelixTrace):
    """Curvature samples re-measured from a trace by finite differences.

    The traced N and W are used as they are, so the samples test whether the
    integrated trajectory still satisfies the frame equations with the
    requested constants.  The trace is decimated to about FD_SPACING first
    (``HelixTrace.view``).
    """
    curve = trace.view
    ns, ws = curve.fields["n"], curve.fields["w"]
    cz, cn = curve.cov("zeta"), curve.cov("n")
    return [frame_curvatures(curve.times[i], curve.g(i), cz[i], cn[i], ns[i], ws[i])
            for i in curve.interior(1)]


def cubic_residuals_from_trace(trace: HelixTrace):
    """(t, residual) pairs for the cubic identity, finite-differenced, with
    the factor from ``trace.spec``.

    Three chained first-derivative stencils run on the trace decimated to
    about FD_SPACING, so at least CUBIC_MIN_SAMPLES decimated samples are
    needed for one residual; a shorter trace gives ``[]``.
    """
    curve = trace.view
    factor = cubic_factor(trace.spec.h, trace.spec.k1, trace.spec.k2)
    c1, c3 = curve.cov("zeta"), curve.cov("zeta", 3)
    return [(curve.times[i], cubic_residual(c1[i], c3[i], factor))
            for i in curve.interior(3)]


def identity_reports_from_trace(trace: HelixTrace):
    """Metric-identity reports along a trace, targets from extracted samples."""
    curve = trace.view
    cz, cn, cw = curve.cov("zeta"), curve.cov("n"), curve.cov("w")
    samples = extract_curvatures(trace)
    cubics = dict(cubic_residuals_from_trace(trace))
    return [_identity_report(sample.t, curve.g(i), cz[i], cn[i], cw[i], sample,
                             cubics.get(sample.t))
            for i, sample in zip(curve.interior(1), samples)]
