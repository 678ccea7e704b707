"""Constant-curvature null helices: synthesis by integration and identity checks.

The frame equations with constant (h, k1, k2) close into the first-order
system

    dx/dt    = zeta
    dzeta/dt = h zeta + k1 w - G(x) zeta zeta
    dn/dt    = -h n   + k2 w - G(x) zeta n
    dw/dt    = k2 zeta + k1 n - G(x) zeta w

with G the connection coefficients, integrated by classical fixed-step RK4.
On a chart whose connection pattern is empty G vanishes (a constant metric,
or entries such as ``1 + 0*x3`` whose derivatives are structurally zero),
and each coordinate column (x_a, zeta_a, n_a, w_a) obeys the same linear
system y' = A y.  One RK4 step of it is exactly P = I + B + B^2/2 + B^3/6 +
B^4/24 with B = dt A, so ``_rk4_steps`` applies nsteps of them at once as
y + Q y, with the increment Q = P^nsteps - I built by binary powering and
memoized per (h, k1, k2, dt, nsteps), written out as straight-line code over
the 12 state components.  Every other chart runs one generated
function per metric, built on its first curved ``_rk4_steps`` and kept on the
metric: nsteps RK4 steps with the four stages inlined and the state in
locals, each stage running the metric's own emitted g, det and connection
lines and summing G over the pattern, the symbols those lines give a value.
The loop runs on floats alone, so its powers are float ``**`` in place of
those lines' ``jets.powi``: the same bits and errors without the call.  A
shadow integration at half step gives each sample's ``err_est`` = |full -
half| / 15, the Richardson estimate of the half-step shadow's error; the
recorded full-step state's error is about 16 times larger.  The Gram drift
and re-projection use ``nullframe``'s frame algebra.  ``synthesize`` records
each sample's full- and half-step states and checks them in blocks of
CHECK_BLOCK samples: a curved chart's g read, the six Gram conditions and the
err_est sum run on component arrays, in the order and with the bits of a
check per sample, and errors are raised in sample order (a sample's g read,
then its drift; an integration error after the checks of the samples before
it).  Residual norms are always coordinate-Euclidean: the indefinite metric
can annihilate nonzero errors and must not certify smallness.

A trace holds float arrays, one row per sample.  Its measurements read one
memoized decimated view (``HelixTrace.view``), a ``SampledCurve`` of
component-major arrays (component i over all samples is one array), as do
transfer's ambient samples; it reads g and the connection once each, on its
sample arrays, and no g per sample.  Each covariant layer is
``fd_derivative`` plus ``semimetric.connection_term`` on them: every element
gets the operations, in the order, of a loop over samples.  Every sampled
curve's (h, k1, k2) come from ``SampledCurve.curvatures``, with its traced
(or, in transfer, seed-built) N and W.

Each identity is one function over floats, jets and sample arrays, shared by
the jet route (curves, once on a frame bundle's sample arrays) and the
stencil route (traces, once on arrays, where inf and NaN propagate
silently): ``cubic_factor`` and ``cubic_residual`` for cov^3 zeta =
(h^2 + 2 k1 k2) cov zeta,
``_identity_report`` for the four metric scalars g(cov zeta, cov zeta) =
-k1^2, g(cov N, cov N) = -k2^2, g(cov W, cov W) = 2 k1 k2 and
g(cov zeta, cov N) = -h^2 - k1 k2, and ``constancy_report`` for the spread of
(h, k1, k2) along a curve, which transfer uses too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import jets
from .jets import const_term
from .nullframe import (CurvatureSample, NullCurve, NullFrame, ScreenPolicy, euclid_norm,
                        frame_curvatures, max_gram_residual, screen_projection,
                        transversal, unit_screen, _on_bundle, _on_samples)
from . import codegen
from .semimetric import (DEGENERATE_ALONG, DET_TOL, DegenerateMetricError, Matrix, MetricField,
                         bilinear, connection_term)

DRIFT_LIMIT = 1e-4
SPEC_GRAM_TOL = 1e-10
# full-size RK4 steps one synthesis may take over its whole grid; a curved
# chart runs about 3e4 to 5e4 of them a second, each with its two half-step
# shadow steps (diag(-1, -1, 1 + x3^2) and the conformal chart on a 2-vCPU
# host, Python 3.11), so larger runs are rejected up front
MAX_RK4_STEPS = 10 ** 6
# samples recorded between two checks of their Gram drift and err_est: an
# abort integrates at most this many samples past the one that fails, and
# only this many half-step states are held at a time
CHECK_BLOCK = 64


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


@dataclass(frozen=True, eq=False)  # arrays have no truth value to compare by
class HelixTrace:
    """Sampled trajectory of the integrated frame system, one row per sample."""

    spec: HelixSpec
    times: np.ndarray
    points: np.ndarray
    zetas: np.ndarray
    ns: np.ndarray
    ws: np.ndarray
    gram_drift: np.ndarray
    err_est: np.ndarray

    def __len__(self):
        return len(self.times)

    @cached_property
    def view(self) -> "SampledCurve":
        """The trace decimated to about FD_SPACING, with fields "n" and "w"."""
        stride, dt = decimation(np.asarray(self.times).tolist())
        times, points, zetas, ns, ws = (np.asarray(rows, dtype=float)[::stride].T for rows in (
            self.times, self.points, self.zetas, self.ns, self.ws))
        return SampledCurve(self.spec.metric, times, points, zetas, dt, n=ns, w=ws)


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


# ``jets.powi(base, n)`` in a connection line; base is a name or a literal
_POWI = re.compile(r"jets\.powi\(([^,]+), (-?\d+)\)")


def _stage_code(metric, point, out) -> tuple:
    """One RK4 stage at the state named ``point``: the metric's own g, det
    and connection lines at its coordinates, then the frame system's
    right-hand side into ``out<i>``.

    The connection lines take a power as ``base ** n``, which is
    ``jets.powi``'s float path: the loop sees floats alone (``HelixSpec``
    coerces the state).  Each connection sum G zeta zeta, G zeta n and
    G zeta w runs from 0.0 over the pattern (the symbols the emitted
    connection gives a value), in order, with c = gamma[k][i][j] zeta^i
    taken once per symbol.  Returns
    the lines and the names of the 4n right-hand-side components, the first
    n of which are ``point``'s zeta.
    """
    n, code = metric.dim, metric.connection_code
    x, z, nv, w = (point[a * n:(a + 1) * n] for a in range(4))
    lines = [f"{name} = {value}" for name, value in zip(code.names, x)
             if name != value]
    lines += [_POWI.sub(r"\1 ** \2", line) for line in [
        *code.early,
        f"det = {code.det}",
        f"if abs(det) <= {DET_TOL!r}:",
        f"    raise DegenerateMetricError({DEGENERATE_ALONG!r})",
        *code.late,
    ]]
    sums = [[["0.0"] for _ in range(n)] for _ in range(3)]
    for m, (k, i, j) in enumerate(metric.pattern):
        lines.append(f"_c{m} = {code.gamma[k][i][j]} * {z[i]}")
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
        (q00, q01, q02, q03), (q10, q11, q12, q13), \
            (q20, q21, q22, q23), (q30, q31, q32, q33) = q
        x0, x1, x2, z0, z1, z2, n0, n1, n2, w0, w1, w2 = state
        # column a is (x_a, zeta_a, n_a, w_a); row r of y + Q y, summed in column order
        return [x0 + (q00 * x0 + q01 * z0 + q02 * n0 + q03 * w0),
                x1 + (q00 * x1 + q01 * z1 + q02 * n1 + q03 * w1),
                x2 + (q00 * x2 + q01 * z2 + q02 * n2 + q03 * w2),
                z0 + (q10 * x0 + q11 * z0 + q12 * n0 + q13 * w0),
                z1 + (q10 * x1 + q11 * z1 + q12 * n1 + q13 * w1),
                z2 + (q10 * x2 + q11 * z2 + q12 * n2 + q13 * w2),
                n0 + (q20 * x0 + q21 * z0 + q22 * n0 + q23 * w0),
                n1 + (q20 * x1 + q21 * z1 + q22 * n1 + q23 * w1),
                n2 + (q20 * x2 + q21 * z2 + q22 * n2 + q23 * w2),
                w0 + (q30 * x0 + q31 * z0 + q32 * n0 + q33 * w0),
                w1 + (q30 * x1 + q31 * z1 + q32 * n1 + q33 * w1),
                w2 + (q30 * x2 + q31 * z2 + q32 * n2 + q33 * w2)]
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


def _drift(state, t, metric, g, drift_limit):
    """``max_gram_residual`` of the frame in ``state`` (12 floats, or 12
    sample arrays) in g, read at the state's point where ``g`` is None (a
    curved chart); GramDriftError where it is not <= drift_limit (NaN
    included)."""
    if g is None:
        g = metric.matrix_at(state[0:3])
    drift = max_gram_residual(g, state[3:6], state[6:9], state[9:12])
    if jets.failing((drift > drift_limit) | (drift != drift)):
        raise GramDriftError(f"Gram drift {drift:.3e} exceeds {drift_limit} at t = {t}", t)
    return drift


def _check_block(metric, g, block, drift_limit):
    """``(rows, gram_drift, err_est)`` arrays of recorded samples
    ``(t, full, half)``: ``_drift`` once over the block's component arrays,
    and per sample where that fails, so the first sample whose g read or
    drift fails raises.

    ``err_est`` is sqrt(sum of (full - half)^2, component by component) / 15.
    """
    rows = np.array([full for _, full, _ in block])
    times = np.array([t for t, _, _ in block])
    drift = _on_samples(len(times), _drift, list(rows.T), times, metric, g, drift_limit)
    with np.errstate(all="ignore"):  # a product gives inf where ** 2 would raise
        diff = rows - np.array([half for _, _, half in block])
        squares = diff * diff
        total = squares[:, 0]
        for c in range(1, squares.shape[1]):
            total = total + squares[:, c]
        return rows, drift, np.sqrt(total) / 15.0


def synthesize(spec: HelixSpec, grid, step: float, project_every: int = 0,
               drift_limit: float = DRIFT_LIMIT) -> HelixTrace:
    """Integrate the frame system over a sample grid with fixed-step RK4.

    ``grid`` must be increasing; within each segment the step is
    ``span / ceil(span / step)`` so samples are hit exactly; more than
    MAX_RK4_STEPS of those steps in all is a ValueError.  ``project_every``
    re-projects N and W every that many integration steps (0 disables).  A
    half-step shadow gives ``err_est`` = |full - half| / 15, which estimates
    the shadow's error: the recorded full-step state's is about 16 times that.

    Samples are recorded as they are integrated and checked in blocks of
    CHECK_BLOCK (``_check_block``), so an abort integrates at most one block
    past the sample that fails.  A curved chart's g is read there, once on
    the block's arrays.  Errors are raised in sample order, as a check of
    each sample as it is recorded would raise them: per sample, a curved
    chart's g read, then its Gram drift against ``drift_limit``
    (GramDriftError); an integration error (a domain error, a degenerate
    metric, or a projection that loses the screen direction) comes after the
    checks of every sample recorded before it.
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
    steps_done = 0

    nsubs = []
    for ta, tb in zip(grid, grid[1:]):
        if not math.isfinite((tb - ta) / step):
            raise ValueError(f"step {step!r} is too small for the segment [{ta!r}, "
                             f"{tb!r}]: span / step is not finite")
        nsubs.append(max(1, int(math.ceil((tb - ta) / step - 1e-12))))
    if sum(nsubs) > MAX_RK4_STEPS:
        raise ValueError(f"step {step!r} needs {sum(nsubs)} RK4 steps over the grid, "
                         f"more than MAX_RK4_STEPS = {MAX_RK4_STEPS}")
    block = [(grid[0], state, shadow)]
    checked = []
    for ta, tb, nsub in zip(grid, grid[1:], nsubs):
        if len(block) == CHECK_BLOCK:
            checked.append(_check_block(metric, g, block, drift_limit))
            block = []
        try:
            dt = (tb - ta) / nsub
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
        except Exception:
            if block:  # an earlier sample's g read or drift failure wins
                _check_block(metric, g, block, drift_limit)
            raise
        block.append((tb, state, shadow))
    checked.append(_check_block(metric, g, block, drift_limit))
    rows, drifts, errs = map(np.concatenate, zip(*checked))
    return HelixTrace(
        spec=spec, times=np.array(grid), points=rows[:, 0:3], zetas=rows[:, 3:6],
        ns=rows[:, 6:9], ws=rows[:, 9:12], gram_drift=drifts, err_est=errs,
    )


# -- identity checks on closed-form / tangent-mode curves -----------------------


@dataclass(frozen=True)
class IdentityReport:
    """The four metric scalars against their targets, floats or sample arrays
    (the cubic identity: ``cubic_identity_residual``, ``cubic_residuals_from_trace``)."""

    t: float
    scalars: tuple
    targets: tuple
    deviations: tuple


def cubic_factor(h, k1, k2) -> float:
    """The factor in the cubic identity cov^3 zeta = (h^2 + 2 k1 k2) cov zeta."""
    return h * h + 2.0 * k1 * k2


def cubic_residual(c1, c3, factor) -> float:
    """Euclidean norm of c3 - factor * c1 for cov zeta = c1 and cov^3 zeta = c3,
    floats, jets (constant terms taken) or sample arrays."""
    return euclid_norm([const_term(b) - factor * const_term(a) for a, b in zip(c1, c3)])


def _identity_report(t, g, cz, cn, cw, sample: CurvatureSample) -> IdentityReport:
    """The four metric scalars g(cov zeta, cov zeta), g(cov N, cov N),
    g(cov W, cov W) and g(cov zeta, cov N) of floats, jets or sample arrays,
    against their targets from ``sample``'s (h, k1, k2)."""
    scalars = tuple(const_term(bilinear(g, a, b))
                    for a, b in ((cz, cz), (cn, cn), (cw, cw), (cz, cn)))
    h, k1, k2 = sample.h, sample.k1, sample.k2
    targets = (-k1 * k1, -k2 * k2, 2.0 * k1 * k2, -h * h - k1 * k2)
    deviations = tuple(abs(s - t_) for s, t_ in zip(scalars, targets))
    return IdentityReport(t=t, scalars=scalars, targets=targets, deviations=deviations)


def cubic_identity_residual(curve: NullCurve, frame: NullFrame,
                            sample: CurvatureSample,
                            policy: ScreenPolicy | None = None) -> float:
    """Euclidean norm of cov^3 zeta - (h^2 + 2 k1 k2) cov zeta at ``frame.t``
    (an array over a frame of sample arrays), from the curve's exact frame
    jets, with h, k1, k2 taken from ``sample``.  A synthesized trace takes
    the stencil route, ``cubic_residuals_from_trace``.
    """
    return _on_bundle(curve, frame.t, policy, _cubic, sample)


def _cubic(fj, sample: CurvatureSample):
    factor = cubic_factor(sample.h, sample.k1, sample.k2)
    return cubic_residual(fj.cov("zeta"), fj.cov("zeta", 3), factor)


def metric_identity_suite(curve: NullCurve, frame: NullFrame,
                          sample: CurvatureSample,
                          policy: ScreenPolicy | None = None) -> IdentityReport:
    """The four frame-equation metric scalars, their targets, and deviations
    at frame.t (arrays over a frame of sample arrays)."""
    return _on_bundle(curve, frame.t, policy, _identities, frame, sample)


def _identities(fj, frame: NullFrame, sample: CurvatureSample) -> IdentityReport:
    sign = fj.aligned(frame.w)
    cz, cn = fj.cov("zeta"), fj.cov("n")
    cw = [sign * c for c in fj.cov("w")]
    return _identity_report(frame.t, fj.gmat, cz, cn, cw, sample)


def constancy_report(sample: CurvatureSample) -> dict:
    """Max deviation of each curvature function from its first sample, over a
    sample of arrays (read as Python floats)."""
    columns = [sample.h.tolist(), sample.k1.tolist(), sample.k2.tolist()]
    if len(columns[0]) < 2:
        raise ValueError("constancy needs at least two curvature samples")
    return {key: max(abs(v - c[0]) for v in c) for key, c in zip(("h", "k1", "k2"), columns)}


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


def _middle(x, count: int):
    """The middle ``count`` samples of each array in ``x``, through lists and
    tuples (arrays are cut evenly); a float, shared by every sample, is kept."""
    if isinstance(x, (list, tuple)):
        return type(x)(_middle(c, count) for c in x)
    if not isinstance(x, np.ndarray):
        return x
    cut = (x.shape[-1] - count) // 2
    return x[..., cut:cut + count]


class SampledCurve:
    """Curve samples at uniform spacing ``dt``, component-major: ``points[i]``
    and ``fields[key][i]`` are component i over the samples ("zeta" is the
    tangent; a field may cover fewer).  g, the connection and each covariant
    layer are computed once, on first use; no reference to the trace is kept.
    g is one ``matrix_at`` call on every sample, and the connection one
    ``christoffel`` call on those a covariant layer reaches, each by
    ``nullframe._on_samples``, so an error is the one a loop over samples
    raises, at its sample (the generated function refuses a point that is
    not finite, or a tree with a non-finite constant, on arrays).
    """

    def __init__(self, metric: MetricField, times, points, zetas, dt, **fields):
        self.metric = metric
        self.times = np.asarray(times, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.dt = dt
        self.fields = {"zeta": np.asarray(zetas, dtype=float), **fields}
        self._covs = {}

    @cached_property
    def _g(self) -> Matrix:
        """g at each sample."""
        return _on_samples(self.points.shape[-1], self.metric.matrix_at, list(self.points))

    @cached_property
    def _gamma(self):
        """The connection at each sample a covariant layer reaches."""
        reached = self.points[:, FD_RADIUS:self.points.shape[-1] - FD_RADIUS]
        return _on_samples(reached.shape[-1], self.metric.christoffel, list(reached))

    def g(self, count: int) -> Matrix:
        """g at the middle ``count`` samples, a ``Matrix`` of arrays (or of
        floats every sample shares)."""
        return Matrix(_middle(list(self._g), count), self._g.support)

    def cov(self, key, layer: int = 1):
        """The ``layer``-fold covariant derivative of ``fields[key]`` over the
        samples its stencil reaches, FD_RADIUS fewer per side per layer."""
        if (key, layer) not in self._covs:
            values = self.fields[key] if layer == 1 else self.cov(key, layer - 1)
            deriv = np.reshape(fd_derivative(values.T, self.dt), (-1, len(values))).T
            count = deriv.shape[-1]
            if not count:  # no sample reached, so no connection read
                self._covs[(key, layer)] = deriv
                return deriv
            with np.errstate(all="ignore"):
                term = connection_term(self.metric, _middle(self._gamma, count),
                                       _middle(self.fields["zeta"], count),
                                       _middle(values, count))
                self._covs[(key, layer)] = np.array([d + t for d, t in zip(deriv, term)])
        return self._covs[(key, layer)]

    def curvatures(self) -> CurvatureSample:
        """(h, k1, k2) by ``frame_curvatures`` over the samples cov N reaches, with
        the fields "n" and "w" as they are: the one alignment of sampled curvatures."""
        cz, cn = self.cov("zeta"), self.cov("n")
        count = cn.shape[-1]
        t, cz, n, w = (_middle(x, count)
                       for x in (self.times, cz, self.fields["n"], self.fields["w"]))
        with np.errstate(all="ignore"):
            return frame_curvatures(t, self.g(count), cz, cn, n, w)


def extract_curvatures(trace: HelixTrace) -> CurvatureSample:
    """Curvatures re-measured from the trace's view by finite differences, with
    the traced N and W as they are."""
    return trace.view.curvatures()


def cubic_residuals_from_trace(trace: HelixTrace):
    """``(times, residuals)`` arrays of the cubic identity, with the factor
    from ``trace.spec``.  Its three chained stencils need CUBIC_MIN_SAMPLES
    decimated samples for one residual; a shorter trace gives empty arrays.
    """
    curve = trace.view
    factor = cubic_factor(trace.spec.h, trace.spec.k1, trace.spec.k2)
    c1, c3 = curve.cov("zeta"), curve.cov("zeta", 3)
    count = c3.shape[-1]
    with np.errstate(all="ignore"):
        return _middle(curve.times, count), cubic_residual(_middle(c1, count), c3, factor)


def identity_reports_from_trace(trace: HelixTrace) -> IdentityReport:
    """The metric-identity report along a trace, one ``IdentityReport`` of
    arrays with targets from ``extract_curvatures``."""
    curve = trace.view
    sample = extract_curvatures(trace)
    cz, cn, cw = curve.cov("zeta"), curve.cov("n"), curve.cov("w")
    with np.errstate(all="ignore"):
        return _identity_report(sample.t, curve.g(len(sample.t)), cz, cn, cw, sample)
