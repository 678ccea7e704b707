"""Null Frenet frames {zeta, N, W} along null curves of an index-2 chart.

Given a null curve with tangent zeta, the transversal N is built from a seed
vector V with g(zeta, V) != 0:

    Ntilde = V / g(zeta, V),      N = Ntilde - (1/2) g(Ntilde, Ntilde) zeta,

which enforces g(N, N) = 0 and g(zeta, N) = 1.  In dimension three the screen
complement of span{zeta, N} is the single line orthogonal to both, obtained as
the Euclidean cross product of the covectors g.zeta and g.N; it must be
timelike (the chart has index 2) and is normalised to g(W, W) = -1.  The
curvature functions follow from the frame equations:

    h  =  g(cov zeta, N),    k1 = -g(cov zeta, W),    k2 = -g(cov N, W),

where cov is the covariant derivative along the curve.  The seed/N step
(``null_transversal``), the 3D W step (``screen_vector``), the sign-continuity
rule, the orientation rule (k1 >= 0 at the first generic sample) and the
curvatures with their geodesic flag (``frame_curvatures``) exist once, here,
over duck-typed scalars: curves run them on jets, so the construction yields
the frame's own t-derivatives; transfer runs the seed/N and W steps on floats
per sample, and traces run ``frame_curvatures`` once on sample arrays.  So do
the N formula (``transversal``), the screen part of a vector
(``screen_projection``, scaled by ``unit_screen``) and the six Gram conditions
(``max_gram_residual``; ``_gram_conditions`` on sample arrays): the frame
algebra ``helix`` and ``submanifold`` share.
A single frame (``build_frame``) is a one-sample ``frame_field``.
Transfer's ambient frames extend the seed order with the unused axes and take
W from the acceleration's screen part, the only W rule above dimension 3.  A
curve keeps one frame bundle (``_FrameJets``) per t and seed order, computing
g (``matrix_at``, on jets), the connection and each covariant derivative once.
Each ``NullFrame`` carries its ``gram_residual`` and its ``null_residual``
|g(zeta, zeta)|, both read off one float g at the sample's point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprparse, jets, semimetric
from .exprparse import DomainError, Expr, eval_jet, free_variables, parse
from .jets import Jet, const_term
from .semimetric import MetricField, bilinear, mat_vec, metric_index

NULL_TOL = 1e-8
SEED_TOL = 1e-8
FRAME_TOL = 1e-9
GEODESIC_K1_TOL = 1e-9
# tangent-mode quadrature keeps only its furthest node and one block of at
# most QUAD_BLOCK nodes, so its time (not its memory) grows with
# (t1 - t0) / quad_step; longer domains are rejected first
MAX_QUAD_NODES = 10 ** 6
QUAD_BLOCK = 256


class NotNullError(ValueError):
    """The curve's tangent fails the nullity check at a sample."""


class NoUsableSeedError(ValueError):
    """Every policy seed is g-orthogonal to the tangent."""


class ScreenSignatureError(ValueError):
    """The screen complement is not timelike: the chart is not index 2 here."""


class FrameDiscontinuityError(ValueError):
    """Neighbouring frames differ by more than a sign flip can repair."""


@dataclass(frozen=True)
class ScreenPolicy:
    """Deterministic screen construction: seed order, orientation, continuity.

    ``seeds`` are 0-based coordinate-axis indices tried in order; the first
    axis vector V with |g(zeta, V)| above the seed tolerance is used.  The
    orientation rule makes k1 >= 0 at the first sample where |k1| exceeds
    GEODESIC_K1_TOL; between samples, sign flips of W are corrected.
    """

    seeds: tuple = (2, 0, 1)

    @classmethod
    def from_names(cls, names) -> "ScreenPolicy":
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",") if n.strip()]
        idx = []
        for name in names:
            if not (len(name) >= 2 and name[0] == "e" and name[1:].isdigit()
                    and int(name[1:]) >= 1):
                raise ValueError(f"seed names look like 'e3' (from e1), got {name!r}")
            idx.append(int(name[1:]) - 1)
        return cls(seeds=tuple(idx))

    def seed_indices(self, dim: int):
        return [i for i in self.seeds if i < dim]


def _gram_conditions(g, z, n, w) -> tuple:
    """|.| of g(z, z), g(n, n), g(z, n) - 1, g(n, w), g(z, w) and g(w, w) + 1,
    in that order, over floats or sample arrays."""
    return (abs(bilinear(g, z, z)), abs(bilinear(g, n, n)),
            abs(bilinear(g, z, n) - 1.0), abs(bilinear(g, n, w)),
            abs(bilinear(g, z, w)), abs(bilinear(g, w, w) + 1.0))


def max_gram_residual(g, z, n, w) -> float:
    """Largest of the six Gram conditions, taken in order (so NaN only where
    g(z, z) is NaN)."""
    return max(_gram_conditions(g, z, n, w))


@dataclass(frozen=True)
class NullFrame:
    """Frame sample: two null directions, the unit timelike screen vector,
    their ``max_gram_residual`` in g at the point and |g(zeta, zeta)| there."""

    t: float
    point: tuple
    zeta: tuple
    n: tuple
    w: tuple
    gram_residual: float
    null_residual: float


@dataclass(frozen=True)
class CurvatureSample:
    t: float
    h: float
    k1: float
    k2: float
    geodesic_type: bool = False


def frame_curvatures(t, g, cz, cn, n, w) -> CurvatureSample:
    """(h, k1, k2) = (g(cov zeta, N), -g(cov zeta, W), -g(cov N, W)) at t.

    The vectors are floats, jets (their constant terms are taken) or
    component-major sample arrays (then so is every field of the sample);
    every curve, trace and transfer measurement of the curvatures comes here.
    The sample is of geodesic type where |k1| < GEODESIC_K1_TOL.
    """
    k1 = -const_term(bilinear(g, cz, w))
    return CurvatureSample(t=t, h=const_term(bilinear(g, cz, n)), k1=k1,
                           k2=-const_term(bilinear(g, cn, w)),
                           geodesic_type=abs(k1) < GEODESIC_K1_TOL)


class NullCurve:
    """A parametrized null curve on a 3D index-2 chart.

    ``position`` mode stores the coordinate components as expressions in t;
    ``tangent`` mode stores the tangent components and recovers positions by
    quadrature from an initial point: Simpson steps between the fixed nodes
    ``t0 + k * quad_step``, then one partial Simpson step from the last node to
    t.  Only the furthest node reached is kept; an earlier t marches again from
    t0.  The node sequence is deterministic, so a position depends on t alone,
    not on which parameters were queried before.

    The march takes blocks of at most QUAD_BLOCK nodes, each evaluated on
    arrays in one pass (``_array_block``) with the float operations of the
    per-node step (``_simpson``), so every node is bitwise the one the
    per-node loop gives.  A block whose pass raises, or meets a non-finite
    value (which sets a numpy flag that raises), is run again per node,
    which raises the per-node error at the same node (or gives the same
    non-finite values).  Nodes past the one asked for are never evaluated,
    and at most one block is held in memory.

    Frame bundles (see ``_frame_jets``) are memoized on the curve per
    parameter value and screen seed order.
    """

    def __init__(self, metric: MetricField, mode: str, components, domain,
                 initial=None, quad_step: float = 1e-3):
        if metric.dim != 3:
            raise ValueError("null curves require a 3-dimensional chart")
        if mode not in ("position", "tangent"):
            raise ValueError(f"unknown curve mode {mode!r}")
        t0, t1 = float(domain[0]), float(domain[1])
        if not t0 < t1:
            raise ValueError("empty domain")
        if mode == "tangent" and initial is None:
            raise ValueError("tangent mode requires an initial point")
        self.metric = metric
        self.mode = mode
        self.components = tuple(components)
        if len(self.components) != 3:
            raise ValueError("curve needs exactly 3 components")
        self.domain = (t0, t1)
        self.initial = None if initial is None else tuple(float(c) for c in initial)
        self.quad_step = float(quad_step)
        if not self.quad_step > 0.0:
            raise ValueError(f"quad_step must be positive, got {quad_step!r}")
        if mode == "tangent" and (t1 - t0) / self.quad_step > MAX_QUAD_NODES:
            raise ValueError(
                f"tangent-mode quadrature over [{t0!r}, {t1!r}] at quad_step "
                f"{self.quad_step!r} needs more than {MAX_QUAD_NODES} nodes"
            )
        self._node = None  # (k, (t_k, position, tangent)): the furthest node reached
        # numpy divides an infinite constant by zero without a flag, where the
        # per-node step raises: a tree holding one marches per node
        self._arrays = all(map(_finite_constants, self.components))
        self._bundles: dict = {}
        p0 = self.position_at(t0)
        index = metric_index(metric.matrix_at(p0))
        if index != 2:
            raise ScreenSignatureError(f"metric has index {index} at {p0}, need 2")

    @classmethod
    def position(cls, metric, texts, domain) -> "NullCurve":
        comps = [parse(s, variables=frozenset(["t"])) for s in texts]
        return cls(metric, "position", comps, domain)

    @classmethod
    def tangent(cls, metric, texts, initial, domain, quad_step=1e-3) -> "NullCurve":
        comps = [parse(s, variables=frozenset(["t"])) for s in texts]
        return cls(metric, "tangent", comps, domain, initial=initial,
                   quad_step=quad_step)

    def _check_t(self, t: float):
        t0, t1 = self.domain
        if not (t0 - 1e-12 <= t <= t1 + 1e-12):
            raise ValueError(f"parameter {t} outside curve domain [{t0}, {t1}]")

    def zeta_jets(self, t: float, order: int):
        self._check_t(t)
        if self.mode == "tangent":
            env = {"t": Jet.variable(float(t), order)}
            return [eval_jet(c, env) for c in self.components]
        env = {"t": Jet.variable(float(t), order + 1)}
        return [jets.dt(eval_jet(c, env)) for c in self.components]

    def position_jets(self, t: float, order: int):
        self._check_t(t)
        if self.mode == "position":
            env = {"t": Jet.variable(float(t), order)}
            return [eval_jet(c, env) for c in self.components]
        base = self.position_at(t)
        zeta = self.zeta_jets(t, order - 1)
        return [jets.antiderivative(z, p) for z, p in zip(zeta, base)]

    def position_at(self, t: float):
        self._check_t(t)
        if self.mode == "position":
            env = {"t": Jet.variable(float(t), 0)}
            return tuple(const_term(eval_jet(c, env)) for c in self.components)
        return self._quadrature(float(t))

    def _quadrature(self, t: float):
        t0, step = self.domain[0], self.quad_step
        k = max(0, int(math.floor((t - t0) / step)))
        if self._node is not None and self._node[0] <= k:
            i, node = self._node
        else:
            i, node = 0, (t0, self.initial, self._zeta_value(t0))
        while i < k:
            j = min(i + QUAD_BLOCK, k)
            node = self._block(node, i, j)
            i = j
        if self._node is None or self._node[0] < i:
            self._node = (i, node)
        return node[1] if t == node[0] else self._simpson(node, t)[1]

    def _block(self, node, i: int, j: int):
        """Node j from ``node``, node i: on arrays, else per node."""
        if self._arrays:
            try:
                return self._array_block(node, i, j)
            except Exception:  # replayed per node, which raises its own error
                pass
        t0, step = self.domain[0], self.quad_step
        for m in range(i + 1, j + 1):
            node = self._simpson(node, t0 + m * step)
        return node

    def _array_block(self, node, i: int, j: int):
        """The Simpson steps from ``node``, node i, to node j in one pass:
        the tangent at node i, the later nodes and the midpoints (at node i
        the stored tangent's bits), then the positions as a left-to-right
        cumulative sum.

        Any numpy floating-point flag raises.  With t and every constant
        subtree finite, and the ``math`` functions raising rather than
        returning inf, each non-finite value sets a flag."""
        t0, step = self.domain[0], self.quad_step
        n = j - i
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            times = np.concatenate(([node[0]], t0 + np.arange(i + 1, j + 1) * step))
            ta, tb = times[:-1], times[1:]
            dt = tb - ta
            env = {"t": np.concatenate((times, ta + 0.5 * dt))}
            z = np.empty((3, 2 * n + 1))
            for row, comp in zip(z, self.components):
                row[...] = exprparse._eval(comp, env)  # a constant broadcasts
            za, zb, zm = z[:, :n], z[:, 1:n + 1], z[:, n + 1:]
            steps = np.empty((3, n + 1))
            steps[:, 0] = node[1]
            steps[:, 1:] = dt * (za + 4.0 * zm + zb) / 6.0
            pos = steps.cumsum(axis=1)[:, -1]
        return float(tb[-1]), tuple(pos.tolist()), z[:, n].tolist()

    def _simpson(self, node, t: float):
        """One Simpson step from ``node`` to t, as a (t, position, tangent) node."""
        ta, pos, za = node
        dt = t - ta
        zm = self._zeta_value(ta + 0.5 * dt)
        zb = self._zeta_value(t)
        return t, tuple(
            pos[i] + dt * (za[i] + 4.0 * zm[i] + zb[i]) / 6.0 for i in range(3)
        ), zb

    def _zeta_value(self, t: float):
        env = {"t": Jet.variable(t, 0)}
        return [const_term(eval_jet(c, env)) for c in self.components]


def _finite_constants(node: Expr) -> bool:
    """Whether every subtree that reads no variable, such as ``1e999`` or
    ``1e300 * 1e300``, evaluates to a finite float."""
    if not free_variables(node):
        try:
            return math.isfinite(exprparse._eval(node, {}))
        except DomainError:
            return False
    return all(_finite_constants(v) for v in vars(node).values() if isinstance(v, Expr))


# -- frame construction ---------------------------------------------------------


def _cross(a, b):
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


# -- the screen construction, shared by curves and transfer ---------------------

# -g(W, W) of the raw 3D screen vector must exceed this for W to be timelike
SCREEN_TOL = 1e-18


def null_transversal(g, zeta, seeds, where: str):
    """``(i, g.zeta, N)`` for the first seed axis e_i in ``seeds`` with
    |g(zeta, e_i)| > SEED_TOL, in any dimension; ``where`` locates the sample
    in the error message."""
    gz = mat_vec(g, zeta)
    for idx in seeds:
        if abs(const_term(gz[idx])) > SEED_TOL:
            break
    else:
        raise NoUsableSeedError(
            f"no policy seed with |g(zeta, e_i)| > {SEED_TOL} {where}"
        )
    axis = [1.0 if i == idx else 0.0 for i in range(len(zeta))]
    return idx, gz, transversal(g, zeta, axis, gz[idx])


def transversal(g, zeta, v, phi):
    """N = Ntilde - (1/2) g(Ntilde, Ntilde) zeta with Ntilde = v / phi: null,
    with g(zeta, N) = 1 when phi = g(zeta, v)."""
    ntilde = [c / phi for c in v]
    nn = bilinear(g, ntilde, ntilde)
    return [ntilde[i] - 0.5 * nn * zeta[i] for i in range(len(v))]


def screen_vector(g, gz, n_vec, where: str):
    """The 3D screen vector W: g.zeta x g.N, normalised to g(W, W) = -1."""
    w_raw = _cross(gz, mat_vec(g, n_vec))
    w2 = -bilinear(g, w_raw, w_raw)
    if const_term(w2) <= SCREEN_TOL:
        raise ScreenSignatureError(
            f"screen complement not timelike {where}: metric is not index 2"
        )
    scale = jets.sqrt(w2)
    return [c / scale for c in w_raw]


def screen_projection(g, v, zeta, n):
    """``(proj, -g(proj, proj))`` for the screen part of v, proj = v - g(v, N)
    zeta - g(v, zeta) N; the caller judges -g(proj, proj) for ``unit_screen``."""
    vn, vz = bilinear(g, v, n), bilinear(g, v, zeta)
    proj = [v[i] - vn * zeta[i] - vz * n[i] for i in range(len(v))]
    return proj, -bilinear(g, proj, proj)


def unit_screen(proj, w2):
    """``proj`` scaled to g(W, W) = -1, given w2 = -g(proj, proj)."""
    scale = 1.0 / math.sqrt(w2)
    return [c * scale for c in proj]


def continuity_signs(ws):
    """Per-sample signs, starting at +1, that undo W's flips between neighbours."""
    signs = [1.0]
    for prev, cur in zip(ws, ws[1:]):
        dot = sum(const_term(a) * const_term(b) for a, b in zip(prev, cur))
        signs.append(signs[-1] if dot >= 0.0 else -signs[-1])
    return signs


def first_generic_sign(values, tol: float):
    """Sign of the first value with |value| > tol, or None if there is none.

    Applied to the k1 values along a curve, this is the orientation rule:
    flipping W by it makes k1 >= 0 at the first generic sample.
    """
    for v in values:
        if abs(v) > tol:
            return -1.0 if v < 0.0 else 1.0
    return None


class _FrameJets:
    """Jet-valued frame data at one parameter value (internal).

    ``w`` is the screen vector as constructed, before orientation: the bundle
    is shared by every caller at this parameter value, so each caller carries
    its own orientation sign.  Flipping a jet's sign is exact, so the
    covariant derivative of the oriented W is ``sign * cov("w")``.
    """

    __slots__ = ("t", "pos", "zeta", "n", "w", "gmat", "metric", "_gamma", "_covs")

    def __init__(self, t, pos, zeta, n, w, gmat, metric):
        self.t = t
        self.pos = pos
        self.zeta = zeta
        self.n = n
        self.w = w
        self.gmat = gmat
        self.metric = metric
        self._gamma = None
        self._covs = {}

    def cov(self, field: str, times: int = 1):
        """``times``-fold covariant derivative of "zeta", "n" or "w" along the
        curve; each layer, and the connection they share, is computed once."""
        key = (field, times)
        out = self._covs.get(key)
        if out is None:
            if self._gamma is None:
                self._gamma = self.metric.christoffel(
                    [p.truncated(p.order - 1) for p in self.pos])
            inner = getattr(self, field) if times == 1 else self.cov(field, times - 1)
            out = self._covs[key] = semimetric.covariant_jets(
                self.pos, inner, self.metric, self._gamma)
        return out

    def raw_k1(self) -> float:
        """k1 of the unoriented frame."""
        return -const_term(bilinear(self.gmat, self.cov("zeta"), self.w))

    def frame(self, sign: float) -> NullFrame:
        point = tuple(const_term(c) for c in self.pos)
        zeta = tuple(const_term(c) for c in self.zeta)
        n = tuple(const_term(c) for c in self.n)
        w = tuple(sign * const_term(c) for c in self.w)
        g = self.metric.matrix_at(point)
        return NullFrame(self.t, point, zeta, n, w, max_gram_residual(g, zeta, n, w),
                         abs(bilinear(g, zeta, zeta)))


# Jet order of a bundle's positions: each covariant derivative drops one
# order, so order 4 leaves exactly the constant term of cov^3 zeta.
BUNDLE_ORDER = 4


def _frame_jets(curve: NullCurve, t: float, policy: ScreenPolicy) -> _FrameJets:
    """The curve's frame bundle at t, built once per (t, seed order)."""
    key = (t, policy.seeds)
    fj = curve._bundles.get(key)
    if fj is None:
        fj = curve._bundles[key] = _build_frame_jets(curve, t, policy)
    return fj


def _build_frame_jets(curve: NullCurve, t: float, policy: ScreenPolicy) -> _FrameJets:
    order = BUNDLE_ORDER
    pos = curve.position_jets(t, order)
    zeta = [jets.dt(p) for p in pos]
    gmat = curve.metric.matrix_at([p.truncated(order - 1) for p in pos])
    zz = const_term(bilinear(gmat, zeta, zeta))
    if abs(zz) > NULL_TOL:
        raise NotNullError(f"g(zeta, zeta) = {zz:.3e} at t = {t}: curve not null")
    if math.hypot(*map(const_term, zeta)) < 1e-12:
        raise ValueError(f"vanishing tangent at t = {t}")
    where = f"at t = {t}"
    _, gz, n_vec = null_transversal(gmat, zeta, policy.seed_indices(3), where)
    w_vec = screen_vector(gmat, gz, n_vec, where)
    return _FrameJets(t, pos, zeta, n_vec, w_vec, gmat, curve.metric)


def build_frame(curve: NullCurve, t: float,
                policy: ScreenPolicy | None = None) -> NullFrame:
    """Construct the frame at one parameter value (deterministic per policy)."""
    return frame_field(curve, [t], policy)[0]


def frame_field(curve: NullCurve, grid, policy: ScreenPolicy | None = None):
    """Per-sample frames with sign-continuity correction along the grid; a
    Gram residual above FRAME_TOL at any sample is a ValueError."""
    policy = policy or ScreenPolicy()
    grid = list(grid)
    if not grid:
        return []
    states = [_frame_jets(curve, t, policy) for t in grid]
    signs = continuity_signs([st.w for st in states])
    # global orientation: k1 >= 0 at the first generic sample, else W's first
    # significant component positive at the first sample (whose sign is +1)
    k1s = (sign * st.raw_k1() for st, sign in zip(states, signs))
    orient = (first_generic_sign(k1s, GEODESIC_K1_TOL)
              or first_generic_sign([const_term(c) for c in states[0].w], 1e-9)
              or 1.0)
    if orient < 0.0:
        signs = [-sign for sign in signs]
    frames = [st.frame(sign) for st, sign in zip(states, signs)]
    for a, b in zip(frames, frames[1:]):
        if sum(x * y for x, y in zip(a.w, b.w)) <= 0.0:
            raise FrameDiscontinuityError(
                f"screen direction jumps between t = {a.t} and t = {b.t}"
            )
    for fr in frames:
        if fr.gram_residual > FRAME_TOL:
            raise ValueError(f"frame Gram residual {fr.gram_residual:.3e} exceeds "
                             f"{FRAME_TOL} at t = {fr.t}")
    return frames


def _aligned_frame_jets(curve: NullCurve, frame: NullFrame, policy: ScreenPolicy):
    """The curve's bundle at frame.t and the sign orienting its W like frame.w."""
    fj = _frame_jets(curve, frame.t, policy)
    dot = sum(const_term(a) * b for a, b in zip(fj.w, frame.w))
    return fj, (1.0 if dot >= 0.0 else -1.0)


def curvatures_at(curve: NullCurve, frame: NullFrame,
                  policy: ScreenPolicy | None = None) -> CurvatureSample:
    """Curvature functions (h, k1, k2) of the frame at frame.t."""
    policy = policy or ScreenPolicy()
    fj, sign = _aligned_frame_jets(curve, frame, policy)
    return frame_curvatures(frame.t, fj.gmat, fj.cov("zeta"), fj.cov("n"), fj.n,
                            [sign * c for c in fj.w])


def frenet_residuals(curve: NullCurve, frame: NullFrame, sample: CurvatureSample,
                     policy: ScreenPolicy | None = None):
    """Coordinate components of the three frame-equation residuals at frame.t.

    The derivative terms come from the smooth policy-built frame field (a
    single frame sample cannot be differentiated); the algebraic terms use the
    given frame's vectors, so a corrupted frame shows up in the residuals.
    """
    policy = policy or ScreenPolicy()
    fj, sign = _aligned_frame_jets(curve, frame, policy)
    cz, cn = fj.cov("zeta"), fj.cov("n")
    cw = [sign * c for c in fj.cov("w")]
    h, k1, k2 = sample.h, sample.k1, sample.k2
    r1 = tuple(
        const_term(cz[i]) - h * frame.zeta[i] - k1 * frame.w[i]
        for i in range(3)
    )
    r2 = tuple(
        const_term(cn[i]) + h * frame.n[i] - k2 * frame.w[i]
        for i in range(3)
    )
    r3 = tuple(
        const_term(cw[i]) - k2 * frame.zeta[i] - k1 * frame.n[i]
        for i in range(3)
    )
    return r1, r2, r3


def euclid_norm(vec) -> float:
    """Coordinate-Euclidean norm; inf where a squared component overflows.
    Sample arrays square by ``np.float_power``, with the bits of ``** 2``
    (``arr ** 2`` multiplies, which can differ in the last bit)."""
    if isinstance(vec[0], np.ndarray):
        squares = [np.float_power(c, 2) for c in vec]  # ** 2 raises on overflow
        overflow = sum(np.isinf(s) & np.isfinite(c) for s, c in zip(squares, vec))
        return np.where(overflow, math.inf, np.sqrt(sum(squares)))
    try:
        return math.sqrt(sum(float(c) ** 2 for c in vec))
    except OverflowError:
        return math.inf
