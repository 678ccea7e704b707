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
the frame's own t-derivatives; transfer runs the seed/N and W steps, and
traces ``frame_curvatures``, once on sample arrays.  So do the N formula
(``transversal``), the screen part of a vector (``screen_projection``, scaled
by ``unit_screen``) and the six Gram conditions (``max_gram_residual``): the
frame algebra ``helix`` and ``submanifold`` share.  Each sample may take its
own seed (``_seeds_per_sample``), and W's sign is made continuous by one rule
over sample arrays (``_neighbour_dots``, then ``_flip_signs``).
Transfer's ambient frames extend the seed order with the unused axes and take
W from the acceleration's screen part, the only W rule above dimension 3.

A curve's frames come from one frame bundle (``_FrameJets``) per grid and seed
order, built with t bound to the float array of grid times, so that every jet
coefficient is a sample array; it computes g (``matrix_at``, on jets), the
connection and each covariant derivative once.  ``frame_field`` returns one
``NullFrame`` of sample arrays, and ``curvatures_at``, ``frenet_residuals``
and ``helix``'s identity suite measure it in one pass each.  Every stage runs
on the arrays under numpy flags that raise; where it raises anything, or a
flag, it runs again per sample through the same functions on float t
(``_on_samples``), which raises the per-sample error at its sample, in the
order of a loop over samples; a tree evaluator refuses arrays where numpy
could pass silently where a float raises (``jets.PerSampleCheck``).  A
tangent-mode curve's base points over the grid come from one quadrature
march (``NullCurve._quadrature``).  The same functions at one float t
measure a single frame, ``frame_field(curve, [t])[0]``.  Each ``NullFrame``
carries its ``gram_residual`` and its ``null_residual`` |g(zeta, zeta)|,
both read off one float g at the sample's point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import exprparse, jets, semimetric
from .exprparse import eval_jet, parse
from .jets import Jet, const_term
from .semimetric import Matrix, MetricField, bilinear, mat_vec, metric_index

NULL_TOL = 1e-8
SEED_TOL = 1e-8
FRAME_TOL = 1e-9
GEODESIC_K1_TOL = 1e-9
# tangent-mode quadrature keeps only its largest t's node and one block of
# at most QUAD_BLOCK nodes, so its time (not its memory) grows with
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
    g(z, z) is NaN): Python's ``max``, which on sample arrays is taken left
    to right per element."""
    conditions = _gram_conditions(g, z, n, w)
    if not isinstance(conditions[0], np.ndarray):
        return max(conditions)
    largest = conditions[0]
    for c in conditions[1:]:
        largest = np.where(c > largest, c, largest)
    return largest


@dataclass(frozen=True)
class NullFrame:
    """Frame sample: two null directions, the unit timelike screen vector,
    their ``max_gram_residual`` in g at the point and |g(zeta, zeta)| there.

    The fields are floats at one sample, or sample arrays over a grid (as
    ``frame_field`` gives them; a vector is then a tuple of component
    arrays), and ``frame[i]`` is sample i's frame.
    """

    t: float
    point: tuple
    zeta: tuple
    n: tuple
    w: tuple
    gram_residual: float
    null_residual: float

    def __getitem__(self, i: int) -> "NullFrame":
        return _sample(self, i)


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
    ``t0 + k * quad_step``, then one partial Simpson step from each time's
    node to the time.  The times of a grid march once, to the node below the
    largest; one t is a grid of one.  Only that node is kept: a later t
    marches on from it, an earlier one again from t0, so a replay per sample
    over increasing times marches once more.  The node sequence is
    deterministic, so a position depends on t alone.

    The march takes blocks of at most QUAD_BLOCK nodes (``_block``).  The
    tangents of a block, and of the partial steps, come from one
    ``_on_samples`` pass (``_tangents``), and every step has the float
    operations of one Simpson step, so each node is bitwise the one the
    per-node loop gives, or raises its error at the same node.  Nodes past
    the largest time are never evaluated, and at most one block is held in
    memory.  On an array of times, a curve whose trees hold a non-finite
    constant raises PerSampleCheck (``_env``).

    The curve keeps the frame bundle (see ``_frame_jets``) of the last grid
    and screen seed order it was framed on: ``frame_field`` builds it, and
    the measurements on its frames read it.
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
        self._node = None  # (k, [t_k, *position, *tangent]) below the last call's largest t
        self._finite = exprparse._finite_constants(self.components)
        self._bundle = None  # (grid and seed order, _FrameJets)
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

    def _check_t(self, t):
        """ValueError where t (a float, or at any sample, a float array) is
        outside the domain or NaN."""
        t0, t1 = self.domain
        if jets.failing((t < t0 - 1e-12) | (t > t1 + 1e-12) | (t != t)):
            raise ValueError(f"parameter {t} outside curve domain [{t0}, {t1}]")

    def _env(self, t, order: int) -> dict:
        """t as an order-``order`` jet variable, at a float or a float array
        of grid times; on an array, PerSampleCheck where a tree holds a
        non-finite constant (see ``codegen._refused``)."""
        if not isinstance(t, np.ndarray):
            t = float(t)
        elif not self._finite:
            raise jets.PerSampleCheck
        return {"t": Jet.variable(t, order)}

    def zeta_jets(self, t, order: int):
        """Tangent jets at t, a float or a float array of grid times."""
        self._check_t(t)
        if self.mode == "tangent":
            env = self._env(t, order)
            return [eval_jet(c, env) for c in self.components]
        env = self._env(t, order + 1)
        return [jets.dt(eval_jet(c, env)) for c in self.components]

    def position_jets(self, t, order: int):
        """Position jets at t, a float or a float array of grid times; in
        tangent mode the quadrature marches once through the grid times."""
        self._check_t(t)
        if self.mode == "position":
            env = self._env(t, order)
            return [eval_jet(c, env) for c in self.components]
        if isinstance(t, np.ndarray):  # the tangent first, as it may refuse arrays
            zeta = self.zeta_jets(t, order - 1)
            base = self._quadrature(t)
        else:
            base = self.position_at(t)
            zeta = self.zeta_jets(t, order - 1)
        return [jets.antiderivative(z, p) for z, p in zip(zeta, base)]

    def position_at(self, t: float):
        self._check_t(t)
        if self.mode == "position":
            env = self._env(t, 0)
            return tuple(const_term(eval_jet(c, env)) for c in self.components)
        return tuple(self._quadrature(np.array([float(t)]))[:, 0].tolist())

    @np.errstate(all="ignore")  # inf and NaN as float arithmetic gives them
    def _quadrature(self, times):
        """Positions, as component rows, at a float array of times in any
        order: one march to the node below the largest time, keeping each
        time's node from the block arrays, then one partial Simpson step from
        its node to each time that is not on it."""
        t0, step = self.domain[0], self.quad_step
        ks = np.maximum(0, np.floor((times - t0) / step)).astype(int)
        last = int(ks.max(initial=0))  # initial: an empty grid marches no node
        if self._node is not None and self._node[0] <= ks.min(initial=last):
            i, node = self._node
        else:
            i, node = 0, np.array([t0, *self.initial, *self._zeta_value(t0)])
        nodes = np.repeat(node[:, None], len(times), axis=1)  # t, position, tangent
        while i < last:
            j = min(i + QUAD_BLOCK, last)
            block = self._block(node, i, j)
            here = (ks > i) & (ks <= j)
            nodes[:, here] = block[:, ks[here] - i - 1]
            i, node = j, block[:, -1].copy()
        self._node = (i, node)
        off = times != nodes[0]
        if off.any():
            ta, tb = nodes[0, off], times[off]
            nodes[1:4, off] += _simpson_steps(ta, tb, nodes[4:, off], *self._tangents(ta, tb))
        return nodes[1:4]

    def _block(self, node, i: int, j: int):
        """Nodes i + 1 .. j from ``node``, node i, as (t, position, tangent)
        columns; the positions are one left-to-right cumulative sum."""
        tb = self.domain[0] + np.arange(i + 1, j + 1) * self.quad_step
        ta = np.concatenate(([node[0]], tb[:-1]))
        zm, zb = self._tangents(ta, tb)
        za = np.concatenate((node[4:, None], zb[:, :-1]), axis=1)
        steps = np.concatenate((node[1:4, None], _simpson_steps(ta, tb, za, zm, zb)), axis=1)
        return np.concatenate(([tb], steps.cumsum(axis=1)[:, 1:], zb))

    def _tangents(self, ta, tb):
        """The tangent at the midpoint of each Simpson step [ta, tb], then at
        tb, from one ``_on_samples`` pass in that order, as component rows."""
        times = np.empty(2 * len(tb))
        times[0::2], times[1::2] = ta + 0.5 * (tb - ta), tb
        z = np.empty((3, len(times)))
        for row, c in zip(z, _on_samples(len(times), self._zeta_value, times)):
            row[:] = c  # a constant broadcasts
        return z[:, 0::2], z[:, 1::2]

    def _zeta_value(self, t):
        env = self._env(t, 0)
        return [const_term(eval_jet(c, env)) for c in self.components]


def _simpson_steps(ta, tb, za, zm, zb):
    """The position increments of Simpson steps [ta, tb], with the float
    operations of one step."""
    return (tb - ta) * (za + 4.0 * zm + zb) / 6.0


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
    in the error message.  Over sample arrays, see ``_seeds_per_sample``."""
    gz = mat_vec(g, zeta)
    for idx in seeds:
        usable = abs(const_term(gz[idx])) > SEED_TOL
        if isinstance(usable, np.ndarray):
            return _seeds_per_sample(g, zeta, gz, seeds)
        if usable:
            break
    else:
        raise NoUsableSeedError(
            f"no policy seed with |g(zeta, e_i)| > {SEED_TOL} {where}"
        )
    axis = [1.0 if i == idx else 0.0 for i in range(len(zeta))]
    return idx, gz, transversal(g, zeta, axis, gz[idx])


def _seeds_per_sample(g, zeta, gz, seeds):
    """``null_transversal`` over sample arrays: each sample takes its own
    first usable seed.  Where that is one seed for all, i is an int and N is
    built as at one sample; else i is an array, and the axis (entries
    exactly 1.0 and 0.0) and phi = g(zeta, e_i) are selected per sample."""
    usable = [abs(const_term(gz[i])) > SEED_TOL for i in seeds]
    idx = np.select(usable, seeds, -1)
    jets.failing(idx == -1)  # the replay per sample raises NoUsableSeedError
    if (idx == idx[0]).all():
        idx = int(idx[0])
        axis = [1.0 if i == idx else 0.0 for i in range(len(zeta))]
        return idx, gz, transversal(g, zeta, axis, gz[idx])
    axis = [np.where(idx == i, 1.0, 0.0) for i in range(len(zeta))]
    chosen = [idx == i for i in seeds]
    if isinstance(gz[seeds[0]], Jet):
        phi = Jet([np.select(chosen, c) for c in zip(*(gz[i].coeffs for i in seeds))])
    else:
        phi = np.select(chosen, [gz[i] for i in seeds])
    return idx, gz, transversal(g, zeta, axis, phi)


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
    if jets.failing(const_term(w2) <= SCREEN_TOL):
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
    """``proj`` scaled to g(W, W) = -1, given w2 = -g(proj, proj) (floats or
    sample arrays)."""
    scale = 1.0 / jets.sqrt(w2)
    return [c * scale for c in proj]


def _dot(a, b):
    """The coordinate dot product of two vectors, summed from 0 in order."""
    return sum(x * y for x, y in zip(a, b))


def _flip_signs(dots) -> list:
    """Signs, starting at +1, that flip where a neighbours' dot product is not
    >= 0."""
    signs = [1.0]
    for dot in dots:
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


# -- frame bundles over sample arrays ------------------------------------------


def _sample(x, i: int):
    """Sample i of a value over sample arrays: an array's element i as a
    Python scalar; jets, matrices, tuples, lists, records and bundles part by
    part; anything else (a float shared by every sample) as it is."""
    if isinstance(x, np.ndarray):
        return x[i].item()
    if isinstance(x, Jet):
        return Jet([_sample(c, i) for c in x.coeffs])
    if isinstance(x, Matrix):
        return Matrix([_sample(row, i) for row in x], x.support)
    if isinstance(x, (list, tuple)):
        return type(x)(_sample(c, i) for c in x)
    if isinstance(x, _FrameJets):
        return x.sample(i)
    if dataclasses.is_dataclass(x):
        return type(x)(*(_sample(getattr(x, f.name), i) for f in dataclasses.fields(x)))
    return x


def _stacked(values: list):
    """Per-sample values of one structure as one value over sample arrays,
    undoing ``_sample``."""
    first = values[0]
    if isinstance(first, Jet):
        return Jet([_stacked(c) for c in zip(*(v.coeffs for v in values))])
    if isinstance(first, Matrix):
        return Matrix([_stacked(rows) for rows in zip(*values)], first.support)
    if isinstance(first, (list, tuple)):
        return type(first)(_stacked(c) for c in zip(*values))
    if dataclasses.is_dataclass(first):
        return type(first)(*(_stacked([getattr(v, f.name) for v in values])
                             for f in dataclasses.fields(first)))
    return np.array(values)


def _spread(x, size: int):
    """``x`` with each float or bool in it (one value that every sample
    shares) made a sample array of ``size``; jets are left as they are."""
    if isinstance(x, (float, bool)):
        return np.full(size, x)
    if isinstance(x, (list, tuple)):
        return type(x)(_spread(c, size) for c in x)
    if dataclasses.is_dataclass(x):
        return type(x)(*(_spread(getattr(x, f.name), size) for f in dataclasses.fields(x)))
    return x


def _on_samples(size: int, fn, *args):
    """``fn(*args)`` over sample arrays of ``size`` samples, in one pass.
    Where that pass raises anything, or sets a numpy flag, ``fn`` runs on
    each sample in turn (``_sample`` of every argument) and the results are
    stacked: that run raises the per-sample error at its sample.

    With t and every constant subtree finite, and the ``math`` functions
    raising rather than returning inf, each non-finite value sets a flag.
    Where that does not hold, the tree evaluators refuse arrays with
    PerSampleCheck: a curve's (``NullCurve._env``) and a generated
    function's (``codegen.compiled``).  An underflow raises no Python error
    and gives IEEE's bits either way, so it does not count."""
    try:
        with np.errstate(all="raise", under="ignore"):
            return fn(*args)
    except Exception:  # replayed per sample, which raises its own error
        pass
    return _stacked([fn(*(_sample(a, i) for a in args)) for i in range(size)])


class _FrameJets:
    """Jet-valued frame data of a curve (internal), at one float t or over a
    grid: then t is the float array of grid times, and each jet coefficient
    a sample array (or a float that every sample shares).

    Each stage (``staged``) runs once over the grid's arrays, and per sample
    where that pass fails, so an error is the per-sample one.  ``w`` is the
    screen vector as constructed, before orientation: each caller carries
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

    def staged(self, fn, *args):
        """``fn(self, *args)``: directly at one t, by ``_on_samples`` over a
        grid."""
        if not isinstance(self.t, np.ndarray):
            return fn(self, *args)
        return _on_samples(len(self.t), fn, self, *args)

    def sample(self, i: int) -> "_FrameJets":
        """The bundle at sample i, with the connection and layers so far."""
        fj = _FrameJets(self.t[i].item(), *(_sample(x, i) for x in (
            self.pos, self.zeta, self.n, self.w, self.gmat)), self.metric)
        fj._gamma = _sample(self._gamma, i)
        fj._covs = {key: _sample(v, i) for key, v in self._covs.items()}
        return fj

    def gamma(self):
        """The connection at the truncated positions, computed once."""
        if self._gamma is None:
            self._gamma = self.staged(_connection)
        return self._gamma

    def cov(self, field: str, times: int = 1):
        """``times``-fold covariant derivative of "zeta", "n" or "w" along the
        curve; each layer, and the connection they share, is computed once."""
        key = (field, times)
        out = self._covs.get(key)
        if out is None:
            inner = getattr(self, field) if times == 1 else self.cov(field, times - 1)
            out = self._covs[key] = self.staged(_cov_layer, inner, self.gamma())
        return out

    def raw_k1(self):
        """k1 of the unoriented frame."""
        return -const_term(bilinear(self.gmat, self.cov("zeta"), self.w))

    def frame(self, sign) -> NullFrame:
        """The frame with W times ``sign``, its residuals read off float g."""
        point = tuple(const_term(c) for c in self.pos)
        zeta = tuple(const_term(c) for c in self.zeta)
        n = tuple(const_term(c) for c in self.n)
        w = tuple(sign * const_term(c) for c in self.w)
        g = self.metric.matrix_at(point)
        return NullFrame(self.t, point, zeta, n, w, max_gram_residual(g, zeta, n, w),
                         abs(bilinear(g, zeta, zeta)))

    def aligned(self, w):
        """+1.0 or -1.0 (per sample) orienting this bundle's W like ``w``."""
        same = _dot(map(const_term, self.w), w) >= 0.0
        if isinstance(same, np.ndarray):
            return np.where(same, 1.0, -1.0)
        return 1.0 if same else -1.0


def _connection(fj: _FrameJets):
    return fj.metric.christoffel([p.truncated(p.order - 1) for p in fj.pos])


def _cov_layer(fj: _FrameJets, inner, gamma):
    return semimetric.covariant_jets(fj.pos, inner, fj.metric, gamma)


def _signed_k1(fj: _FrameJets, sign):
    return sign * fj.raw_k1()


# Jet order of a bundle's positions: each covariant derivative drops one
# order, so order 4 leaves exactly the constant term of cov^3 zeta.
BUNDLE_ORDER = 4


def _frame_jets(curve: NullCurve, t, policy: ScreenPolicy) -> _FrameJets:
    """The curve's frame bundle at t, a float or a float array of grid times;
    the curve keeps the last one built, per (t, seed order)."""
    key = (t.tobytes() if isinstance(t, np.ndarray) else t, policy.seeds)
    if curve._bundle is None or curve._bundle[0] != key:
        curve._bundle = (key, _build_frame_jets(curve, t, policy))
    return curve._bundle[1]


def _build_frame_jets(curve: NullCurve, t, policy: ScreenPolicy) -> _FrameJets:
    """The bundle at t: at a float directly, over a grid by ``_on_samples``."""
    if isinstance(t, np.ndarray):
        fields = _on_samples(len(t), lambda s: _bundle_fields(curve, s, policy), t)
    else:
        fields = _bundle_fields(curve, t, policy)
    return _FrameJets(t, *fields, curve.metric)


def _bundle_fields(curve: NullCurve, t, policy: ScreenPolicy):
    """``(pos, zeta, N, W, g)`` jets at t, with each check on the constant
    terms (on arrays: ``jets.failing``)."""
    order = BUNDLE_ORDER
    pos = curve.position_jets(t, order)
    zeta = [jets.dt(p) for p in pos]
    gmat = curve.metric.matrix_at([p.truncated(order - 1) for p in pos])
    zz = const_term(bilinear(gmat, zeta, zeta))
    if jets.failing(abs(zz) > NULL_TOL):
        raise NotNullError(f"g(zeta, zeta) = {zz:.3e} at t = {t}: curve not null")
    if jets.failing(_tangent_size(zeta) < 1e-12):
        raise ValueError(f"vanishing tangent at t = {t}")
    where = f"at t = {t}"
    _, gz, n_vec = null_transversal(gmat, zeta, policy.seed_indices(3), where)
    w_vec = screen_vector(gmat, gz, n_vec, where)
    return pos, zeta, n_vec, w_vec, gmat


def _tangent_size(zeta):
    """``math.hypot`` of the tangent's constant terms, per sample on arrays."""
    c = [const_term(z) for z in zeta]
    if not any(isinstance(x, np.ndarray) for x in c):
        return math.hypot(*c)
    return np.array([math.hypot(*v)
                     for v in zip(*(x.tolist() for x in np.broadcast_arrays(*c)))])


def frame_field(curve: NullCurve, grid, policy: ScreenPolicy | None = None) -> NullFrame:
    """The frames at the grid times, as one ``NullFrame`` of sample arrays
    (``frames[i]`` is sample i's), with sign-continuity correction along the
    grid; a Gram residual above FRAME_TOL at any sample is a ValueError.

    The curve's bundle over the grid is built once, and each stage runs on
    its arrays (``_FrameJets.staged``), so errors come as a loop over
    samples raises them: every bundle, then the orientation (k1 read as far
    as its rule reads), the frames' float g, continuity and the Gram check.
    """
    policy = policy or ScreenPolicy()
    times = np.array(grid, dtype=float)
    size = len(times)
    if not size:
        return NullFrame(times, (times,) * 3, (times,) * 3, (times,) * 3, (times,) * 3,
                         times, times)
    fj = _frame_jets(curve, times, policy)
    w0 = _spread([const_term(c) for c in fj.w], size)
    signs = np.array(_flip_signs(_neighbour_dots(w0)))
    # global orientation: k1 >= 0 at the first generic sample, else W's first
    # significant component positive at the first sample (whose sign is +1)
    try:
        k1s = _spread(fj.staged(_signed_k1, signs), size).tolist()
    except Exception:  # read per sample, and only as far as the rule reads
        k1s = (sign * fj.sample(i).raw_k1() for i, sign in enumerate(signs.tolist()))
    orient = (first_generic_sign(k1s, GEODESIC_K1_TOL)
              or first_generic_sign([_sample(c, 0) for c in w0], 1e-9)
              or 1.0)
    if orient < 0.0:
        signs = -signs
    frames = _spread(fj.staged(_FrameJets.frame, signs), size)
    t, grams = times.tolist(), frames.gram_residual.tolist()
    jumps = np.flatnonzero(np.array(_neighbour_dots(frames.w)) <= 0.0)
    if jumps.size:
        i = int(jumps[0])
        raise FrameDiscontinuityError(
            f"screen direction jumps between t = {t[i]} and t = {t[i + 1]}"
        )
    for gram, ti in zip(grams, t):
        if gram > FRAME_TOL:
            raise ValueError(f"frame Gram residual {gram:.3e} exceeds {FRAME_TOL} "
                             f"at t = {ti}")
    return frames


def _neighbour_dots(w) -> list:
    """The dot products of the vector ``w`` (component arrays over the
    samples) at neighbouring samples, in order, by ``_on_samples``."""
    size = len(w[0]) - 1
    if not size:
        return []
    return _on_samples(size, _dot, [c[:-1] for c in w], [c[1:] for c in w]).tolist()


def _on_bundle(curve: NullCurve, t, policy: ScreenPolicy | None, fn, *args):
    """``fn(bundle, *args)`` on the curve's bundle at t (one float, or the
    grid times of a frame over sample arrays) as a stage of it; over a grid,
    each float in the result is spread over the samples."""
    out = _frame_jets(curve, t, policy or ScreenPolicy()).staged(fn, *args)
    return _spread(out, len(t)) if isinstance(t, np.ndarray) else out


def curvatures_at(curve: NullCurve, frame: NullFrame,
                  policy: ScreenPolicy | None = None) -> CurvatureSample:
    """Curvature functions (h, k1, k2) of the frame at frame.t (arrays over
    a frame of sample arrays)."""
    return _on_bundle(curve, frame.t, policy, _curvatures, frame)


def _curvatures(fj: _FrameJets, frame: NullFrame) -> CurvatureSample:
    sign = fj.aligned(frame.w)
    return frame_curvatures(frame.t, fj.gmat, fj.cov("zeta"), fj.cov("n"), fj.n,
                            [sign * c for c in fj.w])


def frenet_residuals(curve: NullCurve, frame: NullFrame, sample: CurvatureSample,
                     policy: ScreenPolicy | None = None):
    """Coordinate components of the three frame-equation residuals at frame.t
    (arrays over a frame of sample arrays).

    The derivative terms come from the smooth policy-built frame field (a
    single frame sample cannot be differentiated); the algebraic terms use the
    given frame's vectors, so a corrupted frame shows up in the residuals.
    """
    return _on_bundle(curve, frame.t, policy, _frenet, frame, sample)


def _frenet(fj: _FrameJets, frame: NullFrame, sample: CurvatureSample):
    sign = fj.aligned(frame.w)
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
    (``arr ** 2`` multiplies, which can differ in the last bit), and give
    each sample's float norm, so numpy's flags are ignored."""
    if isinstance(vec[0], np.ndarray):
        with np.errstate(all="ignore"):
            squares = [np.float_power(c, 2) for c in vec]  # ** 2 raises on overflow
            overflow = sum(np.isinf(s) & np.isfinite(c) for s, c in zip(squares, vec))
            return np.where(overflow, math.inf, np.sqrt(sum(squares)))
    try:
        return math.sqrt(sum(float(c) ** 2 for c in vec))
    except OverflowError:
        return math.inf
