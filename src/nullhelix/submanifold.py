"""Immersed submanifolds of a semi-Riemannian chart.

An immersion is a map f from an m-dimensional chart (coordinates u1..um) into
an ambient chart carrying its own metric.  The ambient covariant derivative
of df(y) along x splits by the Gauss formula,
nabla~_x df(y) = df(nabla_x y) + B(x, y): its tangential part is the induced
connection and its normal part the second fundamental form B.  The Weingarten
formula splits the ambient derivative of a normal field the same way: minus
its tangential part is the shape operator, its normal part the normal-bundle
derivative.  Mean curvature is the signed trace of B over an orthonormal
tangent frame.  Every construction here is written over duck-typed scalars,
so evaluating along a jet-seeded ray yields the derivative of the
construction itself -- that is how the normal fields' derivatives and the
covariant derivatives of B and of H are obtained without finite differences.

All forms read one bundle per chart point and per jet ray (``_Point``):
f(u), T, S, the ambient metric and connection, the induced metric and its
inverse, the +-1 normals, the orthonormal tangent frame, the rank check of
T, B on the frame pairs and H, each computed once, on first use, and each
shape-operator value and normal-bundle derivative of H once per argument.
H reads only the frame diagonal of B, so a jet ray that only needs H never
evaluates an off-diagonal pair.  Bundles at float points are memoized on the
immersion, and the bundle on each jet ray on its base bundle (``ray``), by
the bytes of the ray's slope.  A bundle may also hold sample arrays, one per
coordinate, for one pass over many points; such a bundle's pivot tests are
``jets.agreed``'s.  ``helix_transfer``'s isometry and geodesic checks run so
(``nullframe._on_samples``): where the points split on a pivot, as two
passes, one per side of the split, and per point where a pass fails.  So
does ``axis_derivatives``, the ``submanifold`` command's one pass over
lanes, a lane per pair of a point and a coordinate axis: its one jet ray has
lane arrays for both base and slope, and it fills each float point's shape
and normal-bundle memos along the axes, or, where it fails, nothing.

f, T and S come from two Python functions per immersion, generated on first
use by ``codegen`` (the generator a metric's connection uses) from the
components and their ``exprparse.derivative`` trees in u1..um:
T[a][k] = d f_k / d u_a from the first function, and
S[a][b][k] = d T[a][k] / d u_b from the second, so a pass that needs only f
and T does not evaluate S.  Both take floats, sample arrays and order-1 jet
rays over either alike.
When one raises, the components and then its derivative trees are
evaluated again with ``exprparse._eval``, so the ``DomainError`` names the
subexpression.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import codegen, exprparse, jets, semimetric
from . import helix as helixmod
from .exprparse import parse
from .jets import Jet, const_term
from .nullframe import (CurvatureSample, ScreenPolicy, euclid_norm, largest,
                        max_gram_residual, null_transversal, screen_projection, unit_screen,
                        _flip_signs, _neighbour_dots, _on_samples, _sample, _spread)
from .semimetric import (Matrix, MetricField, bilinear, connection_term, mat_det,
                         mat_inverse, mat_vec)

RANK_TOL = 1e-9
NORMAL_TOL = 1e-10
FRAME_PIVOT_TOL = 1e-10
# largest entrywise gap between a transferred helix's metric and the pullback
ISOMETRY_TOL = 1e-6
# largest Gram-condition violation ``umbilical_diagnostic`` accepts in its frame
NULL_TRIPLE_TOL = 1e-8
# helix transfer chains two stencils (the acceleration, then cov N), each
# trimming FD_RADIUS samples per side, and its constancy check needs two samples
TRANSFER_MIN_SAMPLES = 4 * helixmod.FD_RADIUS + 2


def _slope(v):
    """First coefficient of a value on an order-1 jet ray (0 for constants)."""
    return v.coeffs[1] if isinstance(v, Jet) else 0.0


def _bytes(x) -> bytes:
    """A memo key for x, floats or sample arrays (one per coordinate): their
    bytes, so -0.0 and 0.0 stay apart."""
    if isinstance(x[0], np.ndarray):
        return b"".join(c.tobytes() for c in x)
    return struct.pack(f"{len(x)}d", *x)


class RankDeficiencyError(ValueError):
    """The differential of the immersion drops rank at the point."""


class DegenerateNormalError(ValueError):
    """The normal space is degenerate; no +-1 orthonormal basis exists."""


class Immersion:
    """Parametrized submanifold f: u-chart -> ambient chart."""

    def __init__(self, intrinsic_dim: int, ambient: MetricField, components):
        if not 1 <= intrinsic_dim <= 3:
            raise ValueError("intrinsic dimension must be 1, 2 or 3")
        if intrinsic_dim > ambient.dim:
            raise ValueError("intrinsic dimension exceeds the ambient dimension")
        self.m = intrinsic_dim
        self.ambient = ambient
        self.components = tuple(components)
        if len(self.components) != ambient.dim:
            raise ValueError("map needs one component per ambient coordinate")
        self._uvars = tuple(f"u{i + 1}" for i in range(intrinsic_dim))
        self._points: dict = {}  # bytes of a float point -> its _Point, see _point

    @classmethod
    def from_texts(cls, intrinsic_dim: int, ambient: MetricField, texts) -> "Immersion":
        allowed = frozenset(f"u{i + 1}" for i in range(intrinsic_dim))
        comps = []
        for i, s in enumerate(texts):
            if not isinstance(s, str):
                raise ValueError(f"map[{i}] must be an expression string")
            comps.append(parse(s, variables=allowed))
        return cls(intrinsic_dim, ambient, comps)

    @classmethod
    def from_dict(cls, doc: dict) -> "Immersion":
        if set(doc) != {"intrinsic_dim", "ambient", "map"}:
            raise ValueError(
                "immersion document takes exactly 'intrinsic_dim', 'ambient', 'map'"
            )
        dim, texts = doc["intrinsic_dim"], doc["map"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError("'intrinsic_dim' must be an integer")
        if not isinstance(texts, list):
            raise ValueError("'map' must be a list of expression strings")
        ambient = semimetric.MetricField.from_dict(doc["ambient"])
        return cls.from_texts(dim, ambient, texts)

    # -- pointwise data over duck coordinates --------------------------------

    @cached_property
    def _tangent_trees(self):
        """d f_k / d u_a as trees, row a per variable, each taken once."""
        return [[exprparse.derivative(c, name) for c in self.components]
                for name in self._uvars]

    @cached_property
    def _generated(self):
        """The generated ``(f, T)`` function of u1..um, T[a][k] from the tree
        of d f_k / d u_a; its errors replay the components, then those trees."""
        derivs = self._tangent_trees
        em = codegen.Emitter(self._uvars)
        f = codegen.nested([em.code(c) for c in self.components], "[]")
        T = codegen.nested([[em.code(d) for d in row] for row in derivs], "[]")
        returned = f"{f}, {T}"
        body = [*(f"{name} = {rhs}" for name, rhs in em.kept([returned])),
                f"return {returned}"]
        trees = (*self.components, *(d for row in derivs for d in row))
        return codegen.compiled("_immersion", self._uvars, (), body, trees)

    @cached_property
    def _generated_hessian(self):
        """The generated S function of u1..um, S[a][b][k] from the tree of
        d T[a][k] / d u_b (S[a][b] and S[b][a] each from its own tree); its
        errors replay the components, then T's and S's trees."""
        derivs = self._tangent_trees
        second = [[[exprparse.derivative(d, name) for d in row] for name in self._uvars]
                  for row in derivs]
        em = codegen.Emitter(self._uvars)
        S = codegen.nested([[[em.code(d) for d in col] for col in row]
                            for row in second], "[]")
        body = [*(f"{name} = {rhs}" for name, rhs in em.kept([S])), f"return {S}"]
        trees = (*self.components, *(d for row in derivs for d in row),
                 *(d for row in second for col in row for d in col))
        return codegen.compiled("_hessian", self._uvars, (), body, trees)

    def map_and_tangent(self, u):
        """(f(u), T) over floats or order-1 jet rays, from one call of the
        generated function: T[a] = d f / d u_a.  S has a function of its own,
        so a caller that reads only f and T never evaluates it."""
        return self._generated(*u)


# -- the point bundle -----------------------------------------------------------


def _unit(c: int, n: int):
    return [1.0 if k == c else 0.0 for k in range(n)]


def _unit_basis(g, count: int, tol: float, project=list):
    """+-1 Gram-Schmidt in g over the projected coordinate axes, in order:
    up to ``count`` (vector, g(vector, vector))
    pairs, skipping vanishing or null remainders; pivots use constant parts,
    so a jet ray keeps its base's.  Over sample arrays each pivot test is
    ``jets.agreed``'s: an axis is taken or skipped, and a sign chosen, where
    every sample agrees, and PerSampleCheck raised where they split, for the
    caller to run each side of the split apart."""
    accepted = []
    for c in range(len(g)):
        if len(accepted) == count:
            break
        r = project(_unit(c, len(g)))
        for vec, sign in accepted:
            proj = bilinear(g, r, vec)
            r = [r[k] - sign * proj * vec[k] for k in range(len(r))]
        # x * x gives inf where x ** 2 would raise OverflowError
        size = sum(x * x for x in map(const_term, r))
        if jets.agreed(size <= 1e-18):
            continue  # the axis lies in the span already handled
        nu = bilinear(g, r, r)
        nu0 = const_term(nu)
        if jets.agreed(abs(nu0) <= tol * largest([1.0, size])):
            continue  # null remainder: unusable for a +-1 basis
        sign = 1.0 if jets.agreed(nu0 > 0.0) else -1.0
        scale = jets.sqrt(sign * nu)
        accepted.append((tuple(x / scale for x in r), sign))
    return accepted


class _Point:
    """Pointwise data of an immersion at u (floats, jets along a ray, or
    sample arrays, one per coordinate), each piece computed on first use.
    Bundles are shared: nothing read from one is written to, and public
    functions return copies."""

    def __init__(self, F: Immersion, u):
        # weak: F holds its bundles, so a strong reference back would make a
        # cycle that outlives each run until the cyclic collector finds it
        self._F = weakref.ref(F)
        self.u = list(u)
        self._shapes: dict = {}  # (a, bytes of x) -> A^{N_a}(x), see shape
        self._perp_H: dict = {}  # bytes of x -> nabla-perp_x H, see perp_H
        self._rays: dict = {}  # bytes of x -> the bundle on the ray along x

    @property
    def F(self) -> Immersion:
        return self._F()

    @cached_property
    def f(self):
        f, self.T = self.F.map_and_tangent(self.u)  # one call caches both
        return f

    @cached_property
    def T(self):
        self.f, T = self.F.map_and_tangent(self.u)
        return T

    @cached_property
    def S(self):
        """S[a][b] = d^2 f / du_a du_b, from one call of the generated function."""
        return self.F._generated_hessian(*self.u)

    @cached_property
    def amb(self):
        """Ambient metric at f(u); DegenerateMetricError where it is degenerate."""
        return self.F.ambient.matrix_at(self.f)

    @cached_property
    def g(self):
        """Induced metric g_ab = amb(T_a, T_b): the bundle's one copy, which
        ``g_inv``, the frame and ``induced_metric`` all read."""
        amb, T, m = self.amb, self.T, self.F.m
        g = Matrix([None] * m for _ in range(m))
        for a in range(m):
            for b in range(a, m):
                g[a][b] = g[b][a] = bilinear(amb, T[a], T[b])
        return g

    @cached_property
    def g_inv(self):
        """Inverse of ``g``; raises DegenerateMetricError where g is degenerate."""
        det = mat_det(self.g)
        if jets.failing(abs(const_term(det)) <= semimetric.DET_TOL):
            raise semimetric.DegenerateMetricError(
                "induced metric degenerate; tangent projection undefined"
            )
        return mat_inverse(self.g, det)

    @cached_property
    def normals(self):
        """(vector, sign) pairs: a +-1 orthonormal basis of the normal space."""
        m, n = self.F.m, self.F.ambient.dim
        self.g_inv  # a degenerate induced metric fails first, even with p = 0

        def normal_part(r):
            coef = _tangential_coords(self, r)
            for a in range(m):
                r = [r[k] - coef[a] * self.T[a][k] for k in range(n)]
            return r

        normals = _unit_basis(self.amb, n - m, NORMAL_TOL, normal_part)
        if len(normals) < n - m:
            raise DegenerateNormalError(
                f"normal space degenerate at {tuple(const_term(x) for x in self.u)}: "
                f"found {len(normals)} of {n - m} unit normals"
            )
        return normals

    @cached_property
    def frame(self):
        """(vector, sign) pairs: an orthonormal frame of the induced metric."""
        frame = _unit_basis(self.g, self.F.m, FRAME_PIVOT_TOL)
        if len(frame) < self.F.m:
            raise semimetric.DegenerateMetricError(
                "tangent frame cannot be orthonormalized (degenerate or null pivots)"
            )
        return frame

    @cached_property
    def rank(self):
        """Numerical rank of T, one SVD per bundle; None where T is not finite."""
        T = np.array(self.T, dtype=float)
        if not np.isfinite(T).all():
            return None
        return np.linalg.matrix_rank(T, tol=RANK_TOL)

    @cached_property
    def b_diagonal(self):
        """B(E_j, E_j) over the orthonormal frame, in frame order."""
        return [_b_value(self, vec, vec) for vec, _ in self.frame]

    @cached_property
    def b_frame(self):
        """{(i, j): B(E_i, E_j)} over the frame pairs with i <= j, row-major."""
        frame, diag = self.frame, self.b_diagonal
        return {(i, j): diag[i] if i == j else _b_value(self, frame[i][0], frame[j][0])
                for i in range(len(frame)) for j in range(i, len(frame))}

    @cached_property
    def H(self):
        """H = (1/m) sum_j eps_j B(E_j, E_j), summed in frame order."""
        n = self.F.ambient.dim
        acc = [0.0] * n
        for (_, sign), b in zip(self.frame, self.b_diagonal):
            for k in range(n):
                acc[k] = acc[k] + sign * b[k]
        return [c / float(self.F.m) for c in acc]

    def ray(self, x) -> "_Point":
        """The bundle on the order-1 jet ray through u along x, built once per
        x (floats, or sample arrays beside arrays in u)."""
        key = _bytes(x)
        pt = self._rays.get(key)
        if pt is None:
            pt = self._rays[key] = _Point(self.F, [Jet((b, s)) for b, s in zip(self.u, x)])
        return pt

    def shape(self, a: int, x):
        """A^{N_a}(x) at float x, computed once per (a, x): the duality loop
        reads each A(e_i) for every e_j."""
        key = (a, _bytes(x))
        val = self._shapes.get(key)
        if val is None:
            val = self._shapes[key] = _shape_value(self, a, x)
        return val

    def perp_H(self, x):
        """The normal-bundle derivative of H along float x, computed once per x."""
        key = _bytes(x)
        val = self._perp_H.get(key)
        if val is None:
            val = self._perp_H[key] = _perp_derivative(self, x, lambda q: q.H)
        return val

    @cached_property
    def ambient_christoffel(self):
        return self.F.ambient.christoffel(list(self.f))

    def gamma_term(self, vectors):
        """Ambient connection term G^k_ij a^i b^j at f(u), for the ambient
        vectors (a, b) that ``vectors()`` returns; a flat ambient's term is
        zero, and it never builds them."""
        ambient = self.F.ambient
        if not ambient.pattern:
            return [0.0] * ambient.dim
        return connection_term(ambient, self.ambient_christoffel, *vectors())


def _point(F: Immersion, u) -> _Point:
    """The bundle at the float point u, memoized on F by the floats' bytes."""
    key = _bytes(u)
    pt = F._points.get(key)
    if pt is None:
        pt = F._points[key] = _Point(F, u)
    return pt


def _at(F: Immersion, u) -> _Point:
    """The bundle at the float point u, or a fresh one over sample arrays."""
    if any(isinstance(c, np.ndarray) for c in u):
        return _Point(F, u)
    return _point(F, [float(c) for c in u])


def _checked(F: Immersion, u) -> _Point:
    """The bundle at u, once the differential has full rank there."""
    pt = _at(F, u)
    if pt.rank is None:
        raise ValueError(f"differential is not finite at {tuple(u)}")
    if pt.rank < F.m:
        raise RankDeficiencyError(f"differential has rank < {F.m} at {tuple(u)}")
    return pt


def _induced(F: Immersion, u):
    """The bundle's induced metric at the float point u (or over sample
    arrays), once it is nondegenerate."""
    pt = _at(F, u)
    pt.g_inv  # raises DegenerateMetricError on a degenerate induced metric
    return pt.g


def induced_metric(F: Immersion, u):
    """Induced metric matrix at u, with rank and degeneracy checks."""
    _checked(F, u)
    return Matrix(list(row) for row in _induced(F, u))


# -- normal space ---------------------------------------------------------------


@dataclass(frozen=True)
class NormalBasis:
    """Orthonormal (+-1) basis of the normal space at a point."""

    point: tuple
    vectors: tuple  # p ambient vectors
    signs: tuple  # g-squared-norms, each +-1

    def __len__(self):
        return len(self.vectors)


def normal_basis(F: Immersion, u) -> NormalBasis:
    pt = _checked(F, u)
    pt.amb  # a degenerate ambient metric is named as such, not as the normal space
    try:
        normals = pt.normals
    except semimetric.DegenerateMetricError as exc:
        # tangent and normal radicals coincide: the normal space is degenerate
        raise DegenerateNormalError(
            f"normal space degenerate at {tuple(pt.u)}: {exc}"
        ) from None
    return NormalBasis(
        point=tuple(pt.u),
        vectors=tuple(v for v, _ in normals),
        signs=tuple(s for _, s in normals),
    )


def _normal_projection(pt: _Point, amb_vec):
    n = pt.F.ambient.dim
    out = [0.0] * n
    for vec, sign in pt.normals:
        proj = sign * bilinear(pt.amb, amb_vec, vec)
        for k in range(n):
            out[k] = out[k] + proj * vec[k]
    return out


def _tangential_coords(pt: _Point, amb_vec):
    """Intrinsic coordinates of the tangential part of an ambient vector."""
    rhs = [bilinear(pt.amb, amb_vec, pt.T[b]) for b in range(pt.F.m)]
    return mat_vec(pt.g_inv, rhs)


# -- fundamental forms ------------------------------------------------------------


def _push(T, x):
    n = len(T[0])
    return [sum(x[a] * T[a][k] for a in range(len(T))) for k in range(n)]


def _ambient_derivative(pt: _Point, x, field):
    """Ambient covariant derivative along intrinsic x of an ambient-valued
    field, a map from bundles to duck components: its slope on the jet ray
    through pt along x plus the connection term at its base value."""
    vals = field(pt.ray(x))
    base = [c.coeffs[0] if isinstance(c, Jet) else c for c in vals]
    gam = pt.gamma_term(lambda: (_push(pt.T, x), base))
    return [_slope(vals[k]) + gam[k] for k in range(pt.F.ambient.dim)]


def _perp_derivative(pt: _Point, x, field):
    """Normal-bundle covariant derivative of a normal field along x."""
    return _normal_projection(pt, _ambient_derivative(pt, x, field))


def _gauss(pt: _Point, x, y):
    """nabla~_x df(y) for coordinate-constant x, y over duck scalars (ambient
    components): df(nabla_x y) + B(x, y) by the Gauss formula."""
    m, n = pt.F.m, pt.F.ambient.dim
    S = pt.S
    xy = [[x[a] * y[b] for b in range(m)] for a in range(m)]
    deriv = [
        sum(xy[a][b] * S[a][b][k] for a in range(m) for b in range(m))
        for k in range(n)
    ]
    gam = pt.gamma_term(lambda: (_push(pt.T, x), _push(pt.T, y)))
    return [deriv[k] + gam[k] for k in range(n)]


def _b_value(pt: _Point, x, y):
    """Second fundamental form B(x, y): the normal part of the Gauss formula."""
    return _normal_projection(pt, _gauss(pt, x, y))


def second_fundamental(F: Immersion, u, X, Y):
    """B(X, Y) at u for intrinsic tangent coordinates X, Y (ambient vector)."""
    return tuple(const_term(c) for c in _b_value(_at(F, u), list(X), list(Y)))


def _shape_value(pt: _Point, a: int, y):
    """Shape operator A^{N_a}(y) in intrinsic coordinates: minus the tangential
    part of the a-th normal field's ambient derivative along y."""
    wein = _ambient_derivative(pt, y, lambda q: q.normals[a][0])
    return [-c for c in _tangential_coords(pt, wein)]


def duality_residual(F: Immersion, u, X, Y, a: int) -> float:
    """|g(A(X), Y) - g~(B(X, Y), N_a)|: the two computations must agree."""
    normal_basis(F, u)  # checks the rank, both metrics and the normal space at u
    pt = _at(F, u)
    x, y = [float(c) for c in X], [float(c) for c in Y]
    lhs = bilinear(pt.g, pt.shape(a, x), y)
    rhs = bilinear(pt.amb, _b_value(pt, x, y), pt.normals[a][0])
    return abs(lhs - rhs)


# -- traces over the orthonormal tangent frame ------------------------------------


def mean_curvature(F: Immersion, u):
    """H = (1/m) sum_j eps_j B(E_j, E_j) over an orthonormal tangent frame."""
    return tuple(const_term(c) for c in _at(F, u).H)


def umbilical_residual(F: Immersion, u) -> float:
    """max_{i<=j} || B(E_i, E_j) - g(E_i, E_j) H || (coordinate Euclidean)."""
    pt = _at(F, u)
    frame, h = pt.frame, pt.H
    worst = 0.0
    for (i, j), b in pt.b_frame.items():
        gij = frame[i][1] if i == j else 0.0
        resid = euclid_norm([b[k] - gij * h[k] for k in range(F.ambient.dim)])
        worst = max(worst, resid)
    return worst


def geodesic_residual(F: Immersion, u) -> float:
    """max over frame pairs of ||B(E_i, E_j)||, from 0.0 in frame-pair order;
    zero iff totally geodesic at u.  Over sample arrays, each sample's value
    (``largest``)."""
    norms = [euclid_norm([const_term(c) for c in b]) for b in _at(F, u).b_frame.values()]
    return largest([0.0, *norms])


def parallel_H_residual(F: Immersion, u, X) -> float:
    """Norm of the normal-bundle derivative of H in direction X."""
    val = _at(F, u).perp_H([float(c) for c in X])
    return euclid_norm([const_term(c) for c in val])


def axis_derivatives(F: Immersion, samples) -> None:
    """Fill every float point's ``shape`` and ``perp_H`` memos along the
    coordinate axes, A^{N_d}(e_j) for every unit normal d and nabla-perp_{e_j} H,
    in one pass over lanes: lane i * m + j holds point i and axis e_j.  The
    pass reads one bundle over the lane arrays (each point's u repeated m
    times) and its one jet ray along the axes, whose slopes are lane arrays
    too; per lane it does the float operations of that point's ray along e_j.
    Where the pass raises anything or sets a numpy flag, it fills nothing,
    and each point builds its own rays on first use: a coordinate that is not
    finite is one such case, since the generated code refuses it on arrays
    (``codegen.compiled``), where a float can raise and an array pass
    silently."""
    try:
        with np.errstate(all="raise", under="ignore"):
            points = np.array(samples, dtype=float).reshape(len(samples), F.m)
            axes = np.eye(F.m)
            lanes = _Point(F, list(np.repeat(points, F.m, axis=0).T))
            slopes = list(np.tile(axes, (len(points), 1)).T)
            shapes = [_shape_value(lanes, d, slopes) for d in range(len(lanes.normals))]
            perp = _perp_derivative(lanes, slopes, lambda q: q.H)
    except Exception:  # each point differentiates on its own, and raises its own error
        return
    keys = [_bytes(x) for x in axes.tolist()]
    for i, u in enumerate(points.tolist()):
        pt = _point(F, u)
        for j, key in enumerate(keys):
            lane = i * F.m + j
            for d, shape in enumerate(shapes):
                pt._shapes[(d, key)] = _sample(shape, lane)
            pt._perp_H[key] = _sample(perp, lane)


# -- covariant derivative of B ---------------------------------------------------


def _intrinsic_nabla(pt: _Point, z, x):
    """(nabla_z x)^a for coordinate-constant x: the tangential part of the
    Gauss formula, in intrinsic coordinates."""
    return _tangential_coords(pt, _gauss(pt, z, x))


def nabla_B(F: Immersion, u, X, Y, Z):
    """(nabla B)(X, Y, Z) for coordinate-constant intrinsic fields: the
    normal-bundle derivative of B(X, Y) along Z, less B(nabla_Z X, Y) and
    B(X, nabla_Z Y)."""
    pt = _at(F, u)
    x, y, z = list(X), list(Y), list(Z)
    perp = _perp_derivative(pt, z, lambda q: _b_value(q, x, y))
    bx = _b_value(pt, _intrinsic_nabla(pt, z, x), y)
    by = _b_value(pt, _intrinsic_nabla(pt, z, y), x)
    return tuple(const_term(perp[k] - bx[k] - by[k]) for k in range(F.ambient.dim))


# -- frame triple and umbilical diagnostic ----------------------------------------


def null_triple(F: Immersion, u):
    """Two null tangent vectors with g(xi_i, xi_j) = 1 plus a unit timelike one.

    Requires the induced metric to have index 2 (signature (-, -, +)); built
    from an orthonormal tangent frame, so it is deterministic per point.
    """
    frame = _at(F, u).frame
    space = [vec for vec, sign in frame if sign > 0]
    time = [vec for vec, sign in frame if sign < 0]
    if len(space) != 1 or len(time) != 2:
        raise ValueError("null triple requires induced signature (-, -, +)")
    es, et1, et2 = space[0], time[0], time[1]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    xi_i = [(es[a] + et1[a]) * inv_sqrt2 for a in range(F.m)]
    xi_j = [(es[a] - et1[a]) * inv_sqrt2 for a in range(F.m)]
    return tuple(xi_i), tuple(xi_j), tuple(et2)


def umbilical_diagnostic(F: Immersion, u, xi_i, xi_j, xi_k):
    """D1 = 4 B(xi_i, xi_j) + 3 B(xi_k, xi_k) and D2 = B(xi_i, xi_i).

    At a totally umbilical point D1 equals H and D2 vanishes, so D1 close to
    zero forces H close to zero.  The frame must satisfy g(xi_i, xi_j) = 1,
    g(xi_i, xi_i) = g(xi_j, xi_j) = 0, g(xi_k, xi_k) = -1 and orthogonality of
    xi_k to both null directions, each to within NULL_TRIPLE_TOL.
    """
    worst = max_gram_residual(induced_metric(F, u), xi_i, xi_j, xi_k)
    if worst > NULL_TRIPLE_TOL:
        raise ValueError(f"frame violates the null-triple conditions by {worst:.3e}")
    pt = _at(F, u)
    bij = _b_value(pt, list(xi_i), list(xi_j))
    bkk = _b_value(pt, list(xi_k), list(xi_k))
    bii = _b_value(pt, list(xi_i), list(xi_i))
    n = F.ambient.dim
    d1 = tuple(const_term(4.0 * bij[k] + 3.0 * bkk[k]) for k in range(n))
    d2 = tuple(const_term(bii[k]) for k in range(n))
    return d1, d2


# -- helix transfer (ambient curvature measurement) --------------------------------


@dataclass(frozen=True, eq=False)  # arrays have no truth value to compare by
class TransferReport:
    """A pushed-forward helix measured in the ambient chart: its curvatures (arrays,
    seed-built N and W) and their spread, and the geodesic, isometry and nullity checks."""

    curvatures: CurvatureSample
    constancy: dict
    geodesic_samples: tuple
    geodesic_max: float
    isometry_max: float
    nullity_max: float


def _pushed(u, z, F: Immersion):
    """``(f(u), df(z))``: a point of the pushed-forward curve and its tangent."""
    f, T = F.map_and_tangent(u)
    return f, _push(T, z)


def _ambient_frames(curve: helixmod.SampledCurve, policy: ScreenPolicy):
    """Seed-built transversal and first-normal screen direction, as
    component-major arrays over the samples the acceleration reaches.

    ``_ambient_frame`` runs once on the sample arrays, once on each side
    where the samples split on a seed or candidate, and per sample where a
    pass fails (``nullframe._on_samples``).  W's sign is then made
    continuous along the samples by ``frame_field``'s rule.
    """
    n = curve.metric.dim
    seeds = policy.seed_indices(n)
    seeds += [i for i in range(n) if i not in seeds]
    cand = curve.cov("zeta")
    count = cand.shape[-1]
    zeta = helixmod._middle(curve.fields["zeta"], count)
    ns, ws = map(np.array, _on_samples(count, _ambient_frame, curve.g(count),
                                       list(zeta), list(cand), seeds))
    return ns, np.array(_flip_signs(_neighbour_dots(ws))) * ws


def _ambient_frame(g, z, cand, seeds):
    """``(N, W)`` at a sample (floats) or over sample arrays.

    N is ``nullframe.null_transversal`` over ``seeds``: the policy seeds
    followed by the axes the policy leaves out.  W is the screen projection
    of the candidate ``cand`` (the acceleration), normalised to
    g(W, W) = -1; where its screen part degenerates (or is NaN), the seed
    axes are projected in turn.  Over sample arrays a candidate is taken or
    passed over where every sample agrees (``jets.agreed``), and
    PerSampleCheck raised where they split, for the caller to run each side
    of the split apart.  This W rule is the only one for ambient dimensions above 3.
    """
    n = len(z)
    _, _, nv = null_transversal(g, z, seeds, "along the ambient curve")
    for attempt in range(n + 1):
        proj, w2 = screen_projection(g, cand, z, nv)
        if jets.agreed(w2 > 1e-12):
            return nv, unit_screen(proj, w2)
        nxt = seeds[attempt % len(seeds)]
        cand = [1.0 if i == nxt else 0.0 for i in range(n)]
    raise ValueError("no timelike screen direction along the ambient curve")


def _on_trace_points(path: np.ndarray, per: int, fn, *args):
    """``fn(*args, u)`` at every ``len(path) // per``-th row u of ``path``,
    from the first: one pass on the rows' component arrays (two more where
    the rows split on a pivot, per row where a pass fails), with each float
    in the result spread over the rows."""
    u = list(path[:: max(1, len(path) // per)].T)
    return _spread(_on_samples(len(u[0]), fn, *args, u), len(u[0]))


def _isometry_gap(F: Immersion, metric: MetricField, u):
    """``(g, gap)`` at u (floats or sample arrays): the induced metric g, then
    the chart metric, and the largest entrywise |g - chart|, row-major."""
    gp, gh = _induced(F, u), metric.matrix_at(u)
    return gp, largest([abs(x - y) for a, b in zip(gp, gh) for x, y in zip(a, b)])


def helix_transfer(F: Immersion, spec: helixmod.HelixSpec, grid, step: float,
                   policy: ScreenPolicy | None = None, project_every: int = 0,
                   drift_limit: float = helixmod.DRIFT_LIMIT) -> TransferReport:
    """Push an intrinsic helix into the ambient chart and re-measure it there.

    The helix is synthesized on its own (intrinsic) metric, which must match
    the immersion's induced metric to ISOMETRY_TOL along the curve; the
    pushed-forward curve is framed in the ambient chart with the ambient
    screen policy, and the per-sample ambient curvature functions plus the
    immersion's geodesic residual are reported.  ``project_every`` and
    ``drift_limit`` go to ``helix.synthesize``.

    Isometry is checked at every ``len // 64``-th trace point, and the
    geodesic residual read at every ``len // 32``-th, each as one pass over
    the points' sample arrays (``_on_trace_points``); the index check reads
    the first point's g from the isometry pass.
    """
    policy = policy or ScreenPolicy()
    if F.m != 3:
        raise ValueError("helix transfer needs a 3-dimensional intrinsic chart")
    grid = [float(t) for t in grid]
    helixmod.require_stencil_samples("transfer", grid, "two", TRANSFER_MIN_SAMPLES)
    trace = helixmod.synthesize(spec, grid, step, project_every=project_every,
                                drift_limit=drift_limit)
    path = np.asarray(trace.points)
    g, gaps = _on_trace_points(path, 64, _isometry_gap, F, spec.metric)
    iso_max = max([0.0, *gaps.tolist()])
    if iso_max > ISOMETRY_TOL:
        raise ValueError(
            f"helix metric disagrees with the pullback by {iso_max:.3e}: "
            "the immersion is not isometric for this chart metric"
        )
    idx0 = semimetric.metric_index(_sample(g, 0))
    if idx0 != 2:
        raise ValueError(f"induced metric has index {idx0} along the curve, need 2")

    # the ambient frames are measured at the same decimated spacing as the
    # intrinsic trace extraction (stencil noise scales with frame/spacing)
    view = trace.view
    size = len(view.times)
    points, zeta = _spread(_on_samples(size, _pushed, list(view.points),
                                       list(view.fields["zeta"]), F), size)
    curve = helixmod.SampledCurve(F.ambient, view.times, points, zeta, view.dt)
    with np.errstate(all="ignore"):  # g before the connection, as a degenerate g names it
        nullity_max = max(abs(bilinear(curve.g(size), zeta, zeta)).tolist())
    curve.fields["n"], curve.fields["w"] = _ambient_frames(curve, policy)
    samples = curve.curvatures()

    geo_samples = tuple(_on_trace_points(path, 32, geodesic_residual, F).tolist())
    return TransferReport(
        curvatures=samples,
        constancy=helixmod.constancy_report(samples),
        geodesic_samples=geo_samples,
        geodesic_max=max(geo_samples),
        isometry_max=iso_max,
        nullity_max=nullity_max,
    )
