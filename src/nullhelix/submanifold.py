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
construction itself -- that is how the covariant derivatives of B, of the
shape operator and of H are obtained without finite differences.

All forms read one memoized bundle per chart point and per jet ray
(``_Point``): f(u), T, S, the ambient metric and connection, the induced
metric and its inverse, the +-1 normals and the orthonormal tangent frame,
each computed once, on first use.

f and T come from one Python function per immersion, generated on first use
by ``codegen`` (the generator a metric's connection uses): the components
and their ``exprparse.derivative`` trees in u1..um, T[a][k] = d f_k / d u_a.
It takes floats, order-1 jet rays and nested jets alike, so S and the
derivatives along rays differentiate it further.  When it raises, the
components and then the derivative trees are evaluated again with
``exprparse._eval``, so the ``DomainError`` names the subexpression.
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
from .nullframe import (ScreenPolicy, continuity_signs, euclid_norm, frame_curvatures,
                        null_transversal)
from .semimetric import (SemiMetric, bilinear, connection_term, full_support, mat_det,
                         mat_inverse, mat_vec)

RANK_TOL = 1e-9
NORMAL_TOL = 1e-10
FRAME_PIVOT_TOL = 1e-10
# helix transfer chains two stencils (the acceleration, then cov N), each
# trimming FD_RADIUS samples per side, and its constancy check needs two samples
TRANSFER_MIN_SAMPLES = 4 * helixmod.FD_RADIUS + 2


def _slope(v):
    """First coefficient of a value on an order-1 jet ray (0 for constants)."""
    return v.coeffs[1] if isinstance(v, Jet) else 0.0


class RankDeficiencyError(ValueError):
    """The differential of the immersion drops rank at the point."""


class DegenerateNormalError(ValueError):
    """The normal space is degenerate; no +-1 orthonormal basis exists."""


class Immersion:
    """Parametrized submanifold f: u-chart -> ambient chart."""

    def __init__(self, intrinsic_dim: int, ambient: SemiMetric, components):
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
        self._points: dict = {}  # memo key -> _Point, see _point

    @classmethod
    def from_texts(cls, intrinsic_dim: int, ambient: SemiMetric, texts) -> "Immersion":
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
    def _generated(self):
        """The generated ``(f, T)`` function of u1..um, T[a][k] from the tree
        of d f_k / d u_a; its errors replay the components, then those trees."""
        derivs = [[exprparse.derivative(c, name) for c in self.components]
                  for name in self._uvars]
        em = codegen.Emitter(self._uvars)
        f = codegen.nested([em.code(c) for c in self.components], "[]")
        T = codegen.nested([[em.code(d) for d in row] for row in derivs], "[]")
        returned = f"{f}, {T}"
        body = [*(f"{name} = {rhs}" for name, rhs in em.kept([returned])),
                f"return {returned}"]
        trees = (*self.components, *(d for row in derivs for d in row))
        return codegen.compiled("_immersion", self._uvars, (), body, trees)

    def map_and_tangent(self, u):
        """(f(u), T) over duck coordinates, from one call of the generated
        function: T[a] = d f / d u_a."""
        return self._generated(*u)


# -- the point bundle -----------------------------------------------------------


def _unit(c: int, n: int):
    return [1.0 if k == c else 0.0 for k in range(n)]


def _unit_basis(g, support, count: int, tol: float, project=list):
    """+-1 Gram-Schmidt in g (summed over ``support``) over the projected
    coordinate axes, in order: up to ``count`` (vector, g(vector, vector))
    pairs, skipping vanishing or null remainders; pivots use constant parts,
    so a jet ray keeps its base's."""
    accepted = []
    for c in range(len(g)):
        if len(accepted) == count:
            break
        r = project(_unit(c, len(g)))
        for vec, sign in accepted:
            proj = bilinear(g, support, r, vec)
            r = [r[k] - sign * proj * vec[k] for k in range(len(r))]
        # x * x gives inf where x ** 2 would raise OverflowError
        size = sum(x * x for x in map(const_term, r))
        if size <= 1e-18:
            continue  # the axis lies in the span already handled
        nu = bilinear(g, support, r, r)
        nu0 = const_term(nu)
        if abs(nu0) <= tol * max(1.0, size):
            continue  # null remainder: unusable for a +-1 basis
        sign = 1.0 if nu0 > 0.0 else -1.0
        scale = jets.sqrt(sign * nu)
        accepted.append((tuple(x / scale for x in r), sign))
    return accepted


class _Point:
    """Pointwise data of an immersion at u (floats, or jets along a ray), each
    piece computed on first use.  Bundles are shared: nothing read from one is
    written to, and public functions return copies."""

    def __init__(self, F: Immersion, u):
        # weak: F holds its bundles, so a strong reference back would make a
        # cycle that outlives each run until the cyclic collector finds it
        self._F = weakref.ref(F)
        self.u = list(u)

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
        """S[a][b] = d^2 f / du_a du_b: T[a] differentiated along the b-th axis."""
        m = self.F.m
        return [[_along(self, _unit(b, m), lambda q: q.T[a])[0] for b in range(m)]
                for a in range(m)]

    @cached_property
    def amb(self):
        """Ambient metric at f(u); DegenerateMetricError where it is degenerate."""
        return self.F.ambient.matrix_at(self.f)

    @cached_property
    def g(self):
        """Induced metric g_ab = amb(T_a, T_b), summed over the ambient
        support: the bundle's one copy, which ``g_inv``, the frame and
        ``induced_metric`` all read."""
        amb, T, sup = self.amb, self.T, self.F.ambient.support
        m = self.F.m
        g = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                g[a][b] = g[b][a] = bilinear(amb, sup, T[a], T[b])
        return g

    @cached_property
    def g_inv(self):
        """Inverse of ``g``; raises DegenerateMetricError where g is degenerate."""
        det = mat_det(self.g)
        if abs(const_term(det)) <= semimetric.DET_TOL:
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

        normals = _unit_basis(self.amb, self.F.ambient.support, n - m, NORMAL_TOL,
                              normal_part)
        if len(normals) < n - m:
            raise DegenerateNormalError(
                f"normal space degenerate at {tuple(const_term(x) for x in self.u)}: "
                f"found {len(normals)} of {n - m} unit normals"
            )
        return normals

    @cached_property
    def frame(self):
        """(vector, sign) pairs: an orthonormal frame of the induced metric."""
        frame = _unit_basis(self.g, full_support(self.F.m), self.F.m, FRAME_PIVOT_TOL)
        if len(frame) < self.F.m:
            raise semimetric.DegenerateMetricError(
                "tangent frame cannot be orthonormalized (degenerate or null pivots)"
            )
        return frame

    @cached_property
    def ambient_christoffel(self):
        return self.F.ambient.christoffel(list(self.f))

    def gamma_term(self, a, b):
        """Ambient connection term G^k_ij a^i b^j at f(u)."""
        return connection_term(self.F.ambient, self.ambient_christoffel, a, b)


def _point(F: Immersion, u) -> _Point:
    """The bundle at u, memoized on F at float points and first-order jet rays
    over floats, keyed by the floats' bytes (so -0.0 and 0.0 stay apart)."""
    flat = u
    if all(type(c) is Jet and len(c.coeffs) == 2 for c in u):
        flat = [v for c in u for v in c.coeffs]
    if len(u) != F.m or not all(type(v) is float for v in flat):
        return _Point(F, u)
    key = struct.pack(f"{len(flat)}d", *flat)
    pt = F._points.get(key)
    if pt is None:
        pt = F._points[key] = _Point(F, u)
    return pt


def _at(F: Immersion, u) -> _Point:
    """The bundle at the float point u."""
    return _point(F, [float(c) for c in u])


def _along(pt: _Point, x, field):
    """(derivative, base value) of ``field``, a map from bundles to duck
    components, on the jet ray through pt along x; the base keeps pt's nesting."""
    vals = field(_point(pt.F, [Jet((pt.u[b], x[b])) for b in range(len(pt.u))]))
    return ([_slope(c) for c in vals],
            [c.coeffs[0] if isinstance(c, Jet) else c for c in vals])


def _checked(F: Immersion, u) -> _Point:
    """The bundle at u, once the differential has full rank there."""
    pt = _at(F, u)
    T = np.array(pt.T, dtype=float)
    if not np.isfinite(T).all():
        raise ValueError(f"differential is not finite at {tuple(u)}")
    if np.linalg.matrix_rank(T, tol=RANK_TOL) < F.m:
        raise RankDeficiencyError(f"differential has rank < {F.m} at {tuple(u)}")
    return pt


def _induced(F: Immersion, u):
    """The bundle's induced metric at the float point u, once it is nondegenerate."""
    pt = _at(F, u)
    pt.g_inv  # raises DegenerateMetricError on a degenerate induced metric
    return pt.g


def induced_metric(F: Immersion, u):
    """Induced metric matrix at u, with rank and degeneracy checks."""
    _checked(F, u)
    return [list(row) for row in _induced(F, u)]


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
        proj = sign * bilinear(pt.amb, pt.F.ambient.support, amb_vec, vec)
        for k in range(n):
            out[k] = out[k] + proj * vec[k]
    return out


def _tangential_coords(pt: _Point, amb_vec):
    """Intrinsic coordinates of the tangential part of an ambient vector."""
    m = pt.F.m
    rhs = [bilinear(pt.amb, pt.F.ambient.support, amb_vec, pt.T[b]) for b in range(m)]
    return mat_vec(pt.g_inv, full_support(m), rhs)


# -- fundamental forms ------------------------------------------------------------


def _push(T, x):
    n = len(T[0])
    return [sum(x[a] * T[a][k] for a in range(len(T))) for k in range(n)]


def _ambient_derivative(pt: _Point, x, field):
    """Ambient covariant derivative along intrinsic x of an ambient-valued field."""
    dv, base = _along(pt, x, field)
    gam = pt.gamma_term(_push(pt.T, x), base)
    return [dv[k] + gam[k] for k in range(pt.F.ambient.dim)]


def _perp_derivative(pt: _Point, x, field):
    """Normal-bundle covariant derivative of a normal field along x."""
    return _normal_projection(pt, _ambient_derivative(pt, x, field))


def _gauss(pt: _Point, x, y):
    """nabla~_x df(y) for coordinate-constant x, y over duck scalars (ambient
    components): df(nabla_x y) + B(x, y) by the Gauss formula."""
    m, n = pt.F.m, pt.F.ambient.dim
    S = pt.S
    deriv = [
        sum(x[a] * y[b] * S[a][b][k] for a in range(m) for b in range(m))
        for k in range(n)
    ]
    gam = pt.gamma_term(_push(pt.T, x), _push(pt.T, y))
    return [deriv[k] + gam[k] for k in range(n)]


def _b_value(pt: _Point, x, y):
    """Second fundamental form B(x, y): the normal part of the Gauss formula."""
    return _normal_projection(pt, _gauss(pt, x, y))


def second_fundamental(F: Immersion, u, X, Y):
    """B(X, Y) at u for intrinsic tangent coordinates X, Y (ambient vector)."""
    return tuple(const_term(c) for c in _b_value(_at(F, u), list(X), list(Y)))


def _weingarten(pt: _Point, a: int, x):
    """Ambient derivative of the a-th normal field along intrinsic x (duck)."""
    return _ambient_derivative(pt, x, lambda q: q.normals[a][0])


def _shape_value(pt: _Point, a: int, y):
    """Shape operator A^{N_a}(y) in intrinsic coordinates, over duck scalars."""
    return [-c for c in _tangential_coords(pt, _weingarten(pt, a, y))]


def shape_operator(F: Immersion, u, a: int, X):
    """A^{N_a}(X): minus the tangential part of the normal field's derivative."""
    return tuple(const_term(c) for c in _shape_value(_at(F, u), a, list(X)))


def duality_residual(F: Immersion, u, X, Y, a: int) -> float:
    """|g(A(X), Y) - g~(B(X, Y), N_a)|: the two computations must agree."""
    basis = normal_basis(F, u)  # checks the rank and both metrics at u
    pt = _at(F, u)
    lhs = bilinear(pt.g, full_support(F.m), list(shape_operator(F, u, a, X)), list(Y))
    b = second_fundamental(F, u, X, Y)
    rhs = bilinear(pt.amb, F.ambient.support, list(b), list(basis.vectors[a]))
    return abs(lhs - rhs)


# -- traces over the orthonormal tangent frame ------------------------------------


def _mean_curvature_value(pt: _Point):
    frame = pt.frame
    n = pt.F.ambient.dim
    acc = [0.0] * n
    for vec, sign in frame:
        b = _b_value(pt, vec, vec)
        for k in range(n):
            acc[k] = acc[k] + sign * b[k]
    return [c / float(pt.F.m) for c in acc]


def mean_curvature(F: Immersion, u):
    """H = (1/m) sum_j eps_j B(E_j, E_j) over an orthonormal tangent frame."""
    return tuple(const_term(c) for c in _mean_curvature_value(_at(F, u)))


def umbilical_residual(F: Immersion, u) -> float:
    """max_{i<=j} || B(E_i, E_j) - g(E_i, E_j) H || (coordinate Euclidean)."""
    pt = _at(F, u)
    frame = pt.frame
    h = _mean_curvature_value(pt)
    worst = 0.0
    for i, (ei, si) in enumerate(frame):
        for j in range(i, len(frame)):
            ej, _ = frame[j]
            b = _b_value(pt, ei, ej)
            gij = si if i == j else 0.0
            resid = euclid_norm([b[k] - gij * h[k] for k in range(F.ambient.dim)])
            worst = max(worst, resid)
    return worst


def geodesic_residual(F: Immersion, u) -> float:
    """max over frame pairs of ||B(E_i, E_j)||; zero iff totally geodesic at u."""
    pt = _at(F, u)
    frame = pt.frame
    worst = 0.0
    for i, (ei, _) in enumerate(frame):
        for j in range(i, len(frame)):
            ej, _ = frame[j]
            b = _b_value(pt, ei, ej)
            worst = max(worst, euclid_norm([const_term(c) for c in b]))
    return worst


def parallel_H_residual(F: Immersion, u, X) -> float:
    """Norm of the normal-bundle derivative of H in direction X."""
    val = _perp_derivative(_at(F, u), list(X), _mean_curvature_value)
    return euclid_norm([const_term(c) for c in val])


# -- covariant derivatives of B and A ---------------------------------------------


def _intrinsic_nabla(pt: _Point, z, x):
    """(nabla_z x)^a for coordinate-constant x: the tangential part of the
    Gauss formula, in intrinsic coordinates."""
    return _tangential_coords(pt, _gauss(pt, z, x))


def _nabla_b_value(pt: _Point, x, y, z):
    """(nabla B)(x, y, z) over duck scalars (ambient components)."""
    perp = _perp_derivative(pt, z, lambda q: _b_value(q, x, y))
    zx = _intrinsic_nabla(pt, z, x)
    zy = _intrinsic_nabla(pt, z, y)
    bx = _b_value(pt, zx, y)
    by = _b_value(pt, zy, x)
    return [perp[k] - bx[k] - by[k] for k in range(pt.F.ambient.dim)]


def nabla_B(F: Immersion, u, X, Y, Z):
    """(nabla B)(X, Y, Z) for coordinate-constant intrinsic fields."""
    return tuple(const_term(c) for c in
                 _nabla_b_value(_at(F, u), list(X), list(Y), list(Z)))


def nabla2_B(F: Immersion, u, X, Y, Z, V):
    """(nabla^2 B)(X, Y, Z, V): derivative of nabla B minus slot corrections."""
    pt = _at(F, u)
    x, y, z, v = list(X), list(Y), list(Z), list(V)
    perp = _perp_derivative(pt, v, lambda q: _nabla_b_value(q, x, y, z))
    vx = _intrinsic_nabla(pt, v, x)
    vy = _intrinsic_nabla(pt, v, y)
    vz = _intrinsic_nabla(pt, v, z)
    # nabla B is a tensor, so the corrections take the float values as constants
    tx = _nabla_b_value(pt, vx, y, z)
    ty = _nabla_b_value(pt, x, vy, z)
    tz = _nabla_b_value(pt, x, y, vz)
    return tuple(
        const_term(perp[k] - tx[k] - ty[k] - tz[k])
        for k in range(F.ambient.dim)
    )


def nabla_shape(F: Immersion, u, a: int, X, Y):
    """(nabla_X A^N)(Y) = nabla_X(A(Y)) - A^{perp-derivative of N}(Y) - A(nabla_X Y)."""
    pt = _at(F, u)
    x, y = list(X), list(Y)
    m = F.m

    # intrinsic covariant derivative of the tangent field s -> A(u + sX)(Y)
    da, abase = _along(pt, x, lambda q: _shape_value(q, a, y))
    gam = _intrinsic_nabla(pt, x, abase)
    term1 = [da[al] + gam[al] for al in range(m)]

    # A with the perp-derivative of N_a in the normal slot (pointwise linear)
    perp_n = _normal_projection(pt, _weingarten(pt, a, x))
    term2 = [0.0] * m
    for d, (vec, sign) in enumerate(pt.normals):
        coeff = sign * bilinear(pt.amb, F.ambient.support, perp_n, vec)
        advals = _shape_value(pt, d, y)
        for al in range(m):
            term2[al] = term2[al] + coeff * advals[al]

    # A applied to nabla_X Y (linear in the tangent slot)
    term3 = _shape_value(pt, a, _intrinsic_nabla(pt, x, y))

    return tuple(
        const_term(term1[al] - term2[al] - term3[al]) for al in range(m)
    )


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


def umbilical_diagnostic(F: Immersion, u, xi_i, xi_j, xi_k, tol: float = 1e-8):
    """D1 = 4 B(xi_i, xi_j) + 3 B(xi_k, xi_k) and D2 = B(xi_i, xi_i).

    At a totally umbilical point D1 equals H and D2 vanishes, so D1 close to
    zero forces H close to zero.  The frame must satisfy g(xi_i, xi_j) = 1,
    g(xi_i, xi_i) = g(xi_j, xi_j) = 0, g(xi_k, xi_k) = -1 and orthogonality of
    xi_k to both null directions.
    """
    g, sup = induced_metric(F, u), full_support(F.m)
    checks = (
        bilinear(g, sup, list(xi_i), list(xi_i)),
        bilinear(g, sup, list(xi_j), list(xi_j)),
        bilinear(g, sup, list(xi_i), list(xi_j)) - 1.0,
        bilinear(g, sup, list(xi_i), list(xi_k)),
        bilinear(g, sup, list(xi_j), list(xi_k)),
        bilinear(g, sup, list(xi_k), list(xi_k)) + 1.0,
    )
    worst = max(abs(c) for c in checks)
    if worst > tol:
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


@dataclass(frozen=True)
class TransferReport:
    """Ambient curvature samples of a pushed-forward intrinsic helix."""

    times: tuple
    h: tuple
    k1: tuple
    k2: tuple
    constancy: dict
    geodesic_samples: tuple
    geodesic_max: float
    isometry_max: float
    nullity_max: float


def _ambient_frames(curve: helixmod.SampledCurve, policy: ScreenPolicy):
    """Seed-built transversal and first-normal screen direction per sample.

    N is ``nullframe.null_transversal`` over the policy seeds followed by the
    axes the policy leaves out.  W is the screen projection of the
    acceleration, normalised to g(W, W) = -1; where the acceleration's screen
    part degenerates, a seed axis is projected instead.  This W rule is the
    only one for ambient dimensions above 3.  Sign continuity along the
    samples the acceleration reaches is restored by ``continuity_signs``.
    """
    n, sup = curve.metric.dim, curve.metric.support
    seed_order = policy.seed_indices(n)
    seed_order += [i for i in range(n) if i not in seed_order]
    zetas, czetas = curve.fields["zeta"], curve.cov("zeta")
    ns, ws = [], []
    for k in curve.interior(1):
        g, z = curve.g(k), zetas[k]
        _, _, nv = null_transversal(g, sup, z, seed_order, "along the ambient curve")
        w = None
        cand = list(czetas[k])
        for attempt in range(n + 1):
            proj = [
                cand[i]
                - bilinear(g, sup, cand, nv) * z[i]
                - bilinear(g, sup, cand, list(z)) * nv[i]
                for i in range(n)
            ]
            w2 = -bilinear(g, sup, proj, proj)
            if w2 > 1e-12:
                scale = 1.0 / math.sqrt(w2)
                w = [c * scale for c in proj]
                break
            nxt = seed_order[attempt % len(seed_order)]
            cand = [1.0 if i == nxt else 0.0 for i in range(n)]
        if w is None:
            raise ValueError("no timelike screen direction along the ambient curve")
        ns.append(tuple(nv))
        ws.append(tuple(w))
    ws = [tuple(sign * c for c in w) for sign, w in zip(continuity_signs(ws), ws)]
    pad = [None] * helixmod.FD_RADIUS
    return pad + ns + pad, pad + ws + pad


def helix_transfer(F: Immersion, spec: helixmod.HelixSpec, grid, step: float,
                   policy: ScreenPolicy | None = None,
                   isometry_tol: float = 1e-6, project_every: int = 0,
                   drift_limit: float = helixmod.DRIFT_LIMIT) -> TransferReport:
    """Push an intrinsic helix into the ambient chart and re-measure it there.

    The helix is synthesized on its own (intrinsic) metric, which is checked
    against the immersion's induced metric along the curve; the pushed-forward
    curve is framed in the ambient chart with the ambient screen policy, and
    the per-sample ambient curvature functions plus the immersion's geodesic
    residual are reported.  ``project_every`` and ``drift_limit`` go to
    ``helix.synthesize``.
    """
    policy = policy or ScreenPolicy()
    if F.m != 3:
        raise ValueError("helix transfer needs a 3-dimensional intrinsic chart")
    grid = [float(t) for t in grid]
    kept = helixmod.decimated_count(grid)
    if kept < TRANSFER_MIN_SAMPLES:
        raise ValueError(
            f"transfer grid keeps {kept} samples after decimation to spacing "
            f"{helixmod.FD_SPACING}; the two chained 7-point stencils need at "
            f"least {TRANSFER_MIN_SAMPLES}"
        )
    trace = helixmod.synthesize(spec, grid, step, project_every=project_every,
                                drift_limit=drift_limit)
    iso_max = 0.0
    for u in trace.points[:: max(1, len(trace.points) // 64)]:
        gp = _induced(F, u)
        gh = spec.metric.matrix_at(u)
        iso_max = max(
            iso_max,
            max(abs(gp[i][j] - gh[i][j]) for i in range(3) for j in range(3)),
        )
    if iso_max > isometry_tol:
        raise ValueError(
            f"helix metric disagrees with the pullback by {iso_max:.3e}: "
            "the immersion is not isometric for this chart metric"
        )
    idx0 = semimetric.metric_index(_induced(F, trace.points[0]))
    if idx0 != 2:
        raise ValueError(f"induced metric has index {idx0} along the curve, need 2")

    # the ambient frames are measured at the same decimated spacing as the
    # intrinsic trace extraction (stencil noise scales with frame/spacing)
    view = trace.view
    points, zetas = [], []
    for u, z in zip(view.points, view.fields["zeta"]):
        f, T = F.map_and_tangent(u)
        points.append(tuple(f))
        zetas.append(tuple(_push(T, list(z))))
    curve = helixmod.SampledCurve(F.ambient, view.times, points, zetas, view.dt)

    sup = F.ambient.support
    nullity_max = max(
        abs(bilinear(curve.g(i), sup, list(z), list(z))) for i, z in enumerate(zetas)
    )

    cz = curve.cov("zeta")
    ns, ws = _ambient_frames(curve, policy)
    curve.fields["n"] = ns
    cn = curve.cov("n")
    samples = [frame_curvatures(curve.times[i], curve.g(i), sup, cz[i], cn[i], ns[i],
                                ws[i])
               for i in curve.interior(2)]

    stride = max(1, len(trace.points) // 32)
    geo_samples = tuple(
        geodesic_residual(F, list(u)) for u in trace.points[::stride]
    )
    return TransferReport(
        times=tuple(s.t for s in samples),
        h=tuple(s.h for s in samples),
        k1=tuple(s.k1 for s in samples),
        k2=tuple(s.k2 for s in samples),
        constancy=helixmod.constancy_report(samples),
        geodesic_samples=geo_samples,
        geodesic_max=max(geo_samples),
        isometry_max=iso_max,
        nullity_max=nullity_max,
    )
