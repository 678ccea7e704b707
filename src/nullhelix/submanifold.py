"""Immersed submanifolds of a semi-Riemannian chart.

An immersion is a map f from an m-dimensional chart (coordinates u1..um) into
an ambient chart carrying its own metric.  The second fundamental form is the
normal projection of the ambient covariant second derivative; the shape
operator is minus the tangential part of the ambient derivative of a normal
field; mean curvature is the signed trace of B over an orthonormal tangent
frame.  Every construction here is written over duck-typed scalars, so
evaluating along a jet-seeded ray yields the derivative of the construction
itself -- that is how the covariant derivatives of B, of the shape operator
and of H are obtained without finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import helix as helixmod
from . import jets, semimetric
from .exprparse import parse
from .jets import Jet, const_term
from .nullframe import ScreenPolicy, continuity_signs, euclid_norm, null_transversal
from .semimetric import SemiMetric, bilinear, mat_det, mat_inverse, mat_vec

RANK_TOL = 1e-9
NORMAL_TOL = 1e-10
FRAME_PIVOT_TOL = 1e-10
# helix transfer chains two stencils (the acceleration, then cov N), each
# trimming FD_RADIUS samples per side, and its constancy check needs two samples
TRANSFER_MIN_SAMPLES = 4 * helixmod.FD_RADIUS + 2


class RankDeficiencyError(ValueError):
    """The differential of the immersion drops rank at the point."""


class DegenerateNormalError(ValueError):
    """The normal space is degenerate; no +-1 orthonormal basis exists."""


def _deriv_part(v):
    return v.coeffs[1] if isinstance(v, Jet) else 0.0


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

    @classmethod
    def from_texts(cls, intrinsic_dim: int, ambient: SemiMetric, texts) -> "Immersion":
        allowed = frozenset(f"u{i + 1}" for i in range(intrinsic_dim))
        comps = [parse(s, variables=allowed) for s in texts]
        return cls(intrinsic_dim, ambient, comps)

    @classmethod
    def from_dict(cls, doc: dict) -> "Immersion":
        if set(doc) != {"intrinsic_dim", "ambient", "map"}:
            raise ValueError(
                "immersion document takes exactly 'intrinsic_dim', 'ambient', 'map'"
            )
        ambient = semimetric.MetricField.from_dict(doc["ambient"])
        return cls.from_texts(doc["intrinsic_dim"], ambient, doc["map"])

    # -- pointwise data over duck coordinates --------------------------------

    def map_values(self, u):
        env = dict(zip(self._uvars, u))
        return [eval_as_scalar(c, env) for c in self.components]

    def tangent_values(self, u):
        """Rows T[a] = d f / d u_a, evaluated over duck coordinates."""
        rows = []
        for a in range(self.m):
            seeded = [Jet((u[b], 1.0 if b == a else 0.0)) for b in range(self.m)]
            env = dict(zip(self._uvars, seeded))
            rows.append([_deriv_part(eval_as_scalar(c, env)) for c in self.components])
        return rows

    def second_values(self, u):
        """S[a][b] = d^2 f / du_a du_b (nested jet seeding, symmetric slots)."""
        m = self.m
        out = [[None] * m for _ in range(m)]
        for b in range(m):
            seeded = [Jet((u[c], 1.0 if c == b else 0.0)) for c in range(m)]
            rows = self.tangent_values(seeded)
            for a in range(m):
                col = [_deriv_part(v) for v in rows[a]]
                out[a][b] = col
        return out


def eval_as_scalar(expr, env):
    """Expression evaluation that may return a bare float for constants."""
    from .exprparse import _eval

    return _eval(expr, env)


class PullbackMetric(SemiMetric):
    """Induced metric of an immersion, evaluated through the pullback."""

    def __init__(self, immersion: Immersion):
        self.immersion = immersion
        self.dim = immersion.m
        self.is_constant = False

    def entry_values(self, coords):
        F = self.immersion
        T = F.tangent_values(coords)
        amb = F.ambient.entry_values(F.map_values(coords))
        m, n = F.m, F.ambient.dim
        g = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                acc = None
                for k in range(n):
                    for l in range(n):
                        term = amb[k][l] * T[a][k] * T[b][l]
                        acc = term if acc is None else acc + term
                g[a][b] = acc
                g[b][a] = acc
        return g


def pullback_metric(immersion: Immersion) -> PullbackMetric:
    return PullbackMetric(immersion)


def induced_metric(F: Immersion, u):
    """Pullback metric matrix at u, with rank and degeneracy checks."""
    T = F.tangent_values([float(c) for c in u])
    mat = np.array(T, dtype=float)
    if np.linalg.matrix_rank(mat, tol=RANK_TOL) < F.m:
        raise RankDeficiencyError(f"differential has rank < {F.m} at {tuple(u)}")
    return PullbackMetric(F).matrix_at(u)


# -- normal space ---------------------------------------------------------------


@dataclass(frozen=True)
class NormalBasis:
    """Orthonormal (+-1) basis of the normal space at a point."""

    point: tuple
    vectors: tuple  # p ambient vectors
    signs: tuple  # g-squared-norms, each +-1

    def __len__(self):
        return len(self.vectors)


def _normal_vectors(F: Immersion, u):
    """Duck-typed normal construction; pivot choices from constant parts."""
    m, n = F.m, F.ambient.dim
    p = n - m
    T = F.tangent_values(u)
    amb = F.ambient.entry_values(F.map_values(u))
    gt = [[bilinear(amb, T[a], T[b]) for b in range(m)] for a in range(m)]
    det = mat_det(gt)
    if abs(const_term(det)) <= semimetric.DET_TOL:
        raise semimetric.DegenerateMetricError(
            "induced metric degenerate; tangent projection undefined"
        )
    gt_inv = mat_inverse(gt, det)
    accepted = []
    for c in range(n):
        if len(accepted) == p:
            break
        cand = [1.0 if k == c else 0.0 for k in range(n)]
        # remove the tangential part
        coef = mat_vec(gt_inv, [bilinear(amb, cand, T[b]) for b in range(m)])
        r = list(cand)
        for a in range(m):
            for k in range(n):
                r[k] = r[k] - coef[a] * T[a][k]
        # orthogonalize against already accepted normals
        for vec, sign in accepted:
            proj = bilinear(amb, r, vec)
            for k in range(n):
                r[k] = r[k] - sign * proj * vec[k]
        size = sum(const_term(x) ** 2 for x in r)
        if size <= 1e-18:
            continue  # candidate lies in the span already handled
        nu = bilinear(amb, r, r)
        nu0 = const_term(nu)
        if abs(nu0) <= NORMAL_TOL * max(1.0, size):
            continue  # null residual direction: unusable for a +-1 basis
        sign = 1.0 if nu0 > 0.0 else -1.0
        scale = jets.sqrt(sign * nu)
        accepted.append(([x / scale for x in r], sign))
    if len(accepted) < p:
        raise DegenerateNormalError(
            f"normal space degenerate at {tuple(const_term(x) for x in u)}: "
            f"found {len(accepted)} of {p} unit normals"
        )
    return accepted, T, amb, gt, gt_inv


def normal_basis(F: Immersion, u) -> NormalBasis:
    uf = [float(c) for c in u]
    mat = np.array(F.tangent_values(uf), dtype=float)
    if np.linalg.matrix_rank(mat, tol=RANK_TOL) < F.m:
        raise RankDeficiencyError(f"differential has rank < {F.m} at {tuple(u)}")
    try:
        accepted, *_ = _normal_vectors(F, uf)
    except semimetric.DegenerateMetricError as exc:
        # tangent and normal radicals coincide: the normal space is degenerate
        raise DegenerateNormalError(
            f"normal space degenerate at {tuple(uf)}: {exc}"
        ) from None
    return NormalBasis(
        point=tuple(uf),
        vectors=tuple(tuple(v) for v, _ in accepted),
        signs=tuple(s for _, s in accepted),
    )


# -- fundamental forms ------------------------------------------------------------


def _ambient_gamma_term(F: Immersion, fvals, amb_vec_a, amb_vec_b):
    """Connection contribution G^k_ij a^i b^j of the ambient chart."""
    if F.ambient.is_constant:
        return [0.0] * F.ambient.dim
    gamma = F.ambient.christoffel(list(fvals))
    n = F.ambient.dim
    return [
        sum(gamma[k][i][j] * amb_vec_a[i] * amb_vec_b[j]
            for i in range(n) for j in range(n))
        for k in range(n)
    ]


def _push(T, x):
    n = len(T[0])
    return [sum(x[a] * T[a][k] for a in range(len(T))) for k in range(n)]


def _b_value(F: Immersion, u, x, y, normals=None):
    """Second fundamental form B(x, y) over duck scalars (ambient components)."""
    m, n = F.m, F.ambient.dim
    if normals is None:
        normals, T, amb, _, _ = _normal_vectors(F, u)
    else:
        normals, T, amb = normals
    S = F.second_values(u)
    deriv = [
        sum(x[a] * y[b] * S[a][b][k] for a in range(m) for b in range(m))
        for k in range(n)
    ]
    fvals = F.map_values(u)
    gam = _ambient_gamma_term(F, fvals, _push(T, x), _push(T, y))
    total = [deriv[k] + gam[k] for k in range(n)]
    out = [0.0] * n
    for vec, sign in normals:
        proj = sign * bilinear(amb, total, vec)
        for k in range(n):
            out[k] = out[k] + proj * vec[k]
    return out


def second_fundamental(F: Immersion, u, X, Y):
    """B(X, Y) at u for intrinsic tangent coordinates X, Y (ambient vector)."""
    uf = [float(c) for c in u]
    return tuple(const_term(c) for c in _b_value(F, uf, list(X), list(Y)))


def _weingarten(F: Immersion, u, a: int, x):
    """Ambient derivative of the a-th normal field along intrinsic x (duck)."""
    seeded = [Jet((u[b], x[b])) for b in range(len(u))]
    normals_s, *_ = _normal_vectors(F, seeded)
    nvec_s = normals_s[a][0]
    dn = [_deriv_part(c) for c in nvec_s]
    base = [c.coeffs[0] if isinstance(c, Jet) else c for c in nvec_s]
    fvals = F.map_values(u)
    T = F.tangent_values(u)
    gam = _ambient_gamma_term(F, fvals, _push(T, x), base)
    return [dn[k] + gam[k] for k in range(F.ambient.dim)]


def _tangential_coords(F: Immersion, u, amb_vec, data=None):
    """Intrinsic coordinates of the tangential part of an ambient vector."""
    if data is None:
        _, T, amb, gt, gt_inv = _normal_vectors(F, u)
    else:
        T, amb, gt_inv = data
    rhs = [bilinear(amb, amb_vec, T[b]) for b in range(F.m)]
    return mat_vec(gt_inv, rhs)


def _shape_value(F: Immersion, u, a: int, y):
    """Shape operator A^{N_a}(y) in intrinsic coordinates, over duck scalars."""
    dn = _weingarten(F, u, a, y)
    coords = _tangential_coords(F, u, dn)
    return [-c for c in coords]


def shape_operator(F: Immersion, u, a: int, X):
    """A^{N_a}(X): minus the tangential part of the normal field's derivative."""
    uf = [float(c) for c in u]
    return tuple(const_term(c) for c in _shape_value(F, uf, a, list(X)))


def duality_residual(F: Immersion, u, X, Y, a: int) -> float:
    """|g(A(X), Y) - g~(B(X, Y), N_a)|: the two computations must agree."""
    uf = [float(c) for c in u]
    basis = normal_basis(F, uf)
    g = induced_metric(F, uf)
    lhs = bilinear(g, list(shape_operator(F, uf, a, X)), list(Y))
    b = second_fundamental(F, uf, X, Y)
    amb = F.ambient.matrix_at(F.map_values(uf))
    rhs = bilinear(amb, list(b), list(basis.vectors[a]))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class FundamentalForms:
    """B, the shape operators and H of an immersion at one chart point.

    ``b[a][b]`` is the ambient-valued second fundamental form on the
    coordinate basis, ``shape_ops[d][a]`` the intrinsic image of the a-th
    basis vector under the d-th normal's shape operator.
    """

    point: tuple
    b: tuple
    shape_ops: tuple
    mean_curvature: tuple


def fundamental_forms(F: Immersion, u) -> FundamentalForms:
    uf = [float(c) for c in u]
    m = F.m
    pack = _normal_vectors(F, uf)
    normals_pack = (pack[0], pack[1], pack[2])
    basis = [[1.0 if b == a else 0.0 for b in range(m)] for a in range(m)]
    b_vals = tuple(
        tuple(
            tuple(const_term(c) for c in
                  _b_value(F, uf, basis[a], basis[bb], normals=normals_pack))
            for bb in range(m)
        )
        for a in range(m)
    )
    shape = tuple(
        tuple(tuple(const_term(c) for c in _shape_value(F, uf, d, basis[a]))
              for a in range(m))
        for d in range(len(pack[0]))
    )
    h = tuple(const_term(c) for c in _mean_curvature_value(F, uf,
                                                           normals_pack=normals_pack))
    return FundamentalForms(point=tuple(uf), b=b_vals, shape_ops=shape,
                            mean_curvature=h)


@dataclass(frozen=True)
class DerivedFormSample:
    """Covariant-derivative samples of B and of a shape operator at a point."""

    point: tuple
    nabla_b: tuple
    nabla2_b: tuple
    nabla_shape: tuple


def derived_form_sample(F: Immersion, u, X, Y, Z, V,
                        normal_index: int = 0) -> DerivedFormSample:
    uf = tuple(float(c) for c in u)
    return DerivedFormSample(
        point=uf,
        nabla_b=nabla_B(F, uf, X, Y, Z),
        nabla2_b=nabla2_B(F, uf, X, Y, Z, V),
        nabla_shape=nabla_shape(F, uf, normal_index, Z, Y),
    )


# -- orthonormal tangent frames and traces ---------------------------------------


def _orthonormal_tangent_frame(F: Immersion, u):
    """Intrinsic orthonormal frame (vectors, signs) for the induced metric."""
    m = F.m
    g = PullbackMetric(F).entry_values(u)
    accepted = []
    for c in range(m):
        if len(accepted) == m:
            break
        r = [1.0 if b == c else 0.0 for b in range(m)]
        for vec, sign in accepted:
            proj = bilinear(g, r, vec)
            r = [r[b] - sign * proj * vec[b] for b in range(m)]
        nu = bilinear(g, r, r)
        nu0 = const_term(nu)
        size = sum(const_term(x) ** 2 for x in r)
        if size <= 1e-18 or abs(nu0) <= FRAME_PIVOT_TOL * max(1.0, size):
            continue
        sign = 1.0 if nu0 > 0.0 else -1.0
        scale = jets.sqrt(sign * nu)
        accepted.append(([x / scale for x in r], sign))
    if len(accepted) < m:
        raise semimetric.DegenerateMetricError(
            "tangent frame cannot be orthonormalized (degenerate or null pivots)"
        )
    return accepted


def _mean_curvature_value(F: Immersion, u, normals_pack=None):
    frame = _orthonormal_tangent_frame(F, u)
    if normals_pack is None:
        normals, T, amb, _, _ = _normal_vectors(F, u)
        normals_pack = (normals, T, amb)
    n = F.ambient.dim
    acc = [0.0] * n
    for vec, sign in frame:
        b = _b_value(F, u, vec, vec, normals=normals_pack)
        for k in range(n):
            acc[k] = acc[k] + sign * b[k]
    return [c / float(F.m) for c in acc]


def mean_curvature(F: Immersion, u):
    """H = (1/m) sum_j eps_j B(E_j, E_j) over an orthonormal tangent frame."""
    uf = [float(c) for c in u]
    return tuple(const_term(c) for c in _mean_curvature_value(F, uf))


def umbilical_residual(F: Immersion, u) -> float:
    """max_{i<=j} || B(E_i, E_j) - g(E_i, E_j) H || (coordinate Euclidean)."""
    uf = [float(c) for c in u]
    frame = _orthonormal_tangent_frame(F, uf)
    pack = _normal_vectors(F, uf)
    normals_pack = (pack[0], pack[1], pack[2])
    h = _mean_curvature_value(F, uf, normals_pack=normals_pack)
    worst = 0.0
    for i, (ei, si) in enumerate(frame):
        for j in range(i, len(frame)):
            ej, _ = frame[j]
            b = _b_value(F, uf, ei, ej, normals=normals_pack)
            gij = si if i == j else 0.0
            resid = euclid_norm([b[k] - gij * h[k] for k in range(F.ambient.dim)])
            worst = max(worst, resid)
    return worst


def geodesic_residual(F: Immersion, u) -> float:
    """max over frame pairs of ||B(E_i, E_j)||; zero iff totally geodesic at u."""
    uf = [float(c) for c in u]
    frame = _orthonormal_tangent_frame(F, uf)
    pack = _normal_vectors(F, uf)
    normals_pack = (pack[0], pack[1], pack[2])
    worst = 0.0
    for i, (ei, _) in enumerate(frame):
        for j in range(i, len(frame)):
            ej, _ = frame[j]
            b = _b_value(F, uf, ei, ej, normals=normals_pack)
            worst = max(worst, euclid_norm([const_term(c) for c in b]))
    return worst


def _normal_projection(F: Immersion, u, amb_vec, normals_pack=None):
    if normals_pack is None:
        normals, T, amb, _, _ = _normal_vectors(F, u)
    else:
        normals, T, amb = normals_pack
    n = F.ambient.dim
    out = [0.0] * n
    for vec, sign in normals:
        proj = sign * bilinear(amb, amb_vec, vec)
        for k in range(n):
            out[k] = out[k] + proj * vec[k]
    return out


def _perp_derivative(F: Immersion, u, field, x):
    """Normal-bundle covariant derivative of a normal field along x.

    ``field(u_duck)`` must return ambient components over duck scalars.  The
    ambient covariant derivative along the pushed direction is taken on a
    jet-seeded ray and projected back onto the normal space at u.
    """
    seeded = [Jet((u[b], x[b])) for b in range(len(u))]
    vals = field(seeded)
    dv = [_deriv_part(c) for c in vals]
    base = [c.coeffs[0] if isinstance(c, Jet) else c for c in vals]
    fvals = F.map_values(u)
    T = F.tangent_values(u)
    gam = _ambient_gamma_term(F, fvals, _push(T, x), base)
    total = [dv[k] + gam[k] for k in range(F.ambient.dim)]
    return _normal_projection(F, u, total)


def parallel_H_residual(F: Immersion, u, X) -> float:
    """Norm of the normal-bundle derivative of H in direction X."""
    uf = [float(c) for c in u]
    val = _perp_derivative(F, uf, lambda uu: _mean_curvature_value(F, uu), list(X))
    return euclid_norm([const_term(c) for c in val])


# -- covariant derivatives of B and A ---------------------------------------------


def _intrinsic_nabla(F: Immersion, u, z, x):
    """(nabla_z x)^a for coordinate-constant x: the pure connection term."""
    gamma = PullbackMetric(F).christoffel(list(u))
    m = F.m
    return [
        sum(gamma[a][b][c] * z[b] * x[c] for b in range(m) for c in range(m))
        for a in range(m)
    ]


def _nabla_b_value(F: Immersion, u, x, y, z):
    """(nabla B)(x, y, z) over duck scalars (ambient components)."""
    perp = _perp_derivative(F, u, lambda uu: _b_value(F, uu, x, y), z)
    zx = _intrinsic_nabla(F, u, z, x)
    zy = _intrinsic_nabla(F, u, z, y)
    bx = _b_value(F, u, zx, y)
    by = _b_value(F, u, zy, x)
    return [perp[k] - bx[k] - by[k] for k in range(F.ambient.dim)]


def nabla_B(F: Immersion, u, X, Y, Z):
    """(nabla B)(X, Y, Z) for coordinate-constant intrinsic fields."""
    uf = [float(c) for c in u]
    return tuple(const_term(c) for c in _nabla_b_value(F, uf, list(X), list(Y), list(Z)))


def _nabla_b_multilinear(F: Immersion, u, x, y, z):
    """(nabla B) evaluated with possibly non-constant coefficient vectors.

    The derivative formula above assumes coordinate-constant arguments; for
    function-coefficient slots the tensor value is recovered by expanding each
    slot over the coordinate basis.
    """
    m = F.m
    n = F.ambient.dim
    out = [0.0] * n
    basis = [[1.0 if b == a else 0.0 for b in range(m)] for a in range(m)]
    for a in range(m):
        if const_term(x[a]) == 0.0 and not isinstance(x[a], Jet):
            continue
        for b in range(m):
            if const_term(y[b]) == 0.0 and not isinstance(y[b], Jet):
                continue
            for c in range(m):
                if const_term(z[c]) == 0.0 and not isinstance(z[c], Jet):
                    continue
                val = _nabla_b_value(F, u, basis[a], basis[b], basis[c])
                wgt = x[a] * y[b] * z[c]
                for k in range(n):
                    out[k] = out[k] + wgt * val[k]
    return out


def nabla2_B(F: Immersion, u, X, Y, Z, V):
    """(nabla^2 B)(X, Y, Z, V): derivative of nabla B minus slot corrections."""
    uf = [float(c) for c in u]
    x, y, z, v = list(X), list(Y), list(Z), list(V)
    perp = _perp_derivative(
        F, uf, lambda uu: _nabla_b_value(F, uu, x, y, z), v
    )
    vx = _intrinsic_nabla(F, uf, v, x)
    vy = _intrinsic_nabla(F, uf, v, y)
    vz = _intrinsic_nabla(F, uf, v, z)
    tx = _nabla_b_multilinear(F, uf, vx, y, z)
    ty = _nabla_b_multilinear(F, uf, x, vy, z)
    tz = _nabla_b_multilinear(F, uf, x, y, vz)
    return tuple(
        const_term(perp[k] - tx[k] - ty[k] - tz[k])
        for k in range(F.ambient.dim)
    )


def nabla_shape(F: Immersion, u, a: int, X, Y):
    """(nabla_X A^N)(Y) = nabla_X(A(Y)) - A^{perp-derivative of N}(Y) - A(nabla_X Y)."""
    uf = [float(c) for c in u]
    x, y = list(X), list(Y)
    m = F.m

    # intrinsic covariant derivative of the tangent field s -> A(u + sX)(Y)
    seeded = [Jet((uf[b], x[b])) for b in range(m)]
    avals = _shape_value(F, seeded, a, y)
    da = [_deriv_part(c) for c in avals]
    abase = [c.coeffs[0] if isinstance(c, Jet) else c for c in avals]
    gamma = PullbackMetric(F).christoffel(uf)
    term1 = [
        da[al] + sum(gamma[al][b][c] * x[b] * abase[c]
                     for b in range(m) for c in range(m))
        for al in range(m)
    ]

    # A with the perp-derivative of N_a in the normal slot (pointwise linear)
    pack = _normal_vectors(F, uf)
    normals_pack = (pack[0], pack[1], pack[2])
    wein = _weingarten(F, uf, a, x)
    perp_n = _normal_projection(F, uf, wein, normals_pack=normals_pack)
    amb = pack[2]
    term2 = [0.0] * m
    for d, (vec, sign) in enumerate(pack[0]):
        coeff = sign * bilinear(amb, perp_n, vec)
        advals = _shape_value(F, uf, d, y)
        for al in range(m):
            term2[al] = term2[al] + coeff * advals[al]

    # A applied to nabla_X Y (linear in the tangent slot)
    xy = _intrinsic_nabla(F, uf, x, y)
    term3 = [0.0] * m
    for b in range(m):
        if xy[b] == 0.0:
            continue
        ab = _shape_value(F, uf, a, [1.0 if c == b else 0.0 for c in range(m)])
        for al in range(m):
            term3[al] = term3[al] + xy[b] * ab[al]

    return tuple(
        const_term(term1[al] - term2[al] - term3[al]) for al in range(m)
    )


# -- frame triple and umbilical diagnostic ----------------------------------------


def null_triple(F: Immersion, u):
    """Two null tangent vectors with g(xi_i, xi_j) = 1 plus a unit timelike one.

    Requires the induced metric to have index 2 (signature (-, -, +)); built
    from an orthonormal tangent frame, so it is deterministic per point.
    """
    uf = [float(c) for c in u]
    frame = _orthonormal_tangent_frame(F, uf)
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
    uf = [float(c) for c in u]
    g = induced_metric(F, uf)
    checks = (
        bilinear(g, list(xi_i), list(xi_i)),
        bilinear(g, list(xi_j), list(xi_j)),
        bilinear(g, list(xi_i), list(xi_j)) - 1.0,
        bilinear(g, list(xi_i), list(xi_k)),
        bilinear(g, list(xi_j), list(xi_k)),
        bilinear(g, list(xi_k), list(xi_k)) + 1.0,
    )
    worst = max(abs(c) for c in checks)
    if worst > tol:
        raise ValueError(f"frame violates the null-triple conditions by {worst:.3e}")
    pack = _normal_vectors(F, uf)
    normals_pack = (pack[0], pack[1], pack[2])
    bij = _b_value(F, uf, list(xi_i), list(xi_j), normals=normals_pack)
    bkk = _b_value(F, uf, list(xi_k), list(xi_k), normals=normals_pack)
    bii = _b_value(F, uf, list(xi_i), list(xi_i), normals=normals_pack)
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


def _ambient_frames(metric: SemiMetric, points, zetas, czetas, policy: ScreenPolicy):
    """Seed-built transversal and first-normal screen direction per sample.

    N is ``nullframe.null_transversal`` over the policy seeds followed by the
    axes the policy leaves out.  W is the screen projection of the
    acceleration, normalised to g(W, W) = -1; where the acceleration's screen
    part degenerates, a seed axis is projected instead.  This W rule is the
    only one for ambient dimensions above 3.  Sign continuity along the
    samples is restored by ``nullframe.continuity_signs``.
    """
    n = metric.dim
    seed_order = policy.seed_indices(n)
    seed_order += [i for i in range(n) if i not in seed_order]
    ns, ws = [], []
    for p, z, cz in zip(points, zetas, czetas):
        g = metric.matrix_at(p)
        _, _, nv = null_transversal(g, z, seed_order, "along the ambient curve")
        w = None
        cand = list(cz)
        for attempt in range(n + 1):
            proj = [
                cand[i]
                - bilinear(g, cand, nv) * z[i]
                - bilinear(g, cand, list(z)) * nv[i]
                for i in range(n)
            ]
            w2 = -bilinear(g, proj, proj)
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
    signs = continuity_signs(ws)
    return ns, [tuple(sign * c for c in w) for sign, w in zip(signs, ws)]


def helix_transfer(F: Immersion, spec: helixmod.HelixSpec, grid, step: float,
                   policy: ScreenPolicy | None = None,
                   isometry_tol: float = 1e-6, project_every: int = 0,
                   drift_limit: float = helixmod.DRIFT_LIMIT) -> TransferReport:
    """Push an intrinsic helix into the ambient chart and re-measure it there.

    The helix is synthesized on its own (intrinsic) metric, which is checked
    against the pullback of the immersion along the curve; the pushed-forward
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
    pull = PullbackMetric(F)
    stride, dt = helixmod.decimation(trace.times)

    iso_max = 0.0
    for u in trace.points[:: max(1, len(trace.points) // 64)]:
        gp = pull.matrix_at(u)
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
    idx0 = pull.index_at(trace.points[0])
    if idx0 != 2:
        raise ValueError(f"induced metric has index {idx0} along the curve, need 2")

    amb = F.ambient
    # the ambient frames are measured at the same decimated spacing as the
    # intrinsic trace extraction (stencil noise scales with frame/spacing)
    times_d = trace.times[::stride]
    upoints = trace.points[::stride]
    uzetas = trace.zetas[::stride]
    points = [tuple(const_term(c) for c in F.map_values(list(u)))
              for u in upoints]
    zetas = []
    for u, z in zip(upoints, uzetas):
        T = F.tangent_values(list(u))
        zetas.append(tuple(_push(T, list(z))))

    nullity_max = max(
        abs(bilinear(amb.matrix_at(p), list(z), list(z)))
        for p, z in zip(points, zetas)
    )

    cz_seq = helixmod._covariant_sequence(amb, points, zetas, zetas, dt)
    r = helixmod.FD_RADIUS
    inner_pts = points[r:-r]
    inner_z = zetas[r:-r]
    ns, ws = _ambient_frames(amb, inner_pts, inner_z, cz_seq, policy)
    cn_seq = helixmod._covariant_sequence(amb, inner_pts, inner_z, ns, dt)

    times, hs, k1s, k2s = [], [], [], []
    for k in range(len(cn_seq)):
        i = k + r  # index into the inner arrays
        g = amb.matrix_at(inner_pts[i])
        h = bilinear(g, cz_seq[i], ns[i])
        k1 = -bilinear(g, cz_seq[i], ws[i])
        k2 = -bilinear(g, cn_seq[k], ws[i])
        times.append(times_d[i + r])
        hs.append(h)
        k1s.append(k1)
        k2s.append(k2)
    constancy = {
        "h": max(abs(v - hs[0]) for v in hs),
        "k1": max(abs(v - k1s[0]) for v in k1s),
        "k2": max(abs(v - k2s[0]) for v in k2s),
    }

    stride = max(1, len(trace.points) // 32)
    geo_samples = tuple(
        geodesic_residual(F, list(u)) for u in trace.points[::stride]
    )
    return TransferReport(
        times=tuple(times),
        h=tuple(hs),
        k1=tuple(k1s),
        k2=tuple(k2s),
        constancy=constancy,
        geodesic_samples=geo_samples,
        geodesic_max=max(geo_samples),
        isometry_max=iso_max,
        nullity_max=nullity_max,
    )
