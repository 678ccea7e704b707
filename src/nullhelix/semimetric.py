"""Metric fields on a coordinate chart.

A chart metric is a ``MetricField``: a symmetric matrix of closed-form
entries ``g_ij`` in x1..xn, evaluated over duck-typed coordinate scalars
(floats or :class:`~nullhelix.jets.Jet`).  g is read only through
``matrix_at`` and the connection only through ``christoffel``.  (The induced
metric of an immersion is not a chart metric here: ``submanifold`` reads its
connection off the Gauss formula.)

Each ``MetricField`` generates one Python function, on its first
``matrix_at`` or ``christoffel`` call, that returns g, its determinant and
the Christoffel symbols at a point (an immersion generates its f and
Jacobian the same way, through the same ``codegen`` helper).  The entry
derivatives in it are ``exprparse.derivative`` trees, taken once, never
finite differences; the determinant and the adjugate inverse are
``mat_det`` and ``mat_inverse`` unrolled in the same association, with
every product that has a structurally zero factor left out.  The function
takes floats and (nested) jets alike, and sample arrays (coordinates or jet
coefficients), and so does ``matrix_at``, the one reader of g (frame bundles
and submanifold points included), which checks |det g| > DET_TOL on the
constant term at every point (on arrays, at every sample, by
``jets.failing``; so does the connection).  When the function
raises (a domain, division or overflow error), the entries and then the
derivative trees are evaluated again with ``exprparse._eval`` at the same
point, so the ``DomainError`` names the offending subexpression; that path
never returns a connection.  The same code lines (``connection_code``) are
the stages of ``helix``'s one generated RK4 loop per curved metric.

Each metric's ``pattern`` holds the (k, i, j), in lexicographic order, to
which the generated connection (``connection_code``) gives a value; every
other symbol is the literal 0.0.  An empty pattern is a flat chart, even when
an entry names a coordinate (``1 + 0*x3``).  A sum that starts at +0.0 keeps
its bits when +-0.0 is added, so each contraction sums over the pattern alone.

Inner products do the same with g.  Each metric's ``support`` holds the
(i, j), in row-major order, whose entry tree is not the literal 0 (the
entries the generated function leaves out, returning the float 0.0), and
every matrix carries its own: ``matrix_at`` returns a ``Matrix`` with the
metric's support, and ``mat_inverse`` and any ``Matrix`` built without one
(an immersion's induced metric) carry every (i, j).  ``bilinear`` and
``mat_vec`` sum from 0.0 over the matrix's support alone, in the dense loop's
order and association.  On finite vectors the result has the dense sum's
bits (jets: its coefficients, up to the sign of a zero); where a component
is infinite the dense sum gives NaN from 0 * inf, and the support sum does
not.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import codegen, exprparse, jets
from .jets import Jet, const_term

DET_TOL = 1e-10


class DegenerateMetricError(ValueError):
    """Metric determinant fell below the non-degeneracy tolerance."""


# the message of a degenerate point met while evaluating the connection
DEGENERATE_ALONG = "metric degenerate along evaluation"


# -- small dense linear algebra over duck scalars -----------------------------


def mat_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * mat_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def mat_inverse(m, det):
    """Inverse by adjugate over the coefficient ring, given det = mat_det(m)."""
    n = len(m)
    if n == 1:
        return Matrix([[1.0 / det]])
    inv = Matrix([None] * n for _ in range(n))
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = mat_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            inv[j][i] = cof / det
    return inv


@cache
def full_support(n: int) -> tuple:
    """Every (i, j) of an n x n matrix in row-major order."""
    return tuple((i, j) for i in range(n) for j in range(n))


class Matrix(list):
    """A square matrix as a list of rows, carrying ``support``: the (i, j), in
    row-major order, whose entry can be nonzero (None: every one)."""

    __slots__ = ("support",)

    def __init__(self, rows, support=None):
        super().__init__(rows)
        self.support = full_support(len(self)) if support is None else support


def mat_vec(m, v):
    """m v, each row summed from 0.0 over ``m.support`` in order."""
    out = [0.0] * len(m)
    for i, j in m.support:
        out[i] = out[i] + m[i][j] * v[j]
    return out


def bilinear(g, x, y):
    """g(x, y), summed from 0.0 over ``g.support`` in order."""
    acc = 0.0
    for i, j in g.support:
        acc = acc + g[i][j] * x[i] * y[j]
    return acc


def metric_index(g) -> int:
    """Index of a float metric matrix: its negative eigenvalue count."""
    eigs = np.linalg.eigvalsh(np.array(g, dtype=float))
    return int(np.count_nonzero(eigs < 0.0))


def connection_term(metric: MetricField, gamma, a, b):
    """Connection term gamma[k][i][j] a^i b^j over ``metric.pattern``, summed
    over i then j per k."""
    out = [0.0] * metric.dim
    for k, i, j in metric.pattern:
        out[k] = out[k] + gamma[k][i][j] * a[i] * b[j]
    return out


@cache
def _zero_connection(n: int) -> tuple:
    """The vanishing connection of an empty pattern, shared and immutable."""
    return (((0.0,) * n,) * n,) * n


# -- the generated metric-and-connection function ---------------------------------


def _emit_det(em: codegen.Emitter, m):
    """``mat_det``'s cofactor expansion along the first row, zeros dropped."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return em.sub(em.mul(m[0][0], m[1][1]), em.mul(m[0][1], m[1][0]))
    acc = None
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = em.mul(m[0][j], _emit_det(em, minor))
        acc = em.sub(acc, term) if j % 2 else em.add(acc, term)
    return acc


class ConnectionCode(NamedTuple):
    """The lines of a metric's generated g, det and connection, over the
    coordinate ``names``: ``early`` binds the temporaries that g and det read
    and runs before the |det| check, ``late`` the rest.  ``gamma[k][i][j]`` is
    the code of each symbol: a temporary, or "0.0" where it is structurally
    zero.  ``pattern`` holds the (k, i, j) with a temporary, in order."""

    names: tuple
    early: list
    matrix: str
    det: str
    late: list
    gamma: list
    pattern: tuple


def _connection_code(names, entries, dg) -> ConnectionCode:
    """The code of g, det and gamma for the entry trees ``entries``.

    det is ``mat_det``'s expansion and the inverse ``mat_inverse``'s
    adjugate.  Each gamma[k][i][j] = gamma[k][j][i] (i <= j) is 0.5 * sum
    over l of ginv[k][l] (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]), both
    with every product that has a structural-zero factor left out.
    ``dg[l][i][j]`` is the tree of d g_ij / d x_l, or None where it is zero.
    """
    n = len(names)
    em = codegen.Emitter(names)
    g = [[em.expr(entries[i][j]) for j in range(n)] for i in range(n)]
    det = _emit_det(em, g) or "0.0"
    checked = len(em.lines)  # the temporaries made so far run before the check
    d = [[[None if t is None else em.expr(t) for t in row] for row in plane]
         for plane in dg]
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[g[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _emit_det(em, minor)
            if (i + j) % 2:
                cof = em.sub(None, cof)
            inv[j][i] = None if cof is None else em.bind(f"{cof} / det")
    gamma = [[["0.0"] * n for _ in range(n)] for _ in range(n)]
    pattern = set()
    for k, i, j in ((k, i, j) for k in range(n) for i in range(n) for j in range(i, n)):
        acc = None
        for l in range(n):
            inner = em.sub(em.add(d[i][j][l], d[j][i][l]), d[l][i][j])
            acc = em.add(acc, em.mul(inv[k][l], inner))
        if acc is not None:
            gamma[k][i][j] = gamma[k][j][i] = em.bind(f"0.5 * {acc}")
            pattern |= {(k, i, j), (k, j, i)}
    matrix = "[" + ", ".join("[" + ", ".join(v or "0.0" for v in row) + "]"
                             for row in g) + "]"
    order = {name: k for k, (name, _) in enumerate(em.lines)}
    lines = [(order[name] < checked, f"{name} = {rhs}")
             for name, rhs in em.kept([matrix, det, codegen.nested(gamma)])]
    return ConnectionCode(names=tuple(names),
                          early=[line for early, line in lines if early],
                          matrix=matrix, det=det,
                          late=[line for early, line in lines if not early],
                          gamma=gamma, pattern=tuple(sorted(pattern)))


def _connection_body(code: ConnectionCode) -> list:
    """Body of ``_metric_connection(x1, .., xn, connection)``: it returns
    ``(g, det, gamma)``, g as lists of the entries and gamma as nested tuples,
    or None for gamma when ``connection`` is false or |det| <= DET_TOL."""
    return [
        *code.early,
        f"g = {code.matrix}",
        f"det = {code.det}",
        f"if not connection or jets.failing(abs(jets.const_term(det)) <= {DET_TOL!r}):",
        "    return g, det, None",
        *code.late,
        f"return g, det, {codegen.nested(code.gamma)}",
    ]


class MetricField:
    """Closed-form metric: a symmetric matrix of expressions in x1..x_dim."""

    def __init__(self, dim: int, entries):
        if not 2 <= dim <= 4:
            raise ValueError("chart dimension must be between 2 and 4")
        self.dim = dim
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != dim or any(len(r) != dim for r in self.entries):
            raise ValueError("entries must form a dim x dim matrix")
        self._coord_names = tuple(f"x{i + 1}" for i in range(dim))
        self.support = tuple((i, j) for i in range(dim) for j in range(dim)
                             if not exprparse._is_zero(self.entries[i][j]))

    @classmethod
    def diag(cls, signs) -> "MetricField":
        """The flat metric diag(signs) on a 3- or 4-dimensional chart."""
        signs = tuple(signs)
        if len(signs) not in (3, 4):
            raise ValueError("signature dimension must be 3 or 4")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signature entries must be +-1")
        entries = [
            [
                exprparse.Num(float(signs[i]), str(signs[i]))
                if i == j
                else exprparse.Num(0.0, "0")
                for j in range(len(signs))
            ]
            for i in range(len(signs))
        ]
        return cls(len(signs), entries)

    @classmethod
    def from_texts(cls, dim: int, texts) -> "MetricField":
        allowed = frozenset(f"x{i + 1}" for i in range(dim))
        rows = [list(r) for r in texts]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError("entries must form a dim x dim matrix")
        for i in range(dim):
            for j in range(dim):
                if not isinstance(rows[i][j], str):
                    raise ValueError(
                        f"metric entry ({i + 1},{j + 1}) must be an expression string"
                    )
        for i in range(dim):
            for j in range(i + 1, dim):
                if rows[i][j].strip() != rows[j][i].strip():
                    raise ValueError(f"metric not symmetric at ({i + 1},{j + 1})")
        entries = [
            [exprparse.parse(rows[i][j], variables=allowed) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(dim, entries)

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricField":
        """Load from the metric JSON schema ({"dim": n, "metric": {...}})."""
        if set(doc) != {"dim", "metric"}:
            raise ValueError("metric document must have exactly 'dim' and 'metric'")
        dim = doc["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError("'dim' must be an integer")
        spec = doc["metric"]
        if not isinstance(spec, dict):
            raise ValueError("'metric' must be an object with a 'type' field")
        kind = spec.get("type")
        if kind == "diag":
            if set(spec) != {"type", "signs"}:
                raise ValueError("diag metric takes exactly 'type' and 'signs'")
            signs = spec["signs"]
            if not isinstance(signs, list):
                raise ValueError("'signs' must be a list of -1 and 1 entries")
            if len(signs) != dim:
                raise ValueError("'signs' length must equal dim")
            if any(isinstance(s, bool) for s in signs):
                raise ValueError("'signs' entries must be -1 or 1, not booleans")
            return cls.diag(signs)
        if kind == "field":
            if set(spec) != {"type", "entries"}:
                raise ValueError("field metric takes exactly 'type' and 'entries'")
            entries = spec["entries"]
            if not isinstance(entries, list) or \
                    not all(isinstance(row, list) for row in entries):
                raise ValueError("'entries' must be a list of rows of expression strings")
            return cls.from_texts(dim, entries)
        raise ValueError(f"unknown metric type {kind!r}")

    @cached_property
    def _derivatives(self) -> dict:
        """The trees of d g_ij / d x_l that are not zero, keyed (l, i, j)."""
        out = {}
        for l, name in enumerate(self._coord_names):
            for i, row in enumerate(self.entries):
                for j, entry in enumerate(row):
                    d = exprparse.derivative(entry, name)
                    if not exprparse._is_zero(d):
                        out[(l, i, j)] = d
        return out

    @cached_property
    def connection_code(self) -> ConnectionCode:
        """The code lines of g, det and the connection over the coordinate
        names (see the module notes)."""
        n = self.dim
        dg = [[[self._derivatives.get((l, i, j)) for j in range(n)] for i in range(n)]
              for l in range(n)]
        return _connection_code(self._coord_names, self.entries, dg)

    @cached_property
    def pattern(self) -> tuple:
        """The (k, i, j) to which the generated connection gives a value, in
        lexicographic order; empty on a flat chart (see the module notes)."""
        return self.connection_code.pattern

    @cached_property
    def _generated(self):
        """The generated ``(g, det, gamma)`` function (see the module notes);
        its errors replay the entries, then the derivative trees."""
        body = _connection_body(self.connection_code)
        trees = (*(e for row in self.entries for e in row), *self._derivatives.values())
        return codegen.compiled("_metric_connection", self._coord_names,
                                ("connection",), body, trees)

    def matrix_at(self, p):
        """g at float, (nested) jet or sample-array coordinates, as a
        ``Matrix`` carrying ``support``; DegenerateMetricError where the
        constant term of det g is within DET_TOL of zero (on sample arrays,
        ``jets.failing``'s PerSampleCheck where it is at any sample)."""
        if len(p) != self.dim:
            raise ValueError(f"point has {len(p)} coordinates, chart has {self.dim}")
        g, det, _ = self._generated(
            *[c if type(c) is float or isinstance(c, (Jet, np.ndarray)) else float(c)
              for c in p], False)
        if jets.failing(abs(const_term(det)) <= DET_TOL):
            raise DegenerateMetricError(
                f"metric degenerate at {tuple(const_term(c) for c in p)}: "
                f"|det| = {abs(const_term(det)):.3e}"
            )
        return Matrix(g, self.support)

    def christoffel(self, coords):
        """Connection coefficients gamma[k][i][j] over duck coordinates.

        Passing jet-valued coordinates yields the coefficients' own Taylor
        expansions along a curve.  Entries outside ``pattern`` are 0.0; an
        empty pattern gives the shared zero connection.
        """
        if not self.pattern:
            return _zero_connection(self.dim)
        _, _, gamma = self._generated(*coords, True)
        if gamma is None:
            raise DegenerateMetricError(DEGENERATE_ALONG)
        return gamma


# perfbench's tracer patches ``semimetric.SemiMetric.matrix_at`` and
# ``.christoffel`` by these names; the alias keeps them resolving to the class
# that defines them.
SemiMetric = MetricField


# -- covariant derivative along a curve ------------------------------------------


def covariant_jets(pos_jets, field_jets, metric: MetricField, gamma=None):
    """Covariant derivative along a curve, at the jet level.

    ``pos_jets`` are the curve's coordinate jets in the parameter,
    ``field_jets`` the field's components along the curve.  The result's
    order drops by one; nesting therefore costs one order per application.
    ``gamma``, if known, is ``metric.christoffel`` of the truncated positions.
    """
    zeta = [jets.dt(x) for x in pos_jets]
    out = [jets.dt(v) for v in field_jets]
    if gamma is None:
        gamma = metric.christoffel([x.truncated(x.order - 1) for x in pos_jets])
    # onto dt(field): a separate connection_term sum moves conformal results by 1e-16
    for k, i, j in metric.pattern:
        out[k] = out[k] + gamma[k][i][j] * zeta[i] * field_jets[j]
    return out
