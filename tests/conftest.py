import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from nullhelix import helix as helixmod
from nullhelix import nullframe as nf
from nullhelix.exprparse import FUNCTIONS, BinOp, Call, DomainError, Neg, Num, Pow, Var
from nullhelix.jets import const_term
from nullhelix.nullframe import (NullCurve, ScreenPolicy, null_transversal, screen_projection,
                                 screen_vector)
from nullhelix.semimetric import Matrix, MetricField, bilinear, mat_vec
from nullhelix.submanifold import Immersion

TWO_PI = 2.0 * math.pi


@pytest.fixture
def flat3():
    return MetricField.diag([-1, -1, 1])


@pytest.fixture
def amb4():
    return MetricField.diag([-1, -1, 1, 1])


@pytest.fixture
def euclid3():
    return MetricField.diag([1, 1, 1])


@pytest.fixture
def c1_curve(flat3):
    return NullCurve.position(flat3, ["cos(t)", "sin(t)", "t"], (0.0, TWO_PI))


@pytest.fixture
def c1_spec(flat3):
    return helixmod.HelixSpec(
        h=0.0, k1=1.0, k2=-0.5,
        initial_point=(1.0, 0.0, 0.0),
        zeta0=(0.0, 1.0, 1.0), n0=(0.0, -0.5, 0.5), w0=(-1.0, 0.0, 0.0),
        metric=flat3,
    )


@pytest.fixture
def sphere2(euclid3):
    return Immersion.from_texts(
        2, euclid3, ["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)", "2*cos(u1)"]
    )


@pytest.fixture
def slice_immersion(amb4):
    return Immersion.from_texts(3, amb4, ["u1", "u2", "u3", "0"])


@pytest.fixture
def graph_immersion(amb4):
    return Immersion.from_texts(3, amb4, ["u1", "u2", "u3", "u3^2/2"])


@pytest.fixture
def pseudosphere(amb4):
    return Immersion.from_texts(
        4 - 1, amb4,
        ["sinh(u1)*cos(u2)", "sinh(u1)*sin(u2)",
         "cosh(u1)*cos(u3)", "cosh(u1)*sin(u3)"],
    )


NUMBER_TEXTS = ("0", "1", "2", "0.5", "2.5", "0.3", "1e-3")


def expr_trees(variables=("x1", "x2", "x3"), depth: int = 4):
    """Expression trees over ``variables`` with every node kind of the grammar
    (Num, Var, Neg, Call, BinOp, Pow), nested at most ``depth`` deep."""
    leaf = st.one_of(st.sampled_from(variables).map(Var),
                     st.sampled_from(NUMBER_TEXTS).map(lambda t: Num(float(t), t)))
    tree = leaf
    for _ in range(depth):
        tree = st.one_of(leaf, st.builds(Neg, tree),
                         st.builds(Call, st.sampled_from(FUNCTIONS), tree),
                         st.builds(BinOp, st.sampled_from("+-*/"), tree, tree),
                         st.builds(Pow, tree, st.integers(-3, 4)))
    return tree


def flat_null_frame(metric: MetricField, zeta, seed_index: int = 2, flip: bool = False):
    """Algebraic frame construction from a null tangent (test helper)."""
    g = metric.matrix_at((0.0, 0.0, 0.0))
    gz = mat_vec(g, list(zeta))
    phi = gz[seed_index]
    ntilde = [(1.0 if i == seed_index else 0.0) / phi for i in range(3)]
    nn = bilinear(g, ntilde, ntilde)
    n = [ntilde[i] - 0.5 * nn * zeta[i] for i in range(3)]
    gn = mat_vec(g, n)
    w = [
        gz[1] * gn[2] - gz[2] * gn[1],
        gz[2] * gn[0] - gz[0] * gn[2],
        gz[0] * gn[1] - gz[1] * gn[0],
    ]
    w2 = -bilinear(g, w, w)
    scale = 1.0 / math.sqrt(w2)
    sgn = -1.0 if flip else 1.0
    w = [sgn * scale * c for c in w]
    return tuple(n), tuple(w)


def continuity_signs(ws):
    """Per-sample signs, starting at +1, that undo W's flips between
    neighbours: each flips where the dot product of W (constant terms) at a
    sample and at the one before it, summed in order, is not >= 0."""
    signs = [1.0]
    for prev, cur in zip(ws, ws[1:]):
        dot = sum(const_term(a) * const_term(b) for a, b in zip(prev, cur))
        signs.append(signs[-1] if dot >= 0.0 else -signs[-1])
    return signs


def reference_ambient_frames(curve: helixmod.SampledCurve, policy: ScreenPolicy):
    """Transfer's ambient N and W as a loop over samples on Python floats
    builds them, raising each error at its sample: N from the policy seeds
    and then the unused axes, W from the acceleration's screen part (or the
    seed axes' in turn), then ``continuity_signs``."""
    n = curve.metric.dim
    seed_order = policy.seed_indices(n)
    seed_order += [i for i in range(n) if i not in seed_order]
    czetas = curve.cov("zeta")
    count = czetas.shape[-1]
    gs = np.moveaxis([[np.broadcast_to(x, count) for x in row] for row in curve.g(count)],
                     -1, 0).tolist()
    zetas = helixmod._middle(curve.fields["zeta"], count).T.tolist()
    ns, ws = [], []
    for g, z, cand in zip(gs, zetas, czetas.T.tolist()):
        g = Matrix(g, curve.metric.support)
        _, _, nv = null_transversal(g, z, seed_order, "along the ambient curve")
        w = None
        for attempt in range(n + 1):
            proj, w2 = screen_projection(g, cand, z, nv)
            if w2 > 1e-12:
                scale = 1.0 / math.sqrt(w2)
                w = [c * scale for c in proj]
                break
            nxt = seed_order[attempt % len(seed_order)]
            cand = [1.0 if i == nxt else 0.0 for i in range(n)]
        if w is None:
            raise ValueError("no timelike screen direction along the ambient curve")
        ns.append(nv)
        ws.append(w)
    ws = [[sign * c for c in w] for sign, w in zip(continuity_signs(ws), ws)]
    return np.reshape(ns, (-1, n)).T, np.reshape(ws, (-1, n)).T


def policy_frames(metric: MetricField, points, zetas, policy: ScreenPolicy):
    """N and W rebuilt per sample from the tangent alone by the screen policy's
    construction, with W's sign made continuous along the samples."""
    ns, ws = [], []
    for p, z in zip(points, zetas):
        g = metric.matrix_at(p)
        _, gz, n = null_transversal(g, z, policy.seed_indices(3), "at the sample")
        ns.append(tuple(n))
        ws.append(screen_vector(g, gz, n, "at the sample"))
    signs = continuity_signs(ws)
    return ns, [tuple(sign * c for c in w) for sign, w in zip(signs, ws)]


def random_helix_spec(rng: random.Random, metric: MetricField) -> helixmod.HelixSpec:
    """Random constant-curvature data with a valid seeded initial frame."""
    h = rng.uniform(-1.0, 1.0)
    k1 = rng.uniform(0.1, 2.0)
    k2 = rng.uniform(-1.0, 1.0)
    theta = rng.uniform(0.0, TWO_PI)
    s = rng.uniform(0.5, 1.5)
    zeta = (s * math.cos(theta), s * math.sin(theta), s)
    point = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
    n, w = flat_null_frame(metric, zeta, flip=rng.random() < 0.5)
    return helixmod.HelixSpec(
        h=h, k1=k1, k2=k2, initial_point=point,
        zeta0=zeta, n0=n, w0=w, metric=metric,
    )


def uniform_grid(t0: float, t1: float, n: int):
    dt = (t1 - t0) / (n - 1)
    return [t0 + i * dt for i in range(n)]


@pytest.fixture
def rng():
    return random.Random(20260808)


# -- the per-sample loop that frame bundles over sample arrays must reproduce


def reference_frames(curve: NullCurve, grid, policy=None):
    """The frames along ``grid`` as a loop over samples builds them: one
    bundle at each float t, then continuity, the orientation (k1 read only
    as far as its rule reads), the frames and their checks, raising the
    errors with their texts in that order."""
    policy = policy or ScreenPolicy()
    states = [nf._build_frame_jets(curve, t, policy) for t in grid]
    signs = continuity_signs([st.w for st in states])
    k1s = (sign * st.raw_k1() for st, sign in zip(states, signs))
    orient = (nf.first_generic_sign(k1s, nf.GEODESIC_K1_TOL)
              or nf.first_generic_sign([const_term(c) for c in states[0].w], 1e-9)
              or 1.0)
    if orient < 0.0:
        signs = [-sign for sign in signs]
    frames = [st.frame(sign) for st, sign in zip(states, signs)]
    for a, b in zip(frames, frames[1:]):
        if sum(x * y for x, y in zip(a.w, b.w)) <= 0.0:
            raise nf.FrameDiscontinuityError(
                f"screen direction jumps between t = {a.t} and t = {b.t}")
    for fr in frames:
        if fr.gram_residual > nf.FRAME_TOL:
            raise ValueError(f"frame Gram residual {fr.gram_residual:.3e} exceeds "
                             f"{nf.FRAME_TOL} at t = {fr.t}")
    return frames


def measures(curve: NullCurve, frame, policy=None):
    """(h, k1, k2), the Frenet residuals, the identity report and the cubic
    residual of ``frame``: one sample's, or a frame of sample arrays'."""
    cs = nf.curvatures_at(curve, frame, policy)
    return (cs, nf.frenet_residuals(curve, frame, cs, policy),
            helixmod.metric_identity_suite(curve, frame, cs, policy),
            helixmod.cubic_identity_residual(curve, frame, cs, policy))


def reference_run(curve: NullCurve, grid, policy=None):
    """``reference_frames`` and each frame's ``measures``, sample by sample:
    ``frame`` and ``verify``'s loop before frame bundles took arrays."""
    frames = reference_frames(curve, grid, policy)
    return [(fr, *measures(curve, fr, policy)) for fr in frames]


def array_run(curve: NullCurve, grid, policy=None):
    """``frame_field`` and its ``measures`` over sample arrays, as sample i's
    results for each i."""
    frames = nf.frame_field(curve, grid, policy)
    results = (frames, *measures(curve, frames, policy))
    return [nf._sample(results, i) for i in range(len(grid))]


def value_bits(value):
    """Floats as hex (NaN equal to NaN, -0.0 apart from 0.0), bools as
    themselves, records, tuples and lists part by part; any other type (an
    array element not turned into a Python float) fails."""
    if dataclasses.is_dataclass(value):
        return [value_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [value_bits(v) for v in value]
    if type(value) is bool:
        return value
    assert type(value) is float, value
    return value.hex()


def outcome(fn, *args):
    """``("ok", value_bits of fn's result)``, or ``(type, message)`` of the
    error it raised."""
    try:
        return ("ok", value_bits(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - every error type is compared
        return (type(exc), str(exc))


# -- failures injected at one sample, per sample on floats and arrays alike


def _bump(tm):
    """x3 of C1 with a bump that makes zeta non-null at t = tm alone: its
    slope there is 1.001, and 1 to within 1e-170 at 0.1 or more from tm."""
    return f"t + 0.001*(t - {tm!r})*exp(-(100*(t - {tm!r}))^2)"


def _where(hit, value, other):
    return np.where(hit, value, other) if isinstance(hit, np.ndarray) else \
        (value if hit else other)


def inject(monkeypatch, kind: str, tm: float):
    """The curve on which ``kind`` fails at t = tm alone (for C1's x3 = t),
    after patching what the injection needs; the patches act per sample on
    floats and on sample arrays alike."""
    metric, texts = MetricField.diag([-1, -1, 1]), ["cos(t)", "sin(t)", "t"]
    if kind == "not null":
        texts[2] = _bump(tm)
    elif kind == "domain":
        texts[2] = f"t + 0*log((t - {tm!r})^2)"
    elif kind == "degenerate":
        f = f"(x3 - {tm!r})^2"
        metric = MetricField.from_texts(3, [[f"-{f}", "0", "0"], ["0", f"-{f}", "0"],
                                            ["0", "0", f]])
    elif kind == "christoffel":
        christoffel = MetricField.christoffel

        def failing(self, coords):
            if np.any(const_term(coords[2]) == tm):
                raise DomainError("injected connection failure", f"x3 = {tm!r}")
            return christoffel(self, coords)

        monkeypatch.setattr(MetricField, "christoffel", failing)
    else:
        frame = nf._FrameJets.frame

        def injected(self, sign):
            fr = frame(self, sign)
            hit = const_term(self.pos[2]) == tm
            if kind == "gram":
                return dataclasses.replace(
                    fr, gram_residual=_where(hit, 1e-6, fr.gram_residual))
            return dataclasses.replace(fr, w=tuple(_where(hit, -c, c) for c in fr.w))

        monkeypatch.setattr(nf._FrameJets, "frame", injected)
    return metric, texts


INJECTED = ("not null", "domain", "degenerate", "christoffel", "gram", "discontinuity")
