import math
import random

import pytest
from hypothesis import strategies as st

from nullhelix import helix as helixmod
from nullhelix.exprparse import FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var
from nullhelix.nullframe import (NullCurve, ScreenPolicy, continuity_signs, null_transversal,
                                 screen_vector)
from nullhelix.semimetric import MetricField, bilinear, mat_vec
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
