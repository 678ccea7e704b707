"""Seeded spec documents for the benchmark workloads.

Every document carries the subcommand and flags it runs with, the exit code
the CLI must return, and oracles on the parsed report.  The seed only picks
numeric values; which document classes a pass holds, how many of each, and
which flags they use are fixed per workload, so the cost of a pass does not
depend on the seed.

Oracles come from analytic facts, never from an earlier run's output:

* the circular null helix (a cos wt, a sin wt, a w t) on diag(-1, -1, 1) has
  (h, k1, k2) = (0, a w^2, -1/(2a)); a = w = 1 is the C1 fixture
  (docs/c1_fixture.md) and the general case follows from t -> w t and the
  homothety x -> a x;
* a conformal rescaling keeps the curve null but breaks the helix identities;
* the slice (u1, u2, u3, 0) is totally geodesic, the graph (u1, u2, u3,
  u3^2/2) is not;
* a sphere of radius R has |H| = 1/R and is totally umbilical; the index-2
  pseudosphere satisfies D1 = H and D2 = 0.

Inputs stay inside the documented domain of every subcommand.  Random
flat-chart helices are redrawn until |zeta| stays below MAX_TANGENT on the
whole domain.  synth's finite-difference cubic residual at spacing 0.01 grows
with the frame: about 1e-9 where max |zeta| is 2, but 2.2e-6 where it reached
149 (h^2 + 2 k1 k2 = 0.96 on [0, 5]), which fails the 1e-6 tolerance with
exit 1 at a point no analytic rule predicts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("flat_synth", "curve_frames", "curved_ambient")

FLAT3 = {"dim": 3, "metric": {"type": "diag", "signs": [-1, -1, 1]}}
AMB4 = {"dim": 4, "metric": {"type": "diag", "signs": [-1, -1, 1, 1]}}
EUCLID3 = {"dim": 3, "metric": {"type": "diag", "signs": [1, 1, 1]}}
CURVED3 = {"dim": 3, "metric": {"type": "field", "entries": [
    ["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]]}}
MAX_TANGENT = 20.0


@dataclass
class Doc:
    """One CLI invocation: spec document, flags, and what it must produce."""

    name: str
    command: str
    spec: dict
    expect_exit: int
    checks: list  # (report path, op, value); see check_report
    csv: bool = False  # pass --csv and check the trace's line count
    project: bool = False  # pass --project
    rk4_steps: int = 0  # RK4 steps the helix integration must take

    @property
    def samples(self) -> int:
        return self.spec["config"]["samples"]


def _r(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def rk4_steps(domain, samples: int, step: float) -> int:
    """nsub * segments * 3: full-step run plus the half-step shadow run."""
    span = (domain[1] - domain[0]) / (samples - 1)
    nsub = max(1, math.ceil(span / step - 1e-9))
    return 3 * nsub * (samples - 1)


def _flat_null_frame(zeta, flip: bool):
    """Seed-e3 frame (N, W) for a null tangent of diag(-1, -1, 1)."""
    gz = (-zeta[0], -zeta[1], zeta[2])
    ntilde = (0.0, 0.0, 1.0 / gz[2])
    nn = ntilde[2] * ntilde[2]
    n = [ntilde[i] - 0.5 * nn * zeta[i] for i in range(3)]
    gn = (-n[0], -n[1], n[2])
    w = [gz[1] * gn[2] - gz[2] * gn[1],
         gz[2] * gn[0] - gz[0] * gn[2],
         gz[0] * gn[1] - gz[1] * gn[0]]
    scale = (-1.0 if flip else 1.0) / math.sqrt(w[0] ** 2 + w[1] ** 2 - w[2] ** 2)
    return n, [scale * c for c in w]


def _max_tangent(h, k1, k2, zeta, n, w, t1, dt=0.01) -> float:
    """Largest |zeta(t)| on [0, t1] of the flat-chart frame flow.

    With constant curvatures and vanishing Christoffel symbols, each
    coordinate of (zeta, N, W) obeys y' = A y with A = [[h, 0, k1],
    [0, -h, k2], [k2, k1, 0]]; a degree-6 Taylor step of A dt propagates it.
    """
    a = [[h * dt, 0.0, k1 * dt], [0.0, -h * dt, k2 * dt], [k2 * dt, k1 * dt, 0.0]]
    step = [[float(i == j) for j in range(3)] for i in range(3)]
    term = [row[:] for row in step]
    for k in range(1, 7):
        term = [[sum(term[i][m] * a[m][j] for m in range(3)) / k for j in range(3)]
                for i in range(3)]
        step = [[step[i][j] + term[i][j] for j in range(3)] for i in range(3)]
    y = [list(zeta), list(n), list(w)]
    largest = 0.0
    for _ in range(int(round(t1 / dt)) + 1):
        largest = max(largest, math.sqrt(sum(c * c for c in y[0])))
        y = [[sum(step[i][m] * y[m][c] for m in range(3)) for c in range(3)]
             for i in range(3)]
    return largest


def _random_helix(rng: random.Random, domain, step, x3_zero=False) -> dict:
    """Random constant curvatures with a valid seed-built initial frame.

    Follows ``random_helix_spec`` in tests/conftest.py.  With ``x3_zero`` the
    initial point lies on x3 = 0, where diag(-1, -1, 1 + x3^2) equals the flat
    chart, so the flat-built frame is valid there too.
    """
    while True:
        h, k1, k2 = _r(rng, -1.0, 1.0), _r(rng, 0.1, 2.0), _r(rng, -1.0, 1.0)
        theta, s = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)
        zeta = [s * math.cos(theta), s * math.sin(theta), s]
        point = [_r(rng, -1.0, 1.0) for _ in range(3)]
        if x3_zero:
            point[2] = 0.0
        n, w = _flat_null_frame(zeta, flip=rng.random() < 0.5)
        if _max_tangent(h, k1, k2, zeta, n, w, domain[1] - domain[0]) <= MAX_TANGENT:
            break
    return {"h": h, "k1": k1, "k2": k2, "initial_point": point,
            "initial_frame": {"zeta": zeta, "n": n, "w": w},
            "domain": list(domain), "step": step}


def _circular_helix(rng: random.Random, domain, step) -> dict:
    """Initial data of (a cos(wt + p), a sin(wt + p), a w t) on the flat chart.

    Its seed-built frame is the integrated one at every t, so h, k1, k2
    measured by the screen policy stay (0, a w^2, -1/(2a)).
    """
    a, w, p = _r(rng, 0.8, 1.25), _r(rng, 0.8, 1.25), rng.uniform(0.0, 2.0 * math.pi)
    zeta = [-a * w * math.sin(p), a * w * math.cos(p), a * w]
    n, wv = _flat_null_frame(zeta, flip=False)
    if wv[0] * math.cos(p) + wv[1] * math.sin(p) > 0.0:  # orient so k1 > 0
        wv = [-c for c in wv]
    return {"h": 0.0, "k1": a * w * w, "k2": -0.5 / a,
            "initial_point": [a * math.cos(p), a * math.sin(p), 0.0],
            "initial_frame": {"zeta": zeta, "n": n, "w": wv},
            "domain": list(domain), "step": step}


def _synth_doc(name, metric, helix, samples, project=False, csv=False) -> Doc:
    spec = {"kind": "helix", "metric": metric, "helix": helix,
            "config": {"samples": samples}}
    return Doc(name, "synth", spec, 0,
               [("summary.max_identity_deviation", "<=", 1e-6),
                ("summary.max_cubic_residual", "<=", 1e-6)],
               csv=csv, project=project,
               rk4_steps=rk4_steps(helix["domain"], samples, helix["step"]))


def flat_synth(rng: random.Random) -> list:
    """synth on random helices over the flat chart, [0, 5], step 1e-3."""
    docs = []
    for i, (project, csv) in enumerate([(False, False), (True, False), (False, True)]):
        helix = _random_helix(rng, (0.0, 5.0), 1e-3)
        docs.append(_synth_doc(f"flat{i}", FLAT3, helix, 501, project, csv))
    return docs


def _conformal(c: float) -> dict:
    e = f"exp({2.0 * c!r}*x3)"
    return {"dim": 3, "metric": {"type": "field", "entries": [
        [f"-{e}", "0", "0"], ["0", f"-{e}", "0"], ["0", "0", e]]}}


def _curve(metric, mode, comps, domain, initial=None) -> dict:
    curve = {"mode": mode, "components": comps, "domain": domain}
    if initial is not None:
        curve["initial"] = initial
    return {"kind": "curve", "metric": metric, "curve": curve,
            "config": {"samples": 30}}


def curve_frames(rng: random.Random) -> list:
    """frame and verify on two flat helices, two conformal ones, one tangent curve."""
    docs = []
    frame_ok = [("summary.max_gram_residual", "<=", 1e-9),
                ("summary.max_frenet_residual", "<=", 1e-7)]
    for i in range(2):
        a, w = (1.0, 1.0) if i == 0 else (_r(rng, 0.7, 1.4), _r(rng, 0.7, 1.4))
        comps = [f"{a!r}*cos({w!r}*t)", f"{a!r}*sin({w!r}*t)", f"{a * w!r}*t"]
        spec = _curve(FLAT3, "position", comps, [0.0, 2.0 * math.pi])
        kappa = [("rows[].h", "near", (0.0, 1e-9)),
                 ("rows[].k1", "near", (a * w * w, 1e-9)),
                 ("rows[].k2", "near", (-0.5 / a, 1e-9))]
        docs.append(Doc(f"flat{i}.frame", "frame", spec, 0, frame_ok + kappa))
        docs.append(Doc(f"flat{i}.verify", "verify", spec, 0,
                        [("summary.max_cubic_residual", "<=", 1e-7),
                         ("summary.max_identity_deviation", "<=", 1e-7),
                         ("summary.curvature_constancy.*", "<=", 1e-9)] + kappa))
    for i in range(2):
        c = _r(rng, 0.1, 0.3) * rng.choice((-1.0, 1.0))
        a, w = _r(rng, 0.7, 1.4), _r(rng, 0.7, 1.4)
        comps = [f"{a!r}*cos({w!r}*t)", f"{a!r}*sin({w!r}*t)", f"{a * w!r}*t"]
        spec = _curve(_conformal(c), "position", comps, [0.0, 2.0 * math.pi])
        docs.append(Doc(f"conformal{i}.frame", "frame", spec, 0, list(frame_ok)))
        docs.append(Doc(f"conformal{i}.verify", "verify", spec, 1,
                        [("summary.max_cubic_residual", ">", 1e-3)]))
    w = _r(rng, 0.7, 1.3)
    comps = [f"cos({w!r}*t^2)", f"sin({w!r}*t^2)", "1"]
    initial = [_r(rng, -1.0, 1.0) for _ in range(3)]
    spec = _curve(FLAT3, "tangent", comps, [0.5, 1.0], initial)
    docs.append(Doc("tangent.frame", "frame", spec, 0, list(frame_ok)))
    docs.append(Doc("tangent.verify", "verify", spec, 1,
                    [("summary.max_cubic_residual", ">", 1e-2)]))
    return docs


def _transfer_doc(name, map_, metric, helix, samples, expect_exit, checks) -> Doc:
    spec = {"kind": "transfer",
            "immersion": {"intrinsic_dim": 3, "ambient": AMB4, "map": map_},
            "metric": metric, "helix": helix, "config": {"samples": samples}}
    return Doc(name, "transfer", spec, expect_exit, checks,
               rk4_steps=rk4_steps(helix["domain"], samples, helix["step"]))


def _immersion_doc(name, dim, ambient, map_, samples, checks) -> Doc:
    spec = {"kind": "immersion",
            "immersion": {"intrinsic_dim": dim, "ambient": ambient, "map": map_},
            "samples": samples}
    return Doc(name, "submanifold", spec, 0,
               [("summary.max_duality_residual", "<=", 1e-8)] + checks)


def curved_ambient(rng: random.Random) -> list:
    """Curved-chart synth, slice and graph transfers, three submanifolds."""
    docs = [_synth_doc("curved.synth", CURVED3,
                       _random_helix(rng, (0.0, 0.6), 1e-3, x3_zero=True), 301)]
    for i in range(2):
        docs.append(_transfer_doc(
            f"slice{i}.transfer", ["u1", "u2", "u3", "0"], FLAT3,
            _circular_helix(rng, (0.0, 1.0), 1e-3), 501, 0,
            [("summary.constancy_deviation.*", "<=", 1e-6),
             ("summary.geodesic_residual_max", "<=", 1e-10)]))
    docs.append(_transfer_doc(
        "graph.transfer", ["u1", "u2", "u3", "u3^2/2"], CURVED3,
        _circular_helix(rng, (0.0, 1.0), 2e-3), 501, 1,
        [("summary.constancy_deviation.*", "max>", 1e-3),
         ("summary.geodesic_residual_max", ">", 0.1)]))
    radius = _r(rng, 1.0, 3.0)
    docs.append(_immersion_doc(
        "sphere.submanifold", 2, EUCLID3,
        [f"{radius!r}*sin(u1)*cos(u2)", f"{radius!r}*sin(u1)*sin(u2)",
         f"{radius!r}*cos(u1)"],
        [[_r(rng, 0.5, 2.5), _r(rng, 0.0, 3.0)] for _ in range(4)],
        [("rows[].mean_curvature_norm", "near", (1.0 / radius, 1e-8)),
         ("rows[].umbilical_residual", "<=", 1e-8)]))
    docs.append(_immersion_doc(
        "pseudosphere.submanifold", 3, AMB4,
        ["sinh(u1)*cos(u2)", "sinh(u1)*sin(u2)", "cosh(u1)*cos(u3)",
         "cosh(u1)*sin(u3)"],
        [[_r(rng, 0.3, 1.2), _r(rng, 0.0, 3.0), _r(rng, 0.0, 3.0)]
         for _ in range(4)],
        [("rows[].diag_D1_minus_H", "<=", 1e-7),
         ("rows[].diag_D2_norm", "<=", 1e-8)]))
    docs.append(_immersion_doc(
        "graph.submanifold", 3, AMB4, ["u1", "u2", "u3", "u3^2/2"],
        [[_r(rng, -1.0, 1.0) for _ in range(3)] for _ in range(4)], []))
    return docs


def generate(workload: str, seed: int) -> list:
    """The workload's documents for one seed (same seed, same documents)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return globals()[workload](rng)


def _values(node, parts):
    if not parts:
        yield node
        return
    head, rest = parts[0], parts[1:]
    if head.endswith("[]"):
        for item in node[head[:-2]]:
            yield from _values(item, rest)
    elif head == "*":
        for item in node.values():
            yield from _values(item, rest)
    else:
        yield from _values(node[head], rest)


def check_report(report: dict, checks) -> list:
    """Oracle misses of a parsed report, as readable strings (empty if none)."""
    misses = []
    for path, op, bound in checks:
        try:
            values = list(_values(report, path.split(".")))
            if not values:
                misses.append(f"{path}: no values")
            elif op == "max>":
                if not max(values) > bound:
                    misses.append(f"{path}: max {max(values)!r} not > {bound!r}")
            else:
                for v in values:
                    if op == "<=":
                        ok = v <= bound
                    elif op == ">":
                        ok = v > bound
                    else:  # near
                        ok = abs(v - bound[0]) <= bound[1]
                    if not ok:
                        misses.append(f"{path}: {v!r} fails {op} {bound!r}")
                        break
        except (KeyError, TypeError) as exc:
            misses.append(f"{path}: missing or not a number ({exc!r})")
    return misses
