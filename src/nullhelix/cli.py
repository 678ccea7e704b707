"""Command-line front end: load spec documents, run computations, emit reports.

Subcommands
-----------
frame        frames, curvatures and frame-equation residuals along a curve
synth        integrate a constant-curvature helix and check its identities
verify       cubic + metric identity suites on a closed-form/tangent curve
submanifold  fundamental forms, classification residuals and diagnostics
transfer     push an intrinsic helix through an immersion and re-measure it

Reports are deterministic, strict, single-line JSON (byte-identical for
identical spec + flags; undefined values are null, never NaN); all but
``submanifold`` can also write CSV.  Exit codes: 0 all residuals within tolerance,
1 residual failure, 2 usage or spec error (including expression domain errors
and overflows, Gram-drift aborts, grids too short for the stencils, steps too
small for their segments and non-finite results).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass

from . import exprparse
from . import helix as helixmod
from . import nullframe as nfmod
from . import semimetric, submanifold
from .nullframe import NullCurve, ScreenPolicy

FORMAT_VERSION = 2

DEFAULT_TOL = {
    "frame_gram": 1e-9,
    "frame": 1e-7,  # frame-equation residuals on analytic curves
    "verify": 1e-7,  # identity residuals on analytic curves
    "synth": 1e-6,  # identity residuals on integrated traces
    "submanifold": 1e-8,  # duality consistency
    "transfer": 1e-6,  # ambient curvature constancy
}
DEFAULT_SAMPLES = {"frame": 50, "verify": 50, "synth": 501, "transfer": 1001}
# the grid is built before any other check, so its length is capped up front
MAX_SAMPLES = 10 ** 6


class SpecError(ValueError):
    """Spec document failed validation; message names the offending field."""


@dataclass
class SpecDocument:
    kind: str
    payload: dict
    config: dict


def _check_keys(obj: dict, required, optional=(), where: str = "document"):
    if not isinstance(obj, dict):
        raise SpecError(f"{where} must be a JSON object")
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise SpecError(f"{where} missing keys: {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise SpecError(f"{where} has unknown keys: {sorted(unknown)}")


def _number(obj, where):
    if not _is_finite(obj):
        raise SpecError(f"{where} must be a finite number")
    return float(obj)


def _vector(obj, length, where):
    if not isinstance(obj, list) or len(obj) != length:
        raise SpecError(f"{where} must be a list of {length} numbers")
    return tuple(_number(v, where) for v in obj)


def _domain(obj, where):
    lo, hi = _vector(obj, 2, where)
    if not lo < hi:
        raise SpecError(f"{where}: empty domain")
    return (lo, hi)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number, not a bool, whose value is a finite float."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


_NON_NEGATIVE = (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0")
_POSITIVE = (lambda v: _is_finite(v) and v > 0, "a positive finite number")
# config key -> (rule, what the rule asks for); values are checked, never coerced
_CONFIG_RULES = {
    "tol": _NON_NEGATIVE,
    "gram_tol": _NON_NEGATIVE,
    "step": (lambda v: v is None or (_is_finite(v) and v > 0),
             "null or a positive finite number"),
    "samples": (lambda v: _is_int(v) and 2 <= v <= MAX_SAMPLES,
                f"an integer in [2, {MAX_SAMPLES}]"),
    "project_every": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "seed_order": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                   "a list of strings"),
    "quad_step": _POSITIVE,
    "drift_limit": _POSITIVE,
}


def _checked(value, rule, where):
    """``value`` once it meets ``rule``, a (test, what it asks for) pair."""
    test, wanted = rule
    if not test(value):
        raise SpecError(f"{where} must be {wanted}, got {json.dumps(value)}")
    return value


def _config(obj) -> dict:
    if obj is None:
        return {}
    _check_keys(obj, (), _CONFIG_RULES, where="config")
    for key, value in obj.items():
        _checked(value, _CONFIG_RULES[key], f"config.{key}")
    return dict(obj)


def _metric(obj) -> semimetric.MetricField:
    try:
        return semimetric.MetricField.from_dict(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"metric: {exc}") from None


def load_spec(path: str) -> SpecDocument:
    """Load and validate a spec document; diagnostics name the failing field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "curve":
        _check_keys(doc, ("kind", "metric", "curve"), ("config",))
        payload = {"metric": _metric(doc["metric"]),
                   "curve": _curve_payload(doc["curve"])}
    elif kind == "helix":
        _check_keys(doc, ("kind", "metric", "helix"), ("config",))
        payload = {"metric": _metric(doc["metric"]),
                   "helix": _helix_payload(doc["helix"])}
    elif kind == "immersion":
        _check_keys(doc, ("kind", "immersion", "samples"), ("config",))
        payload = {"immersion": _immersion_payload(doc["immersion"]),
                   "samples": _samples_payload(doc["samples"], doc["immersion"])}
    elif kind == "transfer":
        _check_keys(doc, ("kind", "immersion", "metric", "helix"), ("config",))
        payload = {"immersion": _immersion_payload(doc["immersion"]),
                   "metric": _metric(doc["metric"]),
                   "helix": _helix_payload(doc["helix"])}
    else:
        raise SpecError(f"unknown document kind {kind!r}")
    sha = hashlib.sha256(raw).hexdigest()
    config = _config(doc.get("config"))
    config["spec_sha256"] = sha
    return SpecDocument(kind=kind, payload=payload, config=config)


def _curve_payload(obj) -> dict:
    _check_keys(obj, ("mode", "components", "domain"), ("initial",), where="curve")
    mode = obj["mode"]
    if mode not in ("position", "tangent"):
        raise SpecError(f"curve.mode must be 'position' or 'tangent', got {mode!r}")
    comps = obj["components"]
    if not isinstance(comps, list) or len(comps) != 3 \
            or not all(isinstance(c, str) for c in comps):
        raise SpecError("curve.components must be 3 expression strings")
    out = {
        "mode": mode,
        "components": comps,
        "domain": _domain(obj["domain"], "curve.domain"),
    }
    if mode == "tangent":
        if "initial" not in obj:
            raise SpecError("curve.initial is required in tangent mode")
        out["initial"] = _vector(obj["initial"], 3, "curve.initial")
    elif "initial" in obj:
        raise SpecError("curve.initial is only valid in tangent mode")
    return out


def _helix_payload(obj) -> dict:
    _check_keys(
        obj,
        ("h", "k1", "k2", "initial_point", "initial_frame", "domain", "step"),
        where="helix",
    )
    frame = obj["initial_frame"]
    _check_keys(frame, ("zeta", "n", "w"), where="helix.initial_frame")
    return {
        "h": _number(obj["h"], "helix.h"),
        "k1": _number(obj["k1"], "helix.k1"),
        "k2": _number(obj["k2"], "helix.k2"),
        "initial_point": _vector(obj["initial_point"], 3, "helix.initial_point"),
        "zeta": _vector(frame["zeta"], 3, "helix.initial_frame.zeta"),
        "n": _vector(frame["n"], 3, "helix.initial_frame.n"),
        "w": _vector(frame["w"], 3, "helix.initial_frame.w"),
        "domain": _domain(obj["domain"], "helix.domain"),
        "step": float(_checked(obj["step"], _POSITIVE, "helix.step")),
    }


def _immersion_payload(obj) -> submanifold.Immersion:
    try:
        return submanifold.Immersion.from_dict(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"immersion: {exc}") from None


def _samples_payload(obj, imm_doc) -> list:
    m = imm_doc.get("intrinsic_dim")
    if not isinstance(obj, list) or not obj:
        raise SpecError("samples must be a non-empty list of chart points")
    return [_vector(row, m, "samples[]") for row in obj]


# -- report plumbing -------------------------------------------------------------


def _resolve(config: dict, args, command: str) -> dict:
    cfg = {
        "tol": DEFAULT_TOL[command],
        "gram_tol": DEFAULT_TOL["frame_gram"],
        "samples": DEFAULT_SAMPLES.get(command, 50),
        "step": None,
        "project_every": 0,
        "seed_order": ["e3", "e1", "e2"],
        "quad_step": 1e-3,
        "drift_limit": helixmod.DRIFT_LIMIT,
    }
    cfg.update({k: v for k, v in config.items() if k != "spec_sha256"})
    for key in ("tol", "step", "samples"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = _checked(value, _CONFIG_RULES[key], f"--{key}")
    if args.project:
        cfg["project_every"] = cfg["project_every"] or 100
    if args.seed_order is not None:
        cfg["seed_order"] = [s.strip() for s in args.seed_order.split(",")]
    cfg["spec_sha256"] = config.get("spec_sha256")
    return cfg


def _policy(cfg: dict, dim: int) -> ScreenPolicy:
    """The screen policy of ``cfg``; every seed axis must exist in a chart of
    dimension ``dim`` (the framed chart: the ambient one for transfer)."""
    try:
        policy = ScreenPolicy.from_names(cfg["seed_order"])
    except ValueError as exc:
        raise SpecError(f"seed order: {exc}") from None
    for i in policy.seeds:
        if i >= dim:
            raise SpecError(f"seed order: axis e{i + 1} does not exist in a "
                            f"{dim}-dimensional chart")
    return policy


def _grid(domain, samples: int):
    t0, t1 = domain
    dt = (t1 - t0) / (samples - 1)
    return [t0 + i * dt for i in range(samples)]


def _non_finite_path(value, path: str = ""):
    """Path of the first non-finite float in a report, in the encoder's key
    order (``rows[0].mean_curvature[0]``), or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for p, v in items:
        found = _non_finite_path(v, p)
        if found is not None:
            return found
    return None


def _emit(report: dict, out_path: str | None):
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        path = _non_finite_path(report)
        if path is None:
            raise
        raise ValueError(f"report value {path} is not finite") from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _report(command: str, cfg: dict, rows, summary) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "spec_sha256": cfg.get("spec_sha256"),
        "config": {k: v for k, v in cfg.items() if k != "spec_sha256"},
        "rows": rows,
        "summary": summary,
    }


def _build_curve(payload: dict, metric, cfg) -> NullCurve:
    c = payload
    if c["mode"] == "position":
        return NullCurve.position(metric, c["components"], c["domain"])
    return NullCurve.tangent(metric, c["components"], c["initial"], c["domain"],
                             quad_step=cfg["quad_step"])


# -- subcommands ------------------------------------------------------------------


def _cmd_frame(doc: SpecDocument, args) -> int:
    cfg = _resolve(doc.config, args, "frame")
    metric = doc.payload["metric"]
    curve = _build_curve(doc.payload["curve"], metric, cfg)
    policy = _policy(cfg, metric.dim)
    grid = _grid(curve.domain, cfg["samples"])
    frames = nfmod.frame_field(curve, grid, policy)
    rows = []
    max_gram = 0.0
    max_resid = 0.0
    for fr in frames:
        sample = nfmod.curvatures_at(curve, fr, policy)
        r1, r2, r3 = nfmod.frenet_residuals(curve, fr, sample, policy)
        gram = fr.gram_residual
        resids = (nfmod.euclid_norm(r1), nfmod.euclid_norm(r2), nfmod.euclid_norm(r3))
        max_gram = max(max_gram, gram)
        max_resid = max(max_resid, *resids)
        rows.append({
            "t": fr.t, "point": list(fr.point), "zeta": list(fr.zeta),
            "n": list(fr.n), "w": list(fr.w),
            "h": sample.h, "k1": sample.k1, "k2": sample.k2,
            "geodesic_type": sample.geodesic_type,
            "null_residual": fr.null_residual, "gram_residual": gram,
            "frenet_residuals": list(resids),
        })
    ok = max_gram <= cfg["gram_tol"] and max_resid <= cfg["tol"]
    summary = {
        "pass": ok,
        "max_gram_residual": max_gram,
        "max_frenet_residual": max_resid,
        "tolerances": {"gram": cfg["gram_tol"], "frenet": cfg["tol"]},
    }
    _emit(_report("frame", cfg, rows, summary), args.out)
    if args.csv:
        header = ["t", "x1", "x2", "x3", "zeta1", "zeta2", "zeta3",
                  "n1", "n2", "n3", "w1", "w2", "w3", "gram_residual",
                  "h", "k1", "k2"]
        _write_csv(args.csv, header, [
            [r["t"], *r["point"], *r["zeta"], *r["n"], *r["w"],
             r["gram_residual"], r["h"], r["k1"], r["k2"]]
            for r in rows
        ])
    return 0 if ok else 1


def _build_helix_spec(doc: SpecDocument, cfg) -> tuple:
    metric = doc.payload["metric"]
    hp = doc.payload["helix"]
    spec = helixmod.HelixSpec(
        h=hp["h"], k1=hp["k1"], k2=hp["k2"],
        initial_point=hp["initial_point"], zeta0=hp["zeta"], n0=hp["n"],
        w0=hp["w"], metric=metric,
    )
    return spec, hp["domain"], cfg["step"] or hp["step"]


def _cmd_synth(doc: SpecDocument, args) -> int:
    cfg = _resolve(doc.config, args, "synth")
    spec, domain, step = _build_helix_spec(doc, cfg)
    grid = _grid(domain, cfg["samples"])
    helixmod.require_stencil_samples("synth", grid, "three", helixmod.CUBIC_MIN_SAMPLES)
    trace = helixmod.synthesize(spec, grid, step,
                                project_every=cfg["project_every"],
                                drift_limit=cfg["drift_limit"])
    reports = helixmod.identity_reports_from_trace(trace)
    cubics = {r.t: r.cubic_residual for r in reports if r.cubic_residual is not None}
    rows = []
    for i, t in enumerate(trace.times):
        rows.append({
            "t": t, "point": list(trace.points[i]), "zeta": list(trace.zetas[i]),
            "n": list(trace.ns[i]), "w": list(trace.ws[i]),
            "gram_drift": trace.gram_drift[i], "err_est": trace.err_est[i],
            "cubic_residual": cubics.get(t),
        })
    # the grid check above guarantees at least one cubic residual
    max_dev = max(max(r.deviations) for r in reports)
    max_cubic = max(cubics.values())
    ok = max_dev <= cfg["tol"] and max_cubic <= cfg["tol"]
    summary = {
        "pass": ok,
        "max_gram_drift": max(trace.gram_drift),
        "max_error_estimate": max(trace.err_est),
        "max_identity_deviation": max_dev,
        "max_cubic_residual": max_cubic,
        "tolerances": {"identity": cfg["tol"], "cubic": cfg["tol"]},
    }
    _emit(_report("synth", cfg, rows, summary), args.out)
    if args.csv:
        header = ["t", "x1", "x2", "x3", "zeta1", "zeta2", "zeta3",
                  "n1", "n2", "n3", "w1", "w2", "w3", "gram_drift",
                  "cubic_residual"]
        _write_csv(args.csv, header, [
            [r["t"], *r["point"], *r["zeta"], *r["n"], *r["w"],
             r["gram_drift"], cubics.get(r["t"], math.nan)]
            for r in rows
        ])
    return 0 if ok else 1


def _cmd_verify(doc: SpecDocument, args) -> int:
    cfg = _resolve(doc.config, args, "verify")
    metric = doc.payload["metric"]
    curve = _build_curve(doc.payload["curve"], metric, cfg)
    policy = _policy(cfg, metric.dim)
    grid = _grid(curve.domain, cfg["samples"])
    frames = nfmod.frame_field(curve, grid, policy)
    rows = []
    samples = []
    max_cubic = 0.0
    max_dev = 0.0
    for fr in frames:
        sample = nfmod.curvatures_at(curve, fr, policy)
        rep = helixmod.metric_identity_suite(curve, fr, sample, policy)
        samples.append(sample)
        max_cubic = max(max_cubic, rep.cubic_residual)
        max_dev = max(max_dev, *rep.deviations)
        rows.append({
            "t": fr.t, "h": sample.h, "k1": sample.k1, "k2": sample.k2,
            "cubic_residual": rep.cubic_residual,
            "scalars": list(rep.scalars), "targets": list(rep.targets),
            "deviations": list(rep.deviations),
        })
    ok = max_cubic <= cfg["tol"] and max_dev <= cfg["tol"]
    summary = {
        "pass": ok,
        "max_cubic_residual": max_cubic,
        "max_identity_deviation": max_dev,
        "curvature_constancy": helixmod.constancy_report(samples),
        "tolerances": {"cubic": cfg["tol"], "identity": cfg["tol"]},
    }
    _emit(_report("verify", cfg, rows, summary), args.out)
    if args.csv:
        header = ["t", "h", "k1", "k2", "cubic_residual"]
        _write_csv(args.csv, header, [
            [r["t"], r["h"], r["k1"], r["k2"], r["cubic_residual"]] for r in rows
        ])
    return 0 if ok else 1


def _cmd_submanifold(doc: SpecDocument, args) -> int:
    cfg = _resolve(doc.config, args, "submanifold")
    F = doc.payload["immersion"]
    rows = []
    max_duality = 0.0
    for u in doc.payload["samples"]:
        u = list(u)
        basis = submanifold.normal_basis(F, u)  # names a rank drop first
        h_vec = submanifold.mean_curvature(F, u)
        duality = 0.0
        coords = [[1.0 if b == a else 0.0 for b in range(F.m)] for a in range(F.m)]
        for a in range(F.m):
            for b in range(F.m):
                for d in range(len(basis)):
                    duality = max(
                        duality,
                        submanifold.duality_residual(F, u, coords[a], coords[b], d),
                    )
        par = max(
            submanifold.parallel_H_residual(F, u, coords[a]) for a in range(F.m)
        )
        row = {
            "u": list(u),
            "geodesic_residual": submanifold.geodesic_residual(F, u),
            "umbilical_residual": submanifold.umbilical_residual(F, u),
            "mean_curvature": list(h_vec),
            "mean_curvature_norm": nfmod.euclid_norm(h_vec),
            "duality_residual": duality,
            "parallel_H_residual": par,
        }
        try:
            xi_i, xi_j, xi_k = submanifold.null_triple(F, u)
            d1, d2 = submanifold.umbilical_diagnostic(F, u, xi_i, xi_j, xi_k)
            row["diag_D1_minus_H"] = nfmod.euclid_norm(
                [a - b for a, b in zip(d1, h_vec)]
            )
            row["diag_D2_norm"] = nfmod.euclid_norm(d2)
        except ValueError:
            row["diag_D1_minus_H"] = None
            row["diag_D2_norm"] = None
        max_duality = max(max_duality, duality)
        rows.append(row)
    ok = max_duality <= cfg["tol"]
    summary = {
        "pass": ok,
        "max_duality_residual": max_duality,
        "tolerances": {"duality": cfg["tol"]},
    }
    _emit(_report("submanifold", cfg, rows, summary), args.out)
    return 0 if ok else 1


def _cmd_transfer(doc: SpecDocument, args) -> int:
    cfg = _resolve(doc.config, args, "transfer")
    F = doc.payload["immersion"]
    policy = _policy(cfg, F.ambient.dim)
    spec, domain, step = _build_helix_spec(doc, cfg)
    grid = _grid(domain, cfg["samples"])
    rep = submanifold.helix_transfer(F, spec, grid, step, policy=policy,
                                     project_every=cfg["project_every"],
                                     drift_limit=cfg["drift_limit"])
    rows = [
        {"t": rep.times[i], "h": rep.h[i], "k1": rep.k1[i], "k2": rep.k2[i]}
        for i in range(len(rep.times))
    ]
    ok = all(v <= cfg["tol"] for v in rep.constancy.values())
    summary = {
        "pass": ok,
        "constancy_deviation": rep.constancy,
        "geodesic_residual_max": rep.geodesic_max,
        "geodesic_residual_samples": list(rep.geodesic_samples),
        "isometry_deviation": rep.isometry_max,
        "nullity_residual": rep.nullity_max,
        "tolerances": {"constancy": cfg["tol"]},
    }
    _emit(_report("transfer", cfg, rows, summary), args.out)
    if args.csv:
        _write_csv(args.csv, ["t", "h", "k1", "k2"],
                   [[r["t"], r["h"], r["k1"], r["k2"]] for r in rows])
    return 0 if ok else 1


_COMMANDS = {
    "frame": (_cmd_frame, "curve"),
    "synth": (_cmd_synth, "helix"),
    "verify": (_cmd_verify, "curve"),
    "submanifold": (_cmd_submanifold, "immersion"),
    "transfer": (_cmd_transfer, "transfer"),
}
_CSV_COMMANDS = ("frame", "synth", "verify", "transfer")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nullframe",
        description="Null Frenet frames, helix synthesis and submanifold checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--spec", required=True, help="spec document (JSON)")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--step", type=float, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--project", action="store_true")
        sp.add_argument("--seed-order", dest="seed_order", default=None)
        sp.add_argument("--out", default=None, help="write the JSON report here")
        if name in _CSV_COMMANDS:
            sp.add_argument("--csv", default=None, help="write a CSV trace here")
    return ap


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, expected_kind = _COMMANDS[args.command]
    try:
        doc = load_spec(args.spec)
        if doc.kind != expected_kind:
            raise SpecError(
                f"'{args.command}' needs a {expected_kind!r} document, "
                f"got {doc.kind!r}"
            )
        return handler(doc, args)
    except (OSError, ValueError, exprparse.DomainError,
            helixmod.GramDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
