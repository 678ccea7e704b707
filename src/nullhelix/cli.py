"""Command-line front end: load spec documents, run computations, emit reports.

Subcommands
-----------
frame        frames, curvatures and frame-equation residuals along a curve
synth        integrate a constant-curvature helix and check its identities
verify       cubic + metric identity suites on a closed-form/tangent curve
submanifold  fundamental forms, classification residuals and diagnostics
transfer     push an intrinsic helix through an immersion and re-measure it

Handlers return a report's rows and summary; ``run`` alone writes the report,
the CSV table of row keys and the exit code.  Reports are deterministic,
strict, single-line JSON (byte-identical for identical spec + flags; undefined
values are null, never NaN); all but ``submanifold`` can also write CSV.
Exit codes: 0 all residuals within tolerance, 1 residual failure, 2 usage or
spec error (including expression domain errors and overflows, Gram-drift
aborts, grids too short for the stencils, steps too small for their segments
and non-finite results).
"""

from __future__ import annotations

import argparse
import contextlib
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

FORMAT_VERSION = 3

_SEED_ORDER = ("e3", "e1", "e2")
# command -> the options it reads and their defaults: the config keys and flags
# it takes, and its report's config.  frame_field rejects a frame above
# FRAME_TOL with exit 2 first, so gram_tol can only tighten frame's Gram check.
_OPTIONS = {
    "frame": {"tol": 1e-7, "gram_tol": nfmod.FRAME_TOL, "samples": 50,
              "seed_order": _SEED_ORDER, "quad_step": 1e-3},
    "synth": {"tol": 1e-6, "samples": 501, "step": None, "project_every": 0,
              "drift_limit": helixmod.DRIFT_LIMIT},
    "verify": {"tol": 1e-7, "samples": 50, "seed_order": _SEED_ORDER,
               "quad_step": 1e-3},
    "submanifold": {"tol": 1e-8},
    "transfer": {"tol": 1e-6, "samples": 1001, "step": None, "project_every": 0,
                 "seed_order": _SEED_ORDER, "drift_limit": helixmod.DRIFT_LIMIT},
}
# option -> its flag and the flag's argparse keywords
_FLAGS = {
    "tol": ("--tol", {"type": float}),
    "step": ("--step", {"type": float}),
    "samples": ("--samples", {"type": int}),
    "project_every": ("--project", {"action": "store_const", "const": 100}),
    "seed_order": ("--seed-order", {"type": lambda v: [s.strip() for s in v.split(",")]}),
}
# the grid is built before any other check, so its length is capped up front
MAX_SAMPLES = 10 ** 6


class SpecError(ValueError):
    """A flag or spec document failed validation; the message names it."""


@dataclass
class SpecDocument:
    kind: str
    payload: dict
    config: dict
    sha256: str


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
    "seed_order": (lambda v: isinstance(v, list) and bool(v)
                   and all(isinstance(s, str) for s in v),
                   "a non-empty list of strings"),
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
    return SpecDocument(kind=kind, payload=payload, config=_config(doc.get("config")),
                        sha256=hashlib.sha256(raw).hexdigest())


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
    """The command's options: table defaults, then the config, then flags."""
    options = _OPTIONS[command]
    unread = sorted(set(config) - set(options))
    if unread:
        raise SpecError(f"config has keys '{command}' does not read: {unread}")
    cfg = {**options, **config}
    for key, (flag, _) in _FLAGS.items():
        value = getattr(args, key, None)
        if value is not None:
            _checked(value, _CONFIG_RULES[key], flag)
            # --project keeps a config's own projection interval
            cfg[key] = (cfg[key] or value) if key == "project_every" else value
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


def _emit(report: dict, out_path: str | None, csv_path: str | None, columns):
    """Write ``report`` to ``out_path`` (stdout when None) and the ``columns``
    of its rows to ``csv_path``, if given.  The report is serialised and the
    CSV opened first, so a non-finite value or a CSV that cannot be opened
    writes no report."""
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        path = _non_finite_path(report)
        if path is None:
            raise
        raise ValueError(f"report value {path} is not finite") from None
    with open(csv_path, "w") if csv_path else contextlib.nullcontext() as table:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if table:
            _write_csv(table, columns, report["rows"])


# command -> the row keys of its CSV table, in column order
_CSV_COLUMNS = {
    "frame": ("t", "point", "zeta", "n", "w", "gram_residual", "h", "k1", "k2"),
    "synth": ("t", "point", "zeta", "n", "w", "gram_drift", "cubic_residual"),
    "verify": ("t", "h", "k1", "k2", "cubic_residual"),
    "transfer": ("t", "h", "k1", "k2"),
}
# vector row key -> its three columns
_VECTOR_COLUMNS = {key: (f"{prefix}1", f"{prefix}2", f"{prefix}3") for key, prefix
                   in (("point", "x"), ("zeta", "zeta"), ("n", "n"), ("w", "w"))}


def _write_csv(fh, keys, rows):
    """The ``keys`` of each row as one line of the open file ``fh``; a vector
    key spans three columns, and an undefined (None) cell is written as nan."""
    fh.write(",".join(c for k in keys for c in _VECTOR_COLUMNS.get(k, (k,))) + "\n")
    for row in rows:
        cells = (v for k in keys for v in (row[k] if k in _VECTOR_COLUMNS else [row[k]]))
        text = ",".join(repr(math.nan if v is None else float(v)) for v in cells)
        fh.write(text + "\n")


def _curve_frames(doc: SpecDocument, cfg: dict):
    """The document's curve, the screen policy and the curve's frames on the
    grid; the curve is built first, so its errors precede the seed order's."""
    metric = doc.payload["metric"]
    c = doc.payload["curve"]
    if c["mode"] == "position":
        curve = NullCurve.position(metric, c["components"], c["domain"])
    else:
        curve = NullCurve.tangent(metric, c["components"], c["initial"], c["domain"],
                                  quad_step=cfg["quad_step"])
    policy = _policy(cfg, metric.dim)
    grid = _grid(curve.domain, cfg["samples"])
    return curve, policy, nfmod.frame_field(curve, grid, policy)


# -- subcommands ------------------------------------------------------------------


def _rows(*columns):
    """The samples of sample-array columns, one tuple of Python values per
    sample; a column that is a tuple of component arrays (a vector) gives
    each sample a list."""
    return zip(*([list(v) for v in zip(*(a.tolist() for a in c))] if isinstance(c, tuple)
                 else c.tolist() for c in columns))


def _cmd_frame(doc: SpecDocument, cfg: dict):
    curve, policy, frames = _curve_frames(doc, cfg)
    sample = nfmod.curvatures_at(curve, frames, policy)
    resids = tuple(map(nfmod.euclid_norm,
                       nfmod.frenet_residuals(curve, frames, sample, policy)))
    rows = [{
        "t": t, "point": p, "zeta": z, "n": n, "w": w, "h": h, "k1": k1, "k2": k2,
        "geodesic_type": geo, "null_residual": null, "gram_residual": gram,
        "frenet_residuals": r,
    } for t, p, z, n, w, h, k1, k2, geo, null, gram, r in _rows(
        frames.t, frames.point, frames.zeta, frames.n, frames.w, sample.h, sample.k1,
        sample.k2, sample.geodesic_type, frames.null_residual, frames.gram_residual,
        resids)]
    # left-to-right maxima from 0.0, as a loop over the rows takes them
    max_gram = max([0.0, *(row["gram_residual"] for row in rows)])
    max_resid = max([0.0, *(r for row in rows for r in row["frenet_residuals"])])
    return rows, {
        "pass": max_gram <= cfg["gram_tol"] and max_resid <= cfg["tol"],
        "max_gram_residual": max_gram,
        "max_frenet_residual": max_resid,
        "tolerances": {"gram": cfg["gram_tol"], "frenet": cfg["tol"]},
    }


def _build_helix_spec(doc: SpecDocument, cfg) -> tuple:
    """The helix, its sample grid and its RK4 step."""
    metric = doc.payload["metric"]
    hp = doc.payload["helix"]
    spec = helixmod.HelixSpec(
        h=hp["h"], k1=hp["k1"], k2=hp["k2"],
        initial_point=hp["initial_point"], zeta0=hp["zeta"], n0=hp["n"],
        w0=hp["w"], metric=metric,
    )
    return spec, _grid(hp["domain"], cfg["samples"]), cfg["step"] or hp["step"]


def _cmd_synth(doc: SpecDocument, cfg: dict):
    spec, grid, step = _build_helix_spec(doc, cfg)
    helixmod.require_stencil_samples("synth", grid, "three", helixmod.CUBIC_MIN_SAMPLES)
    trace = helixmod.synthesize(spec, grid, step,
                                project_every=cfg["project_every"],
                                drift_limit=cfg["drift_limit"])
    report = helixmod.identity_reports_from_trace(trace)
    cubics = dict(zip(*(a.tolist() for a in helixmod.cubic_residuals_from_trace(trace))))
    columns = (trace.times, trace.points, trace.zetas, trace.ns, trace.ws, trace.gram_drift,
               trace.err_est)
    rows = [{"t": t, "point": p, "zeta": z, "n": n, "w": w, "gram_drift": d, "err_est": e,
             "cubic_residual": cubics.get(t)}
            for t, p, z, n, w, d, e in zip(*(c.tolist() for c in columns))]
    # the grid check above guarantees a cubic residual; per-sample maxima first
    max_dev = max(map(max, zip(*(d.tolist() for d in report.deviations))))
    max_cubic = max(cubics.values())
    return rows, {
        "pass": max_dev <= cfg["tol"] and max_cubic <= cfg["tol"],
        "max_gram_drift": max(row["gram_drift"] for row in rows),
        "max_error_estimate": max(row["err_est"] for row in rows),
        "max_identity_deviation": max_dev,
        "max_cubic_residual": max_cubic,
        "tolerances": {"identity": cfg["tol"], "cubic": cfg["tol"]},
    }


def _cmd_verify(doc: SpecDocument, cfg: dict):
    curve, policy, frames = _curve_frames(doc, cfg)
    sample = nfmod.curvatures_at(curve, frames, policy)
    rep = helixmod.metric_identity_suite(curve, frames, sample, policy)
    cubics = helixmod.cubic_identity_residual(curve, frames, sample, policy)
    rows = [{
        "t": t, "h": h, "k1": k1, "k2": k2, "cubic_residual": cubic,
        "scalars": scalars, "targets": targets, "deviations": deviations,
    } for t, h, k1, k2, cubic, scalars, targets, deviations in _rows(
        frames.t, sample.h, sample.k1, sample.k2, cubics, rep.scalars, rep.targets,
        rep.deviations)]
    # left-to-right maxima from 0.0, as a loop over the rows takes them
    max_cubic = max([0.0, *(row["cubic_residual"] for row in rows)])
    max_dev = max([0.0, *(d for row in rows for d in row["deviations"])])
    return rows, {
        "pass": max_cubic <= cfg["tol"] and max_dev <= cfg["tol"],
        "max_cubic_residual": max_cubic,
        "max_identity_deviation": max_dev,
        "curvature_constancy": helixmod.constancy_report(sample),
        "tolerances": {"cubic": cfg["tol"], "identity": cfg["tol"]},
    }


def _cmd_submanifold(doc: SpecDocument, cfg: dict):
    F = doc.payload["immersion"]
    rows = []
    max_duality = 0.0
    submanifold.axis_derivatives(F, doc.payload["samples"])
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
        par = max(submanifold.parallel_H_residual(F, u, e) for e in coords)
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
            row["diag_D1_minus_H"] = nfmod.euclid_norm([a - b for a, b in zip(d1, h_vec)])
            row["diag_D2_norm"] = nfmod.euclid_norm(d2)
        except ValueError:
            row["diag_D1_minus_H"] = None
            row["diag_D2_norm"] = None
        max_duality = max(max_duality, duality)
        rows.append(row)
    return rows, {
        "pass": max_duality <= cfg["tol"],
        "max_duality_residual": max_duality,
        "tolerances": {"duality": cfg["tol"]},
    }


def _cmd_transfer(doc: SpecDocument, cfg: dict):
    F = doc.payload["immersion"]
    policy = _policy(cfg, F.ambient.dim)
    spec, grid, step = _build_helix_spec(doc, cfg)
    rep = submanifold.helix_transfer(F, spec, grid, step, policy=policy,
                                     project_every=cfg["project_every"],
                                     drift_limit=cfg["drift_limit"])
    c = rep.curvatures
    rows = [{"t": t, "h": h, "k1": k1, "k2": k2} for t, h, k1, k2
            in zip(c.t.tolist(), c.h.tolist(), c.k1.tolist(), c.k2.tolist())]
    return rows, {
        "pass": all(v <= cfg["tol"] for v in rep.constancy.values()),
        "constancy_deviation": rep.constancy,
        "geodesic_residual_max": rep.geodesic_max,
        "geodesic_residual_samples": list(rep.geodesic_samples),
        "isometry_deviation": rep.isometry_max,
        "nullity_residual": rep.nullity_max,
        "tolerances": {"constancy": cfg["tol"]},
    }


_COMMANDS = {
    "frame": (_cmd_frame, "curve"),
    "synth": (_cmd_synth, "helix"),
    "verify": (_cmd_verify, "curve"),
    "submanifold": (_cmd_submanifold, "immersion"),
    "transfer": (_cmd_transfer, "transfer"),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``run`` to report, instead of exiting."""

    def error(self, message):
        raise SpecError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nullframe",
        description="Null Frenet frames, helix synthesis and submanifold checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--spec", required=True, help="spec document (JSON)")
        for key, (flag, kwargs) in _FLAGS.items():
            if key in options:
                sp.add_argument(flag, dest=key, default=None, **kwargs)
        sp.add_argument("--out", default=None, help="write the JSON report here")
        if name in _CSV_COLUMNS:
            sp.add_argument("--csv", default=None, help="write a CSV trace here")
    return ap


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        handler, expected_kind = _COMMANDS[args.command]
        doc = load_spec(args.spec)
        if doc.kind != expected_kind:
            raise SpecError(f"'{args.command}' needs a {expected_kind!r} document, "
                            f"got {doc.kind!r}")
        cfg = _resolve(doc.config, args, args.command)
        rows, summary = handler(doc, cfg)
        _emit({"format_version": FORMAT_VERSION, "command": args.command,
               "spec_sha256": doc.sha256, "config": cfg, "rows": rows,
               "summary": summary}, args.out, getattr(args, "csv", None),
              _CSV_COLUMNS.get(args.command, ()))
        return 0 if summary["pass"] else 1
    except SystemExit:  # --help has printed the help
        return 0
    except (OSError, ValueError, exprparse.DomainError,
            helixmod.GramDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
