import contextlib
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullhelix import helix as hx
from nullhelix import nullframe as nf
from nullhelix import cli
from nullhelix import submanifold as sb
from nullhelix.cli import _OPTIONS, SpecError, _parser, load_spec, run
from nullhelix.exprparse import BinOp, Var, to_text
from nullhelix.jets import Jet
from nullhelix.semimetric import MetricField

from conftest import INJECTED, expr_trees, flat_null_frame, inject, reference_run

FLAT3 = {"dim": 3, "metric": {"type": "diag", "signs": [-1, -1, 1]}}
AMB4 = {"dim": 4, "metric": {"type": "diag", "signs": [-1, -1, 1, 1]}}

C1_DOC = {
    "kind": "curve",
    "metric": FLAT3,
    "curve": {"mode": "position", "components": ["cos(t)", "sin(t)", "t"],
              "domain": [0.0, 2.0 * math.pi]},
}

HELIX_DOC = {
    "kind": "helix",
    "metric": FLAT3,
    "helix": {"h": 0.0, "k1": 1.0, "k2": -0.5, "initial_point": [1, 0, 0],
              "initial_frame": {"zeta": [0, 1, 1], "n": [0, -0.5, 0.5],
                                "w": [-1, 0, 0]},
              "domain": [0.0, 2.0], "step": 1e-3},
}

SPHERE_DOC = {
    "kind": "immersion",
    "immersion": {"intrinsic_dim": 2,
                  "ambient": {"dim": 3, "metric": {"type": "diag", "signs": [1, 1, 1]}},
                  "map": ["2*sin(u1)*cos(u2)", "2*sin(u1)*sin(u2)", "2*cos(u1)"]},
    "samples": [[1.2, 0.4], [0.9, 2.0]],
}

TRANSFER_DOC = {
    "kind": "transfer",
    "immersion": {"intrinsic_dim": 3, "ambient": AMB4,
                  "map": ["u1", "u2", "u3", "0"]},
    "metric": FLAT3,
    "helix": HELIX_DOC["helix"],
}


TANGENT_DOC = {
    "kind": "curve",
    "metric": FLAT3,
    "curve": {"mode": "tangent", "components": ["cos(t)", "sin(t)", "1"],
              "initial": [1.0, 0.0, 0.0], "domain": [0.0, 0.5]},
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_spec_kinds(tmp_path):
    for name, doc in [("c.json", C1_DOC), ("h.json", HELIX_DOC),
                      ("i.json", SPHERE_DOC), ("t.json", TRANSFER_DOC)]:
        loaded = load_spec(_write(tmp_path, name, doc))
        assert loaded.kind == doc["kind"]
        assert len(loaded.sha256) == 64
        assert "spec_sha256" not in loaded.config


def test_load_spec_rejects_unknown_keys(tmp_path):
    doc = dict(C1_DOC)
    doc["surprise"] = 1
    with pytest.raises(SpecError, match="unknown keys"):
        load_spec(_write(tmp_path, "bad.json", doc))
    doc2 = json.loads(json.dumps(C1_DOC))
    doc2["curve"]["extra"] = True
    with pytest.raises(SpecError, match="unknown keys"):
        load_spec(_write(tmp_path, "bad2.json", doc2))


def test_load_spec_asymmetric_metric(tmp_path):
    doc = {
        "kind": "curve",
        "metric": {"dim": 2, "metric": {"type": "field",
                                        "entries": [["1", "x1"], ["x2", "1"]]}},
        "curve": {"mode": "position", "components": ["t", "t", "t"],
                  "domain": [0, 1]},
    }
    with pytest.raises(SpecError, match=r"not symmetric at \(1,2\)"):
        load_spec(_write(tmp_path, "bad.json", doc))


def test_load_spec_empty_domain(tmp_path):
    doc = json.loads(json.dumps(C1_DOC))
    doc["curve"]["domain"] = [2.0, 1.0]
    with pytest.raises(SpecError, match="empty domain"):
        load_spec(_write(tmp_path, "bad.json", doc))


def test_load_spec_bad_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec(str(path))


def test_verify_exit_zero_and_values(tmp_path, capsys):
    spec = _write(tmp_path, "c1.json", C1_DOC)
    out = str(tmp_path / "rep.json")
    code = run(["verify", "--spec", spec, "--tol", "1e-8", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["format_version"] == 3
    assert rep["summary"]["pass"] is True
    row = rep["rows"][0]
    assert row["h"] == pytest.approx(0.0, abs=1e-12)
    assert row["k1"] == pytest.approx(1.0, abs=1e-12)
    assert row["k2"] == pytest.approx(-0.5, abs=1e-12)


def test_verify_exit_one_on_tight_tolerance(tmp_path):
    spec = _write(tmp_path, "c1.json", C1_DOC)
    code = run(["verify", "--spec", spec, "--tol", "1e-30",
                "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_synth_step_zero_is_usage_error(tmp_path, capsys):
    spec = _write(tmp_path, "h.json", HELIX_DOC)
    code = run(["synth", "--spec", spec, "--step", "0"])
    assert code == 2
    assert "step" in capsys.readouterr().err


def test_synth_grid_too_short_for_stencils_is_usage_error(tmp_path, capsys):
    doc = json.loads(json.dumps(HELIX_DOC))
    doc["helix"]["domain"] = [0.0, 1.0]
    doc["config"] = {"samples": 11}
    spec = _write(tmp_path, "h.json", doc)
    assert run(["synth", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "at least 19" in err


def test_synth_drift_abort_is_usage_error(tmp_path, capsys):
    doc = json.loads(json.dumps(HELIX_DOC))
    doc["helix"].update({"h": 3.0, "k1": 5.0, "k2": 4.0, "step": 0.05,
                         "domain": [0.0, 5.0]})
    spec = _write(tmp_path, "drift.json", doc)
    assert run(["synth", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Gram drift" in err


def test_synth_nan_drift_aborts_at_first_sample(tmp_path, capsys):
    spec = _write(tmp_path, "nan.json", _with(HELIX_DOC, helix__h=1e160))
    assert run(["synth", "--spec", spec, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Gram drift nan exceeds")
    assert f"at t = {2.0 / 500}" in err


def test_transfer_drift_abort_is_usage_error(tmp_path, capsys):
    doc = json.loads(json.dumps(TRANSFER_DOC))
    doc["config"] = {"drift_limit": 1e-30}
    spec = _write(tmp_path, "t.json", doc)
    assert run(["transfer", "--spec", spec]) == 2
    assert capsys.readouterr().err.startswith("error: Gram drift")


def test_transfer_grid_too_short_is_usage_error(tmp_path, capsys):
    doc = json.loads(json.dumps(TRANSFER_DOC))
    doc["helix"]["domain"] = [0.0, 1.0]
    spec = _write(tmp_path, "t.json", doc)
    assert run(["transfer", "--spec", spec, "--samples", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "at least 14" in err


def test_frame_domain_error_is_usage_error(tmp_path, capsys):
    doc = {
        "kind": "curve",
        "metric": FLAT3,
        "curve": {"mode": "position",
                  "components": ["cos(log(t))", "sin(log(t))", "log(t)"],
                  "domain": [-1.0, 1.0]},
    }
    spec = _write(tmp_path, "log.json", doc)
    assert run(["frame", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "log" in err


def _field_helix(entries, initial_point, frame, domain, step, config=None):
    doc = {"kind": "helix",
           "metric": {"dim": 3, "metric": {"type": "field", "entries": entries}},
           "helix": {"h": 0.0, "k1": 1.0, "k2": -0.5, "initial_point": initial_point,
                     "initial_frame": frame, "domain": domain, "step": step}}
    if config is not None:
        doc["config"] = config
    return doc


def test_synth_reaching_a_log_singularity_names_it(tmp_path, capsys):
    # at x3 = e the chart is diag(-1, -1, 1), where the C1 frame with zeta_3
    # reversed is valid; coarse steps carry an RK4 stage below x3 = 0
    doc = _field_helix([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "log(x3)"]],
                       [0, 0, math.e], {"zeta": [0, 1, -1], "n": [0, -0.5, -0.5],
                                        "w": [-1, 0, 0]},
                       [0.0, 13.0], 10.0, {"samples": 20, "drift_limit": 1e300})
    assert run(["synth", "--spec", _write(tmp_path, "log.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == "error: log of non-positive value in 'log(x3)'\n"


def test_synth_leaving_the_domain_at_a_block_edge_names_it(tmp_path, capsys, monkeypatch):
    # the chart above, run to where the first RK4 stage past x3 = 0 falls in
    # the segment that ends at sample CHECK_BLOCK, just after the first block
    # of samples is checked
    samples, span = hx.CHECK_BLOCK + 1, 1.2775
    doc = _field_helix([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "log(x3)"]],
                       [0, 0, math.e], {"zeta": [0, 1, -1], "n": [0, -0.5, -0.5],
                                        "w": [-1, 0, 0]},
                       [0.0, span], span / (samples - 1),
                       {"samples": samples, "drift_limit": 1e300})
    calls = []
    rk4 = hx._rk4_steps

    def counted(*args):
        calls.append(args)
        return rk4(*args)

    monkeypatch.setattr(hx, "_rk4_steps", counted)
    assert run(["synth", "--spec", _write(tmp_path, "log.json", doc)]) == 2
    # two calls a segment, the full step first
    assert len(calls) == 2 * hx.CHECK_BLOCK - 1
    err = capsys.readouterr().err
    assert err == "error: log of non-positive value in 'log(x3)'\n"


def test_synth_derivative_only_domain_error_is_usage_error(tmp_path, capsys):
    # g_33 = 1 + sqrt(x3) is 1 at x3 = 0, but its x3-derivative is not finite
    doc = _field_helix([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + sqrt(x3)"]],
                       [0, 0, 0], HELIX_DOC["helix"]["initial_frame"], [0.0, 2.0], 1e-3)
    assert run(["synth", "--spec", _write(tmp_path, "sqrt.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == "error: float division by zero in '1 / (2 * sqrt(x3))'\n"


def test_transfer_reaching_a_log_singularity_names_it(tmp_path, capsys):
    # the synth case above as a transfer: its intrinsic chart fails inside
    # the RK4 stage loop, before the immersion is compared with it
    helix = _field_helix([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "log(x3)"]],
                         [0, 0, math.e], {"zeta": [0, 1, -1], "n": [0, -0.5, -0.5],
                                          "w": [-1, 0, 0]},
                         [0.0, 13.0], 10.0, {"samples": 20, "drift_limit": 1e300})
    doc = {**TRANSFER_DOC, "metric": helix["metric"], "helix": helix["helix"],
           "config": helix["config"]}
    assert run(["transfer", "--spec", _write(tmp_path, "log.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == "error: log of non-positive value in 'log(x3)'\n"


def test_synth_beyond_the_rk4_step_cap_exits_quickly(tmp_path, capsys):
    doc = _field_helix([["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]],
                       [0, 0, 0], HELIX_DOC["helix"]["initial_frame"], [0.0, 2.0], 1e-9)
    spec = _write(tmp_path, "tiny-step.json", doc)
    start = time.perf_counter()
    assert run(["synth", "--spec", spec]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: step 1e-09 needs ")
    assert "more than MAX_RK4_STEPS = 1000000" in err
    assert "Traceback" not in err


def test_missing_file_is_usage_error(capsys):
    assert run(["verify", "--spec", "/nonexistent.json"]) == 2


def test_wrong_kind_for_command(tmp_path, capsys):
    spec = _write(tmp_path, "h.json", HELIX_DOC)
    assert run(["verify", "--spec", spec]) == 2
    assert "needs a 'curve' document" in capsys.readouterr().err


def test_synth_report_and_csv(tmp_path):
    spec = _write(tmp_path, "h.json", HELIX_DOC)
    out = str(tmp_path / "rep.json")
    csv_path = str(tmp_path / "trace.csv")
    code = run(["synth", "--spec", spec, "--samples", "201",
                "--out", out, "--csv", csv_path])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["summary"]["pass"] is True
    assert rep["summary"]["max_identity_deviation"] <= 1e-6
    lines = open(csv_path).read().splitlines()
    assert lines[0] == ("t,x1,x2,x3,zeta1,zeta2,zeta3,n1,n2,n3,"
                        "w1,w2,w3,gram_drift,cubic_residual")
    assert len(lines) == 202
    # the cubic residual is undefined at the trace's edge samples
    assert rep["rows"][0]["cubic_residual"] is None
    assert lines[1].split(",")[-1] == "nan"
    assert lines[-1].split(",")[-1] == "nan"


# README's CSV columns; a vector's components are x1..x3, zeta1..3, n1..3, w1..3
_FRAME_VECTORS = "x1,x2,x3,zeta1,zeta2,zeta3,n1,n2,n3,w1,w2,w3"
CSV_CASES = [
    ("frame", C1_DOC, "9", f"t,{_FRAME_VECTORS},gram_residual,h,k1,k2"),
    ("verify", C1_DOC, "9", "t,h,k1,k2,cubic_residual"),
    ("transfer", TRANSFER_DOC, "101", "t,h,k1,k2"),
]


def _csv_cell(row, column):
    for key, prefix in (("point", "x"), ("zeta", "zeta"), ("n", "n"), ("w", "w")):
        if column[:-1] == prefix and column[-1] in "123":
            return row[key][int(column[-1]) - 1]
    return row[column]


@pytest.mark.parametrize("command, doc, samples, header", CSV_CASES,
                         ids=[case[0] for case in CSV_CASES])
def test_csv_table_is_the_report_rows(tmp_path, command, doc, samples, header):
    spec = _write(tmp_path, "doc.json", doc)
    out = str(tmp_path / "rep.json")
    csv_path = str(tmp_path / "table.csv")
    assert run([command, "--spec", spec, "--samples", samples,
                "--out", out, "--csv", csv_path]) == 0
    rows = json.loads(open(out).read())["rows"]
    lines = open(csv_path).read().splitlines()
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    columns = header.split(",")
    for row, line in zip(rows, lines[1:]):
        assert line.split(",") == [repr(float(_csv_cell(row, c))) for c in columns]


def test_frame_command(monkeypatch, tmp_path):
    """The report reads the Gram residual ``frame_field`` checked the frames
    with: one Gram check over the grid's sample arrays, which gives each
    sample the bits of a check at that sample alone."""
    calls = []
    gram = nf.max_gram_residual

    def counted(*args):
        calls.append(args)
        return gram(*args)

    monkeypatch.setattr(nf, "max_gram_residual", counted)
    spec = _write(tmp_path, "c1.json", C1_DOC)
    out = str(tmp_path / "rep.json")
    code = run(["frame", "--spec", spec, "--samples", "25", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert len(rep["rows"]) == 25
    assert rep["summary"]["max_gram_residual"] <= 1e-9
    assert len(calls) == 1
    grams = [r["gram_residual"] for r in rep["rows"]]
    assert grams == gram(*calls[0]).tolist()
    flat = MetricField.diag([-1, -1, 1])
    assert grams == [gram(flat.matrix_at(r["point"]), r["zeta"], r["n"], r["w"])
                     for r in rep["rows"]]


def test_frame_reads_float_g_once_per_sample(tmp_path, monkeypatch):
    """Past the curve's index check at t0, ``frame --samples 25`` reads g at
    the samples' float points once, on their component arrays: each frame's
    Gram and null residuals share it."""
    points = []
    matrix_at = MetricField.matrix_at

    def counted(self, p):
        if not any(isinstance(c, Jet) for c in p):
            points.append(p)
        return matrix_at(self, p)

    monkeypatch.setattr(MetricField, "matrix_at", counted)
    spec = _write(tmp_path, "c1.json", C1_DOC)
    out = str(tmp_path / "rep.json")
    assert run(["frame", "--spec", spec, "--samples", "25", "--out", out]) == 0
    rows = json.loads(open(out).read())["rows"]
    assert len(rows) == 25
    assert len(points) == 2
    assert [list(p) for p in zip(*(c.tolist() for c in points[1]))] == \
        [r["point"] for r in rows]
    assert tuple(points[0]) == tuple(rows[0]["point"])  # t0 is the first sample


def test_frame_seed_order_flag(tmp_path):
    # restrict to a domain where g(zeta, e1) = sin t never vanishes: the
    # e1-first policy would otherwise switch seeds (a genuine screen jump)
    doc = json.loads(json.dumps(C1_DOC))
    doc["curve"]["domain"] = [0.3, 2.8]
    spec = _write(tmp_path, "c1.json", doc)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert run(["frame", "--spec", spec, "--samples", "10", "--out", out_a]) == 0
    assert run(["frame", "--spec", spec, "--samples", "10",
                "--seed-order", "e1,e3,e2", "--out", out_b]) == 0
    rep_a = json.loads(open(out_a).read())
    rep_b = json.loads(open(out_b).read())
    for ra, rb in zip(rep_a["rows"], rep_b["rows"]):
        assert abs(ra["k1"]) == pytest.approx(abs(rb["k1"]), abs=1e-8)


def test_frame_field_reports_seed_switch_discontinuity(tmp_path, capsys):
    # over the full period the e1-first policy must switch seeds: error out
    spec = _write(tmp_path, "c1.json", C1_DOC)
    code = run(["frame", "--spec", spec, "--samples", "10",
                "--seed-order", "e1,e3,e2"])
    assert code == 2
    assert "jumps" in capsys.readouterr().err


def test_submanifold_command(tmp_path):
    spec = _write(tmp_path, "s.json", SPHERE_DOC)
    out = str(tmp_path / "rep.json")
    code = run(["submanifold", "--spec", spec, "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    row = rep["rows"][0]
    assert row["umbilical_residual"] <= 1e-8
    assert row["mean_curvature_norm"] == pytest.approx(0.5, abs=1e-8)
    assert row["geodesic_residual"] == pytest.approx(0.5, abs=1e-8)
    assert rep["summary"]["max_duality_residual"] <= 1e-8


# the pseudosphere S^3_2 in the conformally flat e^{2 phi} diag(-1, -1, 1, 1),
# phi = 0.4 x3: the submanifold forms read the ambient connection
CONFORMAL_FACTOR = "exp(2*(0.4*x3))"
CONFORMAL_PSEUDOSPHERE_DOC = {
    "kind": "immersion",
    "immersion": {"intrinsic_dim": 3,
                  "ambient": {"dim": 4, "metric": {"type": "field", "entries": [
                      [("-" if i < 2 else "") + CONFORMAL_FACTOR if i == j else "0"
                       for j in range(4)] for i in range(4)]}},
                  "map": ["sinh(u1)*cos(u2)", "sinh(u1)*sin(u2)",
                          "cosh(u1)*cos(u3)", "cosh(u1)*sin(u3)"]},
    "samples": [[0.4, 0.3, -1.2], [1.1, -2.0, 0.7], [1.4, 2.5, 2.9]],
}


def test_submanifold_command_in_a_curved_ambient(tmp_path):
    """S^3_2 stays umbilical, with H~ = -e^{-2 phi} (1 + phi) x (Law 2 of
    docs/conformal_umbilic.md, phi linear), through the command."""
    spec = _write(tmp_path, "s.json", CONFORMAL_PSEUDOSPHERE_DOC)
    out = str(tmp_path / "rep.json")
    assert run(["submanifold", "--spec", spec, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert len(rep["rows"]) == 3
    for row in rep["rows"]:
        u1, u2, u3 = row["u"]
        x = [math.sinh(u1) * math.cos(u2), math.sinh(u1) * math.sin(u2),
             math.cosh(u1) * math.cos(u3), math.cosh(u1) * math.sin(u3)]
        phi = 0.4 * x[2]
        expected = [-math.exp(-2.0 * phi) * (1.0 + phi) * c for c in x]
        assert row["umbilical_residual"] <= 1e-12
        assert nf.euclid_norm([a - b for a, b in zip(row["mean_curvature"], expected)]) \
            <= 1e-12 * nf.euclid_norm(expected)
    assert rep["summary"]["max_duality_residual"] <= rep["config"]["tol"]


def test_submanifold_csv_is_usage_error(tmp_path, capsys):
    # submanifold writes no CSV table, so it takes no --csv
    spec = _write(tmp_path, "s.json", SPHERE_DOC)
    csv_path = tmp_path / "s.csv"
    assert run(["submanifold", "--spec", spec, "--csv", str(csv_path)]) == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not csv_path.exists()
    for command in ("frame", "synth", "verify", "transfer"):
        args = _parser().parse_args([command, "--spec", spec, "--csv", "t.csv"])
        assert args.csv == "t.csv"


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _with_curve(**fields):
    return {**C1_DOC, "curve": {**C1_DOC["curve"], **fields}}


# name -> (command, document, message): input checks, each before any report
INPUT_CHECKS = {
    "curve not an object": ("verify", {**C1_DOC, "curve": []},
                            "curve must be a JSON object"),
    "no curve": ("verify", _without(C1_DOC, "curve"), "document missing keys: ['curve']"),
    "short domain": ("verify", _with_curve(domain=[0]),
                     "curve.domain must be a list of 2 numbers"),
    "no kind": ("verify", {}, "document must be an object with a 'kind' field"),
    "no samples": ("submanifold", {**SPHERE_DOC, "samples": []},
                   "samples must be a non-empty list of chart points"),
    "infinite differential": ("submanifold", {
        "kind": "immersion",
        "immersion": {"intrinsic_dim": 3, "ambient": AMB4,
                      "map": ["u1", "u2", "u3", "u1*u1*1e300*1e300"]},
        "samples": [[1.0, 0.5, 0.2]]}, "differential is not finite at (1.0, 0.5, 0.2)"),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check_exits_2_without_a_report(tmp_path, capsys, case):
    command, doc, message = INPUT_CHECKS[case]
    out = tmp_path / "rep.json"
    assert run([command, "--spec", _write(tmp_path, "bad.json", doc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


EUCLID3 = {"dim": 3, "metric": {"type": "diag", "signs": [1, 1, 1]}}


@pytest.mark.parametrize("texts, u, message", [
    (["sqrt(u1)", "u2", "u1"], [0.0, 0.5],
     "float division by zero in '1 / (2 * sqrt(u1))'"),
    (["log(u1)", "u2", "u1"], [-1.0, 0.5], "log of non-positive value in 'log(u1)'"),
    (["u1", "u1", "0"], [0.1, 0.2], "differential has rank < 2 at (0.1, 0.2)"),
], ids=["sqrt-derivative", "log-map", "rank"])
def test_submanifold_errors_name_their_cause(tmp_path, capsys, texts, u, message):
    doc = {"kind": "immersion",
           "immersion": {"intrinsic_dim": 2, "ambient": EUCLID3, "map": texts},
           "samples": [u]}
    assert run(["submanifold", "--spec", _write(tmp_path, "s.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def _field(*entries):
    return {"dim": len(entries), "metric": {"type": "field", "entries": list(entries)}}


@pytest.mark.parametrize("command", ["frame", "verify"])
def test_degenerate_metric_on_a_curve_is_named(tmp_path, capsys, command):
    # g = x3^2 diag(-1, -1, 1) vanishes at t = 0, the middle sample
    doc = {**C1_DOC, "config": {"samples": 3},
           "metric": _field(["-x3^2", "0", "0"], ["0", "-x3^2", "0"],
                            ["0", "0", "x3^2"]),
           "curve": {**C1_DOC["curve"], "domain": [-1.0, 1.0]}}
    assert run([command, "--spec", _write(tmp_path, "c.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: metric degenerate at (1.0, 0.0, 0.0): ")


@pytest.mark.parametrize("command", ["frame", "verify"])
def test_curve_on_a_two_dimensional_metric_is_named(tmp_path, capsys, command):
    """The chart's dimension is named before the default seed order, whose
    first axis e3 a 2-dimensional chart lacks."""
    doc = {**C1_DOC, "metric": _field(["-1", "0"], ["0", "1"])}
    assert run([command, "--spec", _write(tmp_path, "c.json", doc)]) == 2
    assert capsys.readouterr().err == "error: null curves require a 3-dimensional chart\n"


def test_degenerate_ambient_metric_is_named(tmp_path, capsys):
    doc = {"kind": "immersion",
           "immersion": {"intrinsic_dim": 2,
                         "ambient": _field(["x3^2", "0", "0"], ["0", "1", "0"],
                                           ["0", "0", "1"]),
                         "map": ["u1", "u2", "0"]},
           "samples": [[0.3, 0.4]]}
    assert run(["submanifold", "--spec", _write(tmp_path, "s.json", doc)]) == 2
    assert "metric degenerate at (0.3, 0.4, 0.0)" in capsys.readouterr().err


@pytest.mark.parametrize("metric, message", [
    ({**FLAT3, "dim": True}, "'dim' must be an integer"),
    ({"dim": 3, "metric": {"type": "diag", "signs": [-1, -1, True]}},
     "'signs' entries must be -1 or 1, not booleans"),
], ids=["dim", "signs"])
def test_metric_booleans_are_rejected(tmp_path, capsys, metric, message):
    spec = _write(tmp_path, "c.json", {**C1_DOC, "metric": metric})
    assert run(["frame", "--spec", spec]) == 2
    assert capsys.readouterr().err == f"error: metric: {message}\n"


@pytest.mark.parametrize("metric, message", [
    ({"dim": 3, "metric": {"type": "diag", "signs": 5}},
     "'signs' must be a list of -1 and 1 entries"),
    ({"dim": 3, "metric": {"type": "field", "entries": 5}},
     "'entries' must be a list of rows of expression strings"),
], ids=["signs", "entries"])
def test_metric_fields_that_are_not_lists_are_named(tmp_path, capsys, metric, message):
    spec = _write(tmp_path, "c.json", {**C1_DOC, "metric": metric})
    assert run(["frame", "--spec", spec]) == 2
    assert capsys.readouterr().err == f"error: metric: {message}\n"


def test_transfer_command(tmp_path):
    spec = _write(tmp_path, "t.json", TRANSFER_DOC)
    out = str(tmp_path / "rep.json")
    code = run(["transfer", "--spec", spec, "--samples", "1001", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert all(v <= 1e-6 for v in rep["summary"]["constancy_deviation"].values())
    assert rep["summary"]["geodesic_residual_max"] <= 1e-12


def test_tangent_mode_curve_requires_initial(tmp_path):
    doc = json.loads(json.dumps(C1_DOC))
    doc["curve"]["mode"] = "tangent"
    with pytest.raises(SpecError, match="initial"):
        load_spec(_write(tmp_path, "bad.json", doc))


def test_verify_flags_non_helix_with_exit_one(tmp_path):
    doc = {
        "kind": "curve",
        "metric": FLAT3,
        "curve": {"mode": "tangent", "components": ["cos(t^2)", "sin(t^2)", "1"],
                  "initial": [0, 0, 0], "domain": [0.5, 2.0]},
    }
    spec = _write(tmp_path, "nonhelix.json", doc)
    out = str(tmp_path / "rep.json")
    code = run(["verify", "--spec", spec, "--samples", "20", "--out", out])
    assert code == 1
    rep = json.loads(open(out).read())
    assert rep["summary"]["pass"] is False
    assert rep["summary"]["max_cubic_residual"] > 0.01


def test_synth_project_flag(tmp_path):
    spec = _write(tmp_path, "h.json", HELIX_DOC)
    out = str(tmp_path / "rep.json")
    code = run(["synth", "--spec", spec, "--samples", "101", "--project",
                "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["config"]["project_every"] == 100


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_reports_are_strict_json(tmp_path):
    reports = {}
    for command, doc in (("frame", C1_DOC), ("synth", HELIX_DOC),
                         ("transfer", TRANSFER_DOC)):
        spec = _write(tmp_path, f"{command}.json", doc)
        out = tmp_path / f"{command}-report.json"
        assert run([command, "--spec", spec, "--samples", "201",
                    "--out", str(out)]) == 0
        reports[command] = json.loads(out.read_text(),
                                      parse_constant=_reject_constant)
        assert reports[command]["format_version"] == 3
    # the cubic stencils do not reach a synth trace's edge samples
    cubic = [row["cubic_residual"] for row in reports["synth"]["rows"]]
    assert cubic[0] is None and cubic[-1] is None
    assert isinstance(cubic[100], float)


# command -> (document, whether it writes a CSV too)
BYTE_IDENTITY_DOCS = {"frame": (C1_DOC, False), "verify": (C1_DOC, False),
                      "synth": (HELIX_DOC, True), "submanifold": (SPHERE_DOC, False),
                      "transfer": (TRANSFER_DOC, True)}


@pytest.mark.parametrize("command", list(BYTE_IDENTITY_DOCS))
def test_reports_are_byte_identical(tmp_path, command):
    """Two runs in one process write the same bytes: nothing a run keeps for
    the process (the flat propagator's cached increments) or for a trace (its
    decimated view) changes the next run's report or CSV."""
    doc, csv = BYTE_IDENTITY_DOCS[command]
    spec = _write(tmp_path, "doc.json", doc)
    outputs = []
    for name in ("a", "b"):
        argv = [command, "--spec", spec, "--out", str(tmp_path / f"{name}.json")]
        if csv:
            argv += ["--csv", str(tmp_path / f"{name}.csv")]
        assert run(argv) == 0
        outputs.append([(tmp_path / f"{name}.{ext}").read_bytes()
                        for ext in ("json", "csv")[:1 + csv]])
    assert outputs[0] == outputs[1]


def test_console_entry_point(tmp_path):
    spec = _write(tmp_path, "c1.json", C1_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "nullhelix.cli", "verify", "--spec", spec,
         "--samples", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["summary"]["pass"] is True


def _with(doc, config=None, **parts):
    out = json.loads(json.dumps(doc))
    for path, value in parts.items():
        node = out
        keys = path.split("__")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    if config is not None:
        out["config"] = config
    return out


NUMERIC_ENTRIES = {"dim": 3, "metric": {"type": "field",
                                        "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}


@pytest.mark.parametrize("command, doc", [
    ("synth", _with(HELIX_DOC, {"project_every": -3})),
    ("transfer", _with(TRANSFER_DOC, {"project_every": -3})),
    ("frame", _with(C1_DOC, {"samples": "10"})),
    ("frame", _with(C1_DOC, {"samples": 2.5})),
    ("frame", _with(C1_DOC, {"tol": "x"})),
    ("frame", _with(C1_DOC, {"gram_tol": None})),
    ("frame", _with(C1_DOC, {"seed_order": 5})),
    ("synth", _with(HELIX_DOC, {"step": "a"})),
    ("synth", _with(HELIX_DOC, {"project_every": 2.5})),
    ("frame", _with(TANGENT_DOC, {"quad_step": 0})),
    ("frame", _with(TANGENT_DOC, {"quad_step": -0.1})),
    ("frame", _with(C1_DOC, metric={"dim": 3, "metric": ["x"]})),
    ("frame", _with(C1_DOC, metric=NUMERIC_ENTRIES)),
    ("submanifold", _with(SPHERE_DOC, immersion__map=[1, 2, 3])),
    ("submanifold", _with(SPHERE_DOC, immersion__intrinsic_dim=True)),
    ("submanifold", _with(SPHERE_DOC, immersion__map="u1")),
    ("submanifold", _with(SPHERE_DOC, immersion__intrinsic_dim="2")),
    ("synth", _with(HELIX_DOC, helix__step=math.inf)),
    ("synth", _with(HELIX_DOC, helix__step=math.nan)),
    ("synth", _with(HELIX_DOC, helix__step=10 ** 400)),
    ("synth", _with(HELIX_DOC, helix__h=math.nan)),
    ("transfer", _with(TRANSFER_DOC, helix__domain=[0.0, math.inf])),
    ("synth --step nan", HELIX_DOC),
    ("synth --step inf", HELIX_DOC),
    ("frame --samples 5", _with(C1_DOC, curve__components=["cos(t)", "sin(t)",
                                                           "t + exp(1000)"])),
    ("frame --samples 5", _with(C1_DOC, curve__components=["cos(t)", "sin(t)",
                                                           "t * 10^400"])),
    ("synth --samples 501", _with(HELIX_DOC, helix__step=5e-324,
                                  helix__domain=[0.0, 5.0])),
    ("frame --samples 5", _with(TANGENT_DOC, curve__domain=[0.0, 1e9])),
    ("frame --samples 5", _with(TANGENT_DOC, {"quad_step": 1e-300})),
    ("frame", _with(C1_DOC, {"samples": 10 ** 12})),
    ("synth", _with(HELIX_DOC, {"samples": 10 ** 12})),
], ids=["synth-project_every-negative", "transfer-project_every-negative",
        "samples-string", "samples-float", "tol-string", "gram_tol-null",
        "seed_order-number", "step-string", "project_every-float",
        "quad_step-zero", "quad_step-negative", "metric-list",
        "metric-numeric-entries", "immersion-numeric-map",
        "immersion-intrinsic_dim-bool", "immersion-map-string",
        "immersion-intrinsic_dim-string",
        "helix-step-infinity", "helix-step-nan", "helix-step-401-digits",
        "helix-h-nan", "helix-domain-infinity", "flag-step-nan", "flag-step-inf",
        "curve-exp-overflow", "curve-pow-overflow", "helix-step-subnormal",
        "tangent-domain-1e9", "tangent-quad_step-1e-300",
        "samples-above-cap", "synth-samples-above-cap"])
def test_malformed_values_are_usage_errors(tmp_path, capsys, command, doc):
    command, *flags = command.split()
    spec = _write(tmp_path, "bad.json", doc)
    assert run([command, "--spec", spec, *flags, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    (_with(C1_DOC, kind="surface"), "unknown document kind 'surface'"),
    (_with(C1_DOC, curve__mode="arc"),
     "curve.mode must be 'position' or 'tangent', got 'arc'"),
    (_with(C1_DOC, curve__components=["t", "t"]),
     "curve.components must be 3 expression strings"),
    (_with(C1_DOC, curve__components="t"), "curve.components must be 3 expression strings"),
    (_with(C1_DOC, curve__components=["t", "t", 1]),
     "curve.components must be 3 expression strings"),
    (_with(C1_DOC, curve__initial=[0.0, 0.0, 0.0]),
     "curve.initial is only valid in tangent mode"),
    (_with(C1_DOC, curve__mode="tangent"), "curve.initial is required in tangent mode"),
], ids=["kind", "mode", "two-components", "components-string", "component-number",
        "initial-in-position-mode", "tangent-without-initial"])
def test_curve_document_checks_name_their_field(tmp_path, capsys, doc, message):
    spec = _write(tmp_path, "bad.json", doc)
    with pytest.raises(SpecError) as exc:
        load_spec(spec)
    assert str(exc.value) == message
    assert run(["frame", "--spec", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("part, value, message", [
    ("intrinsic_dim", True, "'intrinsic_dim' must be an integer"),
    ("intrinsic_dim", "2", "'intrinsic_dim' must be an integer"),
    ("map", "u1", "'map' must be a list of expression strings"),
])
def test_immersion_fields_are_named(tmp_path, capsys, part, value, message):
    spec = _write(tmp_path, "bad.json", _with(SPHERE_DOC, **{f"immersion__{part}": value}))
    assert run(["submanifold", "--spec", spec]) == 2
    assert capsys.readouterr().err == f"error: immersion: {message}\n"


@pytest.mark.parametrize("expr, subexpr", [
    ("t * 10^400", "10^400"), ("t + exp(1000)", "exp(1000)"),
])
def test_overflow_is_reported_as_a_sentence(tmp_path, capsys, expr, subexpr):
    spec = _write(tmp_path, "bad.json",
                  _with(C1_DOC, curve__components=["cos(t)", "sin(t)", expr]))
    assert run(["frame", "--spec", spec, "--samples", "5"]) == 2
    assert capsys.readouterr().err == f"error: result overflows a float in '{subexpr}'\n"


NON_FINITE_REPORT_DOCS = [
    # a sphere of radius 3e200: the induced metric, about r^2, overflows to
    # inf, and H comes out NaN
    ("submanifold", _with(SPHERE_DOC, immersion__map=[
        "3e200*sin(u1)*cos(u2)", "3e200*sin(u1)*sin(u2)", "3e200*cos(u1)"]),
     "rows[0].mean_curvature[0]"),
    # x2 reaches 1e200, where the full- and half-step runs differ by about
    # 1e184: the squared difference in the error estimate overflows
    ("synth", {"kind": "helix", "metric": {"dim": 3, "metric": {
        "type": "field",
        "entries": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x1^2"]]}},
        "helix": {"h": 0, "k1": 0, "k2": 0, "initial_point": [0, 0, 0],
                  "initial_frame": {"zeta": [0, 1, 1], "n": [0, -0.5, 0.5],
                                    "w": [1, 0, 0]},
                  "domain": [0, 1e200], "step": 1e199},
        "config": {"samples": 19}},
     "rows[3].err_est"),
]


def test_non_finite_report_value_is_named(tmp_path, capsys):
    for k, (command, doc, field) in enumerate(NON_FINITE_REPORT_DOCS):
        spec = _write(tmp_path, f"big{k}.json", doc)
        csv_path = tmp_path / f"big{k}.csv"
        csv = ["--csv", str(csv_path)] if command != "submanifold" else []
        assert run([command, "--spec", spec, *csv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: report value {field} is not finite\n"
        assert not csv_path.exists()  # the report is checked before the table


def test_non_finite_synthesis_raises_no_numpy_warning(tmp_path, capsys):
    """The Gram drift and err_est of a trace whose values overflow are array
    arithmetic that warns nothing: stderr holds the one error line."""
    synth_docs = [(doc, field) for command, doc, field in NON_FINITE_REPORT_DOCS
                  if command == "synth"]
    assert synth_docs
    for k, (doc, field) in enumerate(synth_docs):
        spec = _write(tmp_path, f"big{k}.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["synth", "--spec", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: report value {field} is not finite\n"


@pytest.mark.parametrize("command", ["frame", "verify"])
@pytest.mark.parametrize("text, message", [
    ("1 + 0*log(0.6 - t)", "log of non-positive value in 'log(0.6 - t)'"),
    ("1/(t - 0.75)", "division by zero constant term in '1 / (t - 0.75)'"),
    ("exp(1000*t^3)", "result overflows a float in 'exp(1000 * t^3)'"),
], ids=["log", "zero-divisor", "overflow"])
def test_tangent_quadrature_error_is_one_line_without_numpy_warnings(
        tmp_path, capsys, command, text, message):
    """The null tangent (f, 0, f) fails inside the quadrature's array block,
    which is replayed per node: the error is the per-node one, and numpy
    warns nothing."""
    spec = _write(tmp_path, "q.json", _with(TANGENT_DOC, curve__components=[text, "0", text],
                                            curve__domain=[0.0, 1.0],
                                            curve__initial=[0.0, 0.0, 0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--spec", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_exit_two_writes_no_report_when_a_file_cannot_be_opened(tmp_path, capsys):
    """A CSV that cannot be opened leaves no report, on disk or on stdout; a
    report that cannot be written leaves no CSV rows; a non-finite report
    writes neither file."""
    spec = _write(tmp_path, "c1.json", C1_DOC)
    out = tmp_path / "rep.json"
    missing_dir = str(tmp_path / "nodir" / "t.csv")
    assert run(["verify", "--spec", spec, "--samples", "5", "--out", str(out),
                "--csv", missing_dir]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    assert run(["verify", "--spec", spec, "--samples", "5", "--csv", missing_dir]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    csv_path = tmp_path / "t.csv"
    assert run(["verify", "--spec", spec, "--samples", "5",
                "--out", str(tmp_path / "nodir" / "rep.json"),
                "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv_path.exists() or csv_path.read_text() == ""
    command, doc, field = NON_FINITE_REPORT_DOCS[1]
    assert run([command, "--spec", _write(tmp_path, "big.json", doc),
                "--out", str(out), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == f"error: report value {field} is not finite\n"
    assert not out.exists()
    assert not csv_path.exists() or csv_path.read_text() == ""


def test_gram_tol_can_only_tighten_the_frame_gram_check(tmp_path, capsys):
    """frame_field rejects a frame above nullframe.FRAME_TOL with exit 2, so
    a looser gram_tol changes nothing; gram_tol = 0 fails C1 with exit 1."""
    big = _with(C1_DOC, {"gram_tol": 1e-3, "samples": 5},
                curve__components=["3000*cos(t)", "3000*sin(t)", "3000*t"],
                curve__domain=[0.0, 1.0])
    out = tmp_path / "rep.json"
    assert run(["frame", "--spec", _write(tmp_path, "big.json", big),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: frame Gram residual 1.863e-09 exceeds 1e-09 at t = 0.25\n")
    assert not out.exists()
    strict = _with(C1_DOC, {"gram_tol": 0})
    assert run(["frame", "--spec", _write(tmp_path, "strict.json", strict),
                "--out", str(out)]) == 1
    summary = json.loads(out.read_text())["summary"]
    assert summary["tolerances"]["gram"] == 0
    assert 0.0 < summary["max_gram_residual"] <= 1e-15
    assert summary["max_frenet_residual"] <= 1e-7
    # the default is the construction's own threshold
    default = tmp_path / "default.json"
    assert run(["frame", "--spec", _write(tmp_path, "c1.json", C1_DOC),
                "--out", str(default)]) == 0
    assert json.loads(default.read_text())["config"]["gram_tol"] == nf.FRAME_TOL


@pytest.mark.parametrize("flags, doc", [
    (["--seed-order", "e0,e3"], C1_DOC),
    ([], _with(C1_DOC, {"seed_order": ["e0"]})),
], ids=["flag-e0-e3", "config-e0"])
def test_seed_axis_e0_is_rejected(tmp_path, capsys, flags, doc):
    spec = _write(tmp_path, "c1.json", doc)
    assert run(["frame", "--spec", spec, "--samples", "10", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed order")
    assert "Traceback" not in err


def test_empty_seed_order_is_rejected_by_its_rule(tmp_path, capsys):
    """An empty seed order names the config key, not the curve's first sample."""
    spec = _write(tmp_path, "c1.json", _with(C1_DOC, {"seed_order": [], "samples": 5}))
    out = tmp_path / "r.json"
    assert run(["frame", "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config.seed_order must be a non-empty list of strings, got []\n")
    assert not out.exists()


@pytest.mark.parametrize("command, doc, seeds, axis, dim", [
    ("frame", C1_DOC, "e7", "e7", 3),
    ("verify", C1_DOC, "e3,e4", "e4", 3),
    ("transfer", TRANSFER_DOC, "e5,e1", "e5", 4),
], ids=["frame-e7", "verify-e4", "transfer-e5"])
def test_seed_axis_beyond_the_chart_is_named(tmp_path, capsys, command, doc, seeds,
                                             axis, dim):
    spec = _write(tmp_path, "doc.json", doc)
    assert run([command, "--spec", spec, "--samples", "201", "--seed-order", seeds,
                "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: seed order: axis {axis} ")
    assert f"{dim}-dimensional" in err
    assert "Traceback" not in err


def test_transfer_seeds_may_use_the_ambient_axis(tmp_path):
    spec = _write(tmp_path, "doc.json", TRANSFER_DOC)
    out = str(tmp_path / "r.json")
    assert run(["transfer", "--spec", spec, "--samples", "201",
                "--seed-order", "e4,e3,e1,e2", "--out", out]) == 0
    assert json.loads(open(out).read())["config"]["seed_order"][0] == "e4"


def test_transfer_of_a_null_geodesic_takes_w_from_a_seed_axis(tmp_path):
    """A null geodesic's acceleration has no screen part, so each ambient W is
    a seed axis projected into the screen; the curvatures still read 0."""
    helix = {**HELIX_DOC["helix"], "h": 0.0, "k1": 0.0, "k2": 0.0,
             "initial_point": [0, 0, 0], "domain": [0.0, 1.0]}
    spec = _write(tmp_path, "geodesic.json", {**TRANSFER_DOC, "helix": helix})
    out = str(tmp_path / "r.json")
    assert run(["transfer", "--spec", spec, "--samples", "201", "--out", out]) == 0
    rows = json.loads(open(out).read())["rows"]
    assert rows
    assert all(abs(row[key]) <= 1e-12 for row in rows for key in ("h", "k1", "k2"))


@pytest.mark.parametrize("command", [
    "verify --tol -1", "verify --tol nan", "verify --tol inf", "frame --samples 1",
    "frame --samples 1000000000000", "verify --samples 1000001",
])
def test_flag_values_follow_the_config_rules(tmp_path, capsys, command):
    command, flag, value = command.split()
    spec = _write(tmp_path, "c1.json", C1_DOC)
    assert run([command, "--spec", spec, flag, value,
                "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["frame", "--spec", "doc.json", "--bogus"],
    ["frame", "--spec", "doc.json", "--tol", "abc"],
    ["submanifold", "--spec", "doc.json", "--project", "--seed-order", "e9"],
    ["frame"],
    [],
], ids=["unknown-flag", "bad-flag-value", "flags-submanifold-lacks", "missing-spec",
        "missing-subcommand"])
def test_flag_errors_leave_one_error_line(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_help_lists_only_the_flags_of_the_command(capsys):
    assert run(["--help"]) == 0
    assert "frame" in capsys.readouterr().out
    table = {"tol": "--tol", "step": "--step", "samples": "--samples",
             "project_every": "--project", "seed_order": "--seed-order"}
    for command, options in _OPTIONS.items():
        assert run([command, "--help"]) == 0
        out, err = capsys.readouterr()
        flags = set(re.findall(r"--[a-z-]+", out)) - {"--help", "--spec", "--out", "--csv"}
        assert flags == {table[key] for key in options if key in table}
        assert err == ""


class _Reads(dict):
    """A config that records the keys read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command, doc", [
    ("frame", TANGENT_DOC), ("verify", TANGENT_DOC), ("synth", HELIX_DOC),
    ("submanifold", SPHERE_DOC), ("transfer", TRANSFER_DOC),
])
def test_each_command_reads_exactly_its_options(tmp_path, monkeypatch, command, doc):
    configs = []
    resolve = cli._resolve

    def recording(*args):
        configs.append(_Reads(resolve(*args)))
        return configs[-1]

    monkeypatch.setattr(cli, "_resolve", recording)
    assert run([command, "--spec", _write(tmp_path, "doc.json", doc),
                "--out", str(tmp_path / "r.json")]) == 0
    assert configs[0].read == set(_OPTIONS[command])
    report = json.loads((tmp_path / "r.json").read_text())
    assert set(report["config"]) == set(_OPTIONS[command])


@pytest.mark.parametrize("command, doc, key, value", [
    ("frame", C1_DOC, "drift_limit", 1e-4),
    ("verify", C1_DOC, "gram_tol", 1e-9),
    ("synth", HELIX_DOC, "seed_order", ["e3", "e1", "e2"]),
    ("submanifold", SPHERE_DOC, "samples", 5),
    ("transfer", TRANSFER_DOC, "quad_step", 1e-3),
])
def test_a_config_key_the_command_does_not_read_is_a_usage_error(
        tmp_path, capsys, command, doc, key, value):
    out = tmp_path / "r.json"
    spec = _write(tmp_path, "doc.json", _with(doc, {key: value}))
    assert run([command, "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: config has keys '{command}' does not read: ['{key}']\n")
    assert not out.exists()


CONFIG_KEYS = st.sampled_from(["tol", "step", "samples", "project_every", "seed_order",
                               "gram_tol", "quad_step", "drift_limit"])
CONFIG_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, 5, -3, 0.0, 0.5, 1e-3, -0.1, 1e300, "x", "10",
    [], ["e1", "e2", "e3"], ["e3", "x"], [1, 2], {},
])


@given(st.sampled_from([("frame", C1_DOC), ("frame", TANGENT_DOC), ("verify", C1_DOC),
                        ("verify", TANGENT_DOC), ("synth", HELIX_DOC),
                        ("submanifold", SPHERE_DOC), ("transfer", TRANSFER_DOC)]),
       st.dictionaries(CONFIG_KEYS, CONFIG_VALUES))
@settings(max_examples=100, deadline=None)
def test_any_config_gives_a_contract_exit_code(command_doc, config):
    """Five samples are too few for synth's and transfer's stencils, so their
    draws that pass the config checks exit 2 early."""
    command, doc = command_doc
    base = {"samples": 5} if "samples" in _OPTIONS[command] else {}
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{tmp}/doc.json"
        with open(spec, "w") as fh:
            json.dump(_with(doc, {**base, **config}), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--spec", spec, "--out", f"{tmp}/r.json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


CURVATURES = st.one_of(st.floats(-3.0, 3.0),
                       st.floats(allow_nan=False, allow_infinity=False))
VECTORS = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)


CURVED3 = {"dim": 3, "metric": {"type": "field", "entries": [
    ["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1 + x3^2"]]}}
# constant, index 2, with off-diagonal entries in the support
SKEW3 = {"dim": 3, "metric": {"type": "field", "entries": [
    ["-1", "0.5", "0"], ["0.5", "-1", "0"], ["0", "0", "1"]]}}


@st.composite
def helix_frames(draw, metric):
    """Half valid frames at x3 = 0 (a drawn null tangent, seeded N and W), half
    raw.  Each chart metric is block-diagonal there, with a negative definite
    (x1, x2) block."""
    if draw(st.booleans()):
        chart = MetricField.from_dict(metric)
        g = chart.matrix_at((0.0, 0.0, 0.0))
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        scale = draw(st.floats(0.1, 10.0))
        a = (math.cos(theta), math.sin(theta))
        q = -(g[0][0] * a[0] ** 2 + 2.0 * g[0][1] * a[0] * a[1] + g[1][1] * a[1] ** 2)
        zeta = (scale * a[0], scale * a[1], scale * math.sqrt(q / g[2][2]))
        n, w = flat_null_frame(chart, zeta, flip=draw(st.booleans()))
        return {"zeta": list(zeta), "n": list(n), "w": list(w)}
    return {"zeta": draw(VECTORS), "n": draw(VECTORS), "w": draw(VECTORS)}


@st.composite
def helix_blocks(draw, metric):
    """Helix blocks for ``metric``.  On the curved chart the initial point
    lies on x3 = 0, where the drawn valid frames are valid, and the step is
    at least 1e-2: its RK4 evaluates the connection at every stage."""
    t0 = draw(st.floats(-10.0, 10.0))
    point = draw(st.one_of(VECTORS, st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3)))
    curved = metric is CURVED3
    if curved:
        point[2] = 0.0
    return {
        "h": draw(CURVATURES), "k1": draw(CURVATURES), "k2": draw(CURVATURES),
        "initial_point": point,
        "initial_frame": draw(helix_frames(metric)),
        "domain": [t0, t0 + draw(st.floats(1e-3, 2.0))],
        "step": draw(st.floats(1e-2 if curved else 1e-3, 1.0)),
    }


@given(st.sampled_from([FLAT3, CURVED3, SKEW3]).flatmap(
           lambda metric: st.tuples(st.just(metric), helix_blocks(metric))),
       st.integers(2, 301))
@settings(max_examples=60, deadline=None)
def test_any_helix_block_gives_a_contract_exit_code(drawn, samples):
    metric, helix = drawn
    doc = {"kind": "helix", "metric": metric, "helix": helix,
           "config": {"samples": samples}}
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{tmp}/doc.json"
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["synth", "--spec", spec])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code != 2:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["summary"]["pass"] == (code == 0)


LEAVES = st.sampled_from(["t", "t", "0", "1", "2.5", "0.5", "1000", "1e-3", "3e300"])
EXPONENTS = st.one_of(st.integers(-3, 3), st.integers(-10 ** 9, 10 ** 9))


EXPRESSIONS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.builds("{}({})".format, st.sampled_from(
        ["sin", "cos", "sinh", "cosh", "exp", "log", "sqrt"]), inner),
    st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
    st.builds("({})^({})".format, inner, EXPONENTS),
    st.builds("-({})".format, inner),
), max_leaves=6)


@st.composite
def curve_blocks(draw):
    """Raw components, or null ones on diag(-1, -1, 1) built around drawn
    expressions, so that frames, curvatures and identities get evaluated."""
    mode = draw(st.sampled_from(["position", "tangent"]))
    e = draw(EXPRESSIONS)
    if draw(st.booleans()):
        comps = [draw(EXPRESSIONS) for _ in range(3)]
    elif mode == "position":  # r (cos E, sin E, E) has tangent r E' (-sin E, cos E, 1)
        r = draw(st.sampled_from(["1", "2.5", "1e-3", "3e300"]))
        comps = [f"{r} * cos({e})", f"{r} * sin({e})", f"{r} * ({e})"]
    else:  # F (cos E, sin E, 1) is null for any F
        f = draw(EXPRESSIONS)
        comps = [f"({f}) * cos({e})", f"({f}) * sin({e})", f]
    t0 = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)))
    # widths from 2 to 1e4 are left out: tangent mode integrates them in up to
    # a million quadrature nodes (tens of seconds), and rejects wider ones
    width = draw(st.one_of(st.floats(1e-3, 2.0), st.floats(1e4, 1e300)))
    block = {"mode": mode, "components": comps, "domain": [t0, t0 + width]}
    if mode == "tangent":
        block["initial"] = draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    return block


@given(st.sampled_from(["frame", "verify"]), curve_blocks())
@settings(max_examples=60, deadline=None)
def test_any_curve_block_gives_a_contract_exit_code(command, curve):
    doc = {"kind": "curve", "metric": FLAT3, "curve": curve, "config": {"samples": 5}}
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{tmp}/doc.json"
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--spec", spec])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code != 2:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["summary"]["pass"] == (code == 0)


def _diag_text(i, j):
    """Entry (i, j) of diag(-1, -1, 1), continued with +1 past the third axis."""
    return ("-1" if i < 2 else "1") if i == j else "0"


SIGN_VALUES = st.sampled_from([-1, 1, 0, True, False, "1", "-1", 1.0])
NOT_LISTS = st.sampled_from([5, "-1, -1, 1", None, {"0": -1}])
NOT_STRINGS = st.sampled_from([0, -1, 1.5, None, True, [], {}])


@st.composite
def metric_entries(draw, n):
    """Rows for a field metric: symmetric, asymmetric or ragged.  Every entry
    comes from diag(-1, -1, 1) in half the draws and about half of them in
    the rest; the others are drawn expression trees or non-strings."""
    shape = draw(st.sampled_from(["symmetric", "symmetric", "asymmetric", "ragged"]))
    keep = draw(st.booleans())
    sizes = [n] * n
    if shape == "ragged":
        sizes = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))

    def entry(i, j):
        if keep or draw(st.booleans()):
            return _diag_text(i, j)
        return draw(st.one_of(expr_trees(depth=2).map(to_text), NOT_STRINGS))

    rows = [[entry(i, j) for j in range(size)] for i, size in enumerate(sizes)]
    if shape == "symmetric":
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return rows


@st.composite
def metric_blocks(draw):
    """Metric blocks: ``dim`` a bool, a string or 1 to 5; ``type`` diag, field
    or unknown; ``signs`` and ``entries`` around diag(-1, -1, 1)."""
    dim = draw(st.sampled_from([3] * 6 + [True, False, "3", "three", 1, 2, 4, 5]))
    n = dim if type(dim) is int else 3
    kind = draw(st.sampled_from(["diag", "diag", "field", "field", "unknown"]))
    if kind == "field":
        return {"dim": dim, "metric": {"type": kind, "entries": draw(metric_entries(n))}}
    size = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1])))
    signs = draw(st.one_of(
        st.just([int(_diag_text(i, i)) for i in range(size)]),
        st.lists(SIGN_VALUES, min_size=size, max_size=size), NOT_LISTS))
    return {"dim": dim, "metric": {"type": kind, "signs": signs}}


@given(metric_blocks())
@settings(max_examples=60, deadline=None)
def test_any_metric_block_gives_a_contract_exit_code(metric):
    doc = {**C1_DOC, "metric": metric}
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{tmp}/doc.json"
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["frame", "--spec", spec, "--samples", "3"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code != 2:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["summary"]["pass"] == (code == 0)


SAMPLE_COORDS = st.one_of(st.floats(-3.0, 3.0),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def immersion_documents(draw):
    """``immersion`` documents over E3, diag(-1, -1, 1) or diag(-1, -1, 1, 1):
    drawn map components, half of them shifted off u_k so the differential
    tends to have full rank, and drawn chart points."""
    ambient = draw(st.sampled_from([EUCLID3, FLAT3, AMB4]))
    n = ambient["dim"]
    m = draw(st.integers(1, 3))
    names = tuple(f"u{a + 1}" for a in range(m))
    trees = [draw(expr_trees(names, depth=3)) for _ in range(n)]
    if draw(st.booleans()):
        trees = [BinOp("+", Var(names[k]), e) if k < m else e
                 for k, e in enumerate(trees)]
    samples = draw(st.lists(st.lists(SAMPLE_COORDS, min_size=m, max_size=m),
                            min_size=1, max_size=2))
    return {"kind": "immersion",
            "immersion": {"intrinsic_dim": m, "ambient": ambient,
                          "map": [to_text(e) for e in trees]},
            "samples": samples}


def _immersion_doc(ambient, texts, sample):
    return {"kind": "immersion",
            "immersion": {"intrinsic_dim": len(sample), "ambient": ambient,
                          "map": texts},
            "samples": [sample]}


# the normal space's Gram-Schmidt squares a remainder of about 1e245
OVERFLOWING_NORMAL_DOC = _immersion_doc(AMB4, ["u1", "1 / u1", "1 / u1", "u1"],
                                        [5.2438050264928336e-62])
NON_FINITE_DOCS = [
    OVERFLOWING_NORMAL_DOC,
    # an infinite Jacobian entry: LAPACK's argument check writes to fd 1
    _immersion_doc(FLAT3, ["u1 + 2.5", "u2 + 1", "u3 + (sqrt(u2)^2)^(-1)"],
                   [-3.0, 1.2997877298575341e-256, 1.3555911606478637e-243]),
    # a NaN Jacobian entry: the SVD does not converge
    _immersion_doc(EUCLID3, ["1 / u1 - 1 / u1", "u1", "u1"], [1e-200]),
]


def test_non_finite_immersion_samples_exit_2_with_nothing_on_stdout(tmp_path):
    """Through the console entry point, where writes to file descriptor 1 from
    native code would show in stdout as well."""
    for k, doc in enumerate(NON_FINITE_DOCS):
        spec = _write(tmp_path, f"doc{k}.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "nullhelix.cli", "submanifold", "--spec", spec],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, k
        assert proc.stdout == "", k
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@given(immersion_documents())
@example(OVERFLOWING_NORMAL_DOC)
@settings(max_examples=40, deadline=None)
def test_any_immersion_block_gives_a_contract_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{tmp}/doc.json"
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["submanifold", "--spec", spec])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
    if code != 2:
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["summary"]["pass"] == (code == 0)


# -- frame and verify over sample arrays against the per-sample loop


def _reference_report_rows(command, doc):
    """The rows ``command`` wrote when it looped over the samples."""
    c = doc["curve"]
    metric = MetricField.from_dict(doc["metric"])
    if c["mode"] == "position":
        curve = nf.NullCurve.position(metric, c["components"], c["domain"])
    else:
        curve = nf.NullCurve.tangent(metric, c["components"], c["initial"], c["domain"])
    grid = cli._grid(curve.domain, doc.get("config", {}).get("samples", 50))
    rows = []
    for fr, cs, resid, rep, cubic in reference_run(curve, grid):
        if command == "frame":
            rows.append({
                "t": fr.t, "point": list(fr.point), "zeta": list(fr.zeta),
                "n": list(fr.n), "w": list(fr.w), "h": cs.h, "k1": cs.k1, "k2": cs.k2,
                "geodesic_type": cs.geodesic_type, "null_residual": fr.null_residual,
                "gram_residual": fr.gram_residual,
                "frenet_residuals": [nf.euclid_norm(r) for r in resid]})
        else:
            rows.append({
                "t": fr.t, "h": cs.h, "k1": cs.k1, "k2": cs.k2, "cubic_residual": cubic,
                "scalars": list(rep.scalars), "targets": list(rep.targets),
                "deviations": list(rep.deviations)})
    return rows


ARRAY_DOCS = {
    "c1": _with(C1_DOC, {"samples": 30}),
    "conformal": _with(C1_DOC, {"samples": 23}, metric={"dim": 3, "metric": {
        "type": "field", "entries": [["-exp(0.3*x3)", "0", "0"], ["0", "-exp(0.3*x3)", "0"],
                                     ["0", "0", "exp(0.3*x3)"]]}}),
    "tangent": _with(C1_DOC, {"samples": 12}, curve={
        "mode": "tangent", "components": ["cos(t^2)", "sin(t^2)", "1"],
        "initial": [0, 0, 0], "domain": [0.5, 2.0]}),
    "two samples": _with(C1_DOC, {"samples": 2}),
}


@pytest.mark.parametrize("command", ["frame", "verify"])
@pytest.mark.parametrize("name", list(ARRAY_DOCS))
def test_report_rows_are_the_per_sample_loop_rows(tmp_path, command, name):
    doc = ARRAY_DOCS[name]
    out = tmp_path / "rep.json"
    assert run([command, "--spec", _write(tmp_path, "doc.json", doc),
                "--out", str(out)]) in (0, 1)
    report = json.loads(out.read_text())
    want = _reference_report_rows(command, doc)
    assert json.dumps(report["rows"], sort_keys=True) == json.dumps(want, sort_keys=True)
    # the summary's maxima, taken row by row from 0.0 as the loop took them
    summary = {}
    for row in want:
        for key, values in (("max_gram_residual", [row.get("gram_residual")]),
                            ("max_frenet_residual", row.get("frenet_residuals", [])),
                            ("max_cubic_residual", [row.get("cubic_residual")]),
                            ("max_identity_deviation", row.get("deviations", []))):
            if values and values[0] is not None:
                summary[key] = max(summary.get(key, 0.0), *values)
    assert {key: report["summary"][key] for key in summary} == summary


@pytest.mark.parametrize("command", ["frame", "verify"])
@pytest.mark.parametrize("where", [0, 5, 10])
@pytest.mark.parametrize("kind", INJECTED)
def test_injected_failure_exits_2_with_the_per_sample_error(
        tmp_path, monkeypatch, capsys, command, kind, where):
    """A failure at the first, a middle or the last of 11 samples exits 2
    with one ``error:`` line, the text the per-sample loop raises (the curve
    itself fails first where its own check meets t0), and no numpy warning."""
    grid = cli._grid((0.5, 3.0), 11)
    metric, texts = inject(monkeypatch, kind, grid[where])
    doc = _with(C1_DOC, {"samples": 11}, curve__components=texts,
                curve__domain=[0.5, 3.0])
    doc["metric"] = {"dim": 3, "metric": {"type": "field", "entries": [
        [to_text(metric.entries[i][j]) for j in range(3)] for i in range(3)]}}
    with pytest.raises((ValueError, ArithmeticError)) as error:
        reference_run(nf.NullCurve.position(metric, texts, (0.5, 3.0)), grid)
    expected = f"error: {error.value}\n"
    out = tmp_path / "rep.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--spec", _write(tmp_path, "doc.json", doc),
                    "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == expected
    assert repr(grid[where]) in expected
    assert not out.exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def _transfer_view(samples: int) -> hx.SampledCurve:
    """The decimated intrinsic samples at which ``transfer`` pushes
    TRANSFER_DOC's helix forward over ``samples`` grid samples."""
    spec, frame = HELIX_DOC["helix"], HELIX_DOC["helix"]["initial_frame"]
    helix = hx.HelixSpec(spec["h"], spec["k1"], spec["k2"], spec["initial_point"],
                         frame["zeta"], frame["n"], frame["w"], MetricField.diag([-1, -1, 1]))
    return hx.synthesize(helix, cli._grid(spec["domain"], samples), spec["step"]).view


def _spacelike_screen_at(monkeypatch, zeta):
    """Transfer's ambient frame made to fail at the sample whose (slice-pushed)
    tangent starts with ``zeta`` alone: there every candidate's screen part
    is spacelike, on floats and on sample arrays alike."""
    projection = sb.screen_projection

    def spacelike(g, v, z, n):
        proj, w2 = projection(g, v, z, n)
        hit = (z[0] == zeta[0]) & (z[1] == zeta[1]) & (z[2] == zeta[2])
        if isinstance(hit, np.ndarray):
            return proj, np.where(hit, -1.0, w2)
        return proj, -1.0 if hit else w2

    monkeypatch.setattr(sb, "screen_projection", spacelike)


def _transfer_injected(kind: str, u):
    """TRANSFER_DOC with ``kind`` failing at the intrinsic point u alone, and
    the error a loop over the pushed-forward samples raises there."""
    x1, x2, x3 = u
    entries = [["-1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "1", "0"],
               ["0", "0", "0", "1"]]
    immersion = {**TRANSFER_DOC["immersion"],
                 "ambient": {"dim": 4, "metric": {"type": "field", "entries": entries}}}
    if kind == "degenerate":  # |det| is 1e8 * (x3 - u3)^2, 1e4 one sample away
        entries[3][3] = f"1e8*(x3 - {x3!r})^2"
        error = f"metric degenerate at {(x1, x2, x3, 0.0)}: |det| = 0.000e+00"
    elif kind == "domain":
        immersion["map"] = ["u1", "u2", "u3", f"0*log((u3 - {x3!r})^2)"]
        error = f"log of non-positive value in 'log((u3 - {x3!r})^2)'"
    elif kind == "infinite map constant":  # 0 elsewhere, with a zero tangent
        immersion["map"] = ["u1", "u2", "u3", f"1/(1e999/(u3 - {x3!r}))*0"]
        error = f"float division by zero in '1e999 / (u3 - {x3!r})'"
    else:  # 1 elsewhere; numpy divides its infinity by zero without a flag
        entries[3][3] = f"1 + 1/(1e999/(x3 - {x3!r}))"
        error = f"float division by zero in '1e999 / (x3 - {x3!r})'"
    return {**TRANSFER_DOC, "immersion": immersion}, f"error: {error}\n"


@pytest.mark.parametrize("where", [0, 100, 200])
@pytest.mark.parametrize("kind", ["degenerate", "domain", "infinite map constant",
                                  "infinite metric constant", "ambient frame"])
def test_transfer_failure_at_one_sample_exits_2_with_the_per_sample_error(
        tmp_path, capsys, monkeypatch, kind, where):
    """A degenerate ambient metric, a domain error or an infinite constant in
    the immersion, or an infinite constant in an ambient entry, at the first,
    a middle or the last of 201 pushed-forward samples, exits 2 with the
    error a loop over samples raises there, and no numpy warning.  Only the
    first sample is one of the isometry check's, so the others fail where
    the pushed-forward curve reads f, T and g on its sample arrays.  A
    failure inside the ambient frame (no timelike screen direction) at the
    first, a middle or the last sample it is built on, those the
    acceleration reaches, fails the same way where the frame's array pass is
    replayed per sample."""
    view = _transfer_view(1001)
    if kind == "ambient frame":
        at = min(max(where, hx.FD_RADIUS), len(view.times) - 1 - hx.FD_RADIUS)
        _spacelike_screen_at(monkeypatch, view.fields["zeta"][:, at].tolist())
        doc, expected = TRANSFER_DOC, \
            "error: no timelike screen direction along the ambient curve\n"
    else:
        doc, expected = _transfer_injected(kind, view.points[:, where].tolist())
    out = tmp_path / "rep.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["transfer", "--spec", _write(tmp_path, "doc.json", doc),
                    "--samples", "1001", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (2, expected)
    assert not out.exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_frame_summary_reads_the_third_frenet_residual(tmp_path, monkeypatch):
    """C1 has h = 0, so moving the frame's N moves only r3 = cov W - k2 zeta
    - k1 N: ``frame`` then fails on r3 alone and reports its norm."""
    frenet = nf.frenet_residuals

    def moved_n(curve, frame, sample, policy=None):
        moved = dataclasses.replace(frame, n=tuple(c + 1e-3 for c in frame.n))
        return frenet(curve, moved, sample, policy)

    monkeypatch.setattr(nf, "frenet_residuals", moved_n)
    out = tmp_path / "rep.json"
    assert run(["frame", "--spec", _write(tmp_path, "c1.json", C1_DOC),
                "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    tol = report["summary"]["tolerances"]["frenet"]
    norms = [row["frenet_residuals"] for row in report["rows"]]
    assert max(max(r1, r2) for r1, r2, _ in norms) <= tol
    r3 = max(r for _, _, r in norms)
    assert r3 > tol
    assert report["summary"]["max_frenet_residual"] == r3
