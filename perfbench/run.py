#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``nullframe`` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload flat_synth --seed 1 --seconds 30 --trace 0

The seed generates the workload's spec documents (see workloads.py).  One
client runs them in a closed loop through ``nullhelix.cli.run`` in this
process, one document at a time, in passes over the whole set until
``--seconds`` have elapsed.  Every call's exit code, parsed report and CSV
trace are checked against the document's oracles, and every report must be
byte-identical to the same document's report in the first pass.  The pure
Python backend is forced (``NULLHELIX_PURE=1``), the path the test suite runs.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

    setup_s      median over fresh interpreters of importing nullhelix.cli
                 and running load_spec on every document of the workload
    wall_s       time of one pass: each document's median latency over the
                 passes, summed
    peak_rss_mb  peak resident memory of this process

and prints, for people, the median latency of one cli.run call per
subcommand (frame_s, verify_s, synth_s, transfer_s, submanifold_s) with its
sample count, and fail_ratio.  Times are normalised to a reference machine
speed (speed.py); raw medians are printed beside them.

``--trace 1`` runs every document twice in a row, untraced and then with
the package's layer boundaries wrapped from outside (tracer.py), in at least
two passes.  It reports ``<boundary>.calls``, ``.self_s`` and ``.errors``
per pass, ``helix.rk4_steps`` and the tracing overhead, and fails unless the traced
reports are byte-identical to the untraced ones, the counts repeat exactly
across traced passes, the RK4 steps match nsub * segments * 3, and every
boundary the workload is meant to drive was called.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spec documents,
reports, a result file and the spans of the first traced pass go to
``.perfbench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from speed import SpeedGauge
from tracer import BOUNDARIES, Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
SUBCOMMANDS = ("frame", "verify", "synth", "transfer", "submanifold")


@dataclass
class Call:
    doc: workloads.Doc
    start: float
    end: float
    misses: list
    layers: dict | None = None
    rk4_measured: int = 0
    norm_s: float = 0.0  # set by Runner.normalise once the run is over

    @property
    def raw_s(self) -> float:
        return self.end - self.start

    @property
    def scale(self) -> float:
        return self.norm_s / self.raw_s


@dataclass
class Runner:
    """Runs documents through cli.run and checks each call's output."""

    cli: object
    docs: list
    out: Path
    first_reports: dict = field(default_factory=dict)
    gauge: SpeedGauge = field(default_factory=SpeedGauge)

    def __post_init__(self):
        (self.out / "specs").mkdir(parents=True)
        (self.out / "reports").mkdir()
        for doc in self.docs:
            (self.out / "specs" / f"{doc.name}.json").write_text(json.dumps(doc.spec))
        self.gauge.sample()

    def normalise(self, calls):
        for call in calls:
            call.norm_s = self.gauge.normalise(call.start, call.end)

    def spec_path(self, doc) -> str:
        return str(self.out / "specs" / f"{doc.name}.json")

    def run_pass(self, tracer: Tracer | None = None) -> list:
        """One call per document; with a tracer, an untraced then a traced one."""
        calls = []
        for i, doc in enumerate(self.docs):
            calls.append(self.call(doc))
            if tracer:
                tracer.request = i
                tracer.install()
                try:
                    calls.append(self.call(doc, tracer))
                finally:
                    tracer.uninstall()
        return calls

    def call(self, doc, tracer: Tracer | None = None) -> Call:
        report = self.out / "reports" / f"{doc.name}.json"
        csv = self.out / "reports" / f"{doc.name}.csv"
        argv = [doc.command, "--spec", self.spec_path(doc), "--out", str(report)]
        if doc.project:
            argv.append("--project")
        if doc.csv:
            argv += ["--csv", str(csv)]
        for path in (report, csv):
            path.unlink(missing_ok=True)
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.run(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        end = time.perf_counter()
        self.gauge.sample()
        call = Call(doc, start, end, self.check(doc, code, error, report, csv))
        if tracer:
            call.layers = tracer.take()
            call.rk4_measured = tracer.take_rk4_steps()
        return call

    def check(self, doc, code, error, report, csv) -> list:
        if error is not None:
            return [f"raised: {error}"]
        misses = []
        if code != doc.expect_exit:
            misses.append(f"exit code {code}, expected {doc.expect_exit}")
        try:
            raw = report.read_bytes()
        except OSError as exc:
            return misses + [f"no report: {exc}"]
        first = self.first_reports.setdefault(doc.name, raw)
        if raw != first:
            misses.append("report differs from the first pass's")
        try:
            misses += workloads.check_report(json.loads(raw), doc.checks)
        except ValueError as exc:
            misses.append(f"report is not JSON: {exc}")
        if doc.csv:
            try:
                lines = len(csv.read_text().splitlines())
            except OSError as exc:
                lines = f"unreadable ({exc})"
            if lines != doc.samples + 1:
                misses.append(f"CSV has {lines} lines, expected {doc.samples + 1}")
        return misses


def measure_setup(spec_paths) -> list:
    """Normalised set-up seconds, one per fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(Path.cwd() / "src"),
           *spec_paths]
    env = dict(os.environ, NULLHELIX_PURE="1")
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        values.append(json.loads(proc.stdout.splitlines()[-1])["normalised"])
    return values


def run_passes(runner: Runner, seconds: float, tracer: Tracer | None = None) -> tuple:
    """Complete passes (two with a tracer), starting new ones until ``seconds``.

    Returns the passes' calls and the spans of the first traced pass.
    """
    passes = []
    spans = None
    start = time.perf_counter()
    while (len(passes) < (2 if tracer else 1)
           or time.perf_counter() - start < seconds):
        passes.append(runner.run_pass(tracer))
        if tracer and spans is None:
            spans = tracer.take_spans()
        elif tracer:
            tracer.clear_spans()
    return passes, spans


def report_failures(calls) -> int:
    failed = 0
    for call in calls:
        if call.misses:
            failed += 1
            print(f"FAIL {call.doc.name} ({call.doc.command}): "
                  + "; ".join(call.misses), file=sys.stderr)
    return failed


def one_pass(passes, attr: str) -> float:
    """Time of one pass: each document's median over the passes, summed."""
    return sum(statistics.median(getattr(p[i], attr) for p in passes)
               for i in range(len(passes[0])))


def untraced(runner: Runner, seconds: float) -> tuple:
    setup = measure_setup([runner.spec_path(d) for d in runner.docs])
    passes, _ = run_passes(runner, seconds)
    calls = [c for p in passes for c in p]
    runner.normalise(calls)
    failed = report_failures(calls)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": one_pass(passes, "norm_s"), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
    }
    print(f"setup_s       {metrics['setup_s']['value']:10.4f} s   "
          f"median of {len(setup)} fresh interpreters")
    print(f"wall_s        {metrics['wall_s']['value']:10.4f} s   one pass of "
          f"{len(runner.docs)} documents, medians of {len(passes)} passes "
          f"(raw {one_pass(passes, 'raw_s'):.4f} s)")
    per_command = {}
    for cmd in SUBCOMMANDS:
        sel = [c for c in calls if c.doc.command == cmd]
        if sel:
            per_command[f"{cmd}_s"] = {
                "value": statistics.median(c.norm_s for c in sel), "n": len(sel),
                "raw": statistics.median(c.raw_s for c in sel)}
            print(f"{cmd + '_s':13s} {per_command[cmd + '_s']['value']:10.4f} s   "
                  f"median of {len(sel)} calls "
                  f"(raw {per_command[cmd + '_s']['raw']:.4f} s)")
    print(f"fail_ratio    {failed / len(calls):10.4f} 1   "
          f"{failed} of {len(calls)} calls")
    print(f"peak_rss_mb   {metrics['peak_rss_mb']['value']:10.1f} MB")
    detail = {"setup_s": setup, "per_command": per_command,
              "fail_ratio": failed / len(calls),
              "calls": [(c.doc.name, c.start, c.end, c.norm_s) for c in calls],
              "speed_samples": runner.gauge.samples}
    return metrics, len(calls), failed, [], detail


def traced(runner: Runner, seconds: float, workload: str, out: Path) -> tuple:
    tracer = Tracer()
    passes, spans = run_passes(runner, seconds, tracer)
    calls = [c for p in passes for c in p]
    runner.normalise(calls)
    failed = report_failures(calls)
    problems = []

    per_pass = []
    for p in passes:
        totals = {name: [0, 0.0, 0] for name in BOUNDARIES}
        for c in p:
            for name, (n, self_s, errors) in (c.layers or {}).items():
                totals[name][0] += n
                totals[name][1] += self_s * c.scale
                totals[name][2] += errors
        per_pass.append(totals)
    counts = [{k: (v[0], v[2]) for k, v in t.items()} for t in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call or error counts differ between traced passes")
    rk4_formula = sum(d.rk4_steps for d in runner.docs)
    if tracer.rk4_counted:
        for p in passes:
            measured = sum(c.rk4_measured for c in p)
            if measured != rk4_formula:
                problems.append(
                    f"RK4 steps {measured} != nsub*segments*3 = {rk4_formula}")
    for name, (_, driven_by, _) in BOUNDARIES.items():
        if workload in driven_by and per_pass[0][name][0] == 0:
            problems.append(f"boundary {name} recorded no calls")

    untraced_s = sum(c.norm_s for c in calls if c.layers is None) / len(passes)
    traced_s = sum(c.norm_s for c in calls if c.layers is not None) / len(passes)
    metrics = {}
    for name in BOUNDARIES:
        metrics[f"{name}.calls"] = {"value": per_pass[0][name][0], "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(t[name][1] for t in per_pass), "unit": "s"}
        metrics[f"{name}.errors"] = {"value": per_pass[0][name][2], "unit": "count"}
    metrics["helix.rk4_steps"] = {"value": rk4_formula, "unit": "count"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s - untraced_s) / untraced_s, "unit": "%"}

    print(f"{'boundary':36s} {'calls':>9s} {'self_s':>9s} {'errors':>6s}  should move")
    for name in sorted(BOUNDARIES, key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        print(f"{name:36s} {metrics[name + '.calls']['value']:9d} "
              f"{metrics[name + '.self_s']['value']:9.4f} "
              f"{metrics[name + '.errors']['value']:6d}  {BOUNDARIES[name][2]}")
    print(f"helix.rk4_steps {rk4_formula} (counted in the package: "
          f"{'yes' if tracer.rk4_counted else 'no'})")
    print(f"tracing overhead {metrics['trace.overhead_pct']['value']:.1f}% "
          f"(per pass {untraced_s:.3f} s untraced, {traced_s:.3f} s traced; "
          f"{len(passes)} passes, each document untraced then traced)")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    write_spans(tracer, spans, out / "spans.npz")
    detail = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
              "problems": problems}
    return metrics, len(calls), failed, problems, detail


def write_spans(tracer: Tracer, spans, path: Path):
    import numpy as np

    name, parent, request, start, end = spans
    np.savez(path, names=np.array(tracer.names), name=np.asarray(name),
             parent=np.asarray(parent), request=np.asarray(request),
             start=np.asarray(start), end=np.asarray(end))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nullhelix" / "cli.py").is_file():
        print("error: run from the repository root; src/nullhelix/cli.py not found",
              file=sys.stderr)
        return 2
    os.environ["NULLHELIX_PURE"] = "1"
    sys.path.insert(0, str(root / "src"))
    import numpy
    import nullhelix
    from nullhelix import cli

    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    docs = workloads.generate(args.workload, args.seed)
    runner = Runner(cli, docs, out)
    env = {"cpus": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__,
           "backend": getattr(nullhelix, "BACKEND", "pure")}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(docs)} documents per pass; "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    if args.trace:
        result = traced(runner, args.seconds, args.workload, out)
    else:
        result = untraced(runner, args.seconds)
    metrics, attempted, failed, problems, detail = result
    (out / "result.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "metrics": metrics, "detail": detail},
        indent=1))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
