"""Every layer boundary the benchmark tracer wraps exists in the package,
and each workload's documents drive the boundaries assigned to it.

``perfbench/tracer.py`` skips a target it cannot find, so a renamed function,
or a call path that no longer passes through a boundary, would otherwise only
show up as an undriven boundary after a long traced run.
"""

import importlib
import inspect
import json
from pathlib import Path

from nullhelix import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    targets = [t for targets, _, _ in tracer.BOUNDARIES.values() for t in targets]
    missing = []
    for target in targets + [tracer.RK4_TARGET]:
        try:
            importlib.import_module(f"nullhelix.{target.split('.')[0]}")
            owner, attr = tracer._resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(owner.__dict__.get(attr)):
            missing.append(target)
    assert missing == []


def test_rk4_counter_target_keeps_its_positional_parameters(monkeypatch):
    """The tracer counts RK4 steps from ``args[6]`` or ``nsteps=``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    importlib.import_module("nullhelix.helix")
    owner, attr = tracer._resolve(tracer.RK4_TARGET)
    params = inspect.signature(getattr(owner, attr)).parameters
    assert tuple(params) == ("metric", "h", "k1", "k2", "state", "dt", "nsteps")
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())


def test_every_workload_drives_its_boundaries(monkeypatch, tmp_path):
    """One traced pass over each workload's seed-7 documents, as the benchmark
    runs them: every boundary assigned to the workload is called."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    undriven = {}
    for workload in workloads.WORKLOADS:
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            for doc in workloads.generate(workload, 7):
                spec = tmp_path / f"{doc.name}.json"
                spec.write_text(json.dumps(doc.spec))
                argv = [doc.command, "--spec", str(spec),
                        "--out", str(tmp_path / f"{doc.name}.report.json")]
                if doc.project:
                    argv.append("--project")
                if doc.csv:
                    argv += ["--csv", str(tmp_path / f"{doc.name}.csv")]
                assert cli.run(argv) == doc.expect_exit, (workload, doc.name)
        finally:
            tracer.uninstall()
        calls = tracer.take()
        undriven[workload] = [
            name for name, (_, driven, _) in tracer_mod.BOUNDARIES.items()
            if workload in driven and calls[name][0] == 0]
    assert undriven == {w: [] for w in workloads.WORKLOADS}
