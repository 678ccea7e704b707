"""Every layer boundary the benchmark tracer wraps exists in the package.

``perfbench/tracer.py`` skips a target it cannot find, so a renamed function
would only show up as an undriven boundary after a long traced run.
"""

import importlib
import inspect
from pathlib import Path

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
