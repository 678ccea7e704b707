"""Outside-in tracer: wraps the package's layer boundaries from the benchmark.

Nothing in ``nullhelix`` knows about tracing.  ``Tracer.install`` replaces
each boundary function in every namespace that holds it: the defining
module, every other ``nullhelix`` module that imported it by name (e.g.
``nullframe.eval_jet``), and module-level dicts that store it (e.g.
``exprparse._FUNC_EVAL`` for the jet functions).  Methods are patched on
their class.  ``uninstall`` restores every original.

Each call records a span (boundary, parent span, request, start, end) in
memory, plus per-boundary calls, errors (calls that raised) and self time:
the call's duration minus the time of the wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

from workloads import WORKLOADS

JET_ELEMENTARY = ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "dt",
                  "antiderivative")
SYNTH = ("flat_synth", "curved_ambient")

# boundary -> (targets under nullhelix, workloads that must drive it,
#              the end-to-end figure a change to it should move)
BOUNDARIES = {
    "cli.run": (["cli.run"], WORKLOADS,
                "every e2e time; most in synth_s on flat_synth (501-row reports)"),
    "cli.load_spec": (["cli.load_spec"], WORKLOADS, "setup_s and every e2e time"),
    "exprparse.parse": (["exprparse.parse"], ("curve_frames", "curved_ambient"),
                        "setup_s"),
    "exprparse.eval_jet": (["exprparse.eval_jet"], ("curve_frames",),
                           "frame_s, verify_s on curve_frames"),
    "jets.elementary": ([f"jets.{f}" for f in JET_ELEMENTARY],
                        ("curve_frames", "curved_ambient"),
                        "frame_s, verify_s on curve_frames; submanifold_s on "
                        "curved_ambient"),
    "semimetric.christoffel": (["semimetric.SemiMetric.christoffel"], WORKLOADS,
                               "synth_s, transfer_s on curved_ambient"),
    "semimetric.covariant_jets": (["semimetric.covariant_jets"], ("curve_frames",),
                                  "frame_s, verify_s on curve_frames"),
    "semimetric.matrix_at": (["semimetric.SemiMetric.matrix_at"], WORKLOADS,
                             "every e2e time"),
    "nullframe.frame_field": (["nullframe.frame_field"], ("curve_frames",),
                              "frame_s, verify_s on curve_frames"),
    "nullframe.curvatures_at": (["nullframe.curvatures_at"], ("curve_frames",),
                                "frame_s, verify_s on curve_frames"),
    "nullframe.frenet_residuals": (["nullframe.frenet_residuals"], ("curve_frames",),
                                   "frame_s on curve_frames"),
    "nullframe.position_at": (["nullframe.NullCurve.position_at"], ("curve_frames",),
                              "wall_s on curve_frames (tangent-mode quadrature)"),
    "helix.synthesize": (["helix.synthesize"], SYNTH,
                         "synth_s on flat_synth; must not slow curved_ambient"),
    "helix.fd_derivative": (["helix.fd_derivative"], SYNTH, "synth_s"),
    "helix.extract_curvatures": (["helix.extract_curvatures"], SYNTH, "synth_s"),
    "helix.identity_reports_from_trace": (["helix.identity_reports_from_trace"],
                                          SYNTH, "synth_s"),
    "helix.cubic_residuals_from_trace": (["helix.cubic_residuals_from_trace"],
                                         SYNTH, "synth_s"),
    "helix.metric_identity_suite": (["helix.metric_identity_suite"],
                                    ("curve_frames",), "verify_s on curve_frames"),
    "helix.cubic_identity_residual": (["helix.cubic_identity_residual"],
                                      ("curve_frames",), "verify_s on curve_frames"),
    "submanifold.helix_transfer": (["submanifold.helix_transfer"],
                                   ("curved_ambient",), "transfer_s"),
}
for _name in ("mean_curvature", "normal_basis", "duality_residual",
              "parallel_H_residual", "umbilical_residual", "geodesic_residual",
              "null_triple", "umbilical_diagnostic"):
    BOUNDARIES[f"submanifold.{_name}"] = (
        [f"submanifold.{_name}"], ("curved_ambient",),
        "submanifold_s on curved_ambient")

# RK4 steps are counted, not timed, through this private function when the
# package has it; the benchmark's own formula is the reported figure.
RK4_TARGET = "helix._rk4_steps"


def _resolve(target: str):
    """(owner, attribute) for 'module.func' or 'module.Class.method'."""
    parts = target.split(".")
    owner = sys.modules[f"nullhelix.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names = list(BOUNDARIES)
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.rk4_steps = 0
        self.rk4_counted = False
        self.request = -1
        self._stack = []  # [nested time, span id] per open call
        self._patches = []
        self.clear_spans()

    def clear_spans(self):
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def take_spans(self) -> tuple:
        """(boundary, parent, request, start, end) arrays; starts a new buffer."""
        spans = (self.span_name, self.span_parent, self.span_request,
                 self.span_start, self.span_end)
        self.clear_spans()
        return spans

    def take(self) -> dict:
        """Per-boundary (calls, self seconds, errors) since the last take."""
        out = {name: (self.calls[i], self.self_s[i], self.errors[i])
               for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls, self.errors, self.self_s = [0] * n, [0] * n, [0.0] * n
        return out

    def take_rk4_steps(self) -> int:
        steps, self.rk4_steps = self.rk4_steps, 0
        return steps

    def _wrap(self, index: int, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(index)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_request.append(self.request)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_end[sid] = end
                self.calls[index] += 1
                self.self_s[index] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def _count_rk4(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            # signature (metric, h, k1, k2, state, dt, nsteps)
            self.rk4_steps += kwargs["nsteps"] if "nsteps" in kwargs else args[6]
            return fn(*args, **kwargs)

        return counted

    def _patch(self, target: str, make):
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if not (name == "nullhelix" or name.startswith("nullhelix.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, original))
                            value[dkey] = wrapper

    def install(self):
        """Wrap every boundary; a boundary the package lacks records no calls."""
        for index, name in enumerate(self.names):
            for target in BOUNDARIES[name][0]:
                try:
                    self._patch(target, functools.partial(self._wrap, index))
                except (KeyError, AttributeError):
                    pass
        try:
            self._patch(RK4_TARGET, self._count_rk4)
            self.rk4_counted = True
        except (KeyError, AttributeError):
            self.rk4_counted = False

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []
