"""Per-layer calls, times and work counts, taken from outside the package.

``Tracer.install`` rebinds each traced function on its module (or class) to
a wrapper that times the call and updates the layer's counters;
``uninstall`` puts the originals back. Every call site inside gridswing
looks these names up at call time, so the wrappers see every call. A
layer's self time is its own time minus the time of traced calls made
while it was running, kept on a stack of open spans.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time

from gridswing import analysis, attacks, cli, dynamics, powerflow, reserves


class Layer:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0
        self.counts = dict.fromkeys(("lane_steps", "lanes", "iterations",
                                     "bytes"), 0)
        self.load_vectors: set[bytes] = set()


def _simulate_steps(layer, args, trace):
    layer.counts["lane_steps"] += len(trace) - 1


def _grid_lanes(layer, args, errors):
    steps = int(round(args["duration"] / args["dt"]))
    layer.counts["lanes"] += len(errors)
    layer.counts["lane_steps"] += len(errors) * len(args["anchors"]) * steps


def _pf_iterations(layer, args, sol):
    layer.counts["iterations"] += sol.iterations


def _load_vector(layer, args, red):
    layer.load_vectors.add(args["loads_p"].tobytes())


def _csv_bytes(layer, args, result):
    layer.counts["bytes"] += os.path.getsize(args["path"])


# (layer name, owner, attribute, counter run on the bound arguments and
# result). dynamics imports powerflow.solve as solve_pf, so that alias is
# the same layer under a second name.
TARGETS = (
    ("cli.parse_scenario", cli, "parse_scenario", None),
    ("attacks.compile_scenario", attacks, "compile_scenario", None),
    ("powerflow.solve", powerflow, "solve", _pf_iterations),
    ("powerflow.solve", dynamics, "solve_pf", _pf_iterations),
    ("dynamics.build_reduced", dynamics, "build_reduced", _load_vector),
    ("dynamics.simulate", dynamics, "simulate", _simulate_steps),
    ("analysis._grid_anchor_errors", analysis, "_grid_anchor_errors",
     _grid_lanes),
    ("reserves.command", reserves, "command", None),
    ("reserves.respond", reserves, "respond", None),
    ("attacks.SlopeTrigger.observe", attacks.SlopeTrigger, "observe", None),
    ("analysis.metrics", analysis, "metrics", None),
    ("cli.write_trace_csv", cli, "write_trace_csv", _csv_bytes),
    ("cli.write_report_json", cli, "write_report_json", None),
)


class Tracer:
    """Counters for one traced pass; install, run the pass, uninstall."""

    def __init__(self):
        self.layers = {name: Layer() for name, *_ in TARGETS}
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, owner, attr, counter in TARGETS:
            # A function a later version removes stays reported, at zero.
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(self.layers[name], fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, layer, fn, counter):
        stack = self._stack
        sig = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                layer.child_s += stack.pop()
                layer.calls += 1
                layer.s += elapsed
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(layer, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def lane_steps(self) -> int:
        """RK4 lane-steps of the pass: scalar runs plus grid candidates."""
        return (self.layers["dynamics.simulate"].counts["lane_steps"]
                + self.layers["analysis._grid_anchor_errors"]
                .counts["lane_steps"])

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.s"] = layer.s
        sim = self.layers["dynamics.simulate"]
        out["dynamics.simulate.self_s"] = sim.s - sim.child_s
        out["dynamics.simulate.lane_steps"] = sim.counts["lane_steps"]
        out["dynamics.simulate.us_per_lane_step"] = _us_per(sim)
        grid = self.layers["analysis._grid_anchor_errors"]
        out["analysis._grid_anchor_errors.lanes"] = grid.counts["lanes"]
        out["analysis._grid_anchor_errors.us_per_lane_step"] = _us_per(grid)
        out["powerflow.solve.iterations"] = \
            self.layers["powerflow.solve"].counts["iterations"]
        red = self.layers["dynamics.build_reduced"]
        out["dynamics.build_reduced.useful_ratio"] = \
            len(red.load_vectors) / red.calls if red.calls else 0.0
        out["cli.write_trace_csv.bytes"] = \
            self.layers["cli.write_trace_csv"].counts["bytes"]
        return out


def _us_per(layer: Layer) -> float:
    steps = layer.counts["lane_steps"]
    return 1e6 * layer.s / steps if steps else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced passes; counts repeat, so stay exact."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
