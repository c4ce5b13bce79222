"""Span tracing of singflow from outside the program.

`Tracer.installed()` wraps each public function in TARGETS at every module
attribute of the loaded singflow package that names it, so callers that
imported a function by name (`verify` imports `run`, `flow` imports
`laplacian`, `cli` imports `write_snapshot`, ...) call the wrapper too.
Functions imported inside a function body are looked up on their module at
each call and are covered by the same patch. Leaving the context restores
every original.

Spans stay in memory; each records its layer, the span that was open when
it started (its parent), start and end times, and one integer tag whose
meaning depends on the layer (grid size of a step, bytes of a write).
`layer_metrics` turns them into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple


def _grid_n(args, kwargs):
    w = args[1] if len(args) > 1 else kwargs["w"]
    return w.grid.n


def _computed_bytes(args, kwargs):
    # one float64 field read and one written per heat solve
    f = args[0] if args else kwargs["f"]
    return 2 * 8 * f.size


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (layer, module, attribute, tag function)
TARGETS = (
    ("config.build_problem", "singflow.config", "build_problem", None),
    ("geometry.distance_to_curve", "singflow.geometry", "distance_to_curve", None),
    ("weight.build_weight", "singflow.weight", "build_weight", None),
    ("flow.run", "singflow.flow", "run", None),
    ("flow.step", "singflow.flow", "step", _grid_n),
    ("flow.heat_solve", "singflow.flow", "heat_solve", _computed_bytes),
    ("operators.gradient", "singflow.operators", "gradient", None),
    ("operators.laplacian", "singflow.operators", "laplacian", None),
    ("norms.hyperbolic_distance", "singflow.norms", "hyperbolic_distance", None),
    ("norms.log_integral_sq", "singflow.norms", "log_integral_sq", None),
    ("norms.theta_field", "singflow.norms", "theta_field", None),
    ("norms.cstar2_norm", "singflow.norms", "cstar2_norm", None),
    ("analysis.BochnerAccumulator.call", "singflow.analysis", "BochnerAccumulator.__call__", None),
    ("spectral.build_basis", "singflow.spectral", "build_basis", None),
    ("spectral.assemble_galerkin", "singflow.spectral", "assemble_galerkin", None),
    ("spectral.integrate_ode", "singflow.spectral", "integrate_ode", None),
    ("spectral.reconstruct", "singflow.spectral", "reconstruct", None),
    ("spectral.weak_residual", "singflow.spectral", "weak_residual", None),
    ("snapshots.write_snapshot", "singflow.snapshots", "write_snapshot", _file_bytes),
    ("cli.write_csv", "singflow.cli", "write_csv", _file_bytes),
    ("verify.check_bochner", "singflow.verify", "check_bochner", None),
)

LAYERS = tuple(t[0] for t in TARGETS)

# Self time of a layer: its spans minus the children in the named layers.
SELF_TIME_CHILDREN = {
    "flow.run": ("flow.step", "analysis.BochnerAccumulator.call"),
    "flow.step": ("flow.heat_solve",),
    "spectral.weak_residual": ("spectral.reconstruct",),
}


class Span(NamedTuple):
    layer: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float
    tag: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def _wrap(self, layer, fn, tag):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot, so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = tag(args, kwargs) if done and tag is not None else 0
                spans[index] = Span(layer, parent, start, end, value)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the context is open; restore on exit."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "singflow" or name.startswith("singflow."))
        ]
        patches = []
        try:
            for layer, module_name, attr, tag in TARGETS:
                owner = sys.modules[module_name]
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original, tag)
                if path:  # a method: its class is the only lookup site
                    sites = [(owner, name)]
                else:
                    sites = [
                        (mod, key)
                        for mod in modules
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for obj, key in sites:
                    patches.append((obj, key, original))
                    setattr(obj, key, wrapper)
            yield self
        finally:
            for obj, key, original in reversed(patches):
                setattr(obj, key, original)

    def finished(self) -> list[Span]:
        """All spans; parents index into this list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return self.spans


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from finished spans (names as in BENCHMARK.json)."""
    calls = Counter(s.layer for s in spans)
    seconds = defaultdict(float)
    tags = defaultdict(int)
    for s in spans:
        seconds[s.layer] += s.end - s.start
        tags[s.layer] += s.tag

    self_s = {}
    for layer, children in SELF_TIME_CHILDREN.items():
        own = {i for i, s in enumerate(spans) if s.layer == layer}
        covered = sum(
            s.end - s.start for s in spans if s.parent in own and s.layer in children
        )
        self_s[layer] = seconds[layer] - covered

    step_ms = defaultdict(list)
    for s in spans:
        if s.layer == "flow.step":
            step_ms[s.tag].append(s.end - s.start)

    parents = {i: s.layer for i, s in enumerate(spans)}
    misses = sum(
        1
        for s in spans
        if s.layer == "operators.laplacian" and parents.get(s.parent) == "flow.step"
    )
    steps = calls["flow.step"]

    out = {
        "config.build_problem.s": seconds["config.build_problem"],
        "geometry.distance_to_curve.s": seconds["geometry.distance_to_curve"],
        "weight.build_weight.s": seconds["weight.build_weight"],
        "flow.run.s": seconds["flow.run"],
        "flow.run.self_s": self_s["flow.run"],
        "flow.step.calls": steps,
        "flow.step.s": seconds["flow.step"],
        "flow.step.self_s": self_s["flow.step"],
        "flow.heat_solve.calls": calls["flow.heat_solve"],
        "flow.heat_solve.s": seconds["flow.heat_solve"],
        "flow.heat_solve.bytes_computed": tags["flow.heat_solve"],
        "flow.cache_miss_ratio": misses / (2 * steps) if steps else 0.0,
        "operators.gradient.calls": calls["operators.gradient"],
        "operators.gradient.s": seconds["operators.gradient"],
        "operators.laplacian.calls": calls["operators.laplacian"],
        "operators.laplacian.s": seconds["operators.laplacian"],
        "norms.hyperbolic_distance.s": seconds["norms.hyperbolic_distance"],
        "norms.log_integral_sq.s": seconds["norms.log_integral_sq"],
        "norms.theta_field.s": seconds["norms.theta_field"],
        "norms.cstar2_norm.s": seconds["norms.cstar2_norm"],
        "analysis.BochnerAccumulator.call.s": seconds["analysis.BochnerAccumulator.call"],
        "spectral.build_basis.s": seconds["spectral.build_basis"],
        "spectral.assemble_galerkin.s": seconds["spectral.assemble_galerkin"],
        "spectral.integrate_ode.s": seconds["spectral.integrate_ode"],
        "spectral.reconstruct.calls": calls["spectral.reconstruct"],
        "spectral.reconstruct.s": seconds["spectral.reconstruct"],
        "spectral.weak_residual.self_s": self_s["spectral.weak_residual"],
        "snapshots.write_snapshot.calls": calls["snapshots.write_snapshot"],
        "snapshots.write_snapshot.s": seconds["snapshots.write_snapshot"],
        "snapshots.write_snapshot.bytes": tags["snapshots.write_snapshot"],
        "cli.write_csv.s": seconds["cli.write_csv"],
        "cli.write_csv.bytes": tags["cli.write_csv"],
        "verify.check_bochner.s": seconds["verify.check_bochner"],
    }
    for n in (32, 64):
        out[f"flow.step.ms_p50.n{n}"] = _percentile_ms(step_ms[n], 50)
        out[f"flow.step.ms_p99.n{n}"] = _percentile_ms(step_ms[n], 99)
    out["flow.step.samples.n32"] = len(step_ms[32])
    out["flow.step.samples.n64"] = len(step_ms[64])
    return out
