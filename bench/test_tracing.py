"""Self-test of the benchmark's tracer and config generation on a tiny case.

    python3 -m pytest bench/test_tracing.py

A wrapper that callers bypass would leave its layer at zero calls, so the
counts below fail loudly instead of reporting a layer as free.
"""

import json
import os
import sys

import pytest

import tracing
import workloads

TINY = {
    ("grid", "n"): 8,
    ("flow", "t_final"): 0.002,
    ("galerkin", "N"): 2,
    ("galerkin", "t_final"): 0.002,
}

KNOWN_SITES = (
    ("singflow.verify", "run"),
    ("singflow.flow", "step"),
    ("singflow.flow", "heat_solve"),
    ("singflow.flow", "laplacian"),
    ("singflow.flow", "log_integral_sq"),
    ("singflow.norms", "hyperbolic_distance"),
    ("singflow.spectral", "reconstruct"),
    ("singflow.cli", "write_snapshot"),
    ("singflow.cli", "write_csv"),
    ("singflow.cli", "build_problem"),
)


@pytest.fixture(scope="module")
def singflow_loaded():
    sys.path.insert(0, workloads.SRC)
    workloads.import_singflow()


@pytest.fixture(scope="module")
def traced(singflow_loaded, tmp_path_factory):
    """Layer metrics of one tiny traced call per workload."""
    out = {}
    for name, spec in workloads.WORKLOADS.items():
        tmp = tmp_path_factory.mktemp(name)
        cfg = workloads.make_config(name, workloads.DEFAULT_SEED, str(tmp), TINY)
        tracer = tracing.Tracer()
        with tracer.installed():
            workloads.build_grids(name, cfg)
            spec.call(cfg, str(tmp / "out"))
        out[name] = tracing.layer_metrics(tracer.finished())
        out[name]["calls"] = {
            layer: sum(1 for s in tracer.finished() if s.layer == layer) for layer in tracing.LAYERS
        }
    return out


def test_every_wrapper_fires(traced):
    silent = [
        layer for layer in tracing.LAYERS if not any(m["calls"][layer] for m in traced.values())
    ]
    assert silent == []


def test_two_heat_solves_per_step(traced):
    assert traced["run_n32"]["flow.step.calls"] == 10
    for metrics in traced.values():
        assert metrics["flow.heat_solve.calls"] == 2 * metrics["flow.step.calls"]


def test_step_cache_never_misses(traced):
    for metrics in traced.values():
        assert metrics["flow.cache_miss_ratio"] == 0


def test_layer_counts_follow_workloads(traced):
    assert traced["galerkin_n16"]["flow.step.calls"] == 0
    assert traced["bochner_refine"]["flow.step.calls"] == 200 + 400
    for layer in tracing.LAYERS:
        if layer.startswith("spectral."):
            assert traced["run_n32"]["calls"][layer] == 0
            assert traced["bochner_refine"]["calls"][layer] == 0


def test_known_sites_wrapped_and_restored(singflow_loaded):
    originals = {site: getattr(sys.modules[site[0]], site[1]) for site in KNOWN_SITES}
    accumulator = sys.modules["singflow.analysis"].BochnerAccumulator
    call = accumulator.__call__
    with tracing.Tracer().installed():
        for (module, name), original in originals.items():
            assert getattr(sys.modules[module], name) is not original, f"{module}.{name}"
        assert accumulator.__call__ is not call
    for (module, name), original in originals.items():
        assert getattr(sys.modules[module], name) is original
    assert accumulator.__call__ is call


def test_metric_names_match_benchmark_json(traced):
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    reported = set(traced["run_n32"]) - {"calls"} | {"trace.overhead_s"}
    assert reported == listed


def test_default_seed_keeps_acceptance_amplitudes(singflow_loaded, tmp_path):
    cfg = workloads.make_config("run_n32", workloads.DEFAULT_SEED, str(tmp_path))
    assert (cfg.family_c, cfg.family_a, cfg.family_b) == (0.01, 0.001, 0.0015)
    assert cfg.t_final == 0.05 and cfg.dt == 2e-4 and cfg.n == 32


def test_seed_scales_amplitudes_together(singflow_loaded, tmp_path):
    first = workloads.make_config("galerkin_n16", 7, str(tmp_path))
    again = workloads.make_config("galerkin_n16", 7, str(tmp_path))
    assert first == again
    assert first.galerkin_N == 16
    scale = first.family_c / 0.01
    lo, hi = workloads.SCALE_RANGE
    assert lo <= scale <= hi and scale != 1.0
    assert abs(first.family_a) == pytest.approx(scale * 0.001, rel=1e-12)
    assert first.family_b == pytest.approx(scale * 0.0015, rel=1e-12)
