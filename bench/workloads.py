"""Benchmark workloads, run inside one fresh worker process each.

    python3 bench/workloads.py setup  --workload NAME --seed N --tmp DIR
    python3 bench/workloads.py run    --workload NAME --seed N --tmp DIR --seconds S --trace 0|1
    python3 bench/workloads.py record --tmp DIR

`setup` times one set-up (imports, config parse, one build_problem per grid)
and exits. `run` sets up, then repeats the workload's entry call for S
seconds (at least once), checking every call's outputs; with --trace 1 it
then repeats the set-up and a fixed number of entry calls under the tracer.
Both print one JSON line. `record` rewrites reference.json from this
checkout's outputs at the default seed. bench/run.py drives the workers.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before numpy is imported

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ACCEPTANCE_CFG = os.path.join(ROOT, "configs", "acceptance.cfg")
REFERENCE = os.path.join(HERE, "reference.json")

SINGFLOW_MODULES = (
    "singflow",
    "singflow.config",
    "singflow.geometry",
    "singflow.weight",
    "singflow.operators",
    "singflow.norms",
    "singflow.flow",
    "singflow.analysis",
    "singflow.spectral",
    "singflow.snapshots",
    "singflow.cli",
    "singflow.verify",
)

# The default seed keeps the shipped acceptance.cfg amplitudes. Other seeds
# scale (c, a, b) together by a factor in [1/2, 2] and may flip the sign of a,
# a mirror symmetry of the axis-line geometry. The amplitudes are not drawn
# independently: the refined Bochner verdict fails once c grows against the
# phi2 amplitudes, e.g. at (0.0125, 0.0008, 0.0012) and (0.01, 0, 0), while a
# common scale leaves the sign of its measured violation unchanged.
DEFAULT_SEED = 0
SCALE_RANGE = (0.5, 2.0)


def amplitudes(seed: int, base) -> dict:
    """[flow] c, a, b for a seed, from the base config's values."""
    if seed == DEFAULT_SEED:
        return {}
    rng = random.Random(seed)
    lo, hi = SCALE_RANGE
    scale = lo * (hi / lo) ** rng.random()
    sign = rng.choice((-1.0, 1.0))
    return {
        "c": scale * base.family_c,
        "a": sign * scale * base.family_a,
        "b": scale * base.family_b,
    }


def render_config(text: str, overrides: dict) -> str:
    """acceptance.cfg text with `(section, key) -> value` replaced in place."""
    lines, section, done = [], None, set()
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped:
            key = stripped.split("=", 1)[0].strip()
            if (section, key) in overrides:
                line = f"{key} = {overrides[section, key]!r}"
                done.add((section, key))
        lines.append(line)
    missing = set(overrides) - done
    if missing:
        raise KeyError(f"keys not found in the base config: {sorted(missing)}")
    return "\n".join(lines) + "\n"


def import_singflow():
    for name in SINGFLOW_MODULES:
        importlib.import_module(name)
    where = os.path.dirname(os.path.abspath(sys.modules["singflow"].__file__))
    if where != os.path.join(SRC, "singflow"):
        raise SystemExit(f"error: singflow imported from {where}, not from {SRC}")


def make_config(workload: str, seed: int, tmp: str, extra: dict | None = None):
    """Write the generated config into tmp and parse it with the program's parser."""
    from singflow.config import parse_config

    overrides = dict(WORKLOADS[workload].overrides)
    base = parse_config(ACCEPTANCE_CFG)
    overrides.update({("flow", k): v for k, v in amplitudes(seed, base).items()})
    overrides.update(extra or {})
    with open(ACCEPTANCE_CFG, encoding="utf-8") as fh:
        text = render_config(fh.read(), overrides)
    path = os.path.join(tmp, f"{workload}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return parse_config(path)


def build_grids(workload: str, cfg) -> None:
    from singflow.config import build_problem

    for n in WORKLOADS[workload].grids(cfg):
        build_problem(dataclasses.replace(cfg, n=n))


# ---------------------------------------------------------------- workloads


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _call_run(cfg, out_dir):
    from singflow.cli import cmd_run

    return cmd_run(cfg, out_dir)


def _outputs_run(cfg, out_dir, result):
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    return {k: summary[k] for k in ("final_energy", "final_max_abs_phi2")}


def _checks_run(cfg, out_dir, result):
    from singflow.cli import cmd_analyze

    summary = _read_json(os.path.join(out_dir, "summary.json"))
    facts = ("dt_used", "final_time", "final_energy", "final_max_abs_phi2")
    checks = {
        "run_exit_code": result == 0,
        "summary_finite": all(math.isfinite(summary[k]) for k in facts),
        "summary_steps": summary["steps"] == round(cfg.t_final / cfg.dt),
        "analyze_exit_code": cmd_analyze(out_dir) == 0,
    }
    bounds = {
        b["name"]: b["passed"]
        for b in _read_json(os.path.join(out_dir, "analysis.json"))["bounds"]
    }
    for name in ("hyperbolic_distance_bound", "phi2_uniform_bound"):
        checks[name] = bounds.get(name) is True
    return checks


def _call_bochner(cfg, out_dir):
    from singflow.verify import check_bochner

    return check_bochner(cfg)


def _outputs_bochner(cfg, out_dir, result):
    return {v["check_name"]: v["measured"] for v in result}


def _checks_bochner(cfg, out_dir, result):
    verdicts = {v["check_name"]: v["pass"] for v in result}
    names = ("bochner_violation", "bochner_violation_refined", "bochner_bound_shrink")
    return {name: verdicts.get(name) is True for name in names}


def _call_galerkin(cfg, out_dir):
    from singflow.cli import cmd_galerkin

    return cmd_galerkin(cfg, out_dir)


def _read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "m,l,value":
            raise ValueError(f"{path}: unexpected header {header!r}")
        entries = [line.strip().split(",") for line in fh if line.strip()]
    size = math.isqrt(len(entries))
    matrix = [[0.0] * size for _ in range(size)]
    for m, l, value in entries:
        matrix[int(float(m))][int(float(l))] = float(value)
    return matrix


def _outputs_galerkin(cfg, out_dir, result):
    return {
        f"matrix_{name}": _read_matrix(os.path.join(out_dir, f"matrix_{name}.csv"))
        for name in "ABCD"
    }


def _checks_galerkin(cfg, out_dir, result):
    residual = _read_json(os.path.join(out_dir, "weak_residual.json"))
    checks = {
        "galerkin_exit_code": result == 0,
        "weak_residual_passed": residual["passed"] is True
        and residual["tolerance"] == 1e-6
        and residual["defect"] <= 1e-6,
    }
    for name, matrix in _outputs_galerkin(cfg, out_dir, result).items():
        checks[f"{name}_finite"] = (
            len(matrix) == cfg.galerkin_N and all(math.isfinite(x) for row in matrix for x in row)
        )
    return checks


@dataclasses.dataclass(frozen=True)
class Workload:
    overrides: dict  # (section, key) -> value applied to acceptance.cfg
    grids: object  # cfg -> grid sizes the workload builds
    trace_calls: int  # entry calls made under the tracer
    call: object  # (cfg, out_dir) -> result
    outputs: object  # (cfg, out_dir, result) -> named outputs compared with reference.json
    checks: object  # (cfg, out_dir, result) -> {check name: passed}


WORKLOADS = {
    "run_n32": Workload(
        overrides={("flow", "t_final"): 0.05},
        grids=lambda cfg: (cfg.n,),
        trace_calls=4,
        call=_call_run,
        outputs=_outputs_run,
        checks=_checks_run,
    ),
    "bochner_refine": Workload(
        overrides={},
        grids=lambda cfg: (cfg.n, 2 * cfg.n),
        trace_calls=1,
        call=_call_bochner,
        outputs=_outputs_bochner,
        checks=_checks_bochner,
    ),
    "galerkin_n16": Workload(
        overrides={("galerkin", "N"): 16, ("galerkin", "t_final"): 0.06},
        grids=lambda cfg: (cfg.n,),
        trace_calls=1,
        call=_call_galerkin,
        outputs=_outputs_galerkin,
        checks=_checks_galerkin,
    ),
}


def _max_rel_diff(got, want) -> float:
    import numpy as np

    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def reference_checks(workload, cfg, out_dir, result, reference) -> dict:
    """Named outputs against the values recorded at the default seed."""
    got = WORKLOADS[workload].outputs(cfg, out_dir, result)
    want = reference["outputs"][workload]
    return {
        f"reference_{name}": name in got and _max_rel_diff(got[name], value) <= reference["rtol"]
        for name, value in want.items()
    }


# ------------------------------------------------------------------- worker


class Tally:
    def __init__(self):
        self.calls = self.failed_calls = self.checks = self.checks_passed = 0
        self.failed: list[str] = []

    def add(self, checks: dict):
        self.calls += 1
        self.checks += len(checks)
        self.checks_passed += sum(bool(v) for v in checks.values())
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed_calls += 1
            self.failed.extend(bad)


def entry_call(workload, cfg, out_dir, tally, reference, tracer=None) -> float:
    """One timed entry call followed by its checks; returns the call's wall time."""
    spec = WORKLOADS[workload]
    os.makedirs(out_dir)
    start, wall = time.perf_counter(), None
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            result = spec.call(cfg, out_dir)
            wall = time.perf_counter() - start
        checks = spec.checks(cfg, out_dir, result)
        if reference is not None:
            checks.update(reference_checks(workload, cfg, out_dir, result, reference))
    except Exception:  # a failing call is counted against the run, which goes on
        traceback.print_exc()
        wall = wall if wall is not None else time.perf_counter() - start
        checks = {"call_completed": False}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    tally.add(checks)
    return wall


def setup(workload, seed, tmp):
    """Imports, config parse and one build_problem per grid; returns (cfg, seconds)."""
    import_singflow()
    cfg = make_config(workload, seed, tmp)
    build_grids(workload, cfg)
    return cfg, time.perf_counter() - _T0


def run(workload, seed, tmp, seconds, trace) -> dict:
    cfg, setup_s = setup(workload, seed, tmp)
    reference = _read_json(REFERENCE) if seed == DEFAULT_SEED else None

    tally = Tally()
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(entry_call(workload, cfg, os.path.join(tmp, f"call{len(walls)}"), tally, reference))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, traced_walls = None, []
    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            build_grids(workload, cfg)
        for i in range(WORKLOADS[workload].trace_calls):
            out_dir = os.path.join(tmp, f"traced{i}")
            traced_walls.append(entry_call(workload, cfg, out_dir, tally, reference, tracer))
        layers = layer_metrics(tracer.finished())
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)

    return {
        "setup_s": setup_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "calls": tally.calls,
        "failed_calls": tally.failed_calls,
        "checks": tally.checks,
        "checks_passed": tally.checks_passed,
        "failed_checks": sorted(set(tally.failed)),
        "layers": layers,
    }


def record(tmp) -> dict:
    """Record each workload's named outputs at the default seed into reference.json."""
    import_singflow()
    outputs = {}
    for workload, spec in WORKLOADS.items():
        cfg = make_config(workload, DEFAULT_SEED, tmp)
        out_dir = os.path.join(tmp, workload)
        os.makedirs(out_dir)
        result = spec.call(cfg, out_dir)
        outputs[workload] = spec.outputs(cfg, out_dir, result)
        shutil.rmtree(out_dir)
    reference = {"seed": DEFAULT_SEED, "rtol": _read_json(REFERENCE)["rtol"], "outputs": outputs}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"recorded": sorted(outputs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    if args.mode != "record" and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, SRC)
    if args.mode == "setup":
        out = {"setup_s": setup(args.workload, args.seed, args.tmp)[1]}
    elif args.mode == "run":
        out = run(args.workload, args.seed, args.tmp, args.seconds, args.trace)
    else:
        out = record(args.tmp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
