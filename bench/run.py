"""singflow benchmark: one workload, one result line.

    python3 bench/run.py --workload run_n32 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory. Each run starts fresh worker processes (bench/workloads.py):
set-up-only workers for the set-up samples, then one worker that runs the
workload. Thread pools are pinned before the workers import numpy, and all
outputs go to a temporary directory that is removed at the end.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. Lines before it give
the environment and each timing's sample count and percentiles. The
workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run_n32", "bochner_refine", "galerkin_n16")
SETUP_SAMPLES = 7  # the workload's own worker plus six set-up-only workers
THREADS = 1  # BLAS/OpenMP threads per worker, at most the CPU count
DEADLINE_S = 170.0  # every worker has ended by then


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": THREADS,
    }


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SINGFLOW_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next worker")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"n={n} p50={statistics.median(values):.6g}"
    if n >= 20:
        q = 100 * (n - 10) // n
        cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
        text += f" p{q}={cut:.6g}"
    return text


def end_to_end(setups: list[float], main: dict) -> dict:
    return {
        "wall_s": statistics.median(main["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "check_pass_ratio": main["checks_passed"] / main["checks"],
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: the worker is killed, tmp removed


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="singflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [
        os.path.join(ROOT, "src", "singflow", "__init__.py"),
        os.path.join(ROOT, "configs", "acceptance.cfg"),
        os.path.join(ROOT, "BENCHMARK.json"),
    ]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a singflow checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        setups = [
            run_worker(["setup", *common, "--tmp", tmp], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        main_out = run_worker(
            ["run", *common, "--tmp", tmp, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    setups.append(main_out["setup_s"])

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"wall_s {timing_summary(main_out['walls'])}")
    print(f"setup_s {timing_summary(setups)}")
    print(f"checks {main_out['checks_passed']}/{main_out['checks']} passed")
    if main_out["failed_checks"]:
        print("failed checks: " + ", ".join(main_out["failed_checks"]))

    if args.trace:
        print(f"traced wall_s {timing_summary(main_out['traced_walls'])}")
        values, listed = main_out["layers"], spec["per_layer"]
    else:
        values, listed = end_to_end(setups, main_out), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": main_out["failed_calls"] == 0,
        "attempted": main_out["calls"],
        "failed": main_out["failed_calls"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
