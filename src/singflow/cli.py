"""Command-line entry points: run, galerkin, analyze, verify.

Exit codes: 0 on success (and every check passing, for verify), 1 when a
verification check fails, 2 on usage, config or I/O errors, a malformed
snapshot included. Outputs are deterministic for a fixed config and seed: CSV
floats use shortest round-trip repr and JSON is written with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from singflow.analysis import (
    check_max_principle, cstar2_to_final, exponent_fit, fit_decay_rate_log, theta_reference_rate
)
from singflow.config import ConfigError, RunConfig, build_problem, parse_config, whole_steps
from singflow.flow import SERIES_COLUMNS, FlowState, Trajectory, cfl_dt, init_state, initial_fields, run
from singflow.norms import cstar2_norm, sampled_holder_seminorm, w212_norm
from singflow.snapshots import Snapshot, SnapshotFormatError, read_snapshot, write_snapshot
from singflow.spectral import (
    assemble_galerkin,
    build_basis,
    galerkin_forcing,
    integrate_ode,
    weak_residual,
)
from singflow.weight import harmonicity_residual, log_asymptotics_shell

AUX_COLUMNS = ("t", "log_theta2", "weighted_dt_sup")
SNAPSHOT_FIELDS = ("phi1", "phi2", "dphi1_dt", "dphi2_dt")


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return repr(float(x))


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_series(out_dir: str, traj) -> None:
    series = traj.series
    rows = zip(*(series[c] for c in SERIES_COLUMNS))
    write_csv(os.path.join(out_dir, "timeseries.csv"), SERIES_COLUMNS, rows)
    aux_rows = zip(*(series[c] for c in AUX_COLUMNS))
    write_csv(os.path.join(out_dir, "series_aux.csv"), AUX_COLUMNS, aux_rows)


def _write_snapshots(out_dir: str, traj, cfg: RunConfig) -> None:
    for idx, (t, state) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
        snap = Snapshot(
            n=(cfg.n, cfg.n, cfg.n),
            length=cfg.length,
            alpha=cfg.alpha,
            t=t,
            fields={name: getattr(state, name) for name in SNAPSHOT_FIELDS},
        )
        write_snapshot(os.path.join(out_dir, f"snap_{idx:05d}.sgf"), snap)


def _write_convergence(out_dir: str, traj, w) -> None:
    rows = zip(traj.snapshot_times, cstar2_to_final(traj, w))
    write_csv(os.path.join(out_dir, "convergence.csv"), ("t", "cstar2_to_final"), rows)


def cmd_run(cfg: RunConfig, out_dir: str) -> int:
    w = build_problem(cfg)
    os.makedirs(out_dir, exist_ok=True)  # only for a config whose grid could be built
    state0 = init_state(cfg.family, cfg.family_params, w)
    dt = cfg.dt  # a whole fraction of t_final under dt_policy = fixed (see config)
    if cfg.dt_policy == "cfl":
        dt = min(dt, cfl_dt(state0, w, cfg.cfl_factor))
        if whole_steps(cfg.t_final, dt) is None:
            # shrink dt so that whole steps end exactly at t_final
            dt = cfg.t_final / math.ceil(cfg.t_final / dt)
    traj = run(state0, w, dt=dt, t_final=cfg.t_final, snapshot_interval=cfg.snapshot_interval)

    _write_series(out_dir, traj)
    _write_snapshots(out_dir, traj, cfg)
    _write_convergence(out_dir, traj, w)
    summary = {
        "config": cfg.as_dict(),
        "dt_used": dt,
        "steps": len(traj.series["t"]) - 1,
        "final_time": traj.final.t,
        "final_energy": traj.series["H"][-1],
        "final_max_abs_phi2": traj.series["max_abs_phi2"][-1],
        "snapshots": len(traj.snapshots),
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def _matrix_rows(M):
    for m in range(M.shape[0]):
        for l in range(M.shape[1]):
            yield (m, l, M[m, l])


def cmd_galerkin(cfg: RunConfig, out_dir: str) -> int:
    w = build_problem(cfg)
    try:
        basis = build_basis(w.grid, cfg.galerkin_N)
    except ValueError as exc:  # more modes than the grid holds below its Nyquist wavenumber
        raise ConfigError([f"[galerkin] N = {cfg.galerkin_N}: {exc}"]) from None
    f1, f2 = galerkin_forcing(cfg.galerkin_forcing, w.grid, w.rho)
    os.makedirs(out_dir, exist_ok=True)  # only for a config whose grid and basis could be built
    phi0_1, phi0_2 = initial_fields(cfg.family, cfg.family_params, w)
    system = assemble_galerkin(phi0_1, phi0_2, w, basis, f1, f2, cfg.galerkin_t_final, cfg.galerkin_dt)
    integrate_ode(system)

    for name, M in (("A", system.A), ("B", system.B), ("C", system.C), ("D", system.D)):
        write_csv(os.path.join(out_dir, f"matrix_{name}.csv"), ("m", "l", "value"), _matrix_rows(M))

    N = system.N
    coeff_cols = ["t"] + [f"c1_{m}" for m in range(N)] + [f"c2_{m}" for m in range(N)]
    coeff_rows = ([t, *system.C1[i], *system.C2[i]] for i, t in enumerate(system.times))
    write_csv(os.path.join(out_dir, "coefficients.csv"), coeff_cols, coeff_rows)

    defect = weak_residual(system)
    write_json(
        os.path.join(out_dir, "weak_residual.json"),
        {
            "defect": defect,
            "tolerance": 1e-6,
            "passed": bool(defect <= 1e-6),
            "N": N,
            "dt": cfg.galerkin_dt,
            "t_final": cfg.galerkin_t_final,
        },
    )
    return 0


def _load_series(run_dir: str):
    out = {}
    for fname in ("timeseries.csv", "series_aux.csv"):
        path = os.path.join(run_dir, fname)
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            cols = {name: [] for name in header}
            for lineno, line in enumerate(fh, start=2):
                values = line.strip().split(",")
                try:
                    if len(values) != len(header):
                        raise ValueError(f"{len(values)} fields where the header has {len(header)}")
                    for name, val in zip(header, values):
                        cols[name].append(float(val))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
        for name, vals in cols.items():
            out.setdefault(name, np.asarray(vals))
    return out


def cmd_analyze(run_dir: str) -> int:
    if not os.path.isdir(run_dir):
        print(f"error: run directory {run_dir!r} does not exist", file=sys.stderr)
        return 2
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.isfile(summary_path):
        print(f"error: {summary_path} not found (not a run directory?)", file=sys.stderr)
        return 2

    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            echo = json.load(fh)["config"]
        series = _load_series(run_dir)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed run directory {run_dir!r}: {exc!r}", file=sys.stderr)
        return 2
    cfg = RunConfig.from_dict(echo, source=f"{summary_path} config")

    snap_paths = sorted(
        os.path.join(run_dir, f) for f in os.listdir(run_dir) if f.endswith(".sgf")
    )
    snaps = [read_snapshot(p) for p in snap_paths]
    expected = ((cfg.n,) * 3, cfg.length, cfg.alpha, sorted(SNAPSHOT_FIELDS))
    problem = None if snaps else "no .sgf snapshot"
    for path, snap in zip(snap_paths, snaps):
        got = (snap.n, snap.length, snap.alpha, sorted(snap.fields))
        if got != expected:
            problem = f"{os.path.basename(path)} has (n, length, alpha, fields) {got}, not {expected}"
            break
    if problem:
        print(f"error: malformed run directory {run_dir!r}: {problem}", file=sys.stderr)
        return 2
    w = build_problem(cfg)
    states = [FlowState(t=s.t, **s.fields) for s in snaps]
    traj = Trajectory(series={k: list(v) for k, v in series.items()}, snapshots=states)

    reports: dict = {"decay": [], "bounds": [], "norms": []}
    window = (cfg.fit_window_start, min(cfg.fit_window_end, traj.final.t))
    reference = theta_reference_rate(w.grid)
    try:
        fit = fit_decay_rate_log(
            series["t"], series["log_theta2"], window, "theta_l2_integral",
            reference, cfg.rate_slack, cfg.r2_min,
        )
        reports["decay"].append(fit.as_dict())
    except ValueError as exc:
        reports["decay"].append({"quantity": "theta_l2_integral", "verdict": f"skipped: {exc}"})

    for rep in check_max_principle(traj, w):
        reports["bounds"].append(rep.as_dict())

    final = traj.final
    reports["norms"].append(cstar2_norm(final.phi1, final.phi2, w.rho, cfg.alpha).as_dict())
    try:
        reports["norms"].append(
            {
                "name": "log_h_harmonicity_residual",
                "value": harmonicity_residual(w, cfg.exclusion_radius),
                "exclusion": {"radius": cfg.exclusion_radius},
            }
        )
        lo, hi = log_asymptotics_shell(w)
        reports["norms"].append({"name": "log_h_over_log_rho_shell", "value": [lo, hi]})
    except ValueError as exc:
        reports["norms"].append({"name": "log_h_harmonicity_residual", "verdict": f"skipped: {exc}"})
    if len(states) >= 3:
        reports["norms"].append(
            w212_norm([(s.t, s.phi1) for s in states], w.rho, cfg.alpha).as_dict()
        )
        gamma_exp = min(2.0 * cfg.alpha - 0.25, 2.5)
        reports["norms"].append(
            sampled_holder_seminorm(
                [(s.t, s.phi1) for s in states],
                w.rho,
                gamma=gamma_exp,
                beta=0.5,
                n_pairs=cfg.holder_pairs,
                seed=cfg.seed,
            ).as_dict()
        )
    try:
        slope, err = exponent_fit(
            np.abs(final.phi1), w.rho, (cfg.shell_lo, cfg.shell_hi), n_shells=6
        )
        reports["decay"].append(
            {"quantity": "phi1_final_shell_slope", "slope": slope, "stderr": err}
        )
    except ValueError as exc:
        reports["decay"].append({"quantity": "phi1_final_shell_slope", "verdict": f"skipped: {exc}"})

    write_json(os.path.join(run_dir, "analysis.json"), reports)
    return 0


def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    from singflow.verify import run_battery

    verdicts = run_battery(cfg, out_dir)  # makes out_dir once the config's grid is built
    width = max(len(v["check_name"]) for v in verdicts)
    all_pass = True
    for v in verdicts:
        status = "PASS" if v["pass"] else "FAIL"
        all_pass &= v["pass"]
        print(
            f"{v['check_name']:<{width}}  {status}  measured={v['measured']:.6g}  "
            f"reference={v['reference']:.6g}  tolerance={v['tolerance']:.6g}"
        )
    write_json(os.path.join(out_dir, "verdicts.json"), {"verdicts": verdicts, "all_pass": all_pass})
    print(f"overall: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="singflow",
        description="Singular harmonic-map heat flow laboratory on the flat 3-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate the nonlinear flow and write outputs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_gal = sub.add_parser("galerkin", help="assemble and integrate the linearized system")
    p_gal.add_argument("--config", required=True)
    p_gal.add_argument("--out", required=True)
    p_gal.add_argument("--seed", type=int, default=None)

    p_ana = sub.add_parser("analyze", help="post-process a run directory")
    p_ana.add_argument("rundir")

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "analyze":
            return cmd_analyze(args.rundir)
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "galerkin":
            return cmd_galerkin(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, SnapshotFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
