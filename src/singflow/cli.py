"""Command-line entry points: run, galerkin, analyze, verify.

Exit codes: 0 on success (and every check passing, for verify), 1 when a
verification check fails, 2 on usage or I/O errors. Outputs are deterministic
for a fixed config and seed: CSV floats use shortest round-trip repr and JSON
is written with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from singflow.config import ConfigError, RunConfig, build_problem, parse_config
from singflow.flow import SERIES_COLUMNS
from singflow.snapshots import Snapshot, read_snapshot, write_snapshot

AUX_COLUMNS = ("t", "log_theta2", "weighted_dt_sup")


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


def _write_snapshots(out_dir: str, traj, cfg: RunConfig) -> list[str]:
    paths = []
    for idx, (t, state) in enumerate(zip(traj.snapshot_times, traj.snapshots)):
        snap = Snapshot(
            n=(cfg.n, cfg.n, cfg.n),
            length=cfg.length,
            alpha=cfg.alpha,
            t=t,
            fields={
                "phi1": state.phi1,
                "phi2": state.phi2,
                "dphi1_dt": state.dphi1_dt,
                "dphi2_dt": state.dphi2_dt,
            },
        )
        path = os.path.join(out_dir, f"snap_{idx:05d}.sgf")
        write_snapshot(path, snap)
        paths.append(path)
    return paths


def _write_convergence(out_dir: str, traj, w) -> None:
    from singflow.norms import cstar2_norm

    final = traj.final
    rows = []
    for t, st in zip(traj.snapshot_times, traj.snapshots):
        rep = cstar2_norm(st.phi1 - final.phi1, st.phi2 - final.phi2, w.rho, w.alpha)
        rows.append((t, rep.value))
    write_csv(os.path.join(out_dir, "convergence.csv"), ("t", "cstar2_to_final"), rows)


def cmd_run(cfg: RunConfig, out_dir: str) -> int:
    from singflow.flow import init_state, cfl_dt, run

    os.makedirs(out_dir, exist_ok=True)
    grid, gamma, rho, w = build_problem(cfg)
    state0 = init_state(cfg.family, cfg.family_params, w)
    dt = cfg.dt if cfg.dt_policy == "fixed" else min(cfg.dt, cfl_dt(state0, w, cfg.cfl_factor))
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


def galerkin_forcing(name: str, grid, rho):
    """Named forcing presets for the linearized solver."""
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    L = grid.length
    if name == "trig_damped":
        damp = rho.rho_unclamped**2.5

        def f1(t):
            return damp * np.sin(2 * np.pi * x1 / L) * np.cos(2 * np.pi * x3 / L) * math.exp(-t)

        def f2(t):
            return np.cos(2 * np.pi * x2 / L) * (1.0 + 0.3 * math.sin(3.0 * t))

        return f1, f2
    if name == "zero":
        zero = np.zeros(grid.shape)
        return (lambda t: zero), (lambda t: zero)
    raise ConfigError([f"[galerkin] forcing = {name!r}: unknown preset"])


def _matrix_rows(M):
    for m in range(M.shape[0]):
        for l in range(M.shape[1]):
            yield (m, l, M[m, l])


def cmd_galerkin(cfg: RunConfig, out_dir: str) -> int:
    from singflow.flow import initial_fields
    from singflow.spectral import (
        assemble_galerkin,
        build_basis,
        galerkin_states,
        integrate_ode,
        weak_residual,
    )

    os.makedirs(out_dir, exist_ok=True)
    grid, gamma, rho, w = build_problem(cfg)
    phi0_1, phi0_2 = initial_fields(cfg.family, cfg.family_params, w)
    basis = build_basis(grid, cfg.galerkin_N)
    f1, f2 = galerkin_forcing(cfg.galerkin_forcing, grid, rho)
    times = np.arange(0.0, cfg.galerkin_t_final + 1e-12, cfg.galerkin_dt)
    system = assemble_galerkin(phi0_1, phi0_2, w, basis, f1, f2, times)
    integrate_ode(system, T=cfg.galerkin_t_final, dt=cfg.galerkin_dt)

    for name, M in (("A", system.A), ("B", system.B), ("C", system.C), ("D", system.D)):
        write_csv(os.path.join(out_dir, f"matrix_{name}.csv"), ("m", "l", "value"), _matrix_rows(M))

    N = system.N
    coeff_cols = ["t"] + [f"c1_{m}" for m in range(N)] + [f"c2_{m}" for m in range(N)]
    coeff_rows = (
        [t, *system.C1[i], *system.C2[i]] for i, t in enumerate(system.coeff_times)
    )
    write_csv(os.path.join(out_dir, "coefficients.csv"), coeff_cols, coeff_rows)

    defect = weak_residual(galerkin_states(system), system, f1, f2)
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
            for line in fh:
                for name, val in zip(header, line.strip().split(",")):
                    cols[name].append(float(val))
        for name, vals in cols.items():
            out.setdefault(name, np.asarray(vals))
    return out


def cmd_analyze(run_dir: str) -> int:
    from singflow.analysis import check_max_principle, exponent_fit, fit_decay_rate_log
    from singflow.flow import FlowState, Trajectory, pin_mask
    from singflow.norms import cstar2_norm, sampled_holder_seminorm, w212_norm
    from singflow.operators import stencil_symbol

    if not os.path.isdir(run_dir):
        print(f"error: run directory {run_dir!r} does not exist", file=sys.stderr)
        return 2
    summary_path = os.path.join(run_dir, "summary.json")
    if not os.path.isfile(summary_path):
        print(f"error: {summary_path} not found (not a run directory?)", file=sys.stderr)
        return 2

    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    cfg_dict = dict(summary["config"])
    cfg_dict["circle_center"] = tuple(cfg_dict["circle_center"])
    cfg = RunConfig(**cfg_dict)
    grid, gamma, rho, w = build_problem(cfg)

    snap_paths = sorted(
        os.path.join(run_dir, f) for f in os.listdir(run_dir) if f.endswith(".sgf")
    )
    snaps = [read_snapshot(p) for p in snap_paths]
    states = [
        FlowState(
            phi1=s.fields["phi1"],
            phi2=s.fields["phi2"],
            t=s.t,
            dphi1_dt=s.fields["dphi1_dt"],
            dphi2_dt=s.fields["dphi2_dt"],
        )
        for s in snaps
    ]
    series = _load_series(run_dir)

    traj = Trajectory(
        weight=w,
        dt=summary["dt_used"],
        pins=pin_mask(rho),
        series={k: list(v) for k, v in series.items()},
        snapshots=states,
        snapshot_times=[s.t for s in snaps],
    )

    reports: dict = {"decay": [], "bounds": [], "norms": []}
    window = (cfg.fit_window_start, min(cfg.fit_window_end, traj.final.t))
    lam1 = stencil_symbol((1, 0, 0), w.grid)
    try:
        fit = fit_decay_rate_log(series["t"], series["log_theta2"], window, "theta_l2_integral")
        fit.reference_rate = 2.0 * lam1
        fit.passed = fit.rate >= cfg.rate_slack * fit.reference_rate and fit.r_squared >= cfg.r2_min
        reports["decay"].append(fit.as_dict())
    except ValueError as exc:
        reports["decay"].append({"quantity": "theta_l2_integral", "verdict": f"skipped: {exc}"})

    for rep in check_max_principle(traj, w):
        reports["bounds"].append(rep.as_dict())

    final = traj.final
    reports["norms"].append(cstar2_norm(final.phi1, final.phi2, rho, cfg.alpha).as_dict())
    from singflow.weight import harmonicity_residual, log_asymptotics_shell

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
            w212_norm([(s.t, s.phi1) for s in states], rho, cfg.alpha).as_dict()
        )
        gamma_exp = min(2.0 * cfg.alpha - 0.25, 2.5)
        reports["norms"].append(
            sampled_holder_seminorm(
                [(s.t, s.phi1) for s in states],
                rho,
                gamma=gamma_exp,
                beta=0.5,
                n_pairs=cfg.holder_pairs,
                seed=cfg.seed,
            ).as_dict()
        )
    try:
        slope, err = exponent_fit(
            np.abs(final.phi1), rho, (cfg.shell_lo, cfg.shell_hi), n_shells=6
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

    os.makedirs(out_dir, exist_ok=True)
    verdicts = run_battery(cfg, out_dir)
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

    if args.command == "analyze":
        try:
            return cmd_analyze(args.rundir)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed

    try:
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
