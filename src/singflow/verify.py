"""Acceptance battery backing the `verify` subcommand.

Each check returns a verdict dict {check_name, pass, measured, reference,
tolerance}. The base config fixes the desk scale (grid, alpha, curve) and the
standard nonlinear run; the battery derives the auxiliary runs from it:

* standard run (from [flow]): uniform bounds, final-state exponent fits
* theta run (phi1 = 0, trig data, steps of THETA_DT): decay rates and
  weighted-norm convergence.
  With L = 1 the slowest stencil eigenvalue is ~39, so the squared-speed
  integral drops ~e^-160 per time unit squared; any run whose limit is not
  exactly zero bottoms out at the field round-off floor long before t = 5.
  A trig run decays multiplicatively to zero, stays clean down past 1e-140,
  and its integrals are tracked in log space.
* local-energy run (phi1 only): dyadic ball scans near the curve
* refinement pair at (n, 2n) and (dt, dt/2): Bochner violation shrinkage
* weight builds at n in {16, 32, 64}: harmonicity order and log-asymptotics

Each run belongs to the check that makes it, so its trajectory and weight
are freed when that check returns.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import os

import numpy as np

from singflow.analysis import (
    BochnerAccumulator,
    check_max_principle,
    convergence_report,
    epsilon_regularity_scan,
    exponent_fit,
    theta_decay_check,
)
from singflow.cli import cmd_run
from singflow.config import MAX_STEPS, ConfigError, RunConfig, build_problem, whole_steps
from singflow.flow import init_state, initial_fields, march, run
from singflow.operators import DP_apply, P_residual, gradient
from singflow.snapshots import Snapshot, read_snapshot, write_snapshot
from singflow.spectral import (
    Forcing,
    assemble_galerkin,
    build_basis,
    energy_estimate_lhs,
    energy_estimate_rhs,
    galerkin_forcing,
    integrate_ode,
    step_times,
    weak_residual,
)
from singflow.weight import harmonicity_residual, log_asymptotics_shell

# the theta run's fixed step; [flow] t_final must be a whole multiple of it
THETA_DT = 1e-3


def verdict(name: str, passed: bool, measured: float, reference: float, tolerance: float) -> dict:
    return {
        "check_name": name,
        "pass": bool(passed),
        "measured": float(measured),
        "reference": float(reference),
        "tolerance": float(tolerance),
    }


def _smooth_direction(grid, rng):
    """0.5 times a sum of four cosine modes with |k_i| <= 2, normal amplitudes and random phases."""
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    f = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(-2, 3, size=3)
        phase = rng.uniform(0, 2 * np.pi)
        f += rng.normal() * np.cos(
            2 * np.pi * (k[0] * x1 + k[1] * x2 + k[2] * x3) / grid.length + phase
        )
    return 0.5 * f


def check_operator_linearization(cfg: RunConfig) -> list[dict]:
    """Finite-difference directional derivative of the flow operator converges
    linearly in epsilon toward the assembled linearization."""
    w = build_problem(cfg)
    grid = w.grid
    phi0_1, _ = initial_fields("poly_cutoff", {"c": 0.3}, w)
    _, phi0_2 = initial_fields("trig", {"a": 0.4, "b": 0.3}, w)
    z = np.zeros(grid.shape)
    rng = np.random.default_rng(cfg.seed)
    eps_list = (1e-2, 1e-3, 1e-4)
    orders = []
    for _ in range(10):
        k1 = _smooth_direction(grid, rng)
        k2 = _smooth_direction(grid, rng)
        d1, d2 = DP_apply(phi0_1, phi0_2, k1, k2, w)
        errs = []
        for eps in eps_list:
            pa = P_residual(phi0_1 + eps * k1, phi0_2 + eps * k2, z, z, w)
            pb = P_residual(phi0_1, phi0_2, z, z, w)
            fd1 = (pa[0] - pb[0]) / eps
            fd2 = (pa[1] - pb[1]) / eps
            errs.append(max(np.max(np.abs(fd1 - d1)), np.max(np.abs(fd2 - d2))))
        orders.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
    measured = max(abs(o - 1.0) for o in orders)
    return [verdict("operator_gateaux_order", measured <= 0.2, measured, 0.0, 0.2)]


def _brute_force_matrices(system):
    """Nested-loop quadrature oracle, fsum accumulation per entry."""
    w = system.weight
    grid = w.grid
    vol = grid.cell_volume
    s = grid.spacing
    N = system.N
    wtil = w.metric_weight(system.phi0_2)
    g0 = gradient(system.phi0_1, s)
    g0sq = np.sum(g0 * g0, axis=0)

    psi2 = system.basis.fields.reshape(N, -1)
    gpsi2 = system.basis.grads.reshape(N, 3, -1)
    psi1 = system.wbasis.fields.reshape(N, -1)
    gpsi1 = system.wbasis.grads.reshape(N, 3, -1)
    wt = wtil.ravel()
    g0f = g0.reshape(3, -1)
    g0sqf = g0sq.ravel()

    A = np.zeros((N, N))
    B = np.zeros((N, N))
    C = np.zeros((N, N))
    D = np.zeros((N, N))
    npts = wt.size
    for m in range(N):
        for l in range(N):
            a_terms = []
            b_terms = []
            c_terms = []
            d_terms = []
            for p in range(npts):
                ga = (
                    gpsi1[l, 0, p] * gpsi1[m, 0, p]
                    + gpsi1[l, 1, p] * gpsi1[m, 1, p]
                    + gpsi1[l, 2, p] * gpsi1[m, 2, p]
                )
                a_terms.append(wt[p] * ga)
                gb = (
                    g0f[0, p] * gpsi2[l, 0, p]
                    + g0f[1, p] * gpsi2[l, 1, p]
                    + g0f[2, p] * gpsi2[l, 2, p]
                )
                b_terms.append(2.0 * gb * wt[p] * psi1[m, p])
                gc = (
                    gpsi2[l, 0, p] * gpsi2[m, 0, p]
                    + gpsi2[l, 1, p] * gpsi2[m, 1, p]
                    + gpsi2[l, 2, p] * gpsi2[m, 2, p]
                )
                c_terms.append(2.0 * wt[p] * g0sqf[p] * psi2[l, p] * psi2[m, p] + gc)
                gd = (
                    g0f[0, p] * gpsi1[l, 0, p]
                    + g0f[1, p] * gpsi1[l, 1, p]
                    + g0f[2, p] * gpsi1[l, 2, p]
                )
                d_terms.append(-2.0 * wt[p] * gd * psi2[m, p])
            A[m, l] = math.fsum(a_terms) * vol
            B[m, l] = math.fsum(b_terms) * vol
            C[m, l] = math.fsum(c_terms) * vol
            D[m, l] = math.fsum(d_terms) * vol
    return A, B, C, D


def _rk4_loads(system, T, dt):
    """Interpolated loads at the times the RK4 loop visits, shape (steps, 3, 2N).

    Entry [i, j] is the load at t_i, t_i + dt/2 and t_i + dt (j = 0, 1, 2),
    with t_i accumulated as t += dt, the same values the loop computes.
    """
    steps = int(round(T / dt))
    visited = np.empty((steps, 3))
    t = 0.0
    for i in range(steps):
        visited[i] = (t, t + dt / 2, t + dt)
        t += dt
    F = np.concatenate([system.F1, system.F2], axis=1)
    return np.stack([np.interp(visited, system.times, col) for col in F.T], axis=-1)


def _rk4_reference(system, T, dt):
    M = system.block_matrix()
    c = np.zeros(M.shape[0])
    for load_t, load_mid, load_end in _rk4_loads(system, T, dt):
        k1 = load_t - M @ c
        k2 = load_mid - M @ (c + dt / 2 * k1)
        k3 = load_mid - M @ (c + dt / 2 * k2)
        k4 = load_end - M @ (c + dt * k3)
        c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def check_galerkin_oracles(cfg: RunConfig) -> list[dict]:
    dt, T = 2e-4, 0.3  # with N = 4: fixed, independent of the config's [galerkin] section
    w = build_problem(cfg)
    phi0_1, _ = initial_fields("poly_cutoff", {"c": 0.1}, w)
    _, phi0_2 = initial_fields("trig", {"a": 0.2, "b": 0.15}, w)
    f1, f2 = galerkin_forcing("trig_damped", w.grid, w.rho)
    system = assemble_galerkin(phi0_1, phi0_2, w, basis=build_basis(w.grid, 4), f1=f1, f2=f2, T=T, dt=dt)
    A, B, C, D = _brute_force_matrices(system)
    diff = max(
        float(np.max(np.abs(system.A - A))),
        float(np.max(np.abs(system.B - B))),
        float(np.max(np.abs(system.C - C))),
        float(np.max(np.abs(system.D - D))),
    )
    out = [verdict("galerkin_matrix_oracle", diff <= 1e-12, diff, 0.0, 1e-12)]

    integrate_ode(system)
    ref = _rk4_reference(system, T=T, dt=1e-5)
    got = np.concatenate([system.C1[-1], system.C2[-1]])
    ode_diff = float(np.max(np.abs(got - ref)))
    out.append(verdict("galerkin_ode_vs_rk4", ode_diff <= 1e-6, ode_diff, 0.0, 1e-6))

    defect = weak_residual(system)
    out.append(verdict("galerkin_weak_residual", defect <= 1e-6, defect, 0.0, 1e-6))
    return out


def _energy_corpus(grid, rho):
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    L = grid.length
    damp = rho.rho_unclamped**2.5
    s1 = np.sin(2 * np.pi * x1 / L)
    s2 = np.sin(2 * np.pi * x2 / L)
    s3 = np.sin(2 * np.pi * x3 / L)
    c1 = np.cos(2 * np.pi * x1 / L)
    c2 = np.cos(2 * np.pi * x2 / L)
    c3 = np.cos(2 * np.pi * x3 / L)

    def one(t):
        return 1.0

    # each term keeps the float operations of the closed form it came from,
    # space * profile(t) with the profile multiplied last; every f2 keeps O(1)
    # content on the x3 modes, which are the first nonconstant modes of the
    # basis ordering, so the N = 4 truncation is genuinely forced and the
    # measured constant is comparable across N
    corpus = [
        (
            ("zero", {}),
            Forcing([(damp * s1 * c3, lambda t: math.exp(-t))]),
            Forcing([(c3, lambda t: 1.0 + 0.3 * math.sin(3 * t))]),
        ),
        (
            ("poly_cutoff+trig", {"c": 0.05, "a": 0.2, "b": 0.1}),
            Forcing([(damp * c2 * s3, lambda t: 1.0 + t)]),
            Forcing([(s3, lambda t: math.exp(-2 * t)), (0.3 * s1, one)]),
        ),
        (
            ("poly_cutoff", {"c": 0.1}),
            Forcing([(damp * (s1 * c2 + 0.5 * s2), one)]),
            Forcing([(s3, lambda t: 1.0 - math.exp(-3 * t))]),
        ),
        (
            ("trig", {"a": 0.3, "b": 0.2}),
            Forcing([(damp * (s1 + c2), lambda t: math.exp(-t / 2))]),
            Forcing([(c3, lambda t: math.cos(3 * t)), (0.2 * c1, one)]),
        ),
        (
            ("poly_cutoff+trig", {"c": 0.05, "a": -0.15, "b": 0.25}),
            Forcing([(damp * s2, lambda t: math.cos(2 * t))]),
            Forcing([(c3, one), (0.5 * s3, lambda t: math.exp(-t))]),
        ),
    ]
    return corpus


def check_energy_estimate(cfg: RunConfig) -> list[dict]:
    dt, T = 2e-3, 0.3
    w = build_problem(cfg)
    bases = [build_basis(w.grid, N) for N in (4, 8, 16)]
    times = step_times(T, dt)
    ratios = []
    for family_spec, f1, f2 in _energy_corpus(w.grid, w.rho):
        family, params = family_spec
        phi0_1, phi0_2 = initial_fields(family, params, w)
        rhs = energy_estimate_rhs(w, f1, f2, times)  # the same for every N
        for basis in bases:
            system = assemble_galerkin(phi0_1, phi0_2, w, basis=basis, f1=f1, f2=f2, T=T, dt=dt)
            integrate_ode(system)
            lhs = energy_estimate_lhs(system)
            if not (np.isfinite(lhs) and rhs > 0):
                return [verdict("energy_estimate_spread", False, math.inf, 2.0, 0.0)]
            ratios.append(lhs / rhs)
    spread = max(ratios) / min(ratios)
    return [verdict("energy_estimate_spread", spread < 2.0, spread, 2.0, 0.0)]


def check_standard_run(cfg: RunConfig) -> list[dict]:
    """The standard run of [flow]: its uniform bounds, then its final-state exponent fits."""
    w = build_problem(cfg)
    state0 = init_state(cfg.family, cfg.family_params, w)
    traj = run(
        state0, w, dt=cfg.dt, t_final=cfg.t_final, snapshot_interval=cfg.snapshot_interval
    )
    out = [
        verdict(rep.name, rep.passed, rep.left, rep.right, rep.tolerance)
        for rep in check_max_principle(traj, w)
    ]

    final = traj.final
    shell = (cfg.shell_lo, cfg.shell_hi)
    slope1, err1 = exponent_fit(np.abs(final.phi1), w.rho, shell)
    ref1 = 2.0 * cfg.alpha - 0.5
    g2 = gradient(final.phi2, w.grid.spacing)
    mag = np.sqrt(np.sum(g2 * g2, axis=0))
    slope2, err2 = exponent_fit(mag, w.rho, shell)
    ref2 = -1.0 + 0.1
    return out + [
        verdict("phi1_vanishing_slope", slope1 >= ref1, slope1, ref1, err1),
        verdict("grad_phi2_slope", slope2 >= ref2, slope2, ref2, err2),
    ]


def check_bochner(cfg: RunConfig) -> list[dict]:
    """Violation under the 10(dt + s^2) bound at (n, dt) and at (2n, dt/2).

    Halving dt and spacing shrinks the bound itself by more than 2x, so the
    refinement clause asserts the measured violation keeps clearing a bound
    that tightened at the discretization rate.
    """
    T = 0.04
    results = {}
    for label, n, dt in (("coarse", cfg.n, 2e-4), ("fine", 2 * cfg.n, 1e-4)):
        w = build_problem(dataclasses.replace(cfg, n=n))
        state0 = init_state(cfg.family, cfg.family_params, w)
        acc = BochnerAccumulator(w)
        march(state0, w, dt=dt, t_final=T, step_callback=acc)
        results[label] = {"violation": acc.worst, "bound": 10.0 * (dt + w.grid.spacing**2)}
    coarse, fine = results["coarse"], results["fine"]
    shrink = coarse["bound"] / fine["bound"]
    return [
        verdict(
            "bochner_violation",
            coarse["violation"] <= coarse["bound"],
            coarse["violation"],
            coarse["bound"],
            0.0,
        ),
        verdict(
            "bochner_violation_refined",
            fine["violation"] <= fine["bound"],
            fine["violation"],
            fine["bound"],
            0.0,
        ),
        verdict("bochner_bound_shrink", shrink >= 2.0, shrink, 2.0, 0.0),
    ]


def _fit_verdicts(name: str, fit) -> list[dict]:
    """The `{name}_rate` and `{name}_r2` verdicts of a decay fit's two criteria."""
    return [
        verdict(f"{name}_rate", fit.rate_ok, fit.rate, fit.reference_rate, fit.rate_floor),
        verdict(f"{name}_r2", fit.r2_ok, fit.r_squared, 1.0, fit.r2_min),
    ]


def check_theta_run(cfg: RunConfig) -> list[dict]:
    """The theta run to [flow] t_final in steps of THETA_DT: its decay, then its convergence.

    phi1 = 0 is an exact solution branch: the system reduces to the heat
    equation, whose pure decay stays representable over the [1, 5] window.
    """
    w = build_problem(cfg)
    state0 = init_state("trig", {"a": 0.3, "b": 0.2}, w)
    traj = run(
        state0, w, dt=THETA_DT, t_final=cfg.t_final, snapshot_interval=0.1, conserve_phi2_mean=True
    )
    window = (cfg.fit_window_start, cfg.fit_window_end)
    decay = theta_decay_check(traj, w, window, rate_slack=cfg.rate_slack, r2_min=cfg.r2_min)
    out = [
        verdict("theta_l2_monotone", decay["monotone"], decay["max_step_increase"], 0.0, 1e-10)
    ]
    for fit in decay["fits"]:
        out += _fit_verdicts(fit.quantity, fit)

    rep = convergence_report(
        traj, w, window=(1.0, traj.final.t / 2.0), rate_slack=cfg.rate_slack, r2_min=cfg.r2_min
    )
    res1, res2 = rep["steady_residual"]
    res_sum = res1 + res2
    ref = 10.0 * traj.column("weighted_dt_sup")[-1]
    return out + _fit_verdicts("cstar2_convergence", rep["fit"]) + [
        verdict("steady_residual_vs_theta", res_sum <= ref, res_sum, ref, 0.0),
    ]


def _curve_adjacent_centers(grid, rho):
    """The four nodes nearest the curve that lie in distinct x3 planes."""
    flat = np.argsort(rho.rho_unclamped, axis=None)
    ax = grid.axis
    centers = []
    seen_x3 = set()
    for idx in flat:
        i, j, k = np.unravel_index(idx, grid.shape)
        if k in seen_x3:
            continue
        seen_x3.add(k)
        centers.append((float(ax[i]), float(ax[j]), float(ax[k])))
        if len(centers) == 4:
            break
    return centers


def check_epsilon_regularity(cfg: RunConfig) -> list[dict]:
    w = build_problem(cfg)
    state0 = init_state("poly_cutoff", {"c": 0.05}, w)
    centers = _curve_adjacent_centers(w.grid, w.rho)

    scan0 = epsilon_regularity_scan(state0, w, centers)
    best_ratio = max(
        (min(rec["E"]) / rec["E"][-1]) if rec["E"][-1] > 0 else math.inf for rec in scan0
    )
    has_sigma = all(rec["sigma_x"] is not None for rec in scan0)

    final = march(state0, w, dt=1e-4, t_final=0.05)
    scan_T = epsilon_regularity_scan(final, w, centers)
    min_slope = min(rec["slope"] for rec in scan_T)
    return [
        verdict("local_energy_slope_final", min_slope > 0.0, min_slope, 0.0, 0.0),
        verdict("local_energy_sigma_x", has_sigma and best_ratio <= 0.1, best_ratio, 0.1, 0.0),
    ]


def check_weight_construction(cfg: RunConfig) -> list[dict]:
    residuals = {}
    shell_dev = 0.0
    for n in (16, 32, 64):
        w = build_problem(dataclasses.replace(cfg, n=n), near_radius=0.25 * cfg.length)
        residuals[n] = harmonicity_residual(w, exclusion_radius=0.3 * cfg.length)
        lo, hi = log_asymptotics_shell(w)
        shell_dev = max(shell_dev, abs(lo - 1.0), abs(hi - 1.0))
    order1 = math.log2(residuals[16] / residuals[32])
    order2 = math.log2(residuals[32] / residuals[64])
    ok = 1.3 <= order1 <= 2.6 and 1.3 <= order2 <= 2.6
    return [
        verdict("weight_residual_order", ok, min(order1, order2), 2.0, 0.7),
        verdict("weight_log_asymptotics", shell_dev <= 0.1, 1.0 + shell_dev, 1.0, 0.1),
    ]


def check_infrastructure(cfg: RunConfig, out_dir: str) -> list[dict]:
    # snapshot round trip: write, read, rewrite, byte-compare
    rng = np.random.default_rng(cfg.seed)
    n = 8
    snap = Snapshot(
        n=(n, n, n),
        length=cfg.length,
        alpha=cfg.alpha,
        t=0.125,
        fields={"phi1": rng.normal(size=(n, n, n)), "phi2": rng.normal(size=(n, n, n))},
    )
    p1 = os.path.join(out_dir, "roundtrip_a.sgf")
    p2 = os.path.join(out_dir, "roundtrip_b.sgf")
    write_snapshot(p1, snap)
    write_snapshot(p2, read_snapshot(p1))
    roundtrip_ok = filecmp.cmp(p1, p2, shallow=False)

    # determinism: identical tiny runs produce byte-identical outputs
    small = dataclasses.replace(
        cfg,
        n=16,
        t_final=0.02,
        dt=1e-3,
        snapshot_interval=0.01,
        family="poly_cutoff+trig",
        family_c=0.1,
        family_a=0.05,
        family_b=0.05,
    )
    dirs = [os.path.join(out_dir, f"determinism_{i}") for i in (0, 1)]
    for d in dirs:
        cmd_run(small, d)
    same = True
    for fname in ("timeseries.csv", "series_aux.csv", "convergence.csv", "snap_00000.sgf"):
        same &= filecmp.cmp(os.path.join(dirs[0], fname), os.path.join(dirs[1], fname), shallow=False)
    return [
        verdict("snapshot_roundtrip_bytes", roundtrip_ok, float(roundtrip_ok), 1.0, 0.0),
        verdict("pipeline_determinism", same, float(same), 1.0, 0.0),
    ]


def run_battery(cfg: RunConfig, out_dir: str) -> list[dict]:
    theta_steps = whole_steps(cfg.t_final, THETA_DT)
    if theta_steps is None:  # else the theta run would end early
        raise ConfigError([
            f"[flow] t_final = {cfg.t_final}: the battery's theta run needs a whole multiple "
            f"of its dt = {THETA_DT} (t_final/dt = {cfg.t_final / THETA_DT:.6g})"
        ])
    if theta_steps > MAX_STEPS:  # the config held only [flow] dt to it
        raise ConfigError([
            f"[flow] t_final = {cfg.t_final}: the battery's theta run would take {theta_steps} "
            f"steps of THETA_DT = {THETA_DT}, more than MAX_STEPS = {MAX_STEPS}"
        ])
    verdicts = check_operator_linearization(cfg)  # builds the config's own grid first
    os.makedirs(out_dir, exist_ok=True)  # so a config that build_problem rejects leaves no directory
    verdicts += check_galerkin_oracles(cfg)
    verdicts += check_energy_estimate(cfg)
    verdicts += check_standard_run(cfg)
    verdicts += check_bochner(cfg)
    verdicts += check_theta_run(cfg)
    verdicts += check_epsilon_regularity(cfg)
    verdicts += check_weight_construction(cfg)
    verdicts += check_infrastructure(cfg, out_dir)
    return verdicts
