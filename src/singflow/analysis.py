"""Quantitative checks on simulated trajectories.

Every check returns a small report object rather than asserting, so the same
machinery backs both the test suite and the verification command. Rate
assertions compare against reference rates derived from the first nonzero
stencil eigenvalue with a 0.8 slack factor: the Poincare step that fixes the
reference applies to a nonnegative (not mean-zero) quantity, so the
identification is heuristic and both numbers are always reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from singflow.flow import FlowState, StepState, Trajectory, slab_stencil
from singflow.geometry import stencil_clear
from singflow.norms import cstar2_norm, theta_field
from singflow.operators import stencil_symbol
from singflow.weight import WeightField


@dataclass
class DecayReport:
    quantity: str
    amplitude: float
    rate: float
    window: tuple[float, float]
    r_squared: float
    reference_rate: float | None = None
    passed: bool | None = None
    verdict: str = ""

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError("R^2 must lie in [0, 1]")
        if not np.isfinite(self.rate):
            raise ValueError("fitted rate must be finite")

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "amplitude": self.amplitude,
            "rate": self.rate,
            "window": list(self.window),
            "r_squared": self.r_squared,
            "reference_rate": self.reference_rate,
            "passed": self.passed,
            "verdict": self.verdict,
        }


@dataclass
class BoundReport:
    name: str
    left: float
    right: float
    tolerance: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.right - self.left

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "extra": self.extra,
        }


def fit_decay_rate_log(times, log_values, window: tuple[float, float], quantity: str = "series") -> DecayReport:
    """Log-linear fit on precomputed logs (robust when y underflows linearly)."""
    times = np.asarray(times, dtype=float)
    log_values = np.asarray(log_values, dtype=float)
    sel = (times >= window[0]) & (times <= window[1]) & np.isfinite(log_values)
    if sel.sum() < 10:
        raise ValueError("need at least 10 samples inside the fit window")
    t = times[sel]
    ly = log_values[sel]
    slope, intercept = np.polyfit(t, ly, 1)
    resid = ly - (slope * t + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayReport(
        quantity=quantity,
        amplitude=float(np.exp(min(intercept, 700.0))),
        rate=float(-slope),
        window=window,
        r_squared=max(0.0, min(1.0, r2)),
    )


def tension_bound(state0: FlowState, w: WeightField) -> float:
    """G = max over the grid of the target-metric norm of the initial tension.

    Along the flow the tension equals the time derivative, so |tau(Phi0)| is
    sqrt(theta) at t = 0.
    """
    theta0 = theta_field(w.metric_weight(state0.phi2), state0.dphi1_dt, state0.dphi2_dt)
    return float(np.sqrt(np.max(theta0)))


def check_max_principle(traj: Trajectory, w: WeightField) -> list[BoundReport]:
    """Uniform bounds d(Phi(t), Phi0) <= G d^2/6 and the induced phi2 bound."""
    state0 = traj.initial
    G = tension_bound(state0, w)
    diam = math.sqrt(3.0) * w.grid.length / 2.0
    bound = G * diam**2 / 6.0
    tol = 1e-3 * (1.0 + bound)

    sup_dist = float(np.max(traj.column("hyp_dist_to_init")))
    sup_phi2 = float(np.max(traj.column("max_abs_phi2")))
    sup_phi2_0 = float(np.max(np.abs(state0.phi2)))
    return [
        BoundReport(
            name="hyperbolic_distance_bound",
            left=sup_dist,
            right=bound,
            tolerance=tol,
            extra={"G": G, "diameter": diam},
        ),
        BoundReport(
            name="phi2_uniform_bound",
            left=sup_phi2,
            right=sup_phi2_0 + bound,
            tolerance=tol,
            extra={"G": G, "diameter": diam, "sup_phi2_initial": sup_phi2_0},
        ),
    ]


class BochnerAccumulator:
    """Streaming max over interior nodes and steps of (d theta/dt - Lap theta).

    The continuum quantity is nonpositive, so the positive part measures the
    discretization error. Keeps a rolling window of three theta fields for the
    centered time difference; usable as a flow step callback, so runs never
    hold the dense theta history. Nodes whose stencil reaches the pinned ring
    are excluded. The centered difference and Laplacian are taken slab by slab
    in the weight's `slab_workspace`.
    """

    def __init__(self, w: WeightField, pins: np.ndarray):
        self.w = w
        self.mask = stencil_clear(pins) & (w.rho.rho_unclamped > 2.0 * w.grid.spacing)
        self.window: list[tuple[float, np.ndarray]] = []
        self.worst = -math.inf

    def __call__(self, state: StepState):
        theta = theta_field(state.wtil, state.dphi1_dt, state.dphi2_dt)
        self.window.append((state.t, theta))
        if len(self.window) > 3:
            self.window.pop(0)
        if len(self.window) == 3:
            (t0, th0), (_, th1), (t2, th2) = self.window
            ws = self.w.slab_workspace
            for sl in ws.slabs:
                p = sl.stop - sl.start
                lap, expr = ws.scratch[1, :p], ws.scratch[2, :p]
                slab_stencil(th1, sl, self.w, lap)
                np.subtract(th2[sl], th0[sl], out=expr)
                expr /= t2 - t0
                expr -= lap
                worst = float(np.max(expr, where=self.mask[sl], initial=-np.inf))
                self.worst = max(self.worst, worst)


def theta_decay_check(
    traj: Trajectory,
    w: WeightField,
    window: tuple[float, float],
    rate_slack: float = 0.8,
    r2_min: float = 0.9,
) -> dict:
    """Monotonicity of int theta^2 plus log-linear decay fits.

    Fits the squared-speed integral (reference rate 2*lambda_1) and the
    weighted pointwise sup series rho^{3/2-a}|dphi1| + rho^{3/2}|dphi2|
    (reference lambda_1/2). Both use robust log-series.
    """
    times = traj.column("t")
    log_t2 = traj.column("log_theta2")

    if not np.any(np.isfinite(log_t2)):
        return {"verdict": "empty", "monotone": True, "fits": []}

    lam1 = stencil_symbol((1, 0, 0), w.grid)
    c0 = 2.0 * lam1

    finite = np.isfinite(log_t2)
    diffs = np.diff(log_t2[finite])
    monotone = bool(np.all(diffs <= np.log1p(1e-10)))

    fit_l2 = fit_decay_rate_log(times, log_t2, window, quantity="theta_l2_integral")
    fit_l2.reference_rate = c0
    fit_l2.passed = fit_l2.rate >= rate_slack * c0 and fit_l2.r_squared >= r2_min

    sup_series = traj.column("weighted_dt_sup")
    with np.errstate(divide="ignore"):
        log_sup = np.where(sup_series > 0, np.log(np.maximum(sup_series, 1e-320)), -np.inf)
    fit_sup = fit_decay_rate_log(times, log_sup, window, quantity="weighted_dt_sup")
    fit_sup.reference_rate = c0 / 4.0
    fit_sup.passed = fit_sup.rate >= rate_slack * c0 / 4.0 and fit_sup.r_squared >= r2_min

    return {"verdict": "fitted", "monotone": monotone, "fits": [fit_l2, fit_sup]}


def exponent_fit(
    fieldvals: np.ndarray,
    rho_field,
    shell_range: tuple[float, float],
    n_shells: int = 8,
    min_nodes: int = 8,
) -> tuple[float, float]:
    """Log-log slope (and stderr) of shell-wise max |field| against shell rho."""
    grid = rho_field.grid
    lo, hi = shell_range
    if lo < 4.0 * grid.spacing - 1e-12 or hi > grid.length / 4.0 + 1e-12:
        raise ValueError("shell_range must lie within [4*spacing, L/4]")
    edges = np.geomspace(lo, hi, n_shells + 1)
    rho = rho_field.rho_unclamped
    xs, ys = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        shell = (rho >= a) & (rho < b)
        if shell.sum() < min_nodes:
            raise ValueError(f"shell [{a:.4g}, {b:.4g}) has fewer than {min_nodes} nodes")
        m = float(np.max(np.abs(fieldvals[shell])))
        if m <= 0.0:
            raise ValueError("shell max vanished; cannot take logs")
        xs.append(math.log(math.sqrt(a * b)))
        ys.append(math.log(m))
    (slope, _), cov = np.polyfit(xs, ys, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


def epsilon_regularity_scan(
    state: FlowState,
    w: WeightField,
    centers,
    sigma_max: float | None = None,
    threshold: float = 0.1,
) -> list[dict]:
    """Dyadic local-energy table per center, fitted slope, and sigma_x search.

    sigma runs dyadically from 2*spacing (the smallest resolvable ball) up to
    L/8. sigma_x is the smallest tabulated sigma with E_sigma below
    threshold * E at the largest sigma.
    """
    from singflow.norms import local_energy_E

    grid = w.grid
    if sigma_max is None:
        sigma_max = grid.length / 8.0
    sigmas = []
    sig = sigma_max
    while sig >= 2.0 * grid.spacing - 1e-12:
        sigmas.append(sig)
        sig /= 2.0
    sigmas = sorted(sigmas)
    if len(sigmas) < 2:
        raise ValueError("fewer than two dyadic ball radii fit between 2*spacing and L/8")

    out = []
    for center in centers:
        E_vals = []
        for sig in sigmas:
            _, _, E = local_energy_E(
                state.phi1, state.phi2, state.dphi1_dt, state.dphi2_dt, w, center, sig
            )
            E_vals.append(E)
        E_vals = np.asarray(E_vals)
        if np.all(E_vals > 0):
            slope = float(
                np.polyfit(np.log(sigmas), np.log(E_vals), 1)[0]
            )
        else:
            slope = math.nan
        E_top = E_vals[-1]
        sigma_x = None
        for sig, E in zip(sigmas, E_vals):
            if E <= threshold * E_top:
                sigma_x = sig
                break
        out.append(
            {
                "center": tuple(float(c) for c in center),
                "sigmas": list(map(float, sigmas)),
                "E": [float(v) for v in E_vals],
                "slope": slope,
                "sigma_x": sigma_x,
            }
        )
    return out


def convergence_report(
    traj: Trajectory,
    w: WeightField,
    window: tuple[float, float] | None = None,
    rate_slack: float = 0.8,
    r2_min: float = 0.9,
) -> dict:
    """Exponential convergence of phi(t) to the final snapshot in the weighted
    second-order sup norm, plus the steady residual at the end state."""
    from singflow.flow import steady_residual

    log_t2 = traj.column("log_theta2")
    finite = np.isfinite(log_t2)
    if np.any(finite) and log_t2[finite].size >= 2:
        drop = log_t2[0] - log_t2[-1] if np.isfinite(log_t2[0]) and np.isfinite(log_t2[-1]) else math.inf
        if drop < math.log(1e3):
            raise ValueError("final time too early: int theta^2 has not decayed by 1e3")

    final = traj.final
    times = np.asarray(traj.snapshot_times)
    series = []
    for st in traj.snapshots:
        rep = cstar2_norm(st.phi1 - final.phi1, st.phi2 - final.phi2, w.rho, w.alpha)
        series.append(rep.value)
    series = np.asarray(series)

    res1, res2 = steady_residual(final, w)
    if np.all(series == 0.0):
        return {
            "verdict": "converged at t=0",
            "fit": None,
            "steady_residual": (res1, res2),
            "times": times,
            "series": series,
        }

    T = times[-1]
    if window is None:
        window = (1.0, T / 2.0)
    lam1 = stencil_symbol((1, 0, 0), w.grid)
    with np.errstate(divide="ignore"):
        log_series = np.where(series > 0, np.log(np.maximum(series, 1e-320)), -np.inf)
    fit = fit_decay_rate_log(times, log_series, window, quantity="cstar2_to_final")
    fit.reference_rate = 2.0 * lam1 / 4.0
    fit.passed = fit.rate >= rate_slack * fit.reference_rate and fit.r_squared >= r2_min
    return {
        "verdict": "fitted",
        "fit": fit,
        "steady_residual": (res1, res2),
        "times": times,
        "series": series,
    }
