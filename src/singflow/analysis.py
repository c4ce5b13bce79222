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

from singflow.flow import FlowState, StepState, Trajectory, slab_stencil, steady_residual
from singflow.geometry import stencil_clear
from singflow.norms import cstar2_norm, local_energy_E, theta_field
from singflow.operators import stencil_symbol
from singflow.weight import WeightField


@dataclass(frozen=True)
class DecayReport:
    """A log-linear decay fit and its verdict: the fitted rate must reach
    rate_slack * reference_rate, and the fit's R^2 must reach r2_min."""

    quantity: str
    amplitude: float
    rate: float
    window: tuple[float, float]
    r_squared: float
    reference_rate: float
    rate_slack: float
    r2_min: float

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError("R^2 must lie in [0, 1]")
        if not np.isfinite(self.rate):
            raise ValueError("fitted rate must be finite")

    @property
    def rate_floor(self) -> float:
        return self.rate_slack * self.reference_rate

    @property
    def rate_ok(self) -> bool:
        return bool(self.rate >= self.rate_floor)

    @property
    def r2_ok(self) -> bool:
        return self.r_squared >= self.r2_min

    @property
    def passed(self) -> bool:
        return self.rate_ok and self.r2_ok

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "amplitude": self.amplitude,
            "rate": self.rate,
            "window": list(self.window),
            "r_squared": self.r_squared,
            "reference_rate": self.reference_rate,
            "passed": self.passed,
            "verdict": "",  # a fit that ran; a skipped one reads "skipped: <reason>"
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


def fit_decay_rate_log(
    times,
    log_values,
    window: tuple[float, float],
    quantity: str,
    reference_rate: float,
    rate_slack: float,
    r2_min: float,
) -> DecayReport:
    """Log-linear fit on precomputed logs (robust when y underflows linearly),
    judged against rate_slack * reference_rate and r2_min."""
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
        reference_rate=reference_rate,
        rate_slack=rate_slack,
        r2_min=r2_min,
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
    discretization error. `window` holds the (t, theta) of the last three
    states, oldest first, for the centered time difference: a ring of three
    arrays, the oldest reused for the newest state. Usable as a flow step
    callback, so runs never hold the dense theta history. Nodes inside the
    exclusion ring or whose stencil reaches the pinned ring are excluded.
    Each call is one hand-out of the weight's `slab_workspace`: per slab, a
    lane fills the new theta (`theta_field`) and takes the centered
    difference and Laplacian of the window. The Laplacian reads the middle
    theta across slab edges, and that array is complete from the call before.
    """

    def __init__(self, w: WeightField):
        self.w = w
        self.mask = stencil_clear(w.rho.pinned) & w.rho.outside_ring
        self.window: list[tuple[float, np.ndarray]] = []
        self.worst = -math.inf

    def __call__(self, state: StepState):
        window = self.window
        theta = window.pop(0)[1] if len(window) == 3 else np.empty(self.w.grid.shape)
        window.append((state.t, theta))
        s = self.w.grid.spacing

        def slab_worst(sl, lane):
            theta[sl] = theta_field(state.wtil[sl], state.dphi1_dt[sl], state.dphi2_dt[sl])
            if len(window) < 3:
                return -math.inf
            (t0, th0), (_, th1), (t2, th2) = window
            p = sl.stop - sl.start
            lap, expr = lane.scratch[1, :p], lane.scratch[2, :p]
            slab_stencil(th1, sl, lane, s, lap)
            np.subtract(th2[sl], th0[sl], out=expr)
            expr /= t2 - t0
            expr -= lap
            return float(np.max(expr, where=self.mask[sl], initial=-np.inf))

        # the slab maxima in slab order, as one lane would take them
        ws = self.w.slab_workspace
        self.worst = max(self.worst, *ws.map(slab_worst, ws.slabs))


def theta_reference_rate(grid) -> float:
    """2 lambda_1, the decay rate of int theta^2 set by the first nonzero stencil eigenvalue."""
    return 2.0 * stencil_symbol((1, 0, 0), grid)


def _log_positive(series: np.ndarray) -> np.ndarray:
    """log of a nonnegative series, -inf where it is zero."""
    with np.errstate(divide="ignore"):
        return np.where(series > 0, np.log(np.maximum(series, 1e-320)), -np.inf)


def theta_decay_check(
    traj: Trajectory,
    w: WeightField,
    window: tuple[float, float],
    rate_slack: float,
    r2_min: float,
) -> dict:
    """Monotonicity of int theta^2 plus log-linear decay fits.

    Fits the squared-speed integral (reference rate 2*lambda_1) and the
    weighted pointwise sup series rho^{3/2-a}|dphi1| + rho^{3/2}|dphi2|
    (reference lambda_1/2). Both use robust log-series, and a fit raises
    ValueError when its window holds fewer than 10 finite samples.
    `max_step_increase` is the largest relative one-step growth of int theta^2.
    """
    times = traj.column("t")
    log_t2 = traj.column("log_theta2")
    c0 = theta_reference_rate(w.grid)
    log_sup = _log_positive(traj.column("weighted_dt_sup"))
    fits = [
        fit_decay_rate_log(times, log_t2, window, "theta_l2_integral", c0, rate_slack, r2_min),
        fit_decay_rate_log(times, log_sup, window, "weighted_dt_sup", c0 / 4.0, rate_slack, r2_min),
    ]

    diffs = np.diff(log_t2[np.isfinite(log_t2)])  # not empty: the first fit read 10 samples
    return {
        "monotone": bool(np.all(diffs <= np.log1p(1e-10))),
        "max_step_increase": float(np.max(np.expm1(diffs))),
        "fits": fits,
    }


def exponent_fit(
    fieldvals: np.ndarray,
    rho_field,
    shell_range: tuple[float, float],
    n_shells: int = 8,
) -> tuple[float, float]:
    """Log-log slope (and stderr) of shell-wise max |field| against shell rho.

    Each of the geometric shells must hold at least 8 nodes.
    """
    grid = rho_field.grid
    lo, hi = shell_range
    if lo < 4.0 * grid.spacing - 1e-12 or hi > grid.length / 4.0 + 1e-12:
        raise ValueError("shell_range must lie within [4*spacing, L/4]")
    edges = np.geomspace(lo, hi, n_shells + 1)
    rho = rho_field.rho_unclamped
    xs, ys = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        shell = (rho >= a) & (rho < b)
        if shell.sum() < 8:
            raise ValueError(f"shell [{a:.4g}, {b:.4g}) has fewer than 8 nodes")
        m = float(np.max(np.abs(fieldvals[shell])))
        if m <= 0.0:
            raise ValueError("shell max vanished; cannot take logs")
        xs.append(math.log(math.sqrt(a * b)))
        ys.append(math.log(m))
    (slope, _), cov = np.polyfit(xs, ys, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


def epsilon_regularity_scan(state: StepState, w: WeightField, centers) -> list[dict]:
    """Dyadic local-energy table per center, fitted slope, and sigma_x search.

    sigma runs dyadically down from L/8 to 2*spacing (the smallest resolvable
    ball). sigma_x is the smallest tabulated sigma with E_sigma at most
    0.1 * E at the largest sigma. The energy densities are built once, from
    the state's derived fields.
    """
    grid = w.grid
    sigmas = []
    sig = grid.length / 8.0
    while sig >= 2.0 * grid.spacing - 1e-12:
        sigmas.append(sig)
        sig /= 2.0
    sigmas = sorted(sigmas)
    if len(sigmas) < 2:
        raise ValueError("fewer than two dyadic ball radii fit between 2*spacing and L/8")

    grad_density = state.wtil * state.grad1_sq + state.grad2_sq
    time_density = theta_field(state.wtil, state.dphi1_dt, state.dphi2_dt)
    out = []
    for center in centers:
        E_vals = np.asarray(
            [local_energy_E(grad_density, time_density, grid, center, sig)[2] for sig in sigmas]
        )
        if np.all(E_vals > 0):
            slope = float(
                np.polyfit(np.log(sigmas), np.log(E_vals), 1)[0]
            )
        else:
            slope = math.nan
        E_top = E_vals[-1]
        sigma_x = None
        for sig, E in zip(sigmas, E_vals):
            if E <= 0.1 * E_top:
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


def cstar2_to_final(traj: Trajectory, w: WeightField) -> np.ndarray:
    """Weighted second-order sup norm of each snapshot's distance to the final one."""
    final = traj.final
    return np.array(
        [
            cstar2_norm(st.phi1 - final.phi1, st.phi2 - final.phi2, w.rho, w.alpha).value
            for st in traj.snapshots
        ]
    )


def convergence_report(
    traj: Trajectory,
    w: WeightField,
    window: tuple[float, float],
    rate_slack: float,
    r2_min: float,
) -> dict:
    """Exponential convergence of phi(t) to the final snapshot in the weighted
    second-order sup norm, plus the steady residual at the end state.

    The fit raises ValueError when its window holds fewer than 10 snapshots
    that differ from the final one."""
    log_t2 = traj.column("log_theta2")
    finite = np.isfinite(log_t2)
    if np.any(finite) and log_t2[finite].size >= 2:
        drop = log_t2[0] - log_t2[-1] if np.isfinite(log_t2[0]) and np.isfinite(log_t2[-1]) else math.inf
        if drop < math.log(1e3):
            raise ValueError("final time too early: int theta^2 has not decayed by 1e3")

    times = np.asarray(traj.snapshot_times)
    reference = theta_reference_rate(w.grid) / 4.0
    log_series = _log_positive(cstar2_to_final(traj, w))
    fit = fit_decay_rate_log(times, log_series, window, "cstar2_to_final", reference, rate_slack, r2_min)
    return {"fit": fit, "steady_residual": steady_residual(traj.final, w)}
