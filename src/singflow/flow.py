"""IMEX time integration of the nonlinear flow with the curve condition pinned.

Each step treats diffusion implicitly (backward Euler, diagonalized with the
exact 7-point symbol in Fourier space, so a pure heat mode decays by exactly
1/(1 + dt*lambda) per step) and the drift and source explicitly. After every
update phi1 is re-pinned to zero on the near-curve ring, the grid reading of
the boundary condition on the measure-zero curve. The cached time derivatives
on a state are the plain PDE right-hand sides evaluated there, except that
dphi1/dt is zero on the pinned ring: the ring is the grid's copy of the curve,
where phi1 is held at zero for all time.

Time is diffusive (no rescaling), so measured decay rates compare directly
with the stencil eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from singflow.geometry import DistanceField, TorusGrid
from singflow.norms import log_integral_sq
from singflow.operators import gradient, laplacian, rfft_wavevectors, stencil_symbol
from singflow.weight import WeightField


class FlowBlowupError(RuntimeError):
    def __init__(self, step: int, max_drift: float):
        super().__init__(
            f"non-finite field values at step {step} (max |drift coefficient| = {max_drift:.3e})"
        )
        self.step = step
        self.max_drift = max_drift


def implicit_euler_factor(grid: TorusGrid, dt: float) -> np.ndarray:
    """Backward-Euler damping factors on the rfftn layout (flow stepper)."""
    return 1.0 / (1.0 + dt * stencil_symbol(rfft_wavevectors(grid), grid))


def heat_propagator_factors(grid: TorusGrid, dt: float):
    """Crank-Nicolson half-step factors ((1 - dt/2 L), 1/(1 + dt/2 L)), rfftn layout."""
    sym = stencil_symbol(rfft_wavevectors(grid), grid)
    return 1.0 / (1.0 + 0.5 * dt * sym), 1.0 - 0.5 * dt * sym


def heat_solve(f: np.ndarray, factor: np.ndarray, shape) -> np.ndarray:
    return np.fft.irfftn(np.fft.rfftn(f, axes=(0, 1, 2)) * factor, s=shape, axes=(0, 1, 2))


@dataclass
class FlowState:
    phi1: np.ndarray
    phi2: np.ndarray
    t: float
    dphi1_dt: np.ndarray
    dphi2_dt: np.ndarray
    cache: dict | None = None  # operator intermediates for the next step / diagnostics

    def copy(self) -> "FlowState":
        # snapshot copies drop the cache
        return FlowState(
            self.phi1.copy(), self.phi2.copy(), self.t, self.dphi1_dt.copy(), self.dphi2_dt.copy()
        )


def smooth_cutoff(rho: np.ndarray, L: float) -> np.ndarray:
    """C^2 cutoff: 1 for rho <= L/4, 0 for rho >= 3L/8, smoothstep between."""
    t = np.clip((3 * L / 8 - rho) / (L / 8), 0.0, 1.0)
    return t**3 * (t * (6.0 * t - 15.0) + 10.0)


def pin_mask(rho: DistanceField) -> np.ndarray:
    """Nodes representing the curve: the ring within one spacing where phi1 is held at zero."""
    return rho.rho_unclamped <= rho.grid.spacing


def initial_fields(family: str, params: dict, w: WeightField):
    grid = w.grid
    rho = w.rho
    phi1 = grid.zeros()
    phi2 = grid.zeros()
    alpha = w.alpha

    wants_poly = family in ("poly_cutoff", "poly_cutoff+trig")
    wants_trig = family in ("trig", "poly_cutoff+trig")
    if family not in ("zero", "poly_cutoff", "trig", "poly_cutoff+trig"):
        raise ValueError(f"unknown initial-data family {family!r}")

    if wants_poly:
        c = float(params.get("c", 1.0))
        x3 = np.broadcast_to(grid.coords[2], grid.shape)
        phi1 = (
            c
            * rho.rho_unclamped ** (2.0 * alpha + 2.0)
            * smooth_cutoff(rho.rho_unclamped, grid.length)
            * np.sin(2.0 * np.pi * x3 / grid.length)
        )
    if wants_trig:
        a = float(params.get("a", 0.0))
        b = float(params.get("b", 0.0))
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        x2 = np.broadcast_to(grid.coords[1], grid.shape)
        phi2 = a * np.sin(2.0 * np.pi * x1 / grid.length) + b * np.cos(
            2.0 * np.pi * x2 / grid.length
        )

    if wants_poly:
        validate_vanishing_order(phi1, rho, alpha, abs(float(params.get("c", 1.0))))
    return phi1, phi2


def validate_vanishing_order(phi1: np.ndarray, rho: DistanceField, alpha: float, bound: float):
    """Reject initial phi1 exceeding bound * rho^(2 alpha + 2) on three inner shells."""
    L = rho.grid.length
    for lo, hi in ((0.0, 0.06), (0.06, 0.12), (0.12, 0.2)):
        shell = (rho.rho_unclamped > lo * L) & (rho.rho_unclamped <= hi * L)
        if not np.any(shell):
            continue
        ratio = np.max(np.abs(phi1[shell]) / rho.rho_unclamped[shell] ** (2.0 * alpha + 2.0))
        if ratio > bound * 1.0001 + 1e-12:
            raise ValueError(
                f"initial phi1 violates the rho^(2 alpha + 2) vanishing order "
                f"(shell ({lo}, {hi}]: ratio {ratio:.3g} > {bound:.3g})"
            )


def _grad_and_lap(f: np.ndarray, spacing: float):
    """Centered gradient and 7-point Laplacian sharing one set of shifts."""
    grad = np.empty((3,) + f.shape)
    lap = -6.0 * f
    inv2 = 0.5 / spacing
    for ax in range(3):
        plus = np.roll(f, -1, axis=ax)
        minus = np.roll(f, 1, axis=ax)
        grad[ax] = (plus - minus) * inv2
        lap += plus + minus
    return grad, lap / spacing**2


def _rhs_with_grads(phi1, phi2, w: WeightField):
    s = w.grid.spacing
    g1, lap1 = _grad_and_lap(phi1, s)
    g2, lap2 = _grad_and_lap(phi2, s)
    v = g2 + w.alpha * w.grad_log_h
    wtil = w.metric_weight(phi2)
    r1 = lap1 - 2.0 * np.sum(v * g1, axis=0)
    r2 = lap2 + wtil * np.sum(g1 * g1, axis=0)
    # the identity keys let consumers detect a stale cache after field mutation
    cache = {
        "g1": g1,
        "g2": g2,
        "wtil": wtil,
        "lap1": lap1,
        "lap2": lap2,
        "_phi1": phi1,
        "_phi2": phi2,
    }
    return r1, r2, cache


def init_state(family: str, params: dict, w: WeightField) -> FlowState:
    phi1, phi2 = initial_fields(family, params, w)
    phi1 = phi1.copy()
    pins = pin_mask(w.rho)
    phi1[pins] = 0.0
    r1, r2, cache = _rhs_with_grads(phi1, phi2, w)
    r1[pins] = 0.0  # pinned nodes do not move: dphi1/dt = 0 on the curve ring
    return FlowState(phi1=phi1, phi2=phi2, t=0.0, dphi1_dt=r1, dphi2_dt=r2, cache=cache)


def cfl_dt(state: FlowState, w: WeightField, cfl_factor: float) -> float:
    """dt <= c * spacing * min rho / (2 alpha + max |grad phi2| * min rho)."""
    s = w.grid.spacing
    min_rho = float(np.min(w.rho.rho))
    g2 = gradient(state.phi2, s)
    max_g2 = float(np.max(np.sqrt(np.sum(g2 * g2, axis=0))))
    return cfl_factor * s * min_rho / (2.0 * w.alpha + max_g2 * min_rho)


def step(
    state: FlowState,
    w: WeightField,
    dt: float,
    pins: np.ndarray,
    euler_factor: np.ndarray | None = None,
    step_index: int = 0,
) -> FlowState:
    """One IMEX step: explicit drift/source, implicit diffusion, re-pin."""
    grid = w.grid
    if euler_factor is None:
        euler_factor = implicit_euler_factor(grid, dt)
    s = grid.spacing

    cache_ok = (
        state.cache is not None
        and state.cache.get("_phi1") is state.phi1
        and state.cache.get("_phi2") is state.phi2
    )
    if cache_ok:
        lap1, lap2 = state.cache["lap1"], state.cache["lap2"]
    else:
        lap1 = laplacian(state.phi1, s)
        lap2 = laplacian(state.phi2, s)
    explicit1 = state.dphi1_dt - lap1  # = -drift (zero drift reported on pins)
    explicit2 = state.dphi2_dt - lap2  # = nonlinear source

    # separate real transforms: packing both fields into one complex FFT
    # would leak ~1e-16 * |phi2| into phi1 and bury its clean decay
    phi1 = heat_solve(state.phi1 + dt * explicit1, euler_factor, grid.shape)
    phi2 = heat_solve(state.phi2 + dt * explicit2, euler_factor, grid.shape)
    phi1[pins] = 0.0

    if not (np.all(np.isfinite(phi1)) and np.all(np.isfinite(phi2))):
        g2 = gradient(state.phi2, s)
        v = g2 + w.alpha * w.grad_log_h
        raise FlowBlowupError(step_index, float(np.max(np.sqrt(np.sum(v * v, axis=0)))))

    r1, r2, cache = _rhs_with_grads(phi1, phi2, w)
    r1[pins] = 0.0  # pinned nodes do not move: dphi1/dt = 0 on the curve ring
    return FlowState(phi1=phi1, phi2=phi2, t=state.t + dt, dphi1_dt=r1, dphi2_dt=r2, cache=cache)


SERIES_COLUMNS = (
    "t",
    "H",
    "theta_l2",
    "max_abs_phi2",
    "hyp_dist_to_init",
    "residual1",
    "residual2",
)


@dataclass
class Trajectory:
    weight: WeightField
    dt: float
    pins: np.ndarray
    series: dict  # column -> list of floats, plus log/sup extras
    snapshots: list[FlowState]
    snapshot_times: list[float]

    @property
    def initial(self) -> FlowState:
        return self.snapshots[0]

    @property
    def final(self) -> FlowState:
        return self.snapshots[-1]

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.series[name])


def steady_residual(state: FlowState, w: WeightField) -> tuple[float, float]:
    """Weighted sup residuals of the limiting elliptic system:

    (sup rho^{7/2-a} |Lap phi1 - 2 (grad phi2 + a grad h / h) . grad phi1|,
     sup rho^{7/2}   |Lap phi2 + h^{-2a} e^{-2 phi2} |grad phi1|^2|).

    Along the flow both residuals equal the same-weighted time derivatives.
    The pinned ring is excluded from the first residual; there the discrete
    solution satisfies the curve condition instead of the bulk equation.
    """
    r1, r2, _ = _rhs_with_grads(state.phi1, state.phi2, w)
    r1[pin_mask(w.rho)] = 0.0
    rho = w.rho.rho
    a = w.alpha
    return (
        float(np.max(rho ** (3.5 - a) * np.abs(r1))),
        float(np.max(rho**3.5 * np.abs(r2))),
    )


def _series_row(state: FlowState, w: WeightField, pre: dict):
    from singflow.norms import hyperbolic_distance

    grid = w.grid
    vol = grid.cell_volume
    r1, r2 = state.dphi1_dt, state.dphi2_dt
    s = grid.spacing
    cache_ok = (
        state.cache is not None
        and state.cache.get("_phi1") is state.phi1
        and state.cache.get("_phi2") is state.phi2
    )
    if cache_ok:
        g1, g2, wtil = state.cache["g1"], state.cache["g2"], state.cache["wtil"]
    else:
        g1 = gradient(state.phi1, s)
        g2 = gradient(state.phi2, s)
        wtil = w.metric_weight(state.phi2)

    H = float(np.sum(wtil * np.sum(g1 * g1, axis=0) + np.sum(g2 * g2, axis=0))) * vol
    theta = wtil * r1 * r1 + r2 * r2
    theta_l2 = float(np.sum(theta * theta)) * vol
    log_theta2 = log_integral_sq(theta, vol)

    Phi2 = np.exp(pre["alpha_log_h"] + state.phi2)
    hyp = hyperbolic_distance(state.phi1, Phi2, pre["phi1_0"], pre["Phi2_0"])

    weighted_sup = float(
        np.max((pre["rho_15ma"] * np.abs(r1) + pre["rho_15"] * np.abs(r2))[pre["admissible"]])
    )
    res1 = float(np.max(pre["rho_35ma"] * np.abs(r1)))
    res2 = float(np.max(pre["rho_35"] * np.abs(r2)))
    return {
        "t": state.t,
        "H": H,
        "theta_l2": theta_l2,
        "log_theta2": log_theta2,
        "max_abs_phi2": float(np.max(np.abs(state.phi2))),
        "hyp_dist_to_init": float(np.max(hyp)),
        "weighted_dt_sup": weighted_sup,
        "residual1": res1,
        "residual2": res2,
    }


def run(
    state0: FlowState,
    w: WeightField,
    dt: float,
    t_final: float,
    snapshot_interval: float,
    step_callback=None,
    conserve_phi2_mean: bool = False,
) -> Trajectory:
    """March the flow to t_final, logging per-step series and scheduled snapshots.

    step_callback(state), when given, runs on the initial state and after
    every step; streaming consumers (local-in-time diagnostics) hook in here
    without the memory cost of dense snapshots.

    conserve_phi2_mean holds the phi2 mean at exactly zero (initial state
    included). With phi1 = 0 and zero-mean data the discrete flow conserves
    that mean exactly, but FFT round-off lets a tiny constant accumulate, and
    its own round-off then floors every decaying mode; projecting it out each
    step keeps the remaining noise proportional to the decaying amplitude, so
    pure-decay runs stay clean over hundreds of orders of magnitude. Only
    valid for phi1 = 0 and zero-mean phi2, where no source feeds the mean.
    """
    grid = w.grid
    pins = pin_mask(w.rho)
    factor = implicit_euler_factor(grid, dt)

    if conserve_phi2_mean:
        if np.any(state0.phi1 != 0.0):
            raise ValueError("conserve_phi2_mean requires phi1 = 0")
        mean0 = float(state0.phi2.mean())
        if abs(mean0) > 1e-12 * max(1.0, float(np.max(np.abs(state0.phi2)))):
            raise ValueError("conserve_phi2_mean requires zero-mean initial phi2")
        state0 = state0.copy()
        state0.phi2 -= mean0
        r1, r2, cache = _rhs_with_grads(state0.phi1, state0.phi2, w)
        r1[pins] = 0.0
        state0.dphi1_dt, state0.dphi2_dt, state0.cache = r1, r2, cache

    rho = w.rho.rho
    a = w.alpha
    pre = {
        "admissible": w.rho.rho_unclamped > 2.0 * grid.spacing,
        "alpha_log_h": a * w.log_h,
        "rho_15ma": rho ** (1.5 - a),
        "rho_15": rho**1.5,
        "rho_35ma": rho ** (3.5 - a),
        "rho_35": rho**3.5,
        "phi1_0": state0.phi1.copy(),
        "Phi2_0": np.exp(a * w.log_h + state0.phi2),
    }

    n_steps = int(round(t_final / dt))
    snap_every = max(1, int(round(snapshot_interval / dt)))

    series: dict[str, list] = {}

    def log_row(state):
        row = _series_row(state, w, pre)
        for key, val in row.items():
            series.setdefault(key, []).append(val)

    state = state0
    log_row(state)
    if step_callback is not None:
        step_callback(state)
    snapshots = [state.copy()]
    snapshot_times = [0.0]

    for i in range(1, n_steps + 1):
        state = step(state, w, dt, pins, euler_factor=factor, step_index=i)
        if conserve_phi2_mean:
            # constant shift: cached gradients/Laplacians stay exact
            state.phi2 -= float(state.phi2.mean())
        log_row(state)
        if step_callback is not None:
            step_callback(state)
        if i % snap_every == 0 or i == n_steps:
            snapshots.append(state.copy())
            snapshot_times.append(state.t)

    return Trajectory(
        weight=w,
        dt=dt,
        pins=pins,
        series=series,
        snapshots=snapshots,
        snapshot_times=snapshot_times,
    )
