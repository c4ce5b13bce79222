"""Weighted norms, energies, and pointwise diagnostics.

Sup-type norms are taken only at the distance field's `outside_ring` nodes,
leaving out the exclusion ring of radius 2*spacing about the curve, where the
clamped distance would fabricate extrema; every report records the ring
radius. Quadratures are cell-volume weighted; `np.sum` reductions are
fixed-order, and BLAS ones (`operators.grid_inner`, in `w212_norm`) are fixed
for a given BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from singflow.geometry import TorusGrid, wrap_delta
from singflow.operators import gradient, grid_inner


@dataclass
class NormReport:
    name: str
    value: float
    weight_exponents: dict = field(default_factory=dict)
    exclusion: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.value >= 0 and np.isfinite(self.value)):
            raise ValueError(f"norm {self.name} must be finite and nonnegative")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "weight_exponents": self.weight_exponents,
            "exclusion": self.exclusion,
        }


def theta_field(wtil: np.ndarray, dphi1_dt: np.ndarray, dphi2_dt: np.ndarray) -> np.ndarray:
    """Squared target-metric speed wtil |dphi1|^2 + |dphi2|^2, for the metric
    weight wtil = h^{-2a} e^{-2 phi2} (`WeightField.metric_weight`)."""
    return wtil * dphi1_dt**2 + dphi2_dt**2


def log_integral_sq(f: np.ndarray, cell_volume: float) -> float:
    """log(int f^2) evaluated with rescaling so the square never underflows."""
    m = float(np.max(np.abs(f)))
    if m == 0.0 or not np.isfinite(m):
        return -math.inf if m == 0.0 else math.inf
    sq = f / m
    sq *= sq
    total = float(np.sum(sq)) * cell_volume
    return 2.0 * math.log(m) + math.log(total)


def hessian_frobenius(f: np.ndarray, spacing: float) -> np.ndarray:
    """Frobenius norm of the second-difference Hessian."""
    acc = np.zeros_like(f)
    inv2 = 1.0 / spacing**2
    for ax in range(3):
        d = (np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)) * inv2
        acc += d * d
    inv_cross = 1.0 / (4.0 * spacing**2)
    for ax1 in range(3):
        for ax2 in range(ax1 + 1, 3):
            d = (
                np.roll(np.roll(f, -1, axis=ax1), -1, axis=ax2)
                - np.roll(np.roll(f, -1, axis=ax1), 1, axis=ax2)
                - np.roll(np.roll(f, 1, axis=ax1), -1, axis=ax2)
                + np.roll(np.roll(f, 1, axis=ax1), 1, axis=ax2)
            ) * inv_cross
            acc += 2.0 * d * d
    return np.sqrt(acc)


def cstar2_norm(w1: np.ndarray, w2: np.ndarray, rho_field, alpha: float) -> NormReport:
    """Weighted second-order sup norm:
    sum_k max(|grad^k w1| rho^{k+3/2-a} + |grad^k w2| rho^{k+3/2})."""
    s = rho_field.grid.spacing
    rho = rho_field.rho

    total = 0.0
    for k in range(3):
        if k == 0:
            a1, a2 = np.abs(w1), np.abs(w2)
        elif k == 1:
            a1 = np.sqrt(np.sum(gradient(w1, s) ** 2, axis=0))
            a2 = np.sqrt(np.sum(gradient(w2, s) ** 2, axis=0))
        else:
            a1 = hessian_frobenius(w1, s)
            a2 = hessian_frobenius(w2, s)
        weighted = a1 * rho ** (k + 1.5 - alpha) + a2 * rho ** (k + 1.5)
        total += float(np.max(weighted[rho_field.outside_ring]))
    return NormReport(
        name="cstar2",
        value=total,
        weight_exponents={"w1": "k+3/2-alpha", "w2": "k+3/2", "alpha": alpha},
        exclusion={"ring_radius": 2.0 * s},
    )


def hyperbolic_distance(
    phi1: np.ndarray, Phi2: np.ndarray, phi1_0: np.ndarray, Phi2_0: np.ndarray
) -> np.ndarray:
    """Pointwise hyperbolic distance between (phi1, Phi2) and (phi1_0, Phi2_0).

    d = 2 atanh sqrt(((phi1-phi1_0)^2 + (Phi2-Phi2_0)^2)
                     / ((phi1-phi1_0)^2 + (Phi2+Phi2_0)^2)),
    finite whenever both second components are positive. Evaluated in place
    in three grid-sized buffers.
    """
    d1_sq = np.subtract(phi1, phi1_0)
    d1_sq *= d1_sq
    num = np.subtract(Phi2, Phi2_0)
    num *= num
    num += d1_sq
    den = np.add(Phi2, Phi2_0)
    den *= den
    den += d1_sq
    d = np.divide(num, den, out=num)
    np.sqrt(d, out=d)
    np.arctanh(d, out=d)
    d *= 2.0
    return d


def ball_mask(grid: TorusGrid, center, sigma: float) -> np.ndarray:
    x1, x2, x3 = grid.coords
    L = grid.length
    d1 = wrap_delta(x1 - center[0], L)
    d2 = wrap_delta(x2 - center[1], L)
    d3 = wrap_delta(x3 - center[2], L)
    return (d1 * d1 + d2 * d2 + d3 * d3) <= sigma * sigma


def local_energy_E(
    grad_density: np.ndarray,
    time_density: np.ndarray,
    grid: TorusGrid,
    center,
    sigma: float,
) -> tuple[float, float, float]:
    """Scaled ball energies (f_sigma, g_sigma, E_sigma) about `center`:

    f = sigma^-1 int_B grad_density,  g = sigma int_B time_density,

    for the densities h^{-2a} e^{-2 phi2} |grad phi1|^2 + |grad phi2|^2 and
    h^{-2a} e^{-2 phi2} |dphi1|^2 + |dphi2|^2 (`theta_field`).
    """
    if sigma < 2.0 * grid.spacing:
        raise ValueError("sigma must be at least 2*spacing")
    mask = ball_mask(grid, center, sigma)
    f_sig = float(np.sum(grad_density[mask])) * grid.cell_volume / sigma
    g_sig = float(np.sum(time_density[mask])) * grid.cell_volume * sigma
    return f_sig, g_sig, f_sig + g_sig


def w212_norm(
    snapshots: list[tuple[float, np.ndarray]],
    rho_field,
    alpha: float,
) -> NormReport:
    """Weighted parabolic Sobolev norm of a scalar trajectory u(t):

    (sum_{i+2j<=2} ||rho^{-alpha+1+i} dt^j grad^i u||^2_{L^2(Q_T)})^(1/2)

    with time derivatives by centered differences of the snapshots and the
    time integral by the trapezoid rule.
    """
    grid = rho_field.grid
    s = grid.spacing
    vol = grid.cell_volume
    rho = rho_field.rho
    times = np.array([t for t, _ in snapshots])
    if len(times) < 3:
        raise ValueError("need at least 3 snapshots for the time difference quotient")

    series = {"u": [], "grad": [], "hess": [], "dt": []}
    for idx, (t, u) in enumerate(snapshots):
        series["u"].append(grid_inner(rho ** (2 * (1 - alpha)) * u, u, vol))
        g = gradient(u, s)
        series["grad"].append(
            grid_inner(rho ** (2 * (2 - alpha)) * np.sum(g * g, axis=0), np.ones(grid.shape), vol)
        )
        hs = hessian_frobenius(u, s)
        series["hess"].append(grid_inner(rho ** (2 * (3 - alpha)) * hs, hs, vol))
        lo, hi = max(idx - 1, 0), min(idx + 1, len(snapshots) - 1)
        du = (snapshots[hi][1] - snapshots[lo][1]) / (times[hi] - times[lo])
        series["dt"].append(grid_inner(rho ** (2 * (1 - alpha)) * du, du, vol))

    total = sum(float(np.trapezoid(v, times)) for v in series.values())
    return NormReport(
        name="w212_weighted",
        value=float(np.sqrt(total)),
        weight_exponents={"alpha": alpha, "terms": "rho^(-alpha+1+i), i+2j<=2"},
        exclusion={},
    )


def sampled_holder_seminorm(
    snapshots: list[tuple[float, np.ndarray]],
    rho_field,
    gamma: float,
    beta: float,
    n_pairs: int = 100_000,
    seed: int = 0,
) -> NormReport:
    """Monte-Carlo estimate of sup rho_{X,Y}^{2+beta-gamma} |u(X)-u(Y)| / delta^beta.

    Pairs of space-time points are sampled with a fixed seed; the full sup
    over pairs is quadratic in the grid size and this seminorm is diagnostic.
    """
    grid = rho_field.grid
    flat_idx = np.flatnonzero(rho_field.outside_ring.ravel())
    rng = np.random.default_rng(seed)
    n_t = len(snapshots)
    times = np.array([t for t, _ in snapshots])
    stack = np.stack([u for _, u in snapshots])  # (n_t, n, n, n)
    flat = stack.reshape(n_t, -1)
    rho_flat = rho_field.rho.ravel()

    ia = rng.choice(flat_idx, size=n_pairs)
    ib = rng.choice(flat_idx, size=n_pairs)
    ta = rng.integers(0, n_t, size=n_pairs)
    tb = rng.integers(0, n_t, size=n_pairs)

    shape = grid.shape
    coords = grid.axis
    xa = np.stack(np.unravel_index(ia, shape), axis=1)
    xb = np.stack(np.unravel_index(ib, shape), axis=1)
    dx = np.abs(coords[xa] - coords[xb])
    dx = np.minimum(dx, grid.length - dx)
    spatial = np.sqrt(np.sum(dx * dx, axis=1))
    delta = np.maximum(spatial, np.sqrt(np.abs(times[ta] - times[tb])))

    du = np.abs(flat[ta, ia] - flat[tb, ib])
    rho_pair = np.maximum(rho_flat[ia], rho_flat[ib])
    valid = delta > 0
    vals = rho_pair[valid] ** (2 + beta - gamma) * du[valid] / delta[valid] ** beta
    return NormReport(
        name="holder_seminorm_sampled",
        value=float(np.max(vals)) if vals.size else 0.0,
        weight_exponents={"gamma": gamma, "beta": beta},
        exclusion={"ring_radius": 2.0 * grid.spacing, "n_pairs": n_pairs, "seed": seed},
    )
