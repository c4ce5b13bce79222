"""Periodic finite-difference operators and the flow operator with its linearization.

Conventions fixed here and relied on elsewhere:

* laplacian is the 7-point second-order stencil; its exact symbol on the
  Fourier mode k is -(2/s^2) * sum_i (1 - cos(2 pi k_i s / L)).
* gradient is the centered second-order difference, which is exactly
  skew-adjoint under the plain grid inner product; divergence is defined as
  the negative adjoint of gradient, so the discrete integration-by-parts
  identity <div F, psi> = -<F, grad psi> holds to round-off. This makes the
  Galerkin energy identities algebraic rather than approximate.
* all h^{-2 alpha} style weights are evaluated in log space.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: operators imports no singflow module when it runs
    from singflow.weight import WeightField


def rfft_wavevectors(grid):
    """Broadcastable integer wave-vector components (k1, k2, k3) on the rfftn layout."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kr = np.fft.rfftfreq(grid.n, d=1.0 / grid.n)
    return k[:, None, None], k[None, :, None], kr[None, None, :]


def stencil_symbol(k, grid) -> np.ndarray:
    """Eigenvalue (2/s^2) sum_i (1 - cos(2 pi k_i s / L)) of the 7-point -Laplacian
    on the Fourier mode k = (k1, k2, k3); the components broadcast."""
    s, L = grid.spacing, grid.length
    one = [1.0 - np.cos(2 * np.pi * np.asarray(ki, dtype=float) * s / L) for ki in k]
    return (2.0 / s**2) * (one[0] + one[1] + one[2])


def laplacian(f: np.ndarray, spacing: float) -> np.ndarray:
    """7-point periodic Laplacian."""
    out = -6.0 * f
    for ax in range(3):
        out += np.roll(f, 1, axis=ax) + np.roll(f, -1, axis=ax)
    return out / spacing**2


def gradient(f: np.ndarray, spacing: float) -> np.ndarray:
    """Centered periodic gradient, shape (3,) + f.shape."""
    inv = 0.5 / spacing
    return np.stack([(np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) * inv for ax in range(3)])


def divergence(F: np.ndarray, spacing: float) -> np.ndarray:
    """Negative adjoint of `gradient`: centered difference of each component."""
    inv = 0.5 / spacing
    out = np.zeros(F.shape[1:])
    for ax in range(3):
        out += (np.roll(F[ax], -1, axis=ax) - np.roll(F[ax], 1, axis=ax)) * inv
    return out


def grid_inner(f: np.ndarray, g: np.ndarray, cell_volume: float) -> float:
    """L^2 inner product through BLAS `np.dot`; its partial sums can split by BLAS thread count."""
    return float(np.dot(f.ravel(), g.ravel()) * cell_volume)


def exact_inner(f: np.ndarray, g: np.ndarray, cell_volume: float) -> float:
    """L^2 inner product accumulated exactly (math.fsum)."""
    return math.fsum((f * g).ravel().tolist()) * cell_volume


def flow_rhs(phi1: np.ndarray, phi2: np.ndarray, w: WeightField) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (dphi1/dt, dphi2/dt) of the flow, expanded drift form."""
    s = w.grid.spacing
    g1 = gradient(phi1, s)
    g2 = gradient(phi2, s)
    v = g2 + w.alpha * w.grad_log_h
    r1 = laplacian(phi1, s) - 2.0 * np.sum(v * g1, axis=0)
    wq = w.metric_weight(phi2)
    r2 = laplacian(phi2, s) + wq * np.sum(g1 * g1, axis=0)
    return r1, r2


def P_residual(
    phi1: np.ndarray,
    phi2: np.ndarray,
    dphi1_dt: np.ndarray,
    dphi2_dt: np.ndarray,
    w: WeightField,
) -> tuple[np.ndarray, np.ndarray]:
    """Components of the flow operator applied to (phi1, phi2).

    The first component is taken through the weighted divergence, the
    conservative form that `DP_apply` linearizes; `flow_rhs` is the expanded
    drift form, and the two agree to O(spacing^2) on smooth fields.
    """
    s = w.grid.spacing
    wq = w.metric_weight(phi2)
    g1 = gradient(phi1, s)
    p1 = dphi1_dt - divergence(wq[None] * g1, s) / wq
    p2 = dphi2_dt - laplacian(phi2, s) - wq * np.sum(g1 * g1, axis=0)
    return p1, p2


def DP_apply(
    phi0_1: np.ndarray,
    phi0_2: np.ndarray,
    k1: np.ndarray,
    k2: np.ndarray,
    w: WeightField,
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial linearization of the flow operator at (phi0_1, phi0_2) in direction k.

    Component 1: -h^{2a} e^{2 phi0_2} div(h^{-2a} e^{-2 phi0_2} grad k1)
                 + 2 grad phi0_1 . grad k2
    Component 2: -Lap k2 + 2 h^{-2a} e^{-2 phi0_2} |grad phi0_1|^2 k2
                 - 2 h^{-2a} e^{-2 phi0_2} grad phi0_1 . grad k1

    The time-derivative terms dk1/dt and dk2/dt enter additively and are left out.
    """
    s = w.grid.spacing
    wq = w.metric_weight(phi0_2)
    g0 = gradient(phi0_1, s)
    gk1 = gradient(k1, s)
    gk2 = gradient(k2, s)

    d1 = -divergence(wq[None] * gk1, s) / wq + 2.0 * np.sum(g0 * gk2, axis=0)
    d2 = (
        -laplacian(k2, s)
        + 2.0 * wq * np.sum(g0 * g0, axis=0) * k2
        - 2.0 * wq * np.sum(g0 * gk1, axis=0)
    )
    return d1, d2
