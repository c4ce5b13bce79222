"""Weight field h = rho e^u with log h discretely harmonic away from Gamma.

u solves a periodic Poisson problem -Lap u = Lap(log rho) sourced by the
smooth part of the distributional Laplacian of log rho. The discrete source
is the 7-point Laplacian of log(clamped rho) masked to nodes where rho is a
trustworthy smooth distance: the grid-scale mollification of the line measure
on Gamma and the kink measure on the cut locus are excluded. Solving against
the unmasked source would return u = -log rho + const exactly (the discrete
Laplacian is invertible on mean-zero fields), collapsing h to a constant and
losing the prescribed blow-up profile.

The Poisson inverse is applied spectrally (symbol 4 pi^2 |k|^2 / L^2), so the
7-point Laplacian of log h retains a genuine O(spacing^2) residual that
refinement studies can measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from singflow.geometry import DistanceField, TorusGrid, stencil_clear
from singflow.operators import divergence, gradient, laplacian, rfft_wavevectors


class WeightSourceWarning(UserWarning):
    """Discrete Poisson source failed a consistency check."""


@dataclass(frozen=True)
class WeightField:
    """h = rho e^u, kept as log h, and derived quantities used by the flow operators.

    Frozen, so the cached fields derived from it cannot go stale; use
    dataclasses.replace for a variant (it starts with an empty cache).
    """

    grid: TorusGrid
    rho: DistanceField
    log_h: np.ndarray
    grad_log_h: np.ndarray
    alpha: float

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (weight exponent regime alpha > 1)")

    @cached_property
    def _h_minus_2a(self) -> np.ndarray:
        return weight_power(self, -2.0 * self.alpha)

    @cached_property
    def alpha_grad_log_h(self) -> np.ndarray:
        """alpha grad(h)/h, the weight's part of the phi1 drift velocity."""
        return self.alpha * self.grad_log_h

    @cached_property
    def slab_workspace(self):
        """Scratch and output arrays reused by the stepper's fused kernels (`flow.SlabWorkspace`).

        The cached fields those kernels read are built here too, on the
        calling thread, so the workspace's lanes only ever read them.
        """
        from singflow.flow import SlabWorkspace

        self._h_minus_2a, self.alpha_grad_log_h  # builds both cached fields
        return SlabWorkspace(self.grid.shape)

    def metric_weight(
        self, phi2: np.ndarray, out: np.ndarray | None = None, planes: slice = slice(None)
    ) -> np.ndarray:
        """h^{-2a} e^{-2 phi2}, the target-metric weight on the phi1 direction.

        phi2 may hold only the axis-0 `planes` of the grid; `out`, when given,
        receives the result.
        """
        out = np.multiply(phi2, -2.0, out=out)
        np.exp(out, out=out)
        return np.multiply(self._h_minus_2a[planes], out, out=out)


def weight_power(w: WeightField, p: float) -> np.ndarray:
    """h^p evaluated in log space (dynamic-range safe)."""
    return np.exp(p * w.log_h)


def solve_u(
    grid: TorusGrid, rho: np.ndarray, source_mask: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Zero-mean u with -Lap u = Lap(log rho) restricted to the source mask.

    rho must be clamped positive. An all-True mask uses the full discrete
    source (appropriate for manufactured smooth rho without a curve). The
    inverse is spectral, with the continuum symbol 4 pi^2 |k|^2 / L^2 of -Lap
    on the rfftn layout; the masked source is projected to mean zero.
    """
    if np.any(rho <= 0):
        raise ValueError("rho must be positive (clamp before solving)")
    log_rho = np.log(rho)
    rhs = laplacian(log_rho, grid.spacing)

    rhs_norm = float(np.linalg.norm(rhs.ravel()))
    nontrivial = rhs_norm * grid.spacing**2 > 1e-9 * max(1.0, float(np.max(np.abs(log_rho))))
    if nontrivial and abs(float(rhs.mean())) * np.sqrt(rhs.size) > 1e-8 * rhs_norm:
        warnings.warn(
            "discrete Poisson source has nonzero mean before masking",
            WeightSourceWarning,
            stacklevel=2,
        )

    rhs = np.where(source_mask, rhs, 0.0)
    rhs = rhs - rhs.mean()

    k1, k2, k3 = rfft_wavevectors(grid)
    sym = (2.0 * np.pi / grid.length) ** 2 * (k1**2 + k2**2 + k3**2)
    rhs_hat = np.fft.rfftn(rhs)
    with np.errstate(divide="ignore", invalid="ignore"):  # the k = 0 mode is set to zero
        u = np.fft.irfftn(np.where(sym > 0, rhs_hat / sym, 0.0), s=grid.shape, axes=(0, 1, 2))
    u -= u.mean()

    resid_hat = sym * np.fft.rfftn(u) - rhs_hat
    resid_hat[0, 0, 0] = 0.0
    resid = np.linalg.norm(resid_hat) / max(np.linalg.norm(rhs_hat), 1e-300)
    if rhs_norm > 0 and resid > tol:
        raise RuntimeError(f"Poisson solve residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return u


def assemble_weight(rho: DistanceField, u: np.ndarray, alpha: float) -> WeightField:
    """Populate log h = log rho + u and grad(h)/h = grad(rho)/rho + grad u.

    grad rho comes from the distance field (analytic for axis lines), grad u
    from centered differences.
    """
    grid = rho.grid
    log_h = np.log(rho.rho) + u
    grad_log_h = rho.grad_rho / rho.rho[None] + gradient(u, grid.spacing)
    return WeightField(grid=grid, rho=rho, log_h=log_h, grad_log_h=grad_log_h, alpha=alpha)


def build_weight(rho: DistanceField, alpha: float, tol: float = 1e-10) -> WeightField:
    """Full pipeline: masked Poisson solve for u, then weight assembly."""
    u = solve_u(rho.grid, rho.rho, source_mask=rho.smooth_mask, tol=tol)
    return assemble_weight(rho, u, alpha)


def harmonicity_residual(w: WeightField, exclusion_radius: float) -> float:
    """max |div(grad(log h))| over nodes with rho >= exclusion_radius.

    The residual is taken with the package's adjoint div/grad pair, which is
    independent of the stencil that sourced the Poisson solve, so it retains
    a genuine O(spacing^2) magnitude for the constructed h. Nodes whose
    stencil reaches the cut-locus ridge are excluded; there the kink of the
    periodic distance, not a discretization error, sets the value. Pick
    exclusion_radius above the source-mask radius of the distance field when
    h was built by the masked Poisson solve.
    """
    if exclusion_radius < 2.0 * w.grid.spacing:
        raise ValueError("exclusion_radius must be at least 2*spacing")
    lap = divergence(gradient(w.log_h, w.grid.spacing), w.grid.spacing)

    ok = stencil_clear(w.rho.ridge_mask) & (w.rho.rho_unclamped >= exclusion_radius)
    if not np.any(ok):
        raise ValueError("exclusion removes every node; lower exclusion_radius")
    return float(np.max(np.abs(lap[ok])))


def log_asymptotics_shell(w: WeightField) -> tuple[float, float]:
    """(min, max) of log h / log rho over the near-Gamma shell rho <= 2*spacing."""
    shell = ~w.rho.outside_ring
    if not np.any(shell):
        raise ValueError("no nodes in the near-Gamma shell")
    ratio = w.log_h[shell] / np.log(w.rho.rho[shell])
    return float(ratio.min()), float(ratio.max())
