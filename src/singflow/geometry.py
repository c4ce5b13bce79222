"""Flat 3-torus grid, singular curve, and periodic distance fields.

The domain is the periodic cube [0, L)^3 discretized with n cell-centered
nodes per axis, so no node ever lies exactly on an axis-aligned curve. The
curve Gamma is either an axis line {x1=a, x2=b} (closed under periodicity) or
a sampled circle. rho = dist(., Gamma) is computed under the periodic metric
and clamped from below so that negative powers of rho stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from singflow.operators import gradient, laplacian


@dataclass
class TorusGrid:
    """Uniform cell-centered grid on [0, L)^3 with n nodes per axis."""

    n: int
    length: float = 1.0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @cached_property
    def axis(self) -> np.ndarray:
        """1-D node coordinates (i + 1/2) * spacing."""
        return (np.arange(self.n) + 0.5) * self.spacing

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (x1, x2, x3) node coordinate arrays."""
        a = self.axis
        return (
            a[:, None, None],
            a[None, :, None],
            a[None, None, :],
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


def wrap_delta(d: np.ndarray | float, L: float):
    """Signed periodic displacement mapped into [-L/2, L/2)."""
    return (np.asarray(d) + 0.5 * L) % L - 0.5 * L


# the curve kinds that `distance_to_curve` implements
CURVE_KINDS = ("axis_line", "circle")


@dataclass
class CurveGamma:
    """Closed 1-dimensional curve in the torus.

    kind 'axis_line': the line {x1=a, x2=b}, closed under x3-periodicity.
    kind 'circle': a circle given by center, radius and normal axis,
    represented by an ordered closed chain of sample points.
    """

    kind: str
    params: dict = field(default_factory=dict)
    sample_points: np.ndarray | None = None

    @classmethod
    def axis_line(cls, a: float, b: float) -> "CurveGamma":
        return cls(kind="axis_line", params={"a": a, "b": b})

    @classmethod
    def circle(cls, center, radius: float, normal_axis: int, n_samples: int) -> "CurveGamma":
        if normal_axis not in (0, 1, 2):
            raise ValueError("normal_axis must be 0, 1 or 2")
        if n_samples < 3:
            raise ValueError("circle needs at least 3 samples")
        t = 2.0 * np.pi * np.arange(n_samples) / n_samples
        u, v = [ax for ax in range(3) if ax != normal_axis]
        pts = np.tile(np.asarray(center, dtype=float), (n_samples, 1))
        pts[:, u] += radius * np.cos(t)
        pts[:, v] += radius * np.sin(t)
        return cls(
            kind="circle",
            params={
                "center": tuple(float(c) for c in center),
                "radius": float(radius),
                "normal_axis": int(normal_axis),
                "n_samples": int(n_samples),
            },
            sample_points=pts,
        )

    def validate_resolution(self, grid: TorusGrid):
        """Resolution contract: circle sample spacing at most one grid spacing."""
        if self.kind == "circle":
            r = self.params["radius"]
            if r >= grid.length / 2:
                raise ValueError("circle radius must be below L/2 (self-overlap under periodicity)")
            arc = 2.0 * np.pi * r / self.params["n_samples"]
            if arc > grid.spacing:
                raise ValueError(
                    f"circle sample spacing {arc:.4g} exceeds grid spacing {grid.spacing:.4g}"
                )


@dataclass
class DistanceField:
    """Clamped periodic distance to Gamma plus grid-artifact masks.

    smooth_mask is True where rho is a trustworthy smooth distance: it excludes
    the near-curve shell and the cut locus of the periodic distance, where rho
    has a ridge. grad_rho holds the analytic unit-speed gradient where
    available (axis_line), else a centered-difference gradient. `pinned`, the
    ring rho <= spacing, is the grid's copy of Gamma, where phi1 is held at zero.
    Sup-type norms and the Bochner max are taken only `outside_ring`, rho > 2*spacing.
    """

    grid: TorusGrid
    rho: np.ndarray
    rho_unclamped: np.ndarray
    smooth_mask: np.ndarray
    ridge_mask: np.ndarray
    grad_rho: np.ndarray
    pinned: np.ndarray
    outside_ring: np.ndarray


def stencil_clear(excluded: np.ndarray) -> np.ndarray:
    """Nodes whose +-2-node stencil along every axis avoids the excluded nodes."""
    clear = ~excluded
    ok = clear.copy()
    for ax in range(3):
        for shift in (1, 2, -1, -2):
            ok &= np.roll(clear, shift, axis=ax)
    return ok


def _axis_line_distance(grid: TorusGrid, gamma: CurveGamma):
    a, b = gamma.params["a"], gamma.params["b"]
    L = grid.length
    x1, x2, _ = grid.coords
    d1 = wrap_delta(x1 - a, L)
    d2 = wrap_delta(x2 - b, L)
    rho = np.sqrt(d1 * d1 + d2 * d2)
    rho = np.broadcast_to(rho, grid.shape).copy()

    # ridge of the periodic transverse distance: the wrap boundary planes
    ridge = (np.abs(d1) >= 0.5 * L - grid.spacing) | (np.abs(d2) >= 0.5 * L - grid.spacing)
    ridge = np.broadcast_to(ridge, grid.shape).copy()

    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = np.where(rho > 0, d1 / rho, 0.0)
        g2 = np.where(rho > 0, d2 / rho, 0.0)
    grad = np.stack(
        [
            np.broadcast_to(g1, grid.shape),
            np.broadcast_to(g2, grid.shape),
            np.zeros(grid.shape),
        ]
    )
    return rho, ridge, grad


def _circle_distance(grid: TorusGrid, gamma: CurveGamma):
    L = grid.length
    pts = gamma.sample_points
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    rho2 = np.full(grid.shape, np.inf)
    for p in pts:
        d1 = wrap_delta(x1 - p[0], L)
        d2 = wrap_delta(x2 - p[1], L)
        d3 = wrap_delta(x3 - p[2], L)
        np.minimum(rho2, d1 * d1 + d2 * d2 + d3 * d3, out=rho2)
    rho = np.sqrt(rho2)

    # ridge detector: away from the cut locus Lap rho stays above -2/rho,
    # across it the kink makes the second difference drop like -1/spacing
    lap = laplacian(rho, grid.spacing)
    ridge = lap < -0.25 / grid.spacing
    grad = gradient(rho, grid.spacing)
    return rho, ridge, grad


def distance_to_curve(
    grid: TorusGrid,
    gamma: CurveGamma,
    near_radius: float | None = None,
) -> DistanceField:
    """Periodic distance field to Gamma, clamped below at spacing/2.

    near_radius flags the shell where the grid cannot resolve the log
    singularity; it defaults to max(4*spacing, L/8) so that refinement
    studies built on the mask compare like regions.
    """
    gamma.validate_resolution(grid)
    if near_radius is None:
        near_radius = max(4.0 * grid.spacing, grid.length / 8.0)

    if gamma.kind == "axis_line":
        rho_raw, ridge, grad = _axis_line_distance(grid, gamma)
    elif gamma.kind == "circle":
        rho_raw, ridge, grad = _circle_distance(grid, gamma)
    else:
        raise ValueError(f"unknown curve kind {gamma.kind!r}")

    rho = np.maximum(rho_raw, 0.5 * grid.spacing)
    smooth = (rho_raw >= near_radius) & ~ridge
    return DistanceField(
        grid=grid,
        rho=rho,
        rho_unclamped=rho_raw,
        smooth_mask=smooth,
        ridge_mask=ridge,
        grad_rho=grad,
        pinned=rho_raw <= grid.spacing,
        outside_ring=rho_raw > 2.0 * grid.spacing,
    )
