import math

import numpy as np
import pytest
from oracles import energy_H, periodic_distance

from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve
from singflow.norms import (
    NormReport,
    cstar2_norm,
    hyperbolic_distance,
    local_energy_E,
    log_integral_sq,
    sampled_holder_seminorm,
    theta_field,
    w212_norm,
)
from singflow.weight import build_weight


@pytest.fixture(scope="module")
def w16():
    grid = TorusGrid(16, 1.0)
    rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
    return build_weight(rho, alpha=1.5)


class TestEnergy:
    def test_constants_have_zero_energy(self, w16):
        grid = w16.grid
        H = energy_H(np.full(grid.shape, 2.0), np.full(grid.shape, -1.0), w16)
        assert H == 0.0

    def test_half_sin_mode_closed_form(self, w16):
        # phi2 = 0.5 sin(2 pi x1): continuum energy is pi^2/2; the discrete
        # value is 0.125 * lambda_grad with the centered-gradient symbol
        grid = w16.grid
        s = grid.spacing
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        phi2 = 0.5 * np.sin(2 * np.pi * x1)
        H = energy_H(np.zeros(grid.shape), phi2.copy(), w16)
        lam_grad = np.sin(2 * np.pi * s) ** 2 / s**2
        assert H == pytest.approx(0.125 * lam_grad, rel=1e-12)
        assert H == pytest.approx(np.pi**2 / 2, rel=(2 * np.pi * s) ** 2 / 3 * 1.5)

    def test_poly_cutoff_energy_stable_under_refinement(self):
        # integrand ~ rho^{2 alpha + 2} near the curve: integrable, so the
        # energy is finite at every n and converges under refinement; the
        # +-5% band is reached once the curve shell is resolved (n >= 64)
        from singflow.flow import initial_fields

        vals = []
        for n in (16, 32, 64, 128):
            grid = TorusGrid(n, 1.0)
            rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
            w = build_weight(rho, alpha=1.5)
            phi1, _ = initial_fields("poly_cutoff", {"c": 1.0}, w)
            vals.append(energy_H(phi1, np.zeros(grid.shape), w))
        assert all(np.isfinite(v) and v > 0 for v in vals)
        increments = np.abs(np.diff(vals))
        assert increments[1] <= increments[0] / 1.5
        assert increments[2] <= increments[1] / 1.5
        assert abs(vals[3] - vals[2]) <= 0.05 * vals[3]


class TestTheta:
    def test_zero_state(self, w16):
        z = np.zeros(w16.grid.shape)
        assert np.max(theta_field(w16.metric_weight(z), z, z)) == 0.0

    def test_reduces_to_dphi2_when_dphi1_zero(self, w16):
        rng = np.random.default_rng(0)
        z = np.zeros(w16.grid.shape)
        d2 = rng.normal(size=w16.grid.shape)
        assert np.array_equal(theta_field(w16.metric_weight(z), z, d2), d2**2)

    def test_nonnegative(self, w16):
        rng = np.random.default_rng(1)
        phi2, d1, d2 = (rng.normal(size=w16.grid.shape) for _ in range(3))
        assert np.min(theta_field(w16.metric_weight(phi2), d1, d2)) >= 0.0

    def test_log_integral_sq_handles_tiny_fields(self, w16):
        vol = w16.grid.cell_volume
        f = np.full(w16.grid.shape, 1e-200)
        # int f^2 = 1e-400 underflows in linear arithmetic but not in logs
        assert log_integral_sq(f, vol) == pytest.approx(2 * math.log(1e-200), rel=1e-12)
        assert log_integral_sq(np.zeros(w16.grid.shape), vol) == -math.inf


class TestCstar2:
    def test_zero_fields(self, w16):
        z = np.zeros(w16.grid.shape)
        assert cstar2_norm(z, z, w16.rho, 1.5).value == 0.0

    def test_constant_w2_is_max_weighted_rho(self, w16):
        grid = w16.grid
        z = np.zeros(grid.shape)
        ones = np.ones(grid.shape)
        rep = cstar2_norm(z, ones, w16.rho, 1.5)
        ok = w16.rho.rho_unclamped > 2 * grid.spacing
        expected = float(np.max(w16.rho.rho[ok] ** 1.5))
        assert rep.value == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self, w16):
        rng = np.random.default_rng(2)
        w1 = rng.normal(size=w16.grid.shape)
        w2 = rng.normal(size=w16.grid.shape)
        a = cstar2_norm(w1, w2, w16.rho, 1.5).value
        b = cstar2_norm(3.0 * w1, 3.0 * w2, w16.rho, 1.5).value
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_triangle_inequality(self, w16):
        rng = np.random.default_rng(3)
        fields = [
            (rng.normal(size=w16.grid.shape), rng.normal(size=w16.grid.shape)) for _ in range(3)
        ]
        for (a1, a2), (b1, b2) in zip(fields, fields[1:]):
            lhs = cstar2_norm(a1 + b1, a2 + b2, w16.rho, 1.5).value
            rhs = cstar2_norm(a1, a2, w16.rho, 1.5).value + cstar2_norm(b1, b2, w16.rho, 1.5).value
            assert lhs <= rhs + 1e-10

    def test_reports_ring_radius(self, w16):
        z = np.zeros(w16.grid.shape)
        rep = cstar2_norm(z, z, w16.rho, 1.5)
        assert rep.exclusion["ring_radius"] == 2.0 * w16.grid.spacing

    def test_norm_report_validates(self):
        with pytest.raises(ValueError):
            NormReport(name="bad", value=-1.0)


class TestHyperbolicDistance:
    def test_identical_maps(self, w16):
        rng = np.random.default_rng(4)
        phi1 = rng.normal(size=w16.grid.shape)
        Phi2 = np.exp(rng.normal(size=w16.grid.shape))
        assert np.max(hyperbolic_distance(phi1, Phi2, phi1, Phi2)) == 0.0

    def test_vertical_ray_unit_distance(self, w16):
        # same phi1, second components e and 1: distance is exactly 1
        shape = w16.grid.shape
        phi1 = np.zeros(shape)
        d = hyperbolic_distance(phi1, np.full(shape, np.e), phi1, np.ones(shape))
        assert np.max(np.abs(d - 1.0)) < 1e-12

    def test_dominates_phi2_difference(self, w16):
        rng = np.random.default_rng(5)
        shape = w16.grid.shape
        phi1 = rng.normal(size=shape)
        phi1_0 = rng.normal(size=shape)
        phi2 = rng.normal(size=shape, scale=0.5)
        phi2_0 = rng.normal(size=shape, scale=0.5)
        h_alpha = np.exp(rng.normal(size=shape, scale=0.3))
        d = hyperbolic_distance(phi1, h_alpha * np.exp(phi2), phi1_0, h_alpha * np.exp(phi2_0))
        assert np.all(d >= np.abs(phi2 - phi2_0) - 1e-12)


def _grad_density(w, phi1, phi2):
    """wtil |grad phi1|^2 + |grad phi2|^2, the density f_sigma integrates."""
    from singflow.operators import gradient

    g1 = gradient(phi1, w.grid.spacing)
    g2 = gradient(phi2, w.grid.spacing)
    return w.metric_weight(phi2) * np.sum(g1 * g1, axis=0) + np.sum(g2 * g2, axis=0)


class TestLocalEnergy:
    def test_zero_state(self, w16):
        z = np.zeros(w16.grid.shape)
        assert local_energy_E(z, z, w16.grid, (0.1, 0.2, 0.3), 0.25) == (0.0, 0.0, 0.0)

    def test_sigma_resolution_guard(self, w16):
        z = np.zeros(w16.grid.shape)
        with pytest.raises(ValueError):
            local_energy_E(z, z, w16.grid, (0.1, 0.2, 0.3), w16.grid.spacing)

    def test_matches_direct_quadrature(self, w16):
        grid = w16.grid
        x2 = np.broadcast_to(grid.coords[1], grid.shape)
        phi2 = np.sin(2 * np.pi * x2).copy()
        z = np.zeros(grid.shape)
        center = (0.3, 0.55, 0.7)
        sigma = 0.25
        density = _grad_density(w16, z, phi2)
        time_density = theta_field(w16.metric_weight(phi2), z, z)
        f_sig, g_sig, E_sig = local_energy_E(density, time_density, grid, center, sigma)
        assert g_sig == 0.0
        assert E_sig == f_sig

        # oracle: explicit loop over the ball with fsum accumulation
        terms = []
        ax = grid.axis
        for i in range(grid.n):
            for j in range(grid.n):
                for k in range(grid.n):
                    if periodic_distance((ax[i], ax[j], ax[k]), center, 1.0) <= sigma:
                        terms.append(density[i, j, k])
        oracle = math.fsum(terms) * grid.cell_volume / sigma
        assert f_sig == pytest.approx(oracle, abs=1e-10 * max(1.0, oracle))

    def test_dyadic_sum_finite(self, w16):
        # sum over dyadic sigma of E_sigma / sigma * dsigma stays finite
        grid = w16.grid
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        phi2 = 0.3 * np.sin(2 * np.pi * x1).copy()
        z = np.zeros(grid.shape)
        density = _grad_density(w16, z, phi2)
        center = (0.52, 0.52, 0.5)
        total = 0.0
        sigma = 0.25
        while sigma >= 2 * grid.spacing:
            _, _, E = local_energy_E(density, z, grid, center, sigma)
            total += E / sigma * (sigma / 2)
            sigma /= 2
        assert np.isfinite(total) and total >= 0.0


class TestRelabelingInvariance:
    def test_energy_invariant_under_axis_swap(self, w16):
        # the axis_line(0.5, 0.5) weight is x1 <-> x2 symmetric, so swapping
        # those axes of symmetric inputs relabels the quadrature nodes only
        grid = w16.grid
        x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
        phi1 = (w16.rho.rho_unclamped**5 * np.sin(2 * np.pi * x3)).copy()
        phi2 = (np.sin(2 * np.pi * x1) + np.sin(2 * np.pi * x2)).copy()
        a = energy_H(phi1, phi2, w16)
        b = energy_H(
            np.ascontiguousarray(np.swapaxes(phi1, 0, 1)),
            np.ascontiguousarray(np.swapaxes(phi2, 0, 1)),
            w16,
        )
        assert b == pytest.approx(a, rel=1e-12)


class TestTrajectoryNorms:
    def test_w212_zero_trajectory(self, w16):
        z = np.zeros(w16.grid.shape)
        snaps = [(0.0, z), (0.1, z), (0.2, z)]
        assert w212_norm(snaps, w16.rho, 1.5).value == 0.0

    def test_w212_requires_three_snapshots(self, w16):
        z = np.zeros(w16.grid.shape)
        with pytest.raises(ValueError):
            w212_norm([(0.0, z), (0.1, z)], w16.rho, 1.5)

    def test_holder_seminorm_zero(self, w16):
        z = np.zeros(w16.grid.shape)
        snaps = [(0.0, z), (0.1, z)]
        rep = sampled_holder_seminorm(snaps, w16.rho, gamma=2.5, beta=0.5, n_pairs=1000)
        assert rep.value == 0.0

    def test_holder_seminorm_rho_gamma_stable_in_samples(self, w16):
        # u = rho^gamma static: the weighted quotient stays bounded and the
        # sampled sup is stable when the sample grows
        gamma, beta = 2.5, 0.5
        u = w16.rho.rho**gamma
        snaps = [(0.0, u), (0.05, u), (0.1, u)]
        a = sampled_holder_seminorm(snaps, w16.rho, gamma, beta, n_pairs=20000, seed=1).value
        b = sampled_holder_seminorm(snaps, w16.rho, gamma, beta, n_pairs=80000, seed=2).value
        assert np.isfinite(a) and np.isfinite(b) and a > 0
        assert abs(a - b) <= 0.5 * max(a, b)

    def test_holder_deterministic_given_seed(self, w16):
        u = w16.rho.rho**2
        snaps = [(0.0, u), (0.1, 0.5 * u)]
        a = sampled_holder_seminorm(snaps, w16.rho, 2.5, 0.5, n_pairs=5000, seed=42).value
        b = sampled_holder_seminorm(snaps, w16.rho, 2.5, 0.5, n_pairs=5000, seed=42).value
        assert a == b
