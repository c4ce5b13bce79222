import dataclasses

import numpy as np
import pytest

from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve
from singflow.operators import gradient, laplacian
from singflow.weight import (
    assemble_weight,
    build_weight,
    harmonicity_residual,
    log_asymptotics_shell,
    solve_u,
    weight_power,
)


def axis_weight(n, alpha=1.5):
    grid = TorusGrid(n, 1.0)
    rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
    return build_weight(rho, alpha=alpha)


def weight_u(w):
    """The u of h = rho e^u that build_weight solved for, bit for bit."""
    return solve_u(w.grid, w.rho.rho, w.rho.smooth_mask)


def full_mask(grid):
    return np.ones(grid.shape, dtype=bool)


class TestSolveU:
    def test_constant_rho_gives_zero(self):
        grid = TorusGrid(16, 1.0)
        u = solve_u(grid, np.full(grid.shape, 0.3), full_mask(grid))
        assert np.max(np.abs(u)) < 1e-12

    def test_manufactured_exponential_sin(self):
        # rho = e^{sin(2 pi x1)}: -Lap u = Lap log rho = Lap sin forces
        # u = -sin + mean gauge, up to the O(s^2) symbol mismatch; with this
        # u, log h = log rho + u is constant, i.e. exactly harmonic
        for n in (16, 32):
            grid = TorusGrid(n, 1.0)
            x1 = np.broadcast_to(grid.coords[0], grid.shape)
            rho = np.exp(np.sin(2 * np.pi * x1))
            u = solve_u(grid, rho, full_mask(grid))
            target = -np.sin(2 * np.pi * x1)
            target = target - target.mean()
            tol = 1.5 * (2 * np.pi * grid.spacing) ** 2 / 12
            assert np.max(np.abs(u - target)) <= tol

    def test_axis_line_u_small_near_curve(self):
        w = axis_weight(32)
        grid = w.grid
        trans = np.sqrt(
            np.minimum(np.abs(grid.coords[0] - 0.5), 1 - np.abs(grid.coords[0] - 0.5)) ** 2
            + np.minimum(np.abs(grid.coords[1] - 0.5), 1 - np.abs(grid.coords[1] - 0.5)) ** 2
        )
        near = np.broadcast_to(trans, grid.shape) < 0.25
        assert np.max(np.abs(weight_u(w)[near])) <= 0.1

    def test_axis_line_matches_dense_stencil_solve(self):
        # independent route: dense 7-point matrix solve of the same masked
        # source; spectral and stencil inverses agree to discretization error
        grid = TorusGrid(16, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        u_spec = solve_u(grid, rho.rho, source_mask=rho.smooth_mask)

        n3 = grid.n**3
        rhs = laplacian(np.log(rho.rho), grid.spacing)
        rhs = np.where(rho.smooth_mask, rhs, 0.0)
        rhs = (rhs - rhs.mean()).ravel()

        idx = np.arange(n3).reshape(grid.shape)
        A = np.zeros((n3, n3))
        inv_s2 = 1.0 / grid.spacing**2
        A[np.arange(n3), np.arange(n3)] = 6.0 * inv_s2
        for ax in range(3):
            for shift in (1, -1):
                A[np.arange(n3), np.roll(idx, shift, axis=ax).ravel()] -= inv_s2
        # pin the mean to make the singular system invertible
        A += 1.0 / n3
        u_dense = np.linalg.solve(A, rhs).reshape(grid.shape)
        u_dense -= u_dense.mean()

        assert np.max(np.abs(u_dense)) <= 0.15
        assert np.max(np.abs(u_spec - u_dense)) <= 0.02

    def test_zero_mean_gauge(self):
        w = axis_weight(16)
        assert abs(weight_u(w).mean()) < 1e-12

    def test_rejects_nonpositive_rho(self):
        grid = TorusGrid(8, 1.0)
        bad = np.ones(grid.shape)
        bad[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            solve_u(grid, bad, full_mask(grid))

    def test_residual_above_tolerance_raises(self):
        grid = TorusGrid(16, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        solve_u(grid, rho.rho, rho.smooth_mask, tol=1e-10)
        with pytest.raises(RuntimeError, match="exceeds tolerance 1.000e-300"):
            solve_u(grid, rho.rho, rho.smooth_mask, tol=1e-300)  # round-off alone exceeds it

    def test_matches_the_plain_spectral_solve(self):
        # the masked source's transform, divided by 4 pi^2 |k|^2 / L^2 off the
        # k = 0 mode and transformed back, then put to mean zero, bit for bit
        from singflow.operators import rfft_wavevectors

        grid = TorusGrid(16, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        rhs = np.where(rho.smooth_mask, laplacian(np.log(rho.rho), grid.spacing), 0.0)
        rhs = rhs - rhs.mean()
        k1, k2, k3 = rfft_wavevectors(grid)
        sym = (2.0 * np.pi / grid.length) ** 2 * (k1**2 + k2**2 + k3**2)
        rhs_hat = np.fft.rfftn(rhs)
        rhs_hat[0, 0, 0] = 0.0
        u_hat = np.zeros_like(rhs_hat)
        u_hat[sym > 0] = rhs_hat[sym > 0] / sym[sym > 0]
        u = np.fft.irfftn(u_hat, s=grid.shape, axes=(0, 1, 2))
        u -= u.mean()
        assert np.array_equal(solve_u(grid, rho.rho, rho.smooth_mask), u)


class TestAssembleWeight:
    def test_zero_u_gives_h_equals_rho(self):
        grid = TorusGrid(16, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        w = assemble_weight(rho, np.zeros(grid.shape), alpha=1.5)
        assert np.allclose(np.exp(w.log_h), rho.rho)
        assert np.allclose(w.grad_log_h, rho.grad_rho / rho.rho[None])

    def test_grad_log_h_magnitude_at_quarter(self):
        grid = TorusGrid(16, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        w = assemble_weight(rho, np.zeros(grid.shape), alpha=1.5)
        i = np.argmin(np.abs(grid.axis - 0.75))
        j = np.argmin(np.abs(grid.axis - 0.5))
        r = np.hypot(grid.axis[i] - 0.5, grid.axis[j] - 0.5)
        mag = np.linalg.norm(w.grad_log_h[:, i, j, 0])
        assert mag == pytest.approx(1.0 / r, rel=1e-12)

    def test_h_identity_pointwise(self):
        w = axis_weight(16)
        assert np.allclose(np.exp(w.log_h), w.rho.rho * np.exp(weight_u(w)), rtol=1e-14)

    def test_grad_log_h_matches_discrete_log_gradient(self):
        # smooth u: analytic grad(rho)/rho + grad u agrees with the centered
        # gradient of log h to O(s^2) away from the curve and the ridge (at
        # the ridge kink the analytic value is the meaningful one)
        consts = []
        for n in (16, 32):
            grid = TorusGrid(n, 1.0)
            rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
            x1, x2, x3 = grid.coords
            u = 0.3 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2) + 0.1 * np.cos(
                2 * np.pi * x3
            )
            u = np.broadcast_to(u, grid.shape).copy()
            w = assemble_weight(rho, u, alpha=1.5)
            disc = gradient(w.log_h, grid.spacing)
            ok = ~rho.ridge_mask
            for ax in range(3):
                ok &= np.roll(~rho.ridge_mask, 1, axis=ax) & np.roll(~rho.ridge_mask, -1, axis=ax)
            ok &= rho.rho_unclamped > 0.1
            consts.append(np.max(np.abs((w.grad_log_h - disc)[:, ok])) / grid.spacing**2)
        # measured ~ 140 at both n=16 and n=32: genuine O(s^2)
        assert consts[0] <= 400 and consts[1] <= 400

    def test_weight_power_log_space(self):
        w = axis_weight(16)
        h = w.rho.rho * np.exp(weight_u(w))
        assert np.allclose(weight_power(w, -3.0), h**-3.0, rtol=1e-10)
        # the metric weight is the same h^{-2a} e^{-2 phi2} product, bit for bit
        x1 = np.broadcast_to(w.grid.coords[0], w.grid.shape)
        for phi2 in (np.zeros(w.grid.shape), 0.7 * np.sin(2 * np.pi * x1) - 0.2):
            expected = weight_power(w, -2.0 * w.alpha) * np.exp(-2.0 * phi2)
            assert np.array_equal(w.metric_weight(phi2), expected)

    def test_alpha_regime_enforced(self):
        grid = TorusGrid(8, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        with pytest.raises(ValueError, match="alpha"):
            assemble_weight(rho, np.zeros(grid.shape), alpha=0.5)


    def test_fields_are_frozen(self):
        w = axis_weight(8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.log_h = np.zeros(w.grid.shape)
        # the cached derived fields still compute once and are reused
        assert w.alpha_grad_log_h is w.alpha_grad_log_h


class TestHarmonicity:
    def test_h_equal_one_gives_zero(self):
        grid = TorusGrid(16, 1.0)
        rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
        w = assemble_weight(rho, np.zeros(grid.shape), alpha=1.5)
        w = dataclasses.replace(w, log_h=np.zeros(grid.shape))
        assert harmonicity_residual(w, 2 * grid.spacing) == 0.0

    def test_log_rho_residual_second_order(self):
        # log of the exact 2-D distance is harmonic off the curve; the
        # discrete residual decreases at order ~2 under refinement
        # (exclusion radius fixed across n so the same region is compared)
        res = {}
        for n in (16, 32, 64):
            grid = TorusGrid(n, 1.0)
            rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
            w = assemble_weight(rho, np.zeros(grid.shape), alpha=1.5)
            res[n] = harmonicity_residual(w, exclusion_radius=0.2)
        assert 2.5 <= res[16] / res[32] <= 6.0
        assert 2.5 <= res[32] / res[64] <= 6.0

    def test_full_pipeline_residual_second_order(self):
        # common source-mask radius so the three solves see the same sources
        res = {}
        for n in (16, 32, 64):
            grid = TorusGrid(n, 1.0)
            rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5), near_radius=0.25)
            res[n] = harmonicity_residual(build_weight(rho, alpha=1.5), exclusion_radius=0.3)
        assert 2.5 <= res[16] / res[32] <= 6.0
        assert 2.5 <= res[32] / res[64] <= 6.0

    def test_log_asymptotics_shell(self):
        for n in (16, 32, 64):
            lo, hi = log_asymptotics_shell(axis_weight(n))
            assert 0.9 <= lo <= hi <= 1.1

    def test_exclusion_radius_validated(self):
        w = axis_weight(16)
        with pytest.raises(ValueError):
            harmonicity_residual(w, 0.5 * w.grid.spacing)


class TestGradientBound:
    def test_weighted_gradient_of_u_bounded_across_n(self):
        # analog of |grad u| <= C(eps) rho^{eps-1} at eps = 1/2: the sampled
        # max of rho^{1/2} |grad u| stays bounded as the grid refines
        stats = []
        for n in (16, 32, 64):
            w = axis_weight(n)
            gu = gradient(weight_u(w), w.grid.spacing)
            mag = np.sqrt(np.sum(gu * gu, axis=0))
            stats.append(float(np.max(np.sqrt(w.rho.rho) * mag)))
        assert all(s <= 2.0 for s in stats), stats
        assert max(stats) <= 4.0 * min(stats) + 1e-9
