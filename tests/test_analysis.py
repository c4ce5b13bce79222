import dataclasses
import math

import numpy as np
import pytest
from oracles import barrier_check, projection_coordinate_field

from singflow.analysis import (
    BochnerAccumulator,
    BoundReport,
    check_max_principle,
    convergence_report,
    epsilon_regularity_scan,
    exponent_fit,
    fit_decay_rate_log,
    tension_bound,
    theta_decay_check,
)
from singflow import flow
from singflow.flow import derive_state, init_state, march, run
from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve, stencil_clear
from singflow.norms import theta_field
from singflow.operators import laplacian, stencil_symbol
from singflow.weight import build_weight

AXIS = CurveGamma.axis_line(0.5, 0.5)  # the curve of w16 and w32


@pytest.fixture(scope="module")
def w16():
    grid = TorusGrid(16, 1.0)
    rho = distance_to_curve(grid, AXIS)
    return build_weight(rho, alpha=1.5)


@pytest.fixture(scope="module")
def w32():
    # shell fits and dyadic ball scans need 4*spacing < L/4 and 2*spacing < L/8
    grid = TorusGrid(32, 1.0)
    rho = distance_to_curve(grid, AXIS)
    return build_weight(rho, alpha=1.5)


HEAT_DT = 1e-3


@pytest.fixture(scope="module")
def heat_traj(w16):
    st = init_state("trig", {"a": 0.3, "b": 0.2}, w16)
    return run(st, w16, dt=HEAT_DT, t_final=0.3, snapshot_interval=0.01)


NONLINEAR = ("poly_cutoff+trig", {"c": 0.05, "a": 0.002, "b": 0.003})


@pytest.fixture(scope="module")
def nonlinear_traj(w16):
    st = init_state(*NONLINEAR, w16)
    return run(st, w16, dt=1e-4, t_final=0.02, snapshot_interval=0.005)


# quantity, reference rate, rate slack and R^2 floor of the fits below
JUDGE = ("series", 2.0, 0.8, 0.9)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 3, 50)
        rep = fit_decay_rate_log(t, np.log(5.0 * np.exp(-2.0 * t)), (0.0, 3.0), *JUDGE)
        assert rep.amplitude == pytest.approx(5.0, rel=1e-10)
        assert rep.rate == pytest.approx(2.0, rel=1e-10)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0, 1, 20)
        rep = fit_decay_rate_log(t, np.log(np.full_like(t, 3.3)), (0.0, 1.0), *JUDGE)
        assert rep.rate == pytest.approx(0.0, abs=1e-12)

    def test_noisy_rate_recovered(self):
        rng = np.random.default_rng(123)
        t = np.linspace(0, 4, 200)
        y = 3.0 * np.exp(-t) * (1.0 + 0.01 * rng.standard_normal(t.size))
        rep = fit_decay_rate_log(t, np.log(y), (0.0, 4.0), *JUDGE)
        assert 0.95 <= rep.rate <= 1.05
        assert rep.amplitude == pytest.approx(3.0, rel=0.05)

    def test_rejects_short_window(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="10 samples"):
            fit_decay_rate_log(t, -t, (0.0, 1.0), *JUDGE)

    def test_pass_rule(self):
        # rate >= rate_slack * reference_rate and R^2 >= r2_min, decided at construction
        t = np.linspace(0, 3, 50)
        logs = np.log(5.0 * np.exp(-2.0 * t))
        rep = fit_decay_rate_log(t, logs, (0.0, 3.0), "series", 2.5, 0.8, 0.9)
        assert rep.rate_floor == 0.8 * 2.5 and rep.rate_ok and rep.r2_ok and rep.passed
        slow = fit_decay_rate_log(t, logs, (0.0, 3.0), "series", 2.6, 0.8, 0.9)
        assert not slow.rate_ok and slow.r2_ok and not slow.passed
        noisy = fit_decay_rate_log(t, logs + 0.5 * np.sin(40 * t), (0.0, 3.0), "series", 2.0, 0.8, 0.99)
        assert noisy.rate_ok and not noisy.r2_ok and not noisy.passed
        assert noisy.as_dict()["passed"] is False and noisy.as_dict()["reference_rate"] == 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.reference_rate = 0.0


class TestMaxPrinciple:
    def test_zero_tension_stationary_data(self, w16):
        st = init_state("zero", {}, w16)
        st = derive_state(st.phi1, np.full(w16.grid.shape, 0.4), st.t, w16)
        assert tension_bound(st, w16) < 1e-10
        traj = run(st, w16, dt=1e-3, t_final=0.01, snapshot_interval=0.005)
        reports = check_max_principle(traj, w16)
        assert all(r.passed for r in reports)
        assert np.max(traj.column("hyp_dist_to_init")) < 1e-10

    def test_pure_heat_discrete_maximum_principle(self, w16, heat_traj):
        # oracle: the discrete heat update is a convex combination, so the
        # sup norm of phi2 can never grow
        m = heat_traj.column("max_abs_phi2")
        assert np.all(m <= m[0] * (1 + 1e-12))
        reports = check_max_principle(heat_traj, w16)
        assert all(r.passed for r in reports)

    def test_nonlinear_run_bounds(self, w16, nonlinear_traj):
        reports = check_max_principle(nonlinear_traj, w16)
        for r in reports:
            assert r.passed, r.as_dict()


class TestBochner:
    def test_zero_trajectory(self, w16):
        st = init_state("zero", {}, w16)
        acc = BochnerAccumulator(w16)
        march(st, w16, dt=1e-3, t_final=0.01, step_callback=acc)
        assert acc.worst <= 0.0

    def test_single_heat_mode_matches_analytic(self, w16):
        # theta = |Lap phi2|^2 for a pure heat mode; the discrete expression
        # tracks -2 |grad dphi2|^2 to O(dt^2 + s^2) * scale
        grid = w16.grid
        dt = 1e-4
        st = init_state("trig", {"a": 0.02, "b": 0.0}, w16)
        # stopping at step 11 leaves the theta fields of steps 9, 10 and 11
        # (the middle of a 20-step run) in the accumulator's window
        acc = BochnerAccumulator(w16)
        march(st, w16, dt=dt, t_final=11 * dt, step_callback=acc)

        from singflow.operators import gradient

        (t_prev, th_prev), (t_mid, th_mid), (t_next, th_next) = acc.window
        expr = (th_next - th_prev) / (t_next - t_prev) - laplacian(th_mid, grid.spacing)

        # find the state at t_mid to evaluate the analytic target
        idx = int(round(t_mid / dt))
        state_mid = None
        st2 = init_state("trig", {"a": 0.02, "b": 0.0}, w16)
        from singflow.flow import step

        for k in range(idx):
            st2 = step(st2, w16, dt)
        g = gradient(st2.dphi2_dt, grid.spacing)
        target = -2.0 * np.sum(g * g, axis=0)
        scale = float(np.max(np.abs(target)))
        assert np.max(np.abs(expr - target)) <= 60.0 * (dt**2 + grid.spacing**2) * scale

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_ring_matches_a_whole_grid_oracle(self, w16, monkeypatch, lanes):
        # slabs of 5, 5, 5 and 1 planes: the Laplacian of the middle theta
        # reads across slab edges, on one lane or two
        monkeypatch.setattr(flow, "SLAB_NODES", 5 * 16 * 16)
        monkeypatch.setattr(flow, "LANES", lanes)
        w = dataclasses.replace(w16)  # a fresh workspace reads both
        assert len(w.slab_workspace.slabs) == 4
        acc = BochnerAccumulator(w)
        states = []

        def both(state):
            acc(state)
            states.append(state)

        march(init_state(*NONLINEAR, w), w, dt=1e-4, t_final=2e-3, step_callback=both)
        window = [(st.t, theta_field(st.wtil, st.dphi1_dt, st.dphi2_dt)) for st in states]
        mask = stencil_clear(w.rho.pinned) & w.rho.outside_ring
        worst = max(
            float(np.max(((th2 - th0) / (t2 - t0) - laplacian(th1, w.grid.spacing))[mask]))
            for (t0, th0), (_, th1), (t2, th2) in zip(window, window[1:], window[2:])
        )
        assert acc.worst == worst
        assert len(acc.window) == 3
        for (t, theta), (t_want, theta_want) in zip(acc.window, window[-3:]):
            assert t == t_want
            assert np.array_equal(theta, theta_want)

    def test_nonlinear_violation_small(self, w16):
        dt = 1e-4
        acc = BochnerAccumulator(w16)
        march(init_state(*NONLINEAR, w16), w16, dt=dt, t_final=0.02, step_callback=acc)
        assert acc.worst <= 10.0 * (dt + w16.grid.spacing**2)


class TestThetaDecay:
    def test_zero_data_empty_verdict(self, w16):
        # int theta^2 is zero throughout, so no log sample is finite and the fit has no data
        st = init_state("zero", {}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.02, snapshot_interval=0.01)
        with pytest.raises(ValueError, match="at least 10 samples"):
            theta_decay_check(traj, w16, (0.0, 0.02), rate_slack=0.8, r2_min=0.9)

    def test_pure_heat_rates(self, w16, heat_traj):
        out = theta_decay_check(heat_traj, w16, (0.05, 0.25), rate_slack=0.8, r2_min=0.9)
        assert out["monotone"]
        fit_l2, fit_sup = out["fits"]
        lam = stencil_symbol((1, 0, 0), w16.grid)
        dt = HEAT_DT
        lam_eff = math.log(1.0 + lam * dt) / dt  # implicit-Euler effective rate
        assert fit_l2.rate == pytest.approx(4.0 * lam_eff, rel=0.02)
        assert fit_l2.rate == pytest.approx(4.0 * lam, rel=0.06)
        assert fit_l2.passed and fit_sup.passed
        assert fit_sup.rate == pytest.approx(lam_eff, rel=0.02)

    def test_nonlinear_monotone(self, w16, nonlinear_traj):
        out = theta_decay_check(nonlinear_traj, w16, (0.0, 0.02), rate_slack=0.8, r2_min=0.9)
        assert out["monotone"]


class TestExponentFit:
    def test_rho_squared_slope(self, w32):
        slope, err = exponent_fit(w32.rho.rho_unclamped**2, w32.rho, (0.125, 0.25), n_shells=4)
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_constant_slope_zero(self, w32):
        ones = np.ones(w32.grid.shape)
        slope, _ = exponent_fit(ones, w32.rho, (0.125, 0.25), n_shells=4)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_thin_shell_rejected(self, w32):
        with pytest.raises(ValueError, match="fewer than"):
            exponent_fit(np.ones(w32.grid.shape), w32.rho, (0.125, 0.25), n_shells=40)

    def test_range_validated(self, w32):
        with pytest.raises(ValueError, match="shell_range"):
            exponent_fit(np.ones(w32.grid.shape), w32.rho, (w32.grid.spacing, 0.25))


class TestEpsilonRegularity:
    def test_zero_state(self, w32):
        st = init_state("zero", {}, w32)
        out = epsilon_regularity_scan(st, w32, centers=[(0.53, 0.53, 0.5)])
        assert all(v == 0.0 for v in out[0]["E"])

    def test_smooth_mode_slope_two(self, w32):
        # center where grad phi2 is maximal, so f_sigma ~ sigma^2 leads
        st = init_state("trig", {"a": 0.3, "b": 0.0}, w32)
        out = epsilon_regularity_scan(st, w32, centers=[(0.0, 0.4, 0.5)])
        assert out[0]["slope"] == pytest.approx(2.0, abs=0.5)

    def test_phi1_profile_steep_near_curve(self, w32):
        # initial A0-class data: density ~ rho^{2a+2} gives a steep table and
        # a sigma_x certificate; after relaxation the profile settles to
        # E ~ sigma^{2a} whose slope stays strictly positive
        st = init_state("poly_cutoff", {"c": 0.05}, w32)
        centers = [(0.515, 0.515, 0.25), (0.485, 0.515, 0.75)]
        out0 = epsilon_regularity_scan(st, w32, centers=centers)
        for rec in out0:
            assert rec["slope"] > 3.3
            assert rec["sigma_x"] is not None
        traj = run(st, w32, dt=1e-4, t_final=0.01, snapshot_interval=0.01)
        final = traj.final  # a plain snapshot record: derive its fields to scan it
        final = derive_state(final.phi1, final.phi2, final.t, w32)
        outT = epsilon_regularity_scan(final, w32, centers=centers)
        for rec in outT:
            assert rec["slope"] > 0

    def test_table_matches_densities_from_the_fields(self, w32):
        # the scan reads the state's derived fields; the table is the one the
        # densities rebuilt from phi1, phi2 and the time derivatives give, bit for bit
        from singflow.norms import ball_mask
        from singflow.operators import gradient

        st0 = init_state("poly_cutoff+trig", {"c": 0.05, "a": 0.1, "b": 0.05}, w32)
        centers = [(0.515, 0.515, 0.25), (0.485, 0.515, 0.75), (0.2, 0.7, 0.4)]
        grid, s = w32.grid, w32.grid.spacing
        for st in (st0, march(st0, w32, dt=1e-4, t_final=2e-3)):
            wtil = w32.metric_weight(st.phi2)
            g1, g2 = gradient(st.phi1, s), gradient(st.phi2, s)
            grad_density = wtil * np.sum(g1 * g1, axis=0) + np.sum(g2 * g2, axis=0)
            time_density = theta_field(wtil, st.dphi1_dt, st.dphi2_dt)
            for center, rec in zip(centers, epsilon_regularity_scan(st, w32, centers), strict=True):
                expected = []
                for sigma in rec["sigmas"]:
                    mask = ball_mask(grid, center, sigma)
                    f = float(np.sum(grad_density[mask])) * grid.cell_volume / sigma
                    g = float(np.sum(time_density[mask])) * grid.cell_volume * sigma
                    expected.append(f + g)
                assert rec["E"] == expected
                assert all(e > 0 for e in expected)


class TestConvergenceReport:
    def test_already_steady(self, w16):
        # every snapshot equals the final one, so the fit has no finite log sample
        st = init_state("zero", {}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.02, snapshot_interval=0.01)
        with pytest.raises(ValueError, match="at least 10 samples"):
            convergence_report(traj, w16, (0.0, 0.02), rate_slack=0.8, r2_min=0.9)

    def test_pure_heat_rate_matches_eigenvalue(self, w16):
        st = init_state("trig", {"a": 0.3, "b": 0.0}, w16)
        dt = 1e-3
        traj = run(st, w16, dt=dt, t_final=0.3, snapshot_interval=0.01)
        out = convergence_report(traj, w16, (0.05, 0.15), rate_slack=0.8, r2_min=0.9)
        lam = stencil_symbol((1, 0, 0), w16.grid)
        lam_eff = math.log(1.0 + lam * dt) / dt
        assert out["fit"].rate == pytest.approx(lam_eff, rel=0.05)
        assert out["fit"].passed

    def test_too_early_rejected(self, w16):
        st = init_state("trig", {"a": 0.3, "b": 0.0}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.005, snapshot_interval=0.001)
        with pytest.raises(ValueError, match="too early"):
            convergence_report(traj, w16, (0.0, 0.005), rate_slack=0.8, r2_min=0.9)


class TestBarrier:
    def test_zero_field(self, w16):
        r = projection_coordinate_field(w16.grid, AXIS, (0.5, 0.5, 0.5))
        rep = barrier_check(np.zeros(w16.grid.shape), w16.rho, r, 2.5, 0.5, w16.alpha)
        assert rep.left == 0.0

    def test_rho_gamma_saturates_at_one(self, w16):
        grid = w16.grid
        anchor_z = grid.axis[grid.n // 2]  # node plane: r = 0 occurs exactly
        r = projection_coordinate_field(grid, AXIS, (0.5, 0.5, anchor_z))
        gamma = 2.5
        u = w16.rho.rho**gamma
        rep = barrier_check(u, w16.rho, r, gamma, 0.5, w16.alpha)
        assert rep.left == pytest.approx(1.0, rel=1e-12)

    def test_parameter_validation(self, w16):
        r = np.zeros(w16.grid.shape)
        with pytest.raises(ValueError, match="gamma"):
            barrier_check(r, w16.rho, r, 5.0, 0.5, w16.alpha)
        with pytest.raises(ValueError, match="delta"):
            barrier_check(r, w16.rho, r, 2.5, 1.5, w16.alpha)

    def test_galerkin_k1_stable_across_n(self):
        import math as _math

        from singflow.spectral import Forcing, assemble_galerkin, build_basis, integrate_ode, reconstruct

        consts = []
        for n in (16, 32):
            grid = TorusGrid(n, 1.0)
            rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
            w = build_weight(rho, alpha=1.5)
            x1 = np.broadcast_to(grid.coords[0], grid.shape)
            x3 = np.broadcast_to(grid.coords[2], grid.shape)
            damp = rho.rho_unclamped**2.5
            f1 = Forcing([(damp * np.sin(2 * np.pi * x1), lambda t: _math.exp(-t))])
            f2 = Forcing([(np.zeros(grid.shape), lambda t: 1.0)])

            basis = build_basis(grid, 4)
            z = np.zeros(grid.shape)
            sysN = assemble_galerkin(z, z, w, basis, f1, f2, T=0.1, dt=1e-3)
            integrate_ode(sysN)
            k1, _ = reconstruct(sysN, sysN.C1[-1], sysN.C2[-1])
            r = projection_coordinate_field(grid, AXIS, (0.5, 0.5, 0.5))
            rep = barrier_check(k1, rho, r, 2.5, 0.5, 1.5)
            consts.append(rep.left)
        assert all(np.isfinite(c) for c in consts)
        assert max(consts) <= 2.5 * min(consts) + 1e-12


class TestBoundReport:
    def test_margin_and_pass(self):
        rep = BoundReport(name="x", left=1.0, right=2.0, tolerance=0.0)
        assert rep.margin == 1.0 and rep.passed
        rep2 = BoundReport(name="y", left=2.0, right=1.0, tolerance=0.5)
        assert not rep2.passed
