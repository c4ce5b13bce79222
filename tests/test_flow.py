import numpy as np
import pytest

from singflow.flow import (
    FlowBlowupError,
    cfl_dt,
    init_state,
    initial_fields,
    pin_mask,
    run,
    steady_residual,
    step,
    validate_vanishing_order,
)
from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve
from singflow.norms import theta_field
from singflow.weight import build_weight


@pytest.fixture(scope="module")
def w16():
    grid = TorusGrid(16, 1.0)
    rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
    return build_weight(rho, alpha=1.5)


def stencil_symbol(k, grid):
    s = grid.spacing
    return (2.0 / s**2) * sum(1.0 - np.cos(2 * np.pi * ki * s / grid.length) for ki in k)


class TestInitState:
    def test_zero_family(self, w16):
        st = init_state("zero", {}, w16)
        assert np.max(np.abs(st.phi1)) == 0.0
        assert np.max(np.abs(st.phi2)) == 0.0
        assert np.max(np.abs(st.dphi1_dt)) == 0.0
        assert np.max(np.abs(st.dphi2_dt)) == 0.0

    def test_poly_cutoff_vanishing_order(self, w16):
        grid = w16.grid
        phi1, _ = initial_fields("poly_cutoff", {"c": 1.0}, w16)
        rho = w16.rho.rho_unclamped
        inner = rho <= 0.2
        assert np.max(np.abs(phi1[inner]) / rho[inner] ** 5.0) <= 1.0 + 1e-12

    def test_vanishing_order_rejection(self, w16):
        bad = w16.rho.rho_unclamped ** 2  # order 2, far below 2 alpha + 2 = 5
        with pytest.raises(ValueError, match="vanishing order"):
            validate_vanishing_order(bad, w16.rho, w16.alpha, 1.0)

    def test_trig_initial_rate(self, w16):
        grid = w16.grid
        st = init_state("trig", {"a": 0.3, "b": 0.0}, w16)
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        target = -0.3 * 4 * np.pi**2 * np.sin(2 * np.pi * x1)
        tol = 0.3 * 4 * np.pi**2 * (2 * np.pi * grid.spacing) ** 2 / 12 * 1.5
        assert np.max(np.abs(st.dphi2_dt - target)) <= tol

    def test_unknown_family_rejected(self, w16):
        with pytest.raises(ValueError, match="family"):
            init_state("gaussian", {}, w16)

    def test_phi1_pinned_at_init(self, w16):
        st = init_state("poly_cutoff", {"c": 1.0}, w16)
        pins = pin_mask(w16.rho)
        assert np.max(np.abs(st.phi1[pins])) == 0.0


class TestStep:
    def test_zero_fixed_point(self, w16):
        st = init_state("zero", {}, w16)
        pins = pin_mask(w16.rho)
        for i in range(5):
            st = step(st, w16, 1e-3, pins, step_index=i)
        assert np.max(np.abs(st.phi1)) == 0.0
        assert np.max(np.abs(st.phi2)) < 1e-15

    def test_single_mode_heat_decay_exact(self, w16):
        from singflow.operators import flow_rhs

        grid = w16.grid
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        mode = np.sin(2 * np.pi * x1).copy()
        st = init_state("zero", {}, w16)
        st.phi2 = 0.4 * mode
        st.dphi1_dt, st.dphi2_dt = flow_rhs(st.phi1, st.phi2, w16)
        dt = 1e-3
        lam = stencil_symbol((1, 0, 0), grid)
        pins = pin_mask(w16.rho)
        cur = step(st, w16, dt, pins)
        factor = 1.0 / (1.0 + dt * lam)
        assert np.max(np.abs(cur.phi2 - factor * st.phi2)) < 1e-13

    def test_richardson_first_order_in_dt(self, w16):
        # nonlinear small-amplitude run: halving dt halves the error against a
        # fine-dt reference (error ratio ~ 2)
        T = 0.01
        ref = _advance(w16, dt=1.25e-5, T=T)
        e1 = np.max(np.abs(_advance(w16, dt=2e-4, T=T).phi2 - ref.phi2))
        e2 = np.max(np.abs(_advance(w16, dt=1e-4, T=T).phi2 - ref.phi2))
        assert 1.5 <= e1 / e2 <= 2.6

    def test_pinning_exact_after_every_step(self, w16):
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        pins = pin_mask(w16.rho)
        for i in range(10):
            st = step(st, w16, 1e-4, pins, step_index=i)
            assert np.max(np.abs(st.phi1[pins])) == 0.0

    def test_cached_derivatives_match_rhs(self, w16):
        from singflow.operators import flow_rhs

        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        pins = pin_mask(w16.rho)
        st = step(st, w16, 1e-4, pins)
        r1, r2 = flow_rhs(st.phi1, st.phi2, w16)
        free = ~pins
        assert np.max(np.abs((st.dphi1_dt - r1)[free])) < 1e-12
        assert np.max(np.abs(st.dphi1_dt[pins])) == 0.0
        assert np.max(np.abs(st.dphi2_dt - r2)) < 1e-12

    def test_blowup_raises(self, w16):
        st = init_state("trig", {"a": 0.3, "b": 0.2}, w16)
        st.phi2 = st.phi2 * 1e308  # force immediate overflow in exp(-2 phi2)
        pins = pin_mask(w16.rho)
        with pytest.raises(FlowBlowupError):
            with np.errstate(all="ignore"):
                step(st, w16, 1e-3, pins)


def _advance(w, dt, T, family="poly_cutoff+trig", params=None):
    params = params or {"c": 0.5, "a": 0.05, "b": 0.05}
    st = init_state(family, params, w)
    pins = pin_mask(w.rho)
    from singflow.flow import implicit_euler_factor

    factor = implicit_euler_factor(w.grid, dt)
    for i in range(int(round(T / dt))):
        st = step(st, w, dt, pins, euler_factor=factor, step_index=i)
    return st


class TestRun:
    def test_zero_data_all_zero_series(self, w16):
        st = init_state("zero", {}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.01, snapshot_interval=0.005)
        for col in ("H", "theta_l2", "max_abs_phi2", "hyp_dist_to_init", "residual1", "residual2"):
            assert np.allclose(traj.column(col), 0.0, atol=1e-20), col

    def test_trig_only_theta_strictly_decreasing(self, w16):
        st = init_state("trig", {"a": 0.3, "b": 0.2}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.05, snapshot_interval=0.01)
        log_t2 = traj.column("log_theta2")
        assert np.all(np.diff(log_t2) < 0.0)

    def test_energy_dissipation(self, w16):
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        traj = run(st, w16, dt=1e-4, t_final=0.02, snapshot_interval=0.01)
        H = traj.column("H")
        assert np.all(np.diff(H) <= 1e-8 * H[0])

    def test_theta_series_consistent_with_norms(self, w16):
        st = init_state("trig", {"a": 0.2, "b": 0.1}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.01, snapshot_interval=0.005)
        last = traj.final
        theta = theta_field(last.phi2, last.dphi1_dt, last.dphi2_dt, w16)
        val = float(np.sum(theta * theta)) * w16.grid.cell_volume
        assert val == pytest.approx(traj.column("theta_l2")[-1], rel=1e-12)

    def test_conserve_phi2_mean_requires_zero_phi1(self, w16):
        # the mean shift is exact only while phi1 = 0 feeds no source into phi2
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        with pytest.raises(ValueError, match="phi1 = 0"):
            run(st, w16, dt=1e-4, t_final=1e-3, snapshot_interval=1e-3, conserve_phi2_mean=True)
        st = init_state("trig", {"a": 0.1, "b": 0.1}, w16)
        run(st, w16, dt=1e-4, t_final=1e-3, snapshot_interval=1e-3, conserve_phi2_mean=True)

    def test_snapshot_schedule(self, w16):
        st = init_state("zero", {}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.02, snapshot_interval=0.005)
        assert traj.snapshot_times[0] == 0.0
        assert traj.snapshot_times[-1] == pytest.approx(0.02)
        assert len(traj.snapshot_times) == 5

    def test_max_phi2_bounded_on_small_run(self, w16):
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        traj = run(st, w16, dt=1e-4, t_final=0.05, snapshot_interval=0.05)
        m = traj.column("max_abs_phi2")
        assert np.all(np.isfinite(m))
        assert m.max() <= m[0] + 0.05

    def test_phi1_linear_vanishing_near_curve(self, w16):
        # weak sanity form of the curve condition: |phi1| <= bound * rho
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        traj = run(st, w16, dt=1e-4, t_final=0.05, snapshot_interval=0.01)
        near = w16.rho.rho_unclamped <= 0.15
        for s in traj.snapshots:
            ratio = np.max(np.abs(s.phi1[near]) / w16.rho.rho[near])
            assert ratio <= 0.5 * 0.15**4 * 1.5  # initial c * rho^4 profile, with slack


class TestSteadyResidual:
    def test_zero_state(self, w16):
        st = init_state("zero", {}, w16)
        assert steady_residual(st, w16) == (0.0, 0.0)

    def test_constant_phi2(self, w16):
        st = init_state("zero", {}, w16)
        st.phi2 = np.full(w16.grid.shape, 0.7)
        r1, r2 = steady_residual(st, w16)
        assert r1 == 0.0
        assert r2 < 1e-11

    def test_matches_weighted_time_derivative_along_flow(self, w16):
        st = _advance(w16, dt=1e-4, T=0.005)
        r1, r2 = steady_residual(st, w16)
        rho = w16.rho.rho
        a = w16.alpha
        assert r1 == pytest.approx(np.max(rho ** (3.5 - a) * np.abs(st.dphi1_dt)), rel=1e-12)
        assert r2 == pytest.approx(np.max(rho**3.5 * np.abs(st.dphi2_dt)), rel=1e-12)


class TestFixedPoint:
    def test_steady_pair_barely_moves(self, w16):
        st = init_state("zero", {}, w16)
        st.phi2 = np.full(w16.grid.shape, 0.3)
        from singflow.operators import flow_rhs

        r1, r2 = flow_rhs(st.phi1, st.phi2, w16)
        st.dphi1_dt, st.dphi2_dt = r1, r2
        pins = pin_mask(w16.rho)
        nxt = step(st, w16, 1e-3, pins)
        assert np.max(np.abs(nxt.phi2 - st.phi2)) < 1e-14
        assert np.max(np.abs(nxt.phi1)) == 0.0

    def test_small_residual_moves_proportionally(self, w16):
        grid = w16.grid
        pins = pin_mask(w16.rho)
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        dt = 1e-3
        moves = []
        for eps in (1e-3, 1e-4):
            st = init_state("zero", {}, w16)
            st.phi2 = np.full(grid.shape, 0.3) + eps * np.sin(2 * np.pi * x1)
            from singflow.operators import flow_rhs

            st.dphi1_dt, st.dphi2_dt = flow_rhs(st.phi1, st.phi2, w16)
            nxt = step(st, w16, dt, pins)
            moves.append(np.max(np.abs(nxt.phi2 - st.phi2)))
        # movement scales linearly with the residual scale eps
        assert 5.0 <= moves[0] / moves[1] <= 20.0


class TestCfl:
    def test_cfl_formula(self, w16):
        st = init_state("zero", {}, w16)
        dt = cfl_dt(st, w16, 0.25)
        s = w16.grid.spacing
        min_rho = float(np.min(w16.rho.rho))
        assert dt == pytest.approx(0.25 * s * min_rho / (2 * 1.5), rel=1e-12)
