import dataclasses
import itertools
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from oracles import energy_H, heat_solve_reference

from singflow import flow
from singflow.flow import (
    FlowBlowupError,
    FlowState,
    StepState,
    cfl_dt,
    derive_state,
    heat_solve,
    implicit_euler_factor,
    init_state,
    initial_fields,
    march,
    run,
    slab_stencil,
    steady_residual,
    step,
)
from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve
from singflow.norms import theta_field
from singflow.operators import flow_rhs, gradient, laplacian
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
        pins = w16.rho.pinned
        assert np.max(np.abs(st.phi1[pins])) == 0.0


class TestStep:
    def test_zero_fixed_point(self, w16):
        st = init_state("zero", {}, w16)
        for i in range(5):
            st = step(st, w16, 1e-3, step_index=i)
        assert np.max(np.abs(st.phi1)) == 0.0
        assert np.max(np.abs(st.phi2)) < 1e-15

    def test_single_mode_heat_decay_exact(self, w16):
        from singflow.operators import flow_rhs

        grid = w16.grid
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        mode = np.sin(2 * np.pi * x1).copy()
        st = init_state("zero", {}, w16)
        phi2 = 0.4 * mode
        st = FlowState(st.phi1, phi2, st.t, *flow_rhs(st.phi1, phi2, w16))
        dt = 1e-3
        lam = stencil_symbol((1, 0, 0), grid)
        cur = step(st, w16, dt)
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
        pins = w16.rho.pinned
        for i in range(10):
            st = step(st, w16, 1e-4, step_index=i)
            assert np.max(np.abs(st.phi1[pins])) == 0.0

    def test_cached_derivatives_match_rhs(self, w16):
        from singflow.operators import flow_rhs

        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        pins = w16.rho.pinned
        st = step(st, w16, 1e-4)
        r1, r2 = flow_rhs(st.phi1, st.phi2, w16)
        free = ~pins
        assert np.max(np.abs((st.dphi1_dt - r1)[free])) < 1e-12
        assert np.max(np.abs(st.dphi1_dt[pins])) == 0.0
        assert np.max(np.abs(st.dphi2_dt - r2)) < 1e-12

    def test_fields_are_frozen(self, w16):
        st = init_state("trig", {"a": 0.3, "b": 0.2}, w16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.phi2 = np.zeros(w16.grid.shape)
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.copy().phi2 = np.zeros(w16.grid.shape)

    def test_plain_record_steps_like_step_state(self, w16):
        # a record read back from a snapshot takes its Laplacians from operators.py
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        record = FlowState(st.phi1, st.phi2, st.t, st.dphi1_dt, st.dphi2_dt)
        for _ in range(3):
            st = step(st, w16, 1e-4)
            record = step(record, w16, 1e-4)
            for name in ("phi1", "phi2", "dphi1_dt", "dphi2_dt"):
                assert np.array_equal(getattr(st, name), getattr(record, name)), name
            assert st.t == record.t
            record = record.copy()

    def test_blowup_raises(self, w16):
        st = init_state("trig", {"a": 0.3, "b": 0.2}, w16)
        # force immediate overflow in exp(-2 phi2)
        st = FlowState(st.phi1, st.phi2 * 1e308, 0.25, st.dphi1_dt, st.dphi2_dt)
        with pytest.raises(FlowBlowupError) as err:
            with np.errstate(all="ignore"):
                step(st, w16, 1e-3, step_index=7)
        # the error describes the last finite state, the one the failed step started from
        max1, max2 = float(np.max(np.abs(st.phi1))), float(np.max(np.abs(st.phi2)))
        assert np.isfinite(max2) and max2 > 1e300
        assert (err.value.step, err.value.t) == (7, 0.25)
        assert (err.value.max_phi1, err.value.max_phi2) == (max1, max2)
        for text in ("step 7", "t = 0.25", f"max |phi1| = {max1:.3e}", f"max |phi2| = {max2:.3e}"):
            assert text in str(err.value)


class TestTemporalOrder:
    """Backward Euler is first order: halving dt halves the change of the final state.

    The comparison runs only the stepper against itself at four step sizes,
    so it shares no reference loop with the bitwise tests below.
    """

    @pytest.mark.parametrize(
        "params",
        [{"c": 0.5, "a": 0.1, "b": 0.1}, {"c": 0.01, "a": 0.001, "b": 0.0015}],
        ids=["large", "acceptance"],
    )
    def test_successive_differences_halve(self, w16, params):
        finals = [_advance(w16, dt, 0.02, params=params) for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4)]
        for name in ("phi1", "phi2"):
            diffs = [
                np.max(np.abs(getattr(a, name) - getattr(b, name)))
                for a, b in zip(finals, finals[1:])
            ]
            for coarse, fine in zip(diffs, diffs[1:]):
                assert 1.8 <= coarse / fine <= 2.2, (name, diffs)


def _advance(w, dt, T, family="poly_cutoff+trig", params=None):
    params = params or {"c": 0.5, "a": 0.05, "b": 0.05}
    return march(init_state(family, params, w), w, dt, T)


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

    @pytest.mark.parametrize("n", [16, 48])  # 48: ragged slabs of 14, 14, 14 and 6 planes
    def test_H_column_matches_energy_oracle(self, n):
        grid = TorusGrid(n, 1.0)
        w = build_weight(distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5)), alpha=1.5)
        st = init_state("poly_cutoff+trig", {"c": 0.3, "a": 0.2, "b": 0.1}, w)
        traj = run(st, w, dt=1e-4, t_final=2e-3, snapshot_interval=1e-4)
        assert len(traj.snapshots) == len(traj.column("H")) == 21
        want = [energy_H(snap.phi1, snap.phi2, w) for snap in traj.snapshots]
        assert np.array_equal(traj.column("H"), want)

    def test_theta_series_consistent_with_norms(self, w16):
        st = init_state("trig", {"a": 0.2, "b": 0.1}, w16)
        traj = run(st, w16, dt=1e-3, t_final=0.01, snapshot_interval=0.005)
        last = traj.final
        theta = theta_field(w16.metric_weight(last.phi2), last.dphi1_dt, last.dphi2_dt)
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

    def test_zero_run_stays_steady(self, w16):
        traj = run(init_state("zero", {}, w16), w16, dt=1e-3, t_final=0.02, snapshot_interval=0.01)
        assert steady_residual(traj.final, w16) == (0.0, 0.0)

    def test_constant_phi2(self, w16):
        st = init_state("zero", {}, w16)
        st = FlowState(st.phi1, np.full(w16.grid.shape, 0.7), st.t, st.dphi1_dt, st.dphi2_dt)
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
        phi2 = np.full(w16.grid.shape, 0.3)
        st = FlowState(st.phi1, phi2, st.t, *flow_rhs(st.phi1, phi2, w16))
        nxt = step(st, w16, 1e-3)
        assert np.max(np.abs(nxt.phi2 - st.phi2)) < 1e-14
        assert np.max(np.abs(nxt.phi1)) == 0.0

    def test_small_residual_moves_proportionally(self, w16):
        grid = w16.grid
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        dt = 1e-3
        moves = []
        for eps in (1e-3, 1e-4):
            st = init_state("zero", {}, w16)
            phi2 = np.full(grid.shape, 0.3) + eps * np.sin(2 * np.pi * x1)
            st = FlowState(st.phi1, phi2, st.t, *flow_rhs(st.phi1, phi2, w16))
            nxt = step(st, w16, dt)
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

    def test_cfl_reads_the_gradient_of_phi2(self, w16):
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.3, "b": 0.2}, w16)
        s = w16.grid.spacing
        min_rho = float(np.min(w16.rho.rho))
        g2 = gradient(st.phi2, s)
        max_g2 = float(np.max(np.sqrt(np.sum(g2 * g2, axis=0))))
        assert max_g2 > 1.0
        assert cfl_dt(st, w16, 0.25) == 0.25 * s * min_rho / (2.0 * w16.alpha + max_g2 * min_rho)


@pytest.fixture(scope="module", params=[8, 16, 32, 48, 64])
def weight_n(request):
    grid = TorusGrid(request.param, 1.0)
    rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
    return build_weight(rho, alpha=1.5)


class TestBitwiseAgainstOperators:
    """The stepper's fused kernels reproduce the operators.py reference bit for bit."""

    def test_rhs_and_stencils_on_random_fields(self, weight_n):
        rng = np.random.default_rng(weight_n.grid.n)
        phi1 = rng.standard_normal(weight_n.grid.shape)
        phi2 = 0.1 * rng.standard_normal(weight_n.grid.shape)
        s = weight_n.grid.spacing
        pins = weight_n.rho.rho_unclamped <= weight_n.grid.spacing  # the pinned ring, by its rule
        st = derive_state(phi1, phi2, 0.0, weight_n)
        ref1, ref2 = flow_rhs(phi1, phi2, weight_n)
        ref1[pins] = 0.0
        assert np.array_equal(st.dphi1_dt, ref1)
        assert np.array_equal(st.dphi2_dt, ref2)
        for key, f in (("1", phi1), ("2", phi2)):
            g = gradient(f, s)
            assert np.array_equal(getattr(st, f"grad{key}_sq"), np.sum(g * g, axis=0))
            assert np.array_equal(getattr(st, "lap" + key), laplacian(f, s))
            # the Laplacian alone, as BochnerAccumulator takes it slab by slab
            lap = np.empty(f.shape)
            lane = weight_n.slab_workspace.lanes[0]
            for sl in weight_n.slab_workspace.slabs:
                slab_stencil(f, sl, lane, s, lap[sl])
            assert np.array_equal(lap, laplacian(f, s))
        assert np.array_equal(st.wtil, weight_n.metric_weight(phi2))

    @pytest.mark.parametrize(
        "slab_nodes, sizes",
        [(64, [1] * 8), (192, [3, 3, 2]), (flow.SLAB_NODES, [8])],
        ids=["one_plane", "ragged", "one_slab"],
    )
    def test_every_slab_layout(self, monkeypatch, slab_nodes, sizes):
        # the first and last slab hold the grid's wrap planes on axis 0
        monkeypatch.setattr(flow, "SLAB_NODES", slab_nodes)
        w = _weight(8)
        ws = w.slab_workspace
        assert [sl.stop - sl.start for sl in ws.slabs] == sizes
        rng = np.random.default_rng(sum(sizes) + len(sizes))
        phi1, phi2 = rng.standard_normal(w.grid.shape), 0.1 * rng.standard_normal(w.grid.shape)
        s, lane = w.grid.spacing, ws.lanes[0]
        for f in (phi1, phi2):
            lap, lap_alone, grad = np.empty(f.shape), np.empty(f.shape), np.empty((3, *f.shape))
            for sl in ws.slabs:
                g = lane.grads[0, :, : sl.stop - sl.start]
                slab_stencil(f, sl, lane, s, lap[sl], g)
                grad[:, sl] = g
                slab_stencil(f, sl, lane, s, lap_alone[sl])
            assert np.array_equal(lap, laplacian(f, s))
            assert np.array_equal(lap_alone, laplacian(f, s))
            assert np.array_equal(grad, gradient(f, s))
        st = derive_state(phi1, phi2, 0.0, w)
        ref1, ref2 = flow_rhs(phi1, phi2, w)
        ref1[w.rho.pinned] = 0.0
        assert np.array_equal(st.dphi1_dt, ref1)
        assert np.array_equal(st.dphi2_dt, ref2)
        assert np.array_equal(st.lap1, laplacian(phi1, s))
        g2 = gradient(phi2, s)
        assert np.array_equal(st.grad2_sq, np.sum(g2 * g2, axis=0))

    def test_a_non_contiguous_output_raises(self, w16):
        f = np.random.default_rng(3).standard_normal(w16.grid.shape)
        s, ws = w16.grid.spacing, w16.slab_workspace
        (sl,), lane = ws.slabs, ws.lanes[0]
        lap = np.empty(f.shape)
        slab_stencil(np.asfortranarray(f), sl, lane, s, lap)  # any input layout is read
        assert np.array_equal(lap, laplacian(f, s))
        strided = np.empty((16, 16, 32))[:, :, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            slab_stencil(f, sl, lane, s, strided)
        with pytest.raises(ValueError, match="C-contiguous"):
            slab_stencil(f, sl, lane, s, lap, np.empty((3, 16, 16, 16), order="F"))

    @pytest.mark.parametrize("n", [8, 15, 16, 32, 48, 64])
    def test_heat_solve_matches_reference(self, n):
        # the odd n checks the length the last inverse transform is given
        grid = TorusGrid(n, 1.0)
        f = np.random.default_rng(n).standard_normal(grid.shape)
        factor = implicit_euler_factor(grid, 1e-3)
        expected = heat_solve_reference(f, factor, grid.shape)
        spec = np.empty(factor.shape, dtype=complex)
        out = np.empty(grid.shape)
        assert heat_solve(f, factor, spec, out) is out
        assert np.array_equal(out, expected)
        assert heat_solve(f, factor, spec, f) is f  # in place, as step calls it
        assert np.array_equal(f, expected)

    def test_run_matches_reference_loop(self, w16):
        dt, steps = 2e-4, 50
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        traj = run(st0, w16, dt=dt, t_final=steps * dt, snapshot_interval=steps * dt)

        # the step written with operators.py only, never reading derived fields
        grid, s = w16.grid, w16.grid.spacing
        pins = w16.rho.rho_unclamped <= w16.grid.spacing  # the pinned ring, by its rule
        factor = implicit_euler_factor(grid, dt)
        pre = flow._series_constants(st0, w16)

        def reference_state(phi1, phi2, t, r1, r2):
            laps = laplacian(phi1, s), laplacian(phi2, s)
            grad_sq = [np.sum(g * g, axis=0) for g in (gradient(phi1, s), gradient(phi2, s))]
            return StepState(phi1, phi2, t, r1, r2, *laps, w16.metric_weight(phi2), *grad_sq)

        phi1, phi2, t = st0.phi1, st0.phi2, 0.0
        r1, r2 = flow_rhs(phi1, phi2, w16)
        r1[pins] = 0.0
        rows = [flow._series_row(reference_state(phi1, phi2, t, r1, r2), w16, pre)]
        for _ in range(steps):
            e1 = r1 - laplacian(phi1, s)
            e2 = r2 - laplacian(phi2, s)
            phi1 = heat_solve_reference(phi1 + dt * e1, factor, grid.shape)
            phi2 = heat_solve_reference(phi2 + dt * e2, factor, grid.shape)
            phi1[pins] = 0.0
            t += dt
            r1, r2 = flow_rhs(phi1, phi2, w16)
            r1[pins] = 0.0
            rows.append(flow._series_row(reference_state(phi1, phi2, t, r1, r2), w16, pre))

        assert np.array_equal(traj.final.phi1, phi1)
        assert np.array_equal(traj.final.phi2, phi2)
        assert set(traj.series) == set(rows[0])
        for col, got in traj.series.items():
            assert got == [row[col] for row in rows], col

    def test_series_row_matches_plain_expressions(self, w16):
        # the row and the norms it calls work in place; the same products as whole-array expressions
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        pre = flow._series_constants(st0, w16)
        rho, a, vol = w16.rho.rho, w16.alpha, w16.grid.cell_volume
        Phi2_0 = np.exp(a * w16.log_h + st0.phi2)
        states = []
        march(st0, w16, dt=2e-4, t_final=2e-3, step_callback=states.append)
        for st in states:
            r1, r2 = st.dphi1_dt, st.dphi2_dt
            theta = st.wtil * r1 * r1 + r2 * r2
            m = np.max(np.abs(theta))
            log_theta2 = 2.0 * math.log(m) + math.log(float(np.sum((theta / m) * (theta / m))) * vol)
            d1 = st.phi1 - st0.phi1
            Phi2 = np.exp(a * w16.log_h + st.phi2)
            num = d1 * d1 + (Phi2 - Phi2_0) ** 2
            den = d1 * d1 + (Phi2 + Phi2_0) ** 2
            hyp = 2.0 * np.arctanh(np.sqrt(num / den))
            weighted = rho ** (1.5 - a) * np.abs(r1) + rho**1.5 * np.abs(r2)
            assert flow._series_row(st, w16, pre) == {
                "t": st.t,
                "H": float(np.sum(st.wtil * st.grad1_sq + st.grad2_sq)) * vol,
                "theta_l2": float(np.sum(theta * theta)) * vol,
                "log_theta2": log_theta2,
                "max_abs_phi2": float(np.max(np.abs(st.phi2))),
                "hyp_dist_to_init": float(np.max(hyp)),
                "weighted_dt_sup": float(np.max(weighted[w16.rho.outside_ring])),
                "residual1": float(np.max(rho ** (3.5 - a) * np.abs(r1))),
                "residual2": float(np.max(rho**3.5 * np.abs(r2))),
            }


class TestMarch:
    def test_final_state_and_callback_sequence_match_run(self, w16):
        # with a snapshot every step, run's snapshots are every state march visits
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        seen = []
        final = march(
            st0, w16, dt=1e-4, t_final=3e-3,
            step_callback=lambda st: seen.append((st.t, st.phi1.copy(), st.phi2.copy())),
        )
        traj = run(st0, w16, dt=1e-4, t_final=3e-3, snapshot_interval=1e-4)
        for field in ("phi1", "phi2", "dphi1_dt", "dphi2_dt"):
            assert np.array_equal(getattr(final, field), getattr(traj.final, field)), field
        assert final.t == traj.final.t
        assert len(seen) == len(traj.snapshots) == 31
        for (t_m, p1_m, p2_m), snap in zip(seen, traj.snapshots):
            assert t_m == snap.t
            assert np.array_equal(p1_m, snap.phi1)
            assert np.array_equal(p2_m, snap.phi2)

    def test_check_bochner_matches_run_with_accumulator(self):
        # the accumulator streams each state of a plain march at both grids
        from singflow.analysis import BochnerAccumulator
        from singflow.config import build_problem, parse_config
        from singflow.verify import check_bochner

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = dataclasses.replace(parse_config(os.path.join(root, "configs", "acceptance.cfg")), n=8)
        expected = []
        for n, dt in ((8, 2e-4), (16, 1e-4)):
            w = build_problem(dataclasses.replace(cfg, n=n))
            acc = BochnerAccumulator(w)
            st0 = init_state(cfg.family, cfg.family_params, w)
            march(st0, w, dt=dt, t_final=0.04, step_callback=acc)
            expected.append(acc.worst)
        got = [v["measured"] for v in check_bochner(cfg)[:2]]
        assert got == expected


class TestStepBuffers:
    """`step` and `derive_state` take their outputs from the workspace's `grid_array`.

    An array is handed out again only once nothing outside the workspace
    references it, so whatever a caller holds keeps its bits.
    """

    @staticmethod
    def _fields(st):
        return {f.name: np.copy(getattr(st, f.name)) for f in dataclasses.fields(StepState)}

    def _assert_kept(self, st, before):
        for name, field in self._fields(st).items():
            assert np.array_equal(field, before[name]), name

    def test_a_held_state_and_a_view_keep_their_bits(self, w16):
        w = dataclasses.replace(w16)
        st = step(init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w), w, 1e-4)
        held, before = st, self._fields(st)
        dropped = step(st, w, 1e-4)
        view, view_before = dropped.dphi2_dt[3:9, ::2], dropped.dphi2_dt[3:9, ::2].copy()
        del dropped  # only the view keeps its array
        for _ in range(50):
            st = step(st, w, 1e-4)
        self._assert_kept(held, before)
        assert np.array_equal(view, view_before)

    def test_march_writes_neither_state0_nor_a_state_it_returned(self, w16):
        w = dataclasses.replace(w16)
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        before0 = self._fields(st0)
        final = march(st0, w, dt=1e-4, t_final=2e-3)
        before_final = self._fields(final)
        march(st0, w, dt=1e-4, t_final=2e-3)
        march(final, w, dt=1e-4, t_final=2e-3)
        self._assert_kept(st0, before0)
        self._assert_kept(final, before_final)

    def test_the_arrays_stay_bounded_over_200_steps(self, w16):
        w = dataclasses.replace(w16)
        ws = w.slab_workspace
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        traj = run(st0, w, dt=1e-4, t_final=2e-2, snapshot_interval=2e-2)
        assert len(traj.series["t"]) == 201
        kept = len(ws._arrays)
        assert kept <= flow.SlabWorkspace.MAX_ARRAYS
        final = march(st0, w, dt=1e-4, t_final=2e-2)
        assert len(ws._arrays) == kept  # 1,800 more outputs, no more arrays
        pooled = {id(a) for a in ws._arrays}
        assert all(id(getattr(final, name)) in pooled for name in self._fields(final) if name != "t")

    def test_an_array_is_reused_once_dropped_and_never_while_held(self, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)  # a lane to hold one while the other asks
        ws = flow.SlabWorkspace((8, 8, 8))
        address = lambda a: a.__array_interface__["data"][0]  # noqa: E731

        def handed_out():
            return {address(ws.grid_array()) for _ in range(3)}

        a = ws.grid_array()
        addr = address(a)
        view = a[2:, ::3]
        assert addr not in handed_out()
        del a
        assert addr not in handed_out()  # the view holds it through its base
        del view
        assert address(ws.grid_array()) == addr  # dropped: handed out again

        box = [ws.grid_array()]
        addr = address(box[0])
        held, asked = threading.Event(), threading.Event()

        def work(item, lane):
            # each item waits for the other, so each lane takes one: the lane
            # given `box` alone holds the array while the other asks for three
            if item is box:
                array = box.pop()
                held.set()
                assert asked.wait(20)
                return address(array)
            assert held.wait(20)
            try:
                return addr in handed_out()
            finally:
                asked.set()

        assert ws.map(work, [box, None]) == [addr, False]
        assert address(ws.grid_array()) == addr  # the hand-out is over: free again

    def test_a_cancelled_worker_job_pins_no_item(self, monkeypatch):
        # with the worker busy, this thread takes both items and cancels the
        # worker's job, which stays queued until the worker is free again; the
        # items' arrays are free once the caller drops them all the same
        monkeypatch.setattr(flow, "LANES", 2)
        ws = flow.SlabWorkspace((8, 8, 8))
        address = lambda a: a.__array_interface__["data"][0]  # noqa: E731
        release = threading.Event()
        ws.map(lambda item, lane: None, [0, 1])  # makes the worker's pool
        busy = ws._pool.submit(release.wait, 20)
        try:
            a, b = ws.grid_array(), ws.grid_array()
            addrs = {address(a), address(b)}
            assert ws.map(lambda item, lane: item[0].fill(1.0), [(a,), (b,)]) == [None, None]
            del a, b
            again = [ws.grid_array() for _ in range(2)]
            assert {address(x) for x in again} == addrs
        finally:
            release.set()
        assert busy.result(timeout=20)


def _weight(n):
    grid = TorusGrid(n, 1.0)
    return build_weight(distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5)), alpha=1.5)


class TestLanes:
    """Outputs are byte-identical for any lane count.

    A workspace reads LANES and SLAB_NODES when it is built, so each case
    builds a fresh weight (dataclasses.replace starts with an empty cache).
    """

    def test_lane_count_follows_slab_count(self, monkeypatch):
        # LANES lanes on every grid, one slab (n <= 32) or many
        for lanes in (1, 2):
            monkeypatch.setattr(flow, "LANES", lanes)
            for n in (8, 32, 64):
                ws = flow.SlabWorkspace((n, n, n))
                assert len(ws.slabs) == (8 if n == 64 else 1)
                assert len(ws.lanes) == lanes, (lanes, n)

    def test_a_one_item_map_stays_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        ws = flow.SlabWorkspace((16, 16, 16))
        work = lambda item, lane: (item, lane, threading.current_thread())  # noqa: E731
        assert ws.map(work, ["only"]) == [("only", ws.lanes[0], threading.current_thread())]
        assert ws.map(work, []) == []
        assert ws._pool is None  # no job for the worker, so none to cancel
        assert [item for item, _, _ in ws.map(work, [0, 1])] == [0, 1]
        submitted = []
        submit = ws._pool.submit
        ws._pool.submit = lambda *job: submitted.append(job) or submit(*job)
        assert [item for item, _, _ in ws.map(work, [0, 1, 2])] == [0, 1, 2]
        assert len(submitted) == 1  # the worker's lane is one job

    def test_step_on_one_slab_updates_the_fields_on_two_threads(self, w16, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        w = dataclasses.replace(w16)
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        expected = step(st, w, 1e-4)
        assert len(w.slab_workspace.slabs) == 1 and len(w.slab_workspace.lanes) == 2
        # each heat solve waits for the other, so one thread cannot take both
        both_solving = threading.Barrier(2, timeout=20)
        solved_on, stencil_on = [], []
        heat_solve_, slab_stencil_ = flow.heat_solve, flow.slab_stencil

        def heat_solve(*args):
            solved_on.append(threading.current_thread())
            both_solving.wait()
            return heat_solve_(*args)

        def stencil(*args, **kwargs):
            stencil_on.append(threading.current_thread())
            return slab_stencil_(*args, **kwargs)

        monkeypatch.setattr(flow, "heat_solve", heat_solve)
        monkeypatch.setattr(flow, "slab_stencil", stencil)
        got = step(st, w, 1e-4)
        assert len(solved_on) == 2 and len(set(solved_on)) == 2
        assert threading.current_thread() in solved_on
        assert stencil_on == [threading.current_thread()] * 2  # derive_state's one slab
        for field in dataclasses.fields(StepState):
            assert np.array_equal(getattr(got, field.name), getattr(expected, field.name)), field.name

    def test_map_slabs_hands_each_slab_out_once(self, monkeypatch):
        # a tiny switch interval makes the lanes interleave inside the hand-out
        monkeypatch.setattr(flow, "LANES", 2)
        monkeypatch.setattr(flow, "SLAB_NODES", 16)
        ws = flow.SlabWorkspace((64, 4, 4))  # 64 one-plane slabs
        lanes_used = set()

        def work(sl, lane):
            seen.append(sl.start)
            lanes_used.add(id(lane))
            time.sleep(1e-4)  # lets the other lane in
            return sl.start

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                seen = []
                assert ws.map(work, ws.slabs) == list(range(64))
                assert sorted(seen) == list(range(64))
        finally:
            sys.setswitchinterval(interval)
        assert lanes_used == {id(lane) for lane in ws.lanes}

    @pytest.mark.parametrize("raising", [0, 1], ids=["caller_lane", "worker_lane"])
    def test_a_raising_job_propagates_after_both_lanes_stop(self, monkeypatch, raising):
        monkeypatch.setattr(flow, "LANES", 2)
        monkeypatch.setattr(flow, "SLAB_NODES", 16)
        ws = flow.SlabWorkspace((64, 4, 4))
        both_started = threading.Barrier(2, timeout=20)  # one job per lane
        finished = []

        def work(item, lane):
            both_started.wait()
            if lane is ws.lanes[raising]:
                raise ValueError(item)
            time.sleep(0.2)
            finished.append(item)

        with pytest.raises(ValueError):
            ws.map(work, [0, 1])
        assert len(finished) == 1  # the other lane's job ended before the error came out

    @staticmethod
    def _cmd_run_outputs(n, t_final, tmp_path, monkeypatch) -> list[dict]:
        """The files cmd_run writes under one lane and under two."""
        from singflow.cli import cmd_run
        from singflow.config import parse_config_text

        cfg = parse_config_text(
            f"[grid]\nn = {n}\n"
            "[flow]\nfamily = poly_cutoff+trig\nc = 0.01\na = 0.001\nb = 0.0015\n"
            f"t_final = {t_final}\ndt = 1e-4\nsnapshot_interval = 2e-4\n"
            "[analysis]\nholder_pairs = 2000\n"
        )
        outputs = []
        for lanes in (1, 2):
            monkeypatch.setattr(flow, "LANES", lanes)
            out = tmp_path / f"n{n}_lanes{lanes}"
            assert cmd_run(cfg, str(out)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        return outputs

    def test_run_at_n64_writes_identical_files(self, tmp_path, monkeypatch):
        outputs = self._cmd_run_outputs(64, 6e-4, tmp_path, monkeypatch)
        assert sum(name.endswith(".sgf") for name in outputs[0]) == 4
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", [16, 32])
    def test_run_on_one_slab_writes_identical_files(self, tmp_path, monkeypatch, n):
        # one slab: the worker takes one field update of each step, and the diagnostics rows
        outputs = self._cmd_run_outputs(n, 2e-3, tmp_path, monkeypatch)
        assert sum(name.endswith(".sgf") for name in outputs[0]) == 11
        assert outputs[0] == outputs[1]

    def test_conserve_phi2_mean_run_same_for_any_lane_count(self, w16, monkeypatch):
        # the mean shift of state k must land before step k + 1 reads phi2, row beside it or not
        runs = []
        for lanes in (1, 2):
            monkeypatch.setattr(flow, "LANES", lanes)
            w = dataclasses.replace(w16)
            st0 = init_state("trig", {"a": 0.3, "b": 0.2}, w)
            runs.append(
                run(st0, w, dt=1e-4, t_final=4e-3, snapshot_interval=1e-3, conserve_phi2_mean=True)
            )
        one, two = runs
        assert len(one.series["t"]) == 41 and one.series == two.series
        assert len(one.snapshots) == len(two.snapshots) == 5
        for a, b in zip(one.snapshots, two.snapshots):
            assert a.t == b.t
            for field in ("phi1", "phi2", "dphi1_dt", "dphi2_dt"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert abs(float(a.phi2.mean())) < 1e-15

    @staticmethod
    def _spy_rows(monkeypatch, before=None):
        """Patch flow._series_row to log each row; before(i) runs first.

        Each entry is (thread, errstate, t of the row's state, t of the
        derive_state whose hand-out the row ran in, or None outside one).
        """
        rows = []
        deriving = []  # the time of the derive_state in progress
        row_, derive_state_ = flow._series_row, flow.derive_state

        def spy(state, w, pre):
            inside = deriving[-1] if deriving else None
            rows.append((threading.current_thread(), np.geterr(), state.t, inside))
            if before is not None:
                before(len(rows) - 1)
            return row_(state, w, pre)

        def derive(phi1, phi2, t, w, beside=None):
            deriving.append(t)
            try:
                return derive_state_(phi1, phi2, t, w, beside=beside)
            finally:
                deriving.pop()

        monkeypatch.setattr(flow, "_series_row", spy)
        monkeypatch.setattr(flow, "derive_state", derive)
        return rows

    @staticmethod
    def _assert_rows_beside_steps(rows, times):
        """Row k ran inside step k + 1's hand-out, in step order; the last one after it."""
        assert [t for _, _, t, _ in rows] == list(times)
        assert [inside for _, _, _, inside in rows] == [*times[1:], None]

    def test_series_keeps_step_order_under_thread_switches(self, w16, monkeypatch):
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w16)
        rows = self._spy_rows(monkeypatch)

        def series(lanes):
            monkeypatch.setattr(flow, "LANES", lanes)
            w = dataclasses.replace(w16)
            return run(st0, w, dt=1e-4, t_final=4e-3, snapshot_interval=4e-3).series

        inline = series(1)
        assert {thread for thread, *_ in rows} == {threading.current_thread()}
        self._assert_rows_beside_steps(rows, inline["t"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                rows.clear()
                assert series(2) == inline
                self._assert_rows_beside_steps(rows, inline["t"])
                assert rows[-1][0] is threading.current_thread()  # the final row, after march
        finally:
            sys.setswitchinterval(interval)
        assert len(inline["t"]) == 41 and np.all(np.diff(inline["t"]) > 0)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_raising_row_propagates_from_run(self, w16, monkeypatch, lanes):
        monkeypatch.setattr(flow, "LANES", lanes)
        w = dataclasses.replace(w16)
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        active = []

        def before(k):
            if k == 3:
                active.append(k)
                time.sleep(0.05)  # the other lane finishes its slab first
                active.remove(k)
                raise ValueError("row of state 3")

        rows = self._spy_rows(monkeypatch, before)
        with pytest.raises(ValueError, match="row of state 3") as err:
            run(st0, w, dt=1e-4, t_final=2e-3, snapshot_interval=2e-3)
        assert "run" in [entry.name for entry in err.traceback]
        assert len(rows) == 4  # no row runs after the one that raised
        assert active == []  # the row had ended before run raised
        assert rows[3][3] == rows[3][2] + 1e-4  # inside step 4's hand-out
        if lanes == 1:
            assert {thread for thread, *_ in rows} == {threading.current_thread()}
            assert w.slab_workspace._pool is None
        else:
            # the worker is idle: a fresh job starts at once
            worker = w.slab_workspace._pool.submit(threading.current_thread).result(timeout=5)
            assert worker.name.startswith("singflow-lane")
            assert {thread for thread, *_ in rows} <= {threading.current_thread(), worker}

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_blowup_with_a_row_in_flight_keeps_its_payload(self, w16, monkeypatch, lanes):
        # step 3's heat solves return inf; the rows are slow, so a row that
        # ran beside step 3's field updates would still be running when it failed
        monkeypatch.setattr(flow, "LANES", lanes)
        w = dataclasses.replace(w16)
        dt = 1e-3
        st0 = init_state("trig", {"a": 0.3, "b": 0.2}, w)
        states = []
        march(st0, w, dt=dt, t_final=2 * dt, step_callback=states.append)
        solves = itertools.count()
        poisoned_from = 0  # the first heat solve that returns inf
        heat_solve_ = flow.heat_solve

        def heat_solve(f, factor, spec, out):
            heat_solve_(f, factor, spec, out)
            if next(solves) >= poisoned_from:
                out[...] = np.inf
            return out

        monkeypatch.setattr(flow, "heat_solve", heat_solve)
        with np.errstate(all="ignore"):
            with pytest.raises(FlowBlowupError) as expected:
                step(states[2], w, dt, step_index=3)
            started, finished = [], []

            def before(k):
                started.append(k)
                time.sleep(0.2)
                finished.append(k)

            self._spy_rows(monkeypatch, before)
            solves, poisoned_from = itertools.count(), 4  # steps 1 and 2 solve twice each
            with pytest.raises(FlowBlowupError) as err:
                run(st0, w, dt=dt, t_final=5 * dt, snapshot_interval=5 * dt)
        # rows 0 and 1 had ended before run raised; row 2 never ran
        assert started == finished == [0, 1]
        assert err.traceback[-1].name == "step"
        payload = [
            (e.step, e.t, e.max_phi1, e.max_phi2, e.max_drift, str(e))
            for e in (err.value, expected.value)
        ]
        assert payload[0] == payload[1]
        assert payload[0][:2] == (3, states[2].t)

    def test_a_raising_derive_state_waits_for_the_row_in_flight(self, w16, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        w = dataclasses.replace(w16)
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        started, finished = [], []
        row2_started = threading.Event()
        stencils = itertools.count()
        slab_stencil_ = flow.slab_stencil

        def before(k):
            started.append(k)
            if k == 2:
                row2_started.set()
            time.sleep(0.2)  # still running when the slab raises
            finished.append(k)

        def stencil(*args, **kwargs):
            # one slab, two stencils per derive_state: call 4 is step 3's slab,
            # on the other lane from row 2, so it waits for the row to start
            if next(stencils) == 4:
                assert row2_started.wait(20)
                raise KeyboardInterrupt
            return slab_stencil_(*args, **kwargs)

        self._spy_rows(monkeypatch, before)
        monkeypatch.setattr(flow, "slab_stencil", stencil)
        with pytest.raises(KeyboardInterrupt):
            run(st0, w, dt=1e-4, t_final=1e-3, snapshot_interval=1e-3)
        assert started == finished == [0, 1, 2]  # row 2 had ended before run raised

    @pytest.mark.parametrize("mode", ["ignore", "warn"])
    def test_errstate_holds_inside_the_row_on_either_lane(self, w16, monkeypatch, mode):
        monkeypatch.setattr(flow, "LANES", 2)
        w = dataclasses.replace(w16)
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        rows = self._spy_rows(monkeypatch)
        # each heat solve waits for the other, so the worker takes one per step
        both_solving = threading.Barrier(2, timeout=20)
        solves = []
        heat_solve_ = flow.heat_solve

        def heat_solve(*args):
            solves.append((threading.current_thread(), np.geterr()))
            both_solving.wait()
            return heat_solve_(*args)

        monkeypatch.setattr(flow, "heat_solve", heat_solve)
        with np.errstate(all=mode):
            traj = run(st0, w, dt=1e-4, t_final=1e-3, snapshot_interval=1e-3)
        assert len(rows) == 11
        self._assert_rows_beside_steps(rows, traj.series["t"])
        assert len({thread for thread, _ in solves}) == 2
        for _, err, *_ in rows + solves:
            assert set(err.values()) == {mode}

    def test_one_row_in_flight_while_the_next_step_runs(self, w16, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        w = dataclasses.replace(w16)
        st0 = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        log = []  # (event, ...) in the order they happened, on either thread
        row_, heat_solve_, derive_state_ = flow._series_row, flow.heat_solve, flow.derive_state

        def row(state, w_, pre):
            log.append(("row", state.t))
            time.sleep(2e-3)  # longer than a step at n = 16, so rows would pile up if not waited for
            out = row_(state, w_, pre)
            log.append(("row_end", state.t))
            return out

        def heat_solve(*args):
            log.append(("solve",))
            out = heat_solve_(*args)
            log.append(("solve_end",))
            return out

        def derive(phi1, phi2, t, w_, beside=None):
            log.append(("derive", t))
            out = derive_state_(phi1, phi2, t, w_, beside=beside)
            log.append(("derive_end", t))
            return out

        monkeypatch.setattr(flow, "_series_row", row)
        monkeypatch.setattr(flow, "heat_solve", heat_solve)
        monkeypatch.setattr(flow, "derive_state", derive)
        traj = run(st0, w, dt=1e-4, t_final=2e-3, snapshot_interval=2e-3)
        times = traj.series["t"]
        assert len(times) == 21 and [e[1] for e in log if e[0] == "row_end"] == times

        def count(kind, before):  # events of a kind among the first `before` of the log
            return sum(e[0] == kind for e in log[:before])

        for k, t in enumerate(times):
            start, end = log.index(("row", t)), log.index(("row_end", t))
            # row k starts once step k + 1's two field updates have ended ...
            assert count("solve_end", start) == 2 * min(k + 1, 20), k
            # ... and has ended before step k + 2's field updates start
            assert count("solve", end) == 2 * min(k + 1, 20), k
            if k < 20:  # inside step k + 1's derive_state, whose hand-out holds it
                t1 = times[k + 1]
                assert log.index(("derive", t1)) < start and end < log.index(("derive_end", t1)), k
            else:  # the final row, once march has returned
                assert start > log.index(("derive_end", t)), k

    def test_worker_thread_ends_with_its_weight_on_one_slab(self, w16, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        before = set(threading.enumerate())
        w = dataclasses.replace(w16)
        assert len(w.slab_workspace.slabs) == 1 and len(w.slab_workspace.lanes) == 2
        st0 = init_state("trig", {"a": 0.1, "b": 0.1}, w)
        assert not set(threading.enumerate()) - before  # one slab: init_state starts no thread
        run(st0, w, dt=1e-4, t_final=1e-3, snapshot_interval=1e-3)  # the first step starts the worker
        (worker,) = set(threading.enumerate()) - before
        assert worker.name.startswith("singflow-lane")
        del w
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_check_bochner_same_for_any_lane_count(self, monkeypatch):
        from singflow.config import parse_config
        from singflow.verify import check_bochner

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = dataclasses.replace(parse_config(os.path.join(root, "configs", "acceptance.cfg")), n=8)
        measured = []
        # one-plane slabs give both grids of the pair (n = 8 and 16) many slabs to share out
        for lanes, slab_nodes in ((1, flow.SLAB_NODES), (1, 64), (2, 64)):
            monkeypatch.setattr(flow, "LANES", lanes)
            monkeypatch.setattr(flow, "SLAB_NODES", slab_nodes)
            measured.append([v["measured"] for v in check_bochner(cfg)])
        assert measured[0] == measured[1] == measured[2]

    def test_step_completes_while_the_worker_lane_is_blocked(self, w16, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        monkeypatch.setattr(flow, "SLAB_NODES", 256)  # one-plane slabs at n = 16
        w = dataclasses.replace(w16)
        st = init_state("poly_cutoff+trig", {"c": 0.5, "a": 0.1, "b": 0.1}, w)
        expected = step(st, w, 1e-4)  # also starts the worker lane's pool
        assert len(w.slab_workspace.lanes) == 2

        release = threading.Event()
        blocker = w.slab_workspace._pool.submit(release.wait, 20)
        solved_on = []
        heat_solve_ = flow.heat_solve

        def spy(*args):
            solved_on.append(threading.current_thread())
            return heat_solve_(*args)

        monkeypatch.setattr(flow, "heat_solve", spy)
        try:
            got = step(st, w, 1e-4)
            assert not blocker.done()  # the step did not wait for the worker
        finally:
            release.set()
        assert blocker.result(timeout=20) is True
        assert solved_on == [threading.current_thread()] * 2
        for field in dataclasses.fields(StepState):
            assert np.array_equal(getattr(got, field.name), getattr(expected, field.name)), field.name
        assert got.t == expected.t

    def test_worker_thread_ends_with_its_weight(self, w16, monkeypatch):
        monkeypatch.setattr(flow, "LANES", 2)
        monkeypatch.setattr(flow, "SLAB_NODES", 256)
        before = set(threading.enumerate())
        w = dataclasses.replace(w16)
        init_state("trig", {"a": 0.1, "b": 0.1}, w)  # derive_state starts the worker lane
        (worker,) = set(threading.enumerate()) - before
        assert worker.name.startswith("singflow-lane")
        del w
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_blowup_at_n64_is_raised_on_the_calling_thread(self, monkeypatch):
        w64 = _weight(64)
        st = init_state("trig", {"a": 0.3, "b": 0.2}, w64)
        st = FlowState(st.phi1, st.phi2 * 1e308, 0.25, st.dphi1_dt, st.dphi2_dt)
        errors = []
        for lanes in (1, 2):
            monkeypatch.setattr(flow, "LANES", lanes)
            w = dataclasses.replace(w64)
            with pytest.raises(FlowBlowupError) as err, warnings.catch_warnings():
                # the worker lane runs under the caller's errstate, so it warns no more than one lane
                warnings.simplefilter("error")
                with np.errstate(all="ignore"):
                    step(st, w, 1e-3, step_index=7)
            assert len(w.slab_workspace.lanes) == lanes
            assert err.traceback[-1].name == "step"
            errors.append(err.value)
        payload = [(e.step, e.t, e.max_phi1, e.max_phi2, e.max_drift, str(e)) for e in errors]
        assert payload[0] == payload[1]
        assert payload[0][:2] == (7, 0.25)
