import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from oracles import (
    GalerkinStates,
    continuum_symbol,
    energy_estimate_loop,
    grad_symbol,
    linearized_imex_states,
    mode_wavevector,
    poincare_ratio,
    project_onto_basis,
    row_by_row_matrices,
    state_weak_residual,
    weighted_norm_check,
)

from singflow import flow
from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve
from singflow.operators import exact_inner, gradient, grid_inner, stencil_symbol
from singflow.spectral import (
    Forcing,
    GalerkinSystem,
    OdeBlowupError,
    assemble_galerkin,
    build_basis,
    build_weighted_basis,
    energy_estimate_lhs,
    energy_estimate_rhs,
    integrate_ode,
    reconstruct,
    step_times,
    weak_residual,
)
from singflow.weight import build_weight, weight_power


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(16, 1.0)


@pytest.fixture(scope="module")
def w16(grid):
    rho = distance_to_curve(grid, CurveGamma.axis_line(0.5, 0.5))
    return build_weight(rho, alpha=1.5)


def smooth_phi0(grid, amp1=0.1, amp2=0.2):
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    phi0_1 = amp1 * np.sin(2 * np.pi * x3) * np.sin(2 * np.pi * x1)
    phi0_2 = amp2 * (np.cos(2 * np.pi * x2) + 0.5 * np.sin(2 * np.pi * x1))
    return phi0_1, phi0_2


def forcing(grid, rho_field):
    # f1 vanishes near the curve like rho^2.5 (gamma in (2+beta, 2 alpha)),
    # matching the data class of the linearized problem
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    damp = rho_field.rho_unclamped**2.5
    f1 = Forcing([(damp * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x3), lambda t: math.exp(-t))])
    f2 = Forcing([(np.cos(2 * np.pi * x2), lambda t: 1.0 + 0.3 * math.sin(3.0 * t))])
    return f1, f2


def zero_forcing(grid):
    return Forcing([(np.zeros(grid.shape), lambda t: 1.0)])


def pairwise_sum_depth(n: int) -> int:
    """Additions on the longest path of numpy's pairwise sum of n contiguous values.

    Below 8 values one running sum; up to 128, eight running sums of n // 8
    values combined in three levels, then the rest of n % 8 added one by
    one; above, two halves (the first a multiple of 8) added together. One
    more counts the reduction adding that sum to its first value.
    """

    def depth(k):
        if k < 8:
            return k
        if k <= 128:
            return k // 8 - 1 + 3 + k % 8
        half = k // 2 - (k // 2) % 8
        return 1 + max(depth(half), depth(k - half))

    return 1 + max(depth(n), depth(n - 1))


class TestBasis:
    def test_first_mode_constant_zero_eigenvalue(self, grid):
        basis = build_basis(grid, 5)
        assert mode_wavevector(basis.fields[0], grid) == (0, 0, 0)
        assert np.allclose(basis.fields[0], 1.0)

    def test_first_nonzero_eigenvalue(self, grid):
        basis = build_basis(grid, 8)
        k = mode_wavevector(basis.fields[1], grid)
        assert continuum_symbol(k, grid) == pytest.approx(4 * np.pi**2, rel=1e-13)
        s = grid.spacing
        assert stencil_symbol(k, grid) == pytest.approx(
            (2 / s**2) * (1 - np.cos(2 * np.pi * s)), rel=1e-13
        )

    def test_orthonormal_gram(self, grid):
        basis = build_basis(grid, 16)
        vol = grid.cell_volume
        N = basis.size
        gram = vol * basis.fields.reshape(N, -1) @ basis.fields.reshape(N, -1).T
        assert np.max(np.abs(gram - np.eye(N))) < 1e-12

    def test_discrete_eigenfunction_property(self, grid):
        from singflow.operators import laplacian

        basis = build_basis(grid, 10)
        for f in basis.fields:
            lam = stencil_symbol(mode_wavevector(f, grid), grid)
            err = laplacian(f, grid.spacing) + lam * f
            assert np.max(np.abs(err)) < 1e-8 * max(lam, 1.0)

    def test_ordering_deterministic(self, grid):
        b1 = build_basis(grid, 12)
        b2 = build_basis(grid, 12)
        assert np.array_equal(b1.fields, b2.fields)
        lams = [continuum_symbol(mode_wavevector(f, grid), grid) for f in b1.fields]
        assert lams == sorted(lams)

    def test_rejects_bad_N(self, grid):
        with pytest.raises(ValueError):
            build_basis(grid, 0)


class TestWeightedBasis:
    def test_unit_weighted_norm(self, grid, w16):
        _, phi0_2 = smooth_phi0(grid)
        basis = build_basis(grid, 8)
        wb = build_weighted_basis(basis, w16, phi0_2)
        norms = weighted_norm_check(wb, w16, phi0_2)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


def brute_force_matrices(system: GalerkinSystem):
    """Nested-loop quadrature oracle for the four Galerkin matrices."""
    w = system.weight
    grid = w.grid
    vol = grid.cell_volume
    s = grid.spacing
    N = system.N
    wtil = weight_power(w, -2.0 * w.alpha) * np.exp(-2.0 * system.phi0_2)
    g0 = gradient(system.phi0_1, s)
    g0sq = np.sum(g0 * g0, axis=0)

    psi2 = system.basis.fields
    gpsi2 = system.basis.grads
    psi1 = system.wbasis.fields
    gpsi1 = system.wbasis.grads

    A = np.zeros((N, N))
    B = np.zeros((N, N))
    C = np.zeros((N, N))
    D = np.zeros((N, N))
    for m in range(N):
        for l in range(N):
            a_terms, b_terms, c_terms, d_terms = [], [], [], []
            for idx in np.ndindex(grid.shape):
                wt = wtil[idx]
                ga = sum(gpsi1[l][ax][idx] * gpsi1[m][ax][idx] for ax in range(3))
                a_terms.append(wt * ga)
                gb = sum(g0[ax][idx] * gpsi2[l][ax][idx] for ax in range(3))
                b_terms.append(2.0 * gb * wt * psi1[m][idx])
                gc = sum(gpsi2[l][ax][idx] * gpsi2[m][ax][idx] for ax in range(3))
                c_terms.append(2.0 * wt * g0sq[idx] * psi2[l][idx] * psi2[m][idx] + gc)
                gd = sum(g0[ax][idx] * gpsi1[l][ax][idx] for ax in range(3))
                d_terms.append(-2.0 * wt * gd * psi2[m][idx])
            A[m, l] = math.fsum(a_terms) * vol
            B[m, l] = math.fsum(b_terms) * vol
            C[m, l] = math.fsum(c_terms) * vol
            D[m, l] = math.fsum(d_terms) * vol
    return A, B, C, D


def exact_inner_matrices(system: GalerkinSystem):
    """The four Galerkin matrices entry by entry through `exact_inner`, and for
    each entry the grid sum of the absolute values of the same products (the
    scale that bounds the rounding of any summation order)."""
    w = system.weight
    vol = w.grid.cell_volume
    wtil = w.metric_weight(system.phi0_2)
    g0 = gradient(system.phi0_1, w.grid.spacing)
    g0_sq = np.sum(g0 * g0, axis=0)
    psi2, gpsi2 = system.basis.fields, system.basis.grads
    psi1, gpsi1 = system.wbasis.fields, system.wbasis.grads
    ones = np.ones(w.grid.shape)
    N = system.N
    exact = np.empty((4, N, N))
    scale = np.empty((4, N, N))

    def entry(f, g):
        return exact_inner(f, g, vol), float(np.sum(np.abs(f * g))) * vol

    for m in range(N):
        for l in range(N):
            a = entry(wtil * np.sum(gpsi1[l] * gpsi1[m], axis=0), ones)
            b = entry(2.0 * np.sum(g0 * gpsi2[l], axis=0), wtil * psi1[m])
            c_mass = entry(wtil * g0_sq * psi2[l], psi2[m])
            c_grad = entry(np.sum(gpsi2[l] * gpsi2[m], axis=0), ones)
            c = (2.0 * c_mass[0] + c_grad[0], 2.0 * c_mass[1] + c_grad[1])
            d = entry(-2.0 * wtil * np.sum(g0 * gpsi1[l], axis=0), psi2[m])
            exact[:, m, l], scale[:, m, l] = zip(a, b, c, d)
    return exact, scale


def rk4_oracle(system: GalerkinSystem, T: float, dt: float):
    """Tiny-step classical RK4 on the same 2N system with interpolated loads."""
    N = system.N
    M = np.zeros((2 * N, 2 * N))
    M[:N, :N] = system.A
    M[:N, N:] = system.B
    M[N:, N:] = system.C
    M[N:, :N] = system.D

    def load(t):
        out = np.empty(2 * N)
        for m in range(N):
            out[m] = np.interp(t, system.times, system.F1[:, m])
            out[N + m] = np.interp(t, system.times, system.F2[:, m])
        return out

    def rhs(t, c):
        return load(t) - M @ c

    steps = int(round(T / dt))
    c = np.zeros(2 * N)
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, c)
        k2 = rhs(t + dt / 2, c + dt / 2 * k1)
        k3 = rhs(t + dt / 2, c + dt / 2 * k2)
        k4 = rhs(t + dt, c + dt * k3)
        c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return c


def loop_weak_residual(states, system, f1, f2, test_functions=None):
    """Entry-by-entry weak residual: (defect, rows) with one grid sum per
    stiffness entry on the reconstructed states. Holds the coefficient path
    of `weak_residual` to this loop."""
    grid = system.weight.grid
    vol = grid.cell_volume
    s = grid.spacing
    wtil = system.weight.metric_weight(system.phi0_2)
    g0 = gradient(system.phi0_1, s)
    g0_sq = np.sum(g0 * g0, axis=0)
    test_basis, test_wbasis = test_functions or (system.basis, system.wbasis)
    N = test_basis.size
    wpsi1 = (wtil[None] * test_wbasis.fields).reshape(N, -1)
    psi2 = test_basis.fields.reshape(N, -1)
    ones = np.ones(grid.shape)

    rows, times = [], []
    for t, k1, k2 in states:
        gk1 = gradient(k1, s)
        gk2 = gradient(k2, s)
        mass1 = vol * wpsi1 @ k1.ravel()
        mass2 = vol * psi2 @ k2.ravel()
        stiff1 = vol * np.array(
            [grid_inner(wtil * np.sum(gk1 * test_wbasis.grads[m], axis=0), ones, 1.0) for m in range(N)]
        )
        coup1 = vol * wpsi1 @ (2.0 * np.sum(g0 * gk2, axis=0)).ravel()
        load1 = vol * wpsi1 @ f1(float(t)).ravel()
        stiff2 = vol * np.array(
            [grid_inner(np.sum(gk2 * test_basis.grads[m], axis=0), ones, 1.0) for m in range(N)]
        )
        coup2 = vol * psi2 @ (2.0 * wtil * g0_sq * k2 - 2.0 * wtil * np.sum(g0 * gk1, axis=0)).ravel()
        load2 = vol * psi2 @ f2(float(t)).ravel()
        rows.append(np.concatenate([mass1, stiff1 + coup1 - load1, mass2, stiff2 + coup2 - load2]))
        times.append(t)

    rows = np.asarray(rows)
    times = np.asarray(times)
    n_steps = len(times) - 1
    defect = 0.0
    for idx in np.unique(np.linspace(1, n_steps, min(8, n_steps)).astype(int)):
        tt = times[: idx + 1]
        id1 = rows[idx, :N] + np.trapezoid(rows[: idx + 1, N : 2 * N], tt, axis=0)
        id2 = rows[idx, 2 * N : 3 * N] + np.trapezoid(rows[: idx + 1, 3 * N :], tt, axis=0)
        defect = max(defect, float(np.max(np.abs(id1))), float(np.max(np.abs(id2))))
    return defect, rows


def scalar_interp_rk4(system, T, dt):
    """RK4 with one scalar np.interp per load entry and visited time."""
    N = system.N
    M = system.block_matrix()
    F = np.concatenate([system.F1, system.F2], axis=1)

    def load(t):
        return np.array([np.interp(t, system.times, F[:, j]) for j in range(2 * N)])

    c = np.zeros(2 * N)
    t = 0.0
    for _ in range(int(round(T / dt))):
        k1 = load(t) - M @ c
        k2 = load(t + dt / 2) - M @ (c + dt / 2 * k1)
        k3 = load(t + dt / 2) - M @ (c + dt / 2 * k2)
        k4 = load(t + dt) - M @ (c + dt * k3)
        c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return c


@pytest.fixture(scope="module")
def system4(grid, w16):
    phi0_1, phi0_2 = smooth_phi0(grid)
    basis = build_basis(grid, 4)
    f1, f2 = forcing(grid, w16.rho)
    return assemble_galerkin(phi0_1, phi0_2, w16, basis, f1, f2, T=0.3, dt=1e-3)


class TestAssembly:
    def test_zero_phi1_decouples(self, grid, w16):
        _, phi0_2 = smooth_phi0(grid)
        basis = build_basis(grid, 6)
        f1, f2 = forcing(grid, w16.rho)
        sys0 = assemble_galerkin(np.zeros(grid.shape), phi0_2, w16, basis, f1, f2, T=0.1, dt=0.1)
        assert np.max(np.abs(sys0.B)) < 1e-14
        assert np.max(np.abs(sys0.D)) < 1e-14
        lam_grad = np.array([grad_symbol(mode_wavevector(f, grid), grid) for f in basis.fields])
        off_diag = sys0.C - np.diag(np.diag(sys0.C))
        assert np.max(np.abs(off_diag)) < 1e-10
        assert np.max(np.abs(np.diag(sys0.C) - lam_grad)) < 1e-9 * max(lam_grad.max(), 1.0)

    def test_A_symmetric_psd(self, system4):
        assert np.max(np.abs(system4.A - system4.A.T)) <= 1e-12
        eig = np.linalg.eigvalsh(0.5 * (system4.A + system4.A.T))
        assert eig.min() > -1e-10

    def test_matrices_match_brute_force(self, system4):
        A, B, C, D = brute_force_matrices(system4)
        for got, want in ((system4.A, A), (system4.B, B), (system4.C, C), (system4.D, D)):
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("N", [4, 8])
    def test_matrices_match_exact_inner_to_rounding(self, grid, w16, N):
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sysN = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, N), f1, f2, T=0.1, dt=0.1)
        # a summation order other than fsum's moves an entry by a few eps times
        # the sum of its |products|; D at N = 4 cancels 31-fold, so a bound in
        # ulps of the largest entry would reject round-off
        exact, scale = exact_inner_matrices(sysN)
        for got, want, size in zip((sysN.A, sysN.B, sysN.C, sysN.D), exact, scale):
            assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps * size)

    @pytest.mark.parametrize("N", [1, 3, 4, 5, 8, 16])
    def test_matrices_match_row_by_row_bitwise(self, grid, w16, N):
        # A and the gradient part of C are summed for l >= m only and mirrored;
        # every pointwise product commutes, so the mirror keeps the bits of the
        # entry summed on its own. The products are formed in blocks of
        # ceil(N / 4) rows: N = 1, 3 and 4 give one-row blocks, 5 a short last block
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sysN = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, N), f1, f2, T=0.1, dt=0.1)
        for got, want in zip((sysN.A, sysN.B, sysN.C, sysN.D), row_by_row_matrices(sysN)):
            assert np.array_equal(got, want)
        assert np.array_equal(sysN.A, sysN.A.T)

    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("count", ["1", "N", "N+1", "301"])
    def test_loads_match_exact_inner_to_rounding(self, grid, w16, N, count):
        # one sample time, N and N + 1 of them, and 301
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        samples = {"1": 1, "N": N, "N+1": N + 1, "301": 301}[count]
        T, dt = (0.3, 0.3 / (samples - 1)) if samples > 1 else (0.0, 0.3)
        sysN = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, N), f1, f2, T, dt)
        times = step_times(T, dt)
        assert len(times) == samples
        assert np.array_equal(sysN.times, times)
        vol = grid.cell_volume
        wpsi1 = w16.metric_weight(phi0_2) * sysN.wbasis.fields
        # a load entry is p(t) * (vol * S), S numpy's pairwise sum of the n^3
        # products row * space; the reference sums row * (space * p(t)) by
        # fsum. With u = eps / 2 and h the additions on the longest path of
        # the pairwise sum, the two differ by at most (gamma_{h+3} + gamma_4)
        # times the sum of |products|, and one more u covers the rounding of
        # that sum: (h + 8) u, 16 eps at n = 16. An entry from the wrong time
        # or test field misses by far more
        u = np.finfo(float).eps / 2
        bound = (pairwise_sum_depth(grid.n**3) + 8) * u
        for F, f, rows in ((sysN.F1, f1, wpsi1), (sysN.F2, f2, sysN.basis.fields)):
            assert F.shape == (len(times), N)
            for it, t in enumerate(times):
                field = f(float(t))
                for m in range(N):
                    size = float(np.sum(np.abs(rows[m] * field))) * vol
                    assert abs(F[it, m] - exact_inner(rows[m], field, vol)) <= bound * size

    def test_loads_and_residual_read_the_terms_not_the_field(self, grid, w16, monkeypatch):
        # each profile is called once per sample time, and no forcing is
        # evaluated on the grid
        calls = []

        def counted(name, profile):
            return lambda t: calls.append((name, t)) or profile(t)

        base1, base2 = forcing(grid, w16.rho)
        ((space1, p1),) = base1.terms
        ((space2, p2),) = base2.terms
        f1 = Forcing([(space1, counted("f1", p1))])
        steady = (np.ones(grid.shape), counted("f2 steady", lambda t: 0.5))
        f2 = Forcing([(space2, counted("f2", p2)), steady])

        def no_call(self, t):
            raise AssertionError("a forcing was evaluated on the grid")

        monkeypatch.setattr(Forcing, "__call__", no_call)
        phi0_1, phi0_2 = smooth_phi0(grid)
        sysA = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, 4), f1, f2, T=0.02, dt=1e-3)
        assert len(sysA.times) == 21
        want = sorted((name, float(t)) for name in ("f1", "f2", "f2 steady") for t in sysA.times)
        assert sorted(calls) == want
        integrate_ode(sysA)
        calls.clear()
        assert weak_residual(sysA) <= 1e-6
        assert sorted(calls) == want
        assert all(type(t) is float for _, t in calls)


class TestLanes:
    """The assembly's blocks give the same bits on one lane or two.

    A workspace reads LANES when it is built, so each case builds a fresh
    weight (dataclasses.replace starts with an empty cache).
    """

    @staticmethod
    def assemble(grid, w, N):
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w.rho)
        steady = (np.ones(grid.shape), lambda t: 0.5)  # a second load term
        f2 = Forcing([*f2.terms, steady])
        return assemble_galerkin(phi0_1, phi0_2, w, build_basis(grid, N), f1, f2, T=0.02, dt=1e-3)

    @pytest.mark.parametrize("N", [1, 5, 16])
    def test_one_and_two_lanes_give_the_same_bits(self, grid, w16, monkeypatch, N):
        got = {}
        for lanes in (1, 2):
            monkeypatch.setattr(flow, "LANES", lanes)
            w = dataclasses.replace(w16)
            got[lanes] = self.assemble(grid, w, N)
            assert len(w.slab_workspace.lanes) == lanes
        for name in ("A", "B", "C", "D", "F1", "F2"):
            assert np.array_equal(getattr(got[1], name), getattr(got[2], name)), name

    def test_both_lanes_take_blocks(self, grid, w16, monkeypatch):
        # a tiny switch interval makes the lanes interleave inside the hand-out
        monkeypatch.setattr(flow, "LANES", 1)
        expected = self.assemble(grid, dataclasses.replace(w16), 16)
        monkeypatch.setattr(flow, "LANES", 2)
        w = dataclasses.replace(w16)
        ws = w.slab_workspace
        map_ = ws.map
        threads, lanes_used = set(), set()

        def recording_map(work, items):
            def recorded(item, lane):
                threads.add(threading.current_thread())
                lanes_used.add(id(lane))
                time.sleep(1e-4)  # lets the other lane in
                return work(item, lane)

            return map_(recorded, items)

        ws.map = recording_map
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.assemble(grid, w, 16)
        finally:
            sys.setswitchinterval(interval)
        assert lanes_used == {id(lane) for lane in ws.lanes}
        assert len(threads) == 2
        for name in ("A", "B", "C", "D", "F1", "F2"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name


class TestIntegration:
    def test_zero_forcing_stays_zero(self, grid, w16):
        phi0_1, phi0_2 = smooth_phi0(grid)
        basis = build_basis(grid, 4)
        zero = zero_forcing(grid)
        sys0 = assemble_galerkin(phi0_1, phi0_2, w16, basis, zero, zero, T=0.5, dt=1e-3)
        integrate_ode(sys0)
        assert np.max(np.abs(sys0.C1)) == 0.0
        assert np.max(np.abs(sys0.C2)) == 0.0

    def test_scalar_trapezoid_closed_form(self):
        # c' + lam c = 1, c(0) = 0 has c(t) = (1 - e^{-lam t})/lam; set up a
        # 1x1 "system" through the same integrator
        times = step_times(1.0, 1e-4)
        for lam in (0.7, 1.0, 2.3):
            sys1 = GalerkinSystem(
                basis=None, wbasis=None, weight=None,  # unused by the integrator
                phi0_1=None, phi0_2=None, f1=None, f2=None,
                A=np.array([[lam]]), B=np.zeros((1, 1)),
                C=np.array([[1.0]]), D=np.zeros((1, 1)),
                dt=1e-4, times=times,
                F1=np.ones((len(times), 1)), F2=np.zeros((len(times), 1)),
            )
            integrate_ode(sys1)
            t = sys1.times
            exact = (1.0 - np.exp(-lam * t)) / lam
            assert np.max(np.abs(sys1.C1[:, 0] - exact)) < 1e-8

    def test_matches_rk4_oracle(self, grid, w16):
        # the loads sampled at the ODE's 2e-4 steps; the oracle interpolates them
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sys4 = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, 4), f1, f2, T=0.3, dt=2e-4)
        integrate_ode(sys4)
        oracle = rk4_oracle(sys4, T=0.3, dt=1e-5)
        got = np.concatenate([sys4.C1[-1], sys4.C2[-1]])
        assert np.max(np.abs(got - oracle)) < 1e-6

    def test_battery_rk4_reference_matches_scalar_interp(self, system4):
        from singflow.verify import _rk4_loads, _rk4_reference

        T, dt = 0.01, 1e-4
        assert np.array_equal(_rk4_reference(system4, T, dt), scalar_interp_rk4(system4, T, dt))
        F = np.concatenate([system4.F1, system4.F2], axis=1)
        table = _rk4_loads(system4, T, dt)
        assert table.shape == (100, 3, 2 * system4.N)
        t = 0.0
        for row in table:
            for load, tj in zip(row, (t, t + dt / 2, t + dt)):
                assert np.array_equal(load, [np.interp(tj, system4.times, col) for col in F.T])
            t += dt

    def test_blowup_reported(self):
        # A close to -2/dt: the trapezoidal growth factor is ~ -4e7 per step
        times = step_times(10.0, 0.025)
        sys_bad = GalerkinSystem(
            basis=None, wbasis=None, weight=None, phi0_1=None, phi0_2=None, f1=None, f2=None,
            A=np.array([[-80.0000004]]), B=np.zeros((1, 1)),
            C=np.array([[1.0]]), D=np.zeros((1, 1)),
            dt=0.025, times=times,
            F1=np.ones((len(times), 1)), F2=np.zeros((len(times), 1)),
        )
        with pytest.raises(OdeBlowupError) as err:
            with np.errstate(all="ignore"):
                integrate_ode(sys_bad)
        assert err.value.step >= 1


class TestReconstruct:
    def test_zero_coefficients(self, system4):
        integrate_ode(system4)
        k1, k2 = reconstruct(system4, system4.C1[0], system4.C2[0])
        assert np.max(np.abs(k1)) == 0.0
        assert np.max(np.abs(k2)) == 0.0

    def test_single_unit_coefficient(self, system4):
        system4.C1 = np.zeros((1, system4.N))
        system4.C2 = np.zeros((1, system4.N))
        system4.C1[0, 2] = 1.0
        k1, k2 = reconstruct(system4, system4.C1[0], system4.C2[0])
        assert np.allclose(k1, system4.wbasis.fields[2])
        assert np.max(np.abs(k2)) == 0.0
        integrate_ode(system4)  # restore for later tests

    def test_galerkin_states_follow_reconstruct(self, system4):
        integrate_ode(system4)
        states = GalerkinStates(system4)
        assert len(states) == len(system4.times) == 301
        count = 0
        for i, (t, k1, k2) in enumerate(states):
            want1, want2 = reconstruct(system4, system4.C1[i], system4.C2[i])
            assert t == float(system4.times[i])
            assert np.array_equal(k1, want1) and np.array_equal(k2, want2)
            count += 1
        assert count == len(states)

    def test_projection_round_trip(self, system4):
        rng = np.random.default_rng(11)
        c1 = rng.normal(size=system4.N)
        c2 = rng.normal(size=system4.N)
        k1 = np.tensordot(c1, system4.wbasis.fields, axes=(0, 0))
        k2 = np.tensordot(c2, system4.basis.fields, axes=(0, 0))
        p1, p2 = project_onto_basis(system4, k1, k2)
        assert np.max(np.abs(p1 - c1)) < 1e-12
        assert np.max(np.abs(p2 - c2)) < 1e-12


class TestWeakResidual:
    def test_zero_everything(self, grid, w16):
        phi0_1, phi0_2 = smooth_phi0(grid)
        basis = build_basis(grid, 4)
        zero = zero_forcing(grid)
        sys0 = assemble_galerkin(phi0_1, phi0_2, w16, basis, zero, zero, T=0.1, dt=1e-3)
        integrate_ode(sys0)
        assert weak_residual(sys0) == 0.0

    def test_galerkin_solution_satisfies_weak_form(self, grid, w16):
        phi0_1, phi0_2 = smooth_phi0(grid)
        basis = build_basis(grid, 4)
        f1, f2 = forcing(grid, w16.rho)
        sysA = assemble_galerkin(phi0_1, phi0_2, w16, basis, f1, f2, T=0.1, dt=1e-3)
        integrate_ode(sysA)
        defect = weak_residual(sysA)
        assert defect <= 1e-6

    def test_doubling_N_reduces_out_of_span_residual(self, grid, w16):
        # probe both truncations against the same 16-mode test set
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        test_basis = build_basis(grid, 16)
        test_wb = build_weighted_basis(test_basis, w16, phi0_2)
        defects = {}
        for N in (4, 8):
            sysN = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, N), f1, f2, T=0.1, dt=1e-3)
            integrate_ode(sysN)
            defects[N] = weak_residual(sysN, test_functions=(test_basis, test_wb))
        assert defects[8] < defects[4]

    def test_requires_an_integrated_system(self, grid, w16):
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sysA = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, 4), f1, f2, T=0.0, dt=1e-3)
        with pytest.raises(ValueError, match="integrate_ode must run"):
            weak_residual(sysA)

    @pytest.mark.parametrize("name", ["C1", "C2"])
    def test_perturbed_coefficients_between_checks_raise_defect(self, grid, w16, name):
        # the check steps of 101 states are 1, 15, 29, ..., 100: step 5 enters
        # the identities only through the time integrals of the coefficients
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sysA = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, 4), f1, f2, T=0.1, dt=1e-3)
        integrate_ode(sysA)
        clean = weak_residual(sysA)
        C = getattr(sysA, name)
        C[5, 1] += 1e-2 * np.max(np.abs(C))
        assert weak_residual(sysA) >= 1000.0 * clean

    @pytest.mark.parametrize(
        "T, wider_tests",
        [(0.02, False), (0.02, True), (0.1, False), (0.1, True)],
        ids=["False", "True", "False-101-states", "True-101-states"],  # 21 states unless named
    )
    def test_matches_entry_by_entry_loop(self, grid, w16, T, wider_tests):
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sysA = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, 4), f1, f2, T=T, dt=1e-3)
        integrate_ode(sysA)
        tests = None
        if wider_tests:
            test_basis = build_basis(grid, 8)
            tests = (test_basis, build_weighted_basis(test_basis, w16, phi0_2))
        want, rows = loop_weak_residual(GalerkinStates(sysA), sysA, f1, f2, tests)
        got = weak_residual(sysA, test_functions=tests)
        assert abs(got - want) <= 1e-13 * np.max(np.abs(rows))
        # the grid-state oracle that the cross-solver test uses, held to the same loop
        oracle = state_weak_residual(GalerkinStates(sysA), sysA, f1, f2, tests)
        assert abs(oracle - want) <= 1e-13 * np.max(np.abs(rows))

    def test_grid_stepper_cross_solver(self, grid, w16):
        # the linearized grid IMEX solution satisfies the same weak identities
        # up to O(dt^2 + spacing^2)
        phi0_1, phi0_2 = smooth_phi0(grid)
        basis = build_basis(grid, 4)
        f1, f2 = forcing(grid, w16.rho)
        dt = 1e-4  # explicit drift under CN diffusion needs dt well below 2/max|v|^2
        sysA = assemble_galerkin(phi0_1, phi0_2, w16, basis, f1, f2, T=0.1, dt=dt)
        states = list(linearized_imex_states(phi0_1, phi0_2, w16, f1, f2, T=0.1, dt=dt))
        defect = state_weak_residual(states, sysA, f1, f2)
        # scale set by the load size ~ O(1); constant measured at n in {8,16}
        assert defect <= 50.0 * (dt**2 + grid.spacing**2)


class TestEnergyEstimate:
    def test_ratio_finite_and_stable_in_N(self, grid, w16):
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        ratios = []
        for N in (4, 8, 16):
            basis = build_basis(grid, N)
            sysN = assemble_galerkin(phi0_1, phi0_2, w16, basis, f1, f2, T=0.3, dt=2e-3)
            integrate_ode(sysN)
            lhs = energy_estimate_lhs(sysN)
            rhs = energy_estimate_rhs(w16, f1, f2, sysN.times)
            assert np.isfinite(lhs) and rhs > 0
            ratios.append(lhs / rhs)
        assert max(ratios) <= 2.0 * min(ratios)

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_sides_match_the_per_state_loop(self, grid, w16, N):
        phi0_1, phi0_2 = smooth_phi0(grid)
        f1, f2 = forcing(grid, w16.rho)
        sysN = assemble_galerkin(phi0_1, phi0_2, w16, build_basis(grid, N), f1, f2, T=0.3, dt=2e-3)
        integrate_ode(sysN)
        got = energy_estimate_lhs(sysN), energy_estimate_rhs(w16, f1, f2, sysN.times)
        want = energy_estimate_loop(sysN, f1, f2)
        for side, reference in zip(got, want):
            assert abs(side - reference) <= 1e-13 * abs(reference)


class TestForcing:
    def test_trig_damped_matches_closed_form(self, grid, w16):
        from singflow.spectral import galerkin_forcing

        f1, f2 = galerkin_forcing("trig_damped", grid, w16.rho)
        x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
        L = grid.length
        damp = w16.rho.rho_unclamped**2.5
        for t in (0.0, 0.03, 0.25, 1.7):
            want1 = damp * np.sin(2 * np.pi * x1 / L) * np.cos(2 * np.pi * x3 / L) * math.exp(-t)
            want2 = np.cos(2 * np.pi * x2 / L) * (1.0 + 0.3 * math.sin(3.0 * t))
            assert np.array_equal(f1(t), want1)
            assert np.array_equal(f2(t), want2)


class TestPoincare:
    def test_ratio_finite_and_stable(self, grid, w16):
        _, phi0_2 = smooth_phi0(grid)
        rng = np.random.default_rng(4)
        worst = {}
        for N in (4, 8, 16):
            basis = build_basis(grid, N)
            wb = build_weighted_basis(basis, w16, phi0_2)
            vals = []
            for _ in range(10):
                coeffs = rng.normal(size=N)
                vals.append(poincare_ratio(wb, w16, coeffs))
            worst[N] = max(vals)
            assert np.isfinite(worst[N])
        assert max(worst.values()) <= 2.5 * min(worst.values())
