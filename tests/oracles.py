"""Reference code that the tests check the package against.

Nothing in `singflow` calls these functions: each is a slow, independent
route to a quantity the package computes another way (the grid-level
linearized solver against the Galerkin route, the energy against the
per-step series row, the weak residual of grid states against the one of
coefficient integrals), or a diagnostic that backs a test of its own.
"""

from __future__ import annotations

import math

import numpy as np

from singflow.analysis import BoundReport
from singflow.geometry import CurveGamma, TorusGrid, wrap_delta
from singflow.operators import gradient, grid_inner, rfft_wavevectors, stencil_symbol
from singflow.spectral import Basis, GalerkinSystem, reconstruct
from singflow.weight import WeightField, weight_power


def periodic_distance(p, q, L: float) -> float:
    """Distance between two points of the L-periodic 3-torus."""
    d = np.abs(np.asarray(p, dtype=float) % L - np.asarray(q, dtype=float) % L)
    d = np.minimum(d, L - d)
    return float(np.sqrt(np.sum(d * d, axis=-1)))


def curve_projection_coordinate(x, anchor, gamma: CurveGamma, L: float) -> float:
    """Along-Gamma component of the periodic displacement x - anchor.

    The anchor must lie on Gamma. For an axis line this is the wrapped
    |x3 - anchor3|; for a circle it is the arc length between the angular
    projections of x and the anchor.
    """
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if gamma.kind == "axis_line":
        return float(np.abs(wrap_delta(x[2] - anchor[2], L)))
    if gamma.kind == "circle":
        c = np.asarray(gamma.params["center"], dtype=float)
        r = gamma.params["radius"]
        axis = gamma.params["normal_axis"]
        u, v = [ax for ax in range(3) if ax != axis]
        ang_x = np.arctan2(wrap_delta(x[v] - c[v], L), wrap_delta(x[u] - c[u], L))
        ang_a = np.arctan2(wrap_delta(anchor[v] - c[v], L), wrap_delta(anchor[u] - c[u], L))
        dang = np.abs((ang_x - ang_a + np.pi) % (2 * np.pi) - np.pi)
        return float(r * dang)
    raise ValueError(f"unknown curve kind {gamma.kind!r}")


def projection_coordinate_field(grid: TorusGrid, gamma: CurveGamma, anchor) -> np.ndarray:
    """curve_projection_coordinate evaluated at every grid node."""
    anchor = np.asarray(anchor, dtype=float)
    L = grid.length
    if gamma.kind == "axis_line":
        _, _, x3 = grid.coords
        return np.broadcast_to(np.abs(wrap_delta(x3 - anchor[2], L)), grid.shape).copy()
    out = np.empty(grid.shape)
    ax = grid.axis
    for i, xi in enumerate(ax):
        for j, xj in enumerate(ax):
            for k, xk in enumerate(ax):
                out[i, j, k] = curve_projection_coordinate((xi, xj, xk), anchor, gamma, L)
    return out


def barrier_check(
    u_field: np.ndarray,
    rho_field,
    r_coord: np.ndarray,
    gamma: float,
    delta: float,
    alpha: float,
    shell_outer: float | None = None,
) -> BoundReport:
    """Constant C in |u| <= C (rho^gamma + rho^{gamma-delta} r^2) near the curve."""
    if not (2.0 < gamma < 2.0 * alpha):
        raise ValueError("gamma must lie in (2, 2 alpha)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    grid = rho_field.grid
    if shell_outer is None:
        shell_outer = grid.length / 4.0
    rho = rho_field.rho
    near = (rho_field.rho_unclamped > 2.0 * grid.spacing) & (rho_field.rho_unclamped <= shell_outer)
    barrier = rho**gamma + rho ** (gamma - delta) * r_coord**2
    C = float(np.max(np.abs(u_field[near]) / barrier[near]))
    return BoundReport(
        name="barrier_constant",
        left=C,
        right=C,
        tolerance=math.inf,
        extra={"gamma": gamma, "delta": delta, "shell_outer": shell_outer},
    )


def energy_H(phi1: np.ndarray, phi2: np.ndarray, w: WeightField) -> float:
    """Reduced energy: int h^{-2a} e^{-2 phi2} |grad phi1|^2 + |grad phi2|^2."""
    s = w.grid.spacing
    g1 = gradient(phi1, s)
    g2 = gradient(phi2, s)
    wtil = w.metric_weight(phi2)
    density = wtil * np.sum(g1 * g1, axis=0) + np.sum(g2 * g2, axis=0)
    return float(np.sum(density)) * w.grid.cell_volume


def weighted_norm_check(wb: Basis, w: WeightField, phi0_2: np.ndarray) -> np.ndarray:
    """||psi1_m||^2 in L^2(M; h^{-alpha}): should be 1 for every mode."""
    wtil = w.metric_weight(phi0_2)
    vol = w.grid.cell_volume
    return np.array([grid_inner(wtil * f, f, vol) for f in wb.fields])


def project_onto_basis(system: GalerkinSystem, k1: np.ndarray, k2: np.ndarray):
    """Coefficients recovering (k1, k2) from the weighted/plain Gram systems."""
    vol = system.weight.grid.cell_volume
    wtil = system.weight.metric_weight(system.phi0_2)
    N = system.N
    wb = system.wbasis.fields
    gram1 = vol * ((wb.reshape(N, -1) * wtil.ravel()[None]) @ wb.reshape(N, -1).T)
    rhs1 = vol * ((wb.reshape(N, -1) * wtil.ravel()[None]) @ k1.ravel())
    gram2 = vol * (system.basis.fields.reshape(N, -1) @ system.basis.fields.reshape(N, -1).T)
    rhs2 = vol * (system.basis.fields.reshape(N, -1) @ k2.ravel())
    return np.linalg.solve(gram1, rhs1), np.linalg.solve(gram2, rhs2)


def poincare_ratio(wb: Basis, w: WeightField, coeffs: np.ndarray) -> float:
    """(int k1^2 / h^{2a+2}) / (int |grad k1|^2 / h^{2a}) for a reconstruction."""
    vol = w.grid.cell_volume
    k1 = np.tensordot(coeffs, wb.fields, axes=(0, 0))
    gk1 = np.tensordot(coeffs, wb.grads, axes=(0, 0))
    num = grid_inner(weight_power(w, -2 * w.alpha - 2) * k1, k1, vol)
    den = grid_inner(weight_power(w, -2 * w.alpha) * np.sum(gk1 * gk1, axis=0), np.ones(w.grid.shape), vol)
    return num / den


def row_by_row_matrices(system: GalerkinSystem):
    """A, B, C and D of `spectral.assemble_galerkin`, every entry summed on its own.

    Each entry is the pairwise `np.sum` of the same pointwise products, in
    the same float order, along one row of an (N, n^3) work buffer: A and C
    a whole row per pass, B and D a whole column per pass. No entry is
    mirrored from another, so this is the reference that the assembly's
    mirrored triangles are held to bit for bit.
    """
    w = system.weight
    vol = w.grid.cell_volume
    N = system.N
    wtil = w.metric_weight(system.phi0_2).ravel()
    g0 = gradient(system.phi0_1, w.grid.spacing).reshape(3, -1)
    wtil_g0_sq = wtil * np.sum(g0 * g0, axis=0)
    psi2 = system.basis.fields.reshape(N, -1)
    gpsi2 = system.basis.grads.reshape(N, 3, -1)
    gpsi1 = system.wbasis.grads.reshape(N, 3, -1)
    wpsi1 = wtil * system.wbasis.fields.reshape(N, -1)
    acc = np.empty_like(psi2)
    tmp = np.empty_like(psi2)

    def grad_dot(grads, m):
        np.multiply(grads[:, 0], grads[m, 0], out=acc)
        for ax in (1, 2):
            np.multiply(grads[:, ax], grads[m, ax], out=tmp)
            np.add(acc, tmp, out=acc)
        return acc

    A, B, C, D = (np.empty((N, N)) for _ in range(4))
    for m in range(N):
        A[m] = np.sum(np.multiply(grad_dot(gpsi1, m), wtil, out=acc), axis=1) * vol
        C_grad = np.sum(grad_dot(gpsi2, m), axis=1) * vol
        np.multiply(psi2, wtil_g0_sq, out=acc)
        acc *= psi2[m]
        C[m] = 2.0 * (np.sum(acc, axis=1) * vol) + C_grad
    for l in range(N):
        b_l = 2.0 * np.sum(g0 * gpsi2[l], axis=0)
        B[:, l] = np.sum(np.multiply(wpsi1, b_l, out=acc), axis=1) * vol
        d_l = -2.0 * wtil * np.sum(g0 * gpsi1[l], axis=0)
        D[:, l] = np.sum(np.multiply(psi2, d_l, out=acc), axis=1) * vol
    return A, B, C, D


class GalerkinStates:
    """The stored coefficient trajectory as a lazy sized sequence of (t, k1, k2).

    Its length is known before any field exists; iterating reconstructs one
    step at a time, so the trajectory's fields are never all held at once.
    """

    def __init__(self, system: GalerkinSystem):
        self.system = system

    def __len__(self) -> int:
        return len(self.system.times)

    def __iter__(self):
        for i, t in enumerate(self.system.times):
            k1, k2 = reconstruct(self.system, self.system.C1[i], self.system.C2[i])
            yield float(t), k1, k2


def state_weak_residual(
    states,
    system: GalerkinSystem,
    f1,
    f2,
    test_functions: tuple[Basis, Basis] | None = None,
) -> float:
    """Max defect of the two weak-form identities, taken on grid states.

    `states` is a sized sequence of (t, k1, k2) from t=0, such as
    `GalerkinStates(system)`, a list, or the steps of another solver: its
    length fixes the 8 evenly spread check times before the first state is
    read, and it is iterated once. Time integrals are trapezoidal on the
    states' times, kept as running sums of the four fields (k1, k2, f1, f2),
    and the grid functionals run once per check time on those sums. Only
    `system`'s weight, initial fields and bases are read, so the states
    need not come from its coefficients. The reference of
    `spectral.weak_residual`, which integrates the coefficients instead.
    """
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
    gpsi1 = test_wbasis.grads.reshape(N, -1)
    gpsi2 = test_basis.grads.reshape(N, -1)

    def flux_rows(k1, k2, l1, l2):
        """Stiffness plus coupling minus load of each identity, for fields (k1, k2, f1, f2)."""
        gk1 = gradient(k1, s)
        gk2 = gradient(k2, s)
        stiff1 = vol * (gpsi1 @ (wtil * gk1).ravel())
        coup1 = vol * (wpsi1 @ (2.0 * np.sum(g0 * gk2, axis=0)).ravel())
        load1 = vol * (wpsi1 @ l1.ravel())
        stiff2 = vol * (gpsi2 @ gk2.ravel())
        coup2 = vol * (psi2 @ (2.0 * wtil * g0_sq * k2 - 2.0 * wtil * np.sum(g0 * gk1, axis=0)).ravel())
        load2 = vol * (psi2 @ l2.ravel())
        return stiff1 + coup1 - load1, stiff2 + coup2 - load2

    n_steps = len(states) - 1
    check_idx = set(np.linspace(1, n_steps, min(8, n_steps)).astype(int).tolist())

    defect = 0.0
    integrals = [grid.zeros() for _ in range(4)]  # trapezoid integrals of k1, k2, f1, f2
    prev_t, prev = None, None
    for i, (t, k1, k2) in enumerate(states):
        fields = (k1, k2, f1(float(t)), f2(float(t)))
        if prev is not None:
            half_dt = 0.5 * (t - prev_t)
            for acc, a, b in zip(integrals, prev, fields):
                acc += half_dt * (a + b)
        prev_t, prev = t, fields
        if i in check_idx:
            flux1, flux2 = flux_rows(*integrals)
            id1 = vol * (wpsi1 @ k1.ravel()) + flux1
            id2 = vol * (psi2 @ k2.ravel()) + flux2
            defect = max(defect, float(np.max(np.abs(id1))), float(np.max(np.abs(id2))))
    return defect


def energy_estimate_loop(system: GalerkinSystem, f1, f2) -> tuple[float, float]:
    """(LHS, RHS) of the Galerkin energy estimate from the reconstructed fields, state by state.

    The reference of `spectral.energy_estimate_lhs`, which takes the same
    energies as quadratic forms of the coefficients, and of
    `spectral.energy_estimate_rhs`.
    """
    w = system.weight
    grid = w.grid
    vol = grid.cell_volume
    s = grid.spacing
    alpha = w.alpha
    rho = w.rho.rho
    wtil = w.metric_weight(system.phi0_2)
    rho_mass = rho ** (-2 * alpha)
    rho_load = rho ** (2 * (1 - alpha))
    ones = np.ones(grid.shape)

    max_mass = 0.0
    grad_series = []
    for t, k1, k2 in GalerkinStates(system):
        mass = grid_inner(rho_mass * k1, k1, vol) + grid_inner(k2, k2, vol)
        max_mass = max(max_mass, mass)
        gk1 = gradient(k1, s)
        gk2 = gradient(k2, s)
        grad_series.append(
            grid_inner(wtil * np.sum(gk1 * gk1, axis=0), ones, vol)
            + grid_inner(np.sum(gk2 * gk2, axis=0), ones, vol)
        )
    lhs = max_mass + float(np.trapezoid(grad_series, system.times))

    rhs_series = []
    for t in system.times:
        f1_t, f2_t = f1(float(t)), f2(float(t))
        rhs_series.append(grid_inner(rho_load * f1_t, f1_t, vol) + grid_inner(f2_t, f2_t, vol))
    rhs = float(np.trapezoid(rhs_series, system.times))
    return lhs, rhs


def mode_wavevector(f: np.ndarray, grid: TorusGrid) -> tuple[int, int, int]:
    """Wave-vector, up to sign, of a field that holds one Fourier mode: the peak of |rfftn f|."""
    spectrum = np.abs(np.fft.rfftn(f))
    peak = np.unravel_index(np.argmax(spectrum), spectrum.shape)
    return tuple(int(i) if i <= grid.n // 2 else int(i) - grid.n for i in peak)


def continuum_symbol(k, grid: TorusGrid) -> float:
    """Eigenvalue 4 pi^2 |k|^2 / L^2 of the continuum -Laplacian on the mode k."""
    return (2 * np.pi / grid.length) ** 2 * sum(ki * ki for ki in k)


def grad_symbol(k, grid: TorusGrid) -> float:
    """Eigenvalue sum_i sin^2(2 pi k_i s / L) / s^2 of -div grad with centered differences."""
    s, L = grid.spacing, grid.length
    return sum(np.sin(2 * np.pi * ki * s / L) ** 2 for ki in k) / s**2


def heat_solve_reference(f: np.ndarray, factor: np.ndarray, shape) -> np.ndarray:
    """The backward-Euler heat solve as one rfftn/irfftn pair, the reference of flow.heat_solve."""
    return np.fft.irfftn(np.fft.rfftn(f, axes=(0, 1, 2)) * factor, s=shape, axes=(0, 1, 2))


def heat_propagator_factors(grid: TorusGrid, dt: float):
    """Crank-Nicolson half-step factors (1/(1 + dt/2 L), 1 - dt/2 L), rfftn layout."""
    sym = stencil_symbol(rfft_wavevectors(grid), grid)
    return 1.0 / (1.0 + 0.5 * dt * sym), 1.0 - 0.5 * dt * sym


def linearized_imex_states(
    phi0_1: np.ndarray,
    phi0_2: np.ndarray,
    w: WeightField,
    f1,
    f2,
    T: float,
    dt: float,
):
    """Grid-level second-order IMEX (Crank-Nicolson + Heun) solve of the
    linearized system from zero data, yielding (t, k1, k2) each step.

    Cross-validates the Galerkin route: diffusion is treated spectrally with
    the 7-point symbol, drift and couplings explicitly in drift form.
    """
    grid = w.grid
    s = grid.spacing
    wtil = w.metric_weight(phi0_2)
    g0 = gradient(phi0_1, s)
    g0_sq = np.sum(g0 * g0, axis=0)
    v = gradient(phi0_2, s) + w.alpha * w.grad_log_h

    half_minus, half_plus = heat_propagator_factors(grid, dt)

    def explicit(k1, k2, t):
        gk1 = gradient(k1, s)
        gk2 = gradient(k2, s)
        n1 = -2.0 * np.sum(v * gk1, axis=0) - 2.0 * np.sum(g0 * gk2, axis=0) + f1(t)
        n2 = -2.0 * wtil * g0_sq * k2 + 2.0 * wtil * np.sum(g0 * gk1, axis=0) + f2(t)
        return n1, n2

    def cn_step(k, expl):
        k_hat = np.fft.rfftn(k, axes=(0, 1, 2))
        rhs = half_plus * k_hat + dt * np.fft.rfftn(expl, axes=(0, 1, 2))
        return np.fft.irfftn(rhs * half_minus, s=grid.shape, axes=(0, 1, 2))

    steps = int(round(T / dt))
    k1 = grid.zeros()
    k2 = grid.zeros()
    yield 0.0, k1.copy(), k2.copy()
    for i in range(steps):
        t = i * dt
        n1a, n2a = explicit(k1, k2, t)
        k1_pred = cn_step(k1, n1a)
        k2_pred = cn_step(k2, n2a)
        n1b, n2b = explicit(k1_pred, k2_pred, t + dt)
        k1 = cn_step(k1, 0.5 * (n1a + n1b))
        k2 = cn_step(k2, 0.5 * (n2a + n2b))
        yield (i + 1) * dt, k1.copy(), k2.copy()
