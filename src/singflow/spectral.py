"""Fourier eigenbasis, weighted basis, and the Galerkin system for the linearized flow.

The eigenfunctions of -Lap on the torus are real sin/cos modes, normalized to
unit grid L^2 norm and ordered by continuum eigenvalue with lexicographic
wave-vector tie-breaking (cos before sin), so assembled matrices are
reproducible.

The projected system for coefficients (C1, C2) of (k1, k2) is

    dC1/dt + A C1 + B C2 = F1,   dC2/dt + C C2 + D C1 = F2,

with zero initial data, integrated by the implicit trapezoidal rule on the
full block matrix (the couplings are mild at the truncations used here and
folding them into the implicit solve costs nothing at 2N <= a few dozen).

The matrix entries are pairwise sums of the same pointwise products that the
fsum reference `operators.exact_inner` takes. Against it, on the tests'
smooth data (n in {16, 32}, N up to 16), each entry lies within 1.05 eps
times the sum of its |products|, at most 1.2e-13 absolute; entries that
cancel sit further from the fsum value
in ulps of their own size (D at n = 32, N = 4: 49.5 ulps of its largest entry,
2.2e-14 absolute). The brute-force quadrature oracle of the battery holds
them to 1e-12. A load entry is the same pairwise sum for one term of the
forcing, scaled by its time profile; on the tests' data (n = 16, N up to 8,
301 times) it lies within 1.27 eps times the sum of its |products| of the
fsum value of the forcing sampled on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from singflow.geometry import TorusGrid
from singflow.operators import gradient, grid_inner
from singflow.weight import WeightField, weight_power


def _wavevector_representatives(kmax: int):
    """One representative per {k, -k} pair: first nonzero component positive."""
    reps = []
    rng = range(-kmax, kmax + 1)
    for k1 in rng:
        for k2 in rng:
            for k3 in rng:
                k = (k1, k2, k3)
                if k == (0, 0, 0):
                    continue
                nz = next(v for v in k if v != 0)
                if nz > 0:
                    reps.append(k)
    return reps


class Basis:
    """N grid fields and their centered gradients (`operators.gradient`).

    The Fourier eigenbasis of `build_basis` and the weighted basis
    psi1_m = h^alpha e^{phi0_2} psi2_m of `build_weighted_basis` are both one.
    """

    def __init__(self, fields: np.ndarray, spacing: float):
        self.fields = fields  # (N, n, n, n)
        self.grads = np.empty(fields.shape[:1] + (3,) + fields.shape[1:])  # (N, 3, n, n, n)
        for g, f in zip(self.grads, fields):
            g[...] = gradient(f, spacing)

    @property
    def size(self) -> int:
        return len(self.fields)


def build_basis(grid: TorusGrid, N: int) -> Basis:
    """First N eigenmodes of -Lap, ordered by (eigenvalue, wave-vector, cos<sin)."""
    if N < 1 or N > grid.n**3:
        raise ValueError("N must lie in [1, n^3]")
    volume = grid.length**3
    lam = (2 * np.pi / grid.length) ** 2

    kmax = 1
    while True:
        cands = [(0, 0, 0)] + _wavevector_representatives(kmax)
        entries = []
        for k in cands:
            k2 = sum(v * v for v in k)
            if k == (0, 0, 0):
                entries.append((0.0, k, 0, "const"))
            else:
                entries.append((lam * k2, k, 0, "cos"))
                entries.append((lam * k2, k, 1, "sin"))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        # complete: the (N-1)-th eigenvalue must be below the box boundary
        if len(entries) >= N and entries[N - 1][0] <= lam * kmax**2:
            entries = entries[:N]
            break
        kmax += 1

    if any(abs(v) >= grid.n / 2 for e in entries for v in e[1]):
        raise ValueError("basis includes modes at or above the grid Nyquist wavenumber")

    x1, x2, x3 = grid.coords
    fields = []
    for _, k, _, kind in entries:
        if kind == "const":
            f = np.full(grid.shape, 1.0 / np.sqrt(volume))
        else:
            phase = 2 * np.pi * (k[0] * x1 + k[1] * x2 + k[2] * x3) / grid.length
            base = np.cos(phase) if kind == "cos" else np.sin(phase)
            f = np.sqrt(2.0 / volume) * np.broadcast_to(base, grid.shape)
        fields.append(np.ascontiguousarray(f))
    return Basis(np.stack(fields), grid.spacing)


def build_weighted_basis(basis: Basis, w: WeightField, phi0_2: np.ndarray) -> Basis:
    """psi1_m = h^alpha e^{phi0_2} psi2_m, the blow-up-adapted test fields."""
    envelope = weight_power(w, w.alpha) * np.exp(phi0_2)
    return Basis(basis.fields * envelope[None], w.grid.spacing)


class Forcing:
    """A load f(t) = sum_i space_i * profile_i(t): grid fields times scalar time profiles.

    `terms` is a non-empty sequence of (space, profile) pairs, a grid field
    and a callable t -> float. Calling the forcing at t gives its grid field:
    the terms summed in order, each space times its profile at t, the
    profile multiplied last. The Galerkin layer reads the terms instead, so
    it projects and integrates each grid field once, not once per time.
    """

    def __init__(self, terms):
        self.terms = tuple((np.ascontiguousarray(space, dtype=float), p) for space, p in terms)
        if not self.terms:
            raise ValueError("a forcing needs at least one (space, profile) term")

    def __call__(self, t: float) -> np.ndarray:
        return self.field([profile(t) for _, profile in self.terms])

    def field(self, weights) -> np.ndarray:
        """The grid field sum_i space_i * weights[i], the terms added in order."""
        (space, _), *rest = self.terms
        out = space * weights[0]
        for (space, _), weight in zip(rest, weights[1:]):
            out += space * weight
        return out

    def profile_samples(self, times: np.ndarray) -> np.ndarray:
        """(len(times), terms) array: each profile called once at each time."""
        samples = [[profile(float(t)) for _, profile in self.terms] for t in times]
        return np.array(samples, dtype=float).reshape(len(times), len(self.terms))


# the presets that `galerkin_forcing` implements
FORCING_PRESETS = ("trig_damped", "zero")


def galerkin_forcing(name: str, grid, rho) -> tuple[Forcing, Forcing]:
    """Named forcing presets for the linearized solver."""
    x1, x2, x3 = (np.broadcast_to(c, grid.shape) for c in grid.coords)
    L = grid.length
    if name == "trig_damped":
        # the spatial factors in the order the closed form multiplies them
        space1 = rho.rho_unclamped**2.5 * np.sin(2 * np.pi * x1 / L) * np.cos(2 * np.pi * x3 / L)
        space2 = np.cos(2 * np.pi * x2 / L)
        return (
            Forcing([(space1, lambda t: math.exp(-t))]),
            Forcing([(space2, lambda t: 1.0 + 0.3 * math.sin(3.0 * t))]),
        )
    if name == "zero":
        zero = Forcing([(np.zeros(grid.shape), lambda t: 1.0)])
        return zero, zero
    raise ValueError(f"unknown Galerkin forcing preset {name!r}")


@dataclass
class GalerkinSystem:
    basis: Basis
    wbasis: Basis
    weight: WeightField
    phi0_1: np.ndarray
    phi0_2: np.ndarray
    f1: Forcing
    f2: Forcing
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dt: float
    times: np.ndarray  # step_times(T, dt): the load samples and the ODE's steps
    F1: np.ndarray  # (len(times), N)
    F2: np.ndarray
    C1: np.ndarray | None = None  # (len(times), N)
    C2: np.ndarray | None = None

    @property
    def N(self) -> int:
        return self.A.shape[0]

    def block_matrix(self) -> np.ndarray:
        """[[A, B], [D, C]]: the 2N x 2N matrix of the coefficient system."""
        return np.block([[self.A, self.B], [self.D, self.C]])


def assemble_galerkin(
    phi0_1: np.ndarray,
    phi0_2: np.ndarray,
    w: WeightField,
    basis: Basis,
    f1: Forcing,
    f2: Forcing,
    T: float,
    dt: float,
) -> GalerkinSystem:
    """Project the linearized system onto the basis, with loads sampled at `step_times(T, dt)`.

    Each matrix entry is the grid sum of the pointwise products that
    `operators.exact_inner` would sum, reduced by numpy's pairwise sum along
    one row of an (N, n^3) work buffer instead of by fsum: A and C one row
    per pass, B and D one column per pass. A and the gradient part of C are
    symmetric bit for bit (each pointwise product commutes), so only their
    entries with l >= m are summed, and mirrored. The loads never evaluate a
    forcing on the grid: each term's space is projected once, the same
    pairwise sum of products in the same buffer, and load row j is the sum
    over the terms of profile_i(t_j) times that projection.
    """
    grid = w.grid
    vol = grid.cell_volume
    s = grid.spacing
    N = basis.size
    times = step_times(T, dt)

    wb = build_weighted_basis(basis, w, phi0_2)
    wtil = w.metric_weight(phi0_2).ravel()
    g0 = gradient(phi0_1, s).reshape(3, -1)
    wtil_g0_sq = wtil * np.sum(g0 * g0, axis=0)
    minus_2wtil = -2.0 * wtil

    psi2 = basis.fields.reshape(N, -1)
    gpsi2 = basis.grads.reshape(N, 3, -1)
    gpsi1 = wb.grads.reshape(N, 3, -1)
    acc = np.empty_like(psi2)
    tmp = np.empty_like(psi2)

    def grad_dot(grads, m):
        """acc[l] = grads[l] . grads[m] pointwise for l >= m, summed over axes 0, 1, 2 in order."""
        out, scratch = acc[m:], tmp[m:]
        np.multiply(grads[m:, 0], grads[m, 0], out=out)
        for ax in (1, 2):
            np.multiply(grads[m:, ax], grads[m, ax], out=scratch)
            np.add(out, scratch, out=out)
        return out

    A = np.empty((N, N))
    B = np.empty((N, N))
    C = np.empty((N, N))
    D = np.empty((N, N))
    C_grad = np.empty((N, N))  # -(Lap psi2_l, psi2_m) written through the adjoint identity
    for m in range(N):
        A[m, m:] = np.sum(np.multiply(grad_dot(gpsi1, m), wtil, out=acc[m:]), axis=1) * vol
        C_grad[m, m:] = np.sum(grad_dot(gpsi2, m), axis=1) * vol
    upper = np.triu_indices(N, 1)
    for M in (A, C_grad):
        M.T[upper] = M[upper]

    np.multiply(psi2, wtil_g0_sq, out=tmp)
    for m in range(N):
        np.multiply(tmp, psi2[m], out=acc)
        C[m] = 2.0 * (np.sum(acc, axis=1) * vol) + C_grad[m]
    del tmp  # the loads' wtil * psi1 takes its place

    wpsi1 = wtil * wb.fields.reshape(N, -1)
    for l in range(N):
        b_l = 2.0 * np.sum(g0 * gpsi2[l], axis=0)
        B[:, l] = np.sum(np.multiply(wpsi1, b_l, out=acc), axis=1) * vol
        d_l = minus_2wtil * np.sum(g0 * gpsi1[l], axis=0)
        D[:, l] = np.sum(np.multiply(psi2, d_l, out=acc), axis=1) * vol

    def loads(forcing, rows):
        """Row j: the sum over terms of profile_i(t_j) times vol (rows . space_i), in term order."""
        proj = [
            np.sum(np.multiply(rows, space.ravel(), out=acc), axis=1) * vol for space, _ in forcing.terms
        ]
        samples = forcing.profile_samples(times)
        F = samples[:, :1] * proj[0]
        for i in range(1, len(proj)):
            F += samples[:, i : i + 1] * proj[i]
        return F

    return GalerkinSystem(
        basis=basis,
        wbasis=wb,
        weight=w,
        phi0_1=phi0_1,
        phi0_2=phi0_2,
        f1=f1,
        f2=f2,
        A=A,
        B=B,
        C=C,
        D=D,
        dt=dt,
        times=times,
        F1=loads(f1, wpsi1),
        F2=loads(f2, psi2),
    )


class OdeBlowupError(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite Galerkin coefficient at step {step} (max |C| = {value})")
        self.step = step


def step_times(T: float, dt: float) -> np.ndarray:
    """0, dt, ..., round(T / dt) dt: a Galerkin system's time grid.

    `assemble_galerkin` samples the loads at these times and `integrate_ode`
    steps through them, so every step reads a load sample of its own.
    """
    return dt * np.arange(int(round(T / dt)) + 1)


def integrate_ode(system: GalerkinSystem) -> GalerkinSystem:
    """Implicit trapezoidal integration of the 2N-dimensional system from zero data.

    Steps through `system.times` with `system.dt`; step i reads the load rows
    i and i + 1 as they were sampled.
    """
    N = system.N
    M = system.block_matrix()
    dt = system.dt
    F = np.concatenate([system.F1, system.F2], axis=1)
    steps = len(system.times) - 1

    eye = np.eye(2 * N)
    lhs_inv = np.linalg.inv(eye + 0.5 * dt * M)
    rhs_mat = eye - 0.5 * dt * M

    traj = np.zeros((steps + 1, 2 * N))
    c = np.zeros(2 * N)
    for i in range(steps):
        c = lhs_inv @ (rhs_mat @ c + 0.5 * dt * (F[i] + F[i + 1]))
        if not np.all(np.isfinite(c)):
            finite = c[np.isfinite(c)]
            raise OdeBlowupError(i + 1, float(np.max(np.abs(finite))) if finite.size else float("nan"))
        traj[i + 1] = c

    system.C1 = traj[:, :N]
    system.C2 = traj[:, N:]
    return system


def reconstruct(system: GalerkinSystem, c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k1, k2) fields of coefficient vectors: c1 on the weighted basis, c2 on the plain one."""
    k1 = np.tensordot(c1, system.wbasis.fields, axes=(0, 0))
    k2 = np.tensordot(c2, system.basis.fields, axes=(0, 0))
    return k1, k2


def weak_residual(system: GalerkinSystem, test_functions: tuple[Basis, Basis] | None = None) -> float:
    """Max defect of the integrated system's two weak-form identities over a set of test functions.

    The identities are those of the system's own forcings `f1` and `f2`,
    checked at 8 evenly spread steps of `times` (every step when there are
    fewer), with trapezoidal time integrals on those times. Test functions
    default to the system's own basis fields (time independent, so the
    time-derivative transfer terms vanish); pass a larger (basis, weighted
    basis) pair to probe directions outside the solution span.

    The stiffness, coupling and load rows are linear in (k1, k2, f1(t),
    f2(t)), and so is the trapezoid rule, so the integral of those rows up to
    a check time equals, up to rounding, the same rows evaluated on the
    trapezoid integrals of the four fields. k1 and k2 are linear in the
    coefficient rows C1 and C2, so their integrals are running trapezoid sums
    of those N-vectors, mapped to fields by `reconstruct` only at the check
    times, along with the state itself, whose mass rows close each identity.
    A forcing is linear in its time profiles, so its integral is the sum of
    its spaces times the running trapezoid sums of the profile samples,
    formed only at the check times. The system's matrices and loads are not
    read, so the check stays independent of the assembly.
    """
    if system.C1 is None:
        raise ValueError("integrate_ode must run before weak_residual")
    grid = system.weight.grid
    vol = grid.cell_volume
    s = grid.spacing
    wtil = system.weight.metric_weight(system.phi0_2)
    g0 = gradient(system.phi0_1, s)
    g0_sq = np.sum(g0 * g0, axis=0)

    if test_functions is None:
        test_basis, test_wbasis = system.basis, system.wbasis
    else:
        test_basis, test_wbasis = test_functions
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

    f1, f2 = system.f1, system.f2
    times = system.times
    n_steps = len(times) - 1
    check_idx = sorted(set(np.linspace(1, n_steps, min(8, n_steps)).astype(int).tolist()))
    half_dt = 0.5 * np.diff(times)

    def running_trapezoid(C):
        """Row i: the trapezoid integral of the rows of C from times[0] to times[i]."""
        out = np.zeros_like(C)
        np.cumsum(half_dt[:, None] * (C[:-1] + C[1:]), axis=0, out=out[1:])
        return out

    int_C1 = running_trapezoid(system.C1)
    int_C2 = running_trapezoid(system.C2)
    int_P1 = running_trapezoid(f1.profile_samples(times))
    int_P2 = running_trapezoid(f2.profile_samples(times))

    defect = 0.0
    for i in check_idx:
        flux1, flux2 = flux_rows(
            *reconstruct(system, int_C1[i], int_C2[i]), f1.field(int_P1[i]), f2.field(int_P2[i])
        )
        k1, k2 = reconstruct(system, system.C1[i], system.C2[i])
        id1 = vol * (wpsi1 @ k1.ravel()) + flux1
        id2 = vol * (psi2 @ k2.ravel()) + flux2
        defect = max(defect, float(np.max(np.abs(id1))), float(np.max(np.abs(id2))))
    return defect


def energy_estimate_lhs(system: GalerkinSystem) -> float:
    """Measured left side of the Galerkin energy estimate.

    max_t (||rho^-a k1||^2 + ||k2||^2) plus the time integral of the weighted
    gradient energies, trapezoidal on the system's `times`.

    k1 and k2 are the coefficient rows C1, C2 times the basis fields, so each
    energy is a quadratic form c^T M c of one coefficient row: the masses with
    vol psi1 rho^{-2a} psi1^T and vol psi2 psi2^T, the gradient energies with
    the weighted stiffness A and the plain stiffness of the basis gradients.
    No field is reconstructed.
    """
    w = system.weight
    vol = w.grid.cell_volume
    N = system.N
    rho = w.rho.rho
    psi1 = system.wbasis.fields.reshape(N, -1)
    psi2 = system.basis.fields.reshape(N, -1)
    gpsi2 = system.basis.grads.reshape(N, -1)

    def energy(C, M):
        """c^T M c of each row c of C."""
        return np.sum((C @ M) * C, axis=1)

    mass1 = vol * ((psi1 * (rho ** (-2 * w.alpha)).ravel()) @ psi1.T)
    mass = energy(system.C1, mass1) + energy(system.C2, vol * (psi2 @ psi2.T))
    grad = energy(system.C1, system.A) + energy(system.C2, vol * (gpsi2 @ gpsi2.T))
    return float(np.max(mass)) + float(np.trapezoid(grad, system.times))


def energy_estimate_rhs(w: WeightField, f1, f2, times: np.ndarray) -> float:
    """Measured right side of the Galerkin energy estimate.

    ||rho^{-a+1} f1||^2 + ||f2||^2 in L^2(0,T; L^2), trapezoidal on `times`.
    It does not depend on the basis, so one value serves every truncation
    integrated on the same times.
    """
    vol = w.grid.cell_volume
    rho_load = w.rho.rho ** (2 * (1 - w.alpha))
    series = []
    for t in times:
        f1_t, f2_t = f1(float(t)), f2(float(t))
        series.append(grid_inner(rho_load * f1_t, f1_t, vol) + grid_inner(f2_t, f2_t, vol))
    return float(np.trapezoid(series, times))
