"""IMEX time integration of the nonlinear flow with the curve condition pinned.

Each step treats diffusion implicitly (backward Euler, diagonalized with the
exact 7-point symbol in Fourier space, so a pure heat mode decays by exactly
1/(1 + dt*lambda) per step) and the drift and source explicitly. After every
update phi1 is re-pinned to zero on the near-curve ring, the grid reading of
the boundary condition on the measure-zero curve.

A `FlowState` is a frozen record of the pair, its time and its time
derivatives. The derivatives are the plain PDE right-hand sides evaluated
there, except that dphi1/dt is zero on the pinned ring: the ring is the
grid's copy of the curve, where phi1 is held at zero for all time. The
stepper hands out `StepState`s, which also carry the Laplacians, squared
gradient norms and metric weight those right-hand sides were built from;
`derive_state` is the one place that computes them, so the next step and the
diagnostics row read them instead of recomputing them. It is one fused
kernel that walks the grid in cache-sized slabs of whole axis-0 planes.

Time is diffusive (no rescaling), so measured decay rates compare directly
with the stencil eigenvalues.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from singflow.geometry import TorusGrid
from singflow.norms import hyperbolic_distance, log_integral_sq
from singflow.operators import gradient, laplacian, rfft_wavevectors, stencil_symbol
from singflow.weight import WeightField


class FlowBlowupError(RuntimeError):
    """A step produced non-finite fields; t and the maxima describe the last finite state."""

    def __init__(self, step: int, t: float, max_phi1: float, max_phi2: float, max_drift: float):
        super().__init__(
            f"non-finite field values at step {step}; last finite state at t = {t:.6g} has "
            f"max |phi1| = {max_phi1:.3e}, max |phi2| = {max_phi2:.3e} "
            f"(max |drift coefficient| = {max_drift:.3e})"
        )
        self.step = step
        self.t = t
        self.max_phi1 = max_phi1
        self.max_phi2 = max_phi2
        self.max_drift = max_drift


def implicit_euler_factor(grid: TorusGrid, dt: float) -> np.ndarray:
    """Backward-Euler damping factors on the rfftn layout (flow stepper)."""
    return 1.0 / (1.0 + dt * stencil_symbol(rfft_wavevectors(grid), grid))


def heat_solve(f: np.ndarray, factor: np.ndarray, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The backward-Euler heat solve of f into out (which may be f), transforming in place in spec.

    These are the 1-D transforms of irfftn(rfftn(f) * factor), in the same
    order, so the result is bitwise equal to it; spec holds the rfftn layout.
    """
    np.fft.rfftn(f, axes=(0, 1, 2), out=spec)
    spec *= factor
    np.fft.ifft(spec, axis=0, out=spec)
    np.fft.ifft(spec, axis=1, out=spec)
    return np.fft.irfft(spec, n=out.shape[2], axis=2, out=out)


@dataclass(frozen=True)
class FlowState:
    phi1: np.ndarray
    phi2: np.ndarray
    t: float
    dphi1_dt: np.ndarray
    dphi2_dt: np.ndarray

    def copy(self) -> "FlowState":
        """A plain record with copied arrays (what snapshots keep)."""
        return FlowState(
            self.phi1.copy(), self.phi2.copy(), self.t, self.dphi1_dt.copy(), self.dphi2_dt.copy()
        )


@dataclass(frozen=True)
class StepState(FlowState):
    """A FlowState plus the stencil fields its time derivatives were built from.

    Only `derive_state` builds one, so the derived fields belong to phi1 and
    phi2, with one exception: `run(conserve_phi2_mean=True)` shifts phi2 in
    place by a constant after it is derived. To change a field, build a new
    state rather than using dataclasses.replace, which would carry the old
    derived fields along.
    """

    lap1: np.ndarray
    lap2: np.ndarray
    wtil: np.ndarray  # h^{-2a} e^{-2 phi2}
    grad1_sq: np.ndarray  # |grad phi1|^2
    grad2_sq: np.ndarray  # |grad phi2|^2


def smooth_cutoff(rho: np.ndarray, L: float) -> np.ndarray:
    """C^2 cutoff: 1 for rho <= L/4, 0 for rho >= 3L/8, smoothstep between."""
    t = np.clip((3 * L / 8 - rho) / (L / 8), 0.0, 1.0)
    return t**3 * (t * (6.0 * t - 15.0) + 10.0)


# the initial-data families that `initial_fields` implements
INITIAL_FAMILIES = ("zero", "poly_cutoff", "trig", "poly_cutoff+trig")


def initial_fields(family: str, params: dict, w: WeightField):
    grid = w.grid
    rho = w.rho
    phi1 = grid.zeros()
    phi2 = grid.zeros()
    alpha = w.alpha

    wants_poly = family in ("poly_cutoff", "poly_cutoff+trig")
    wants_trig = family in ("trig", "poly_cutoff+trig")
    if family not in INITIAL_FAMILIES:
        raise ValueError(f"unknown initial-data family {family!r}")

    if wants_poly:
        c = float(params.get("c", 1.0))
        x3 = np.broadcast_to(grid.coords[2], grid.shape)
        phi1 = (
            c
            * rho.rho_unclamped ** (2.0 * alpha + 2.0)
            * smooth_cutoff(rho.rho_unclamped, grid.length)
            * np.sin(2.0 * np.pi * x3 / grid.length)
        )
    if wants_trig:
        a = float(params.get("a", 0.0))
        b = float(params.get("b", 0.0))
        x1 = np.broadcast_to(grid.coords[0], grid.shape)
        x2 = np.broadcast_to(grid.coords[1], grid.shape)
        phi2 = a * np.sin(2.0 * np.pi * x1 / grid.length) + b * np.cos(
            2.0 * np.pi * x2 / grid.length
        )

    return phi1, phi2


# Nodes per slab of whole axis-0 planes: max(1, SLAB_NODES // n^2) planes, so
# one slab up to n = 32 and 8 planes at n = 64. A slab and its scratch fields
# then stay in cache while the kernels read and write them.
SLAB_NODES = 32768

# Threads of a workspace: the calling thread and, with two, one worker. Read
# once from the CPUs this process may use. The worker takes the second lane of
# every hand-out of two or more items (a step's two field updates, the slabs
# of a grid of more than one slab, and the diagnostics row of `run` beside
# `derive_state`'s slabs); a grid of one slab is not split, since that cost
# more than it saved.
LANES = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _refcounts(arrays) -> list[int]:
    """sys.getrefcount of each array, each read the same way, so the counts compare."""
    return [sys.getrefcount(a) for a in arrays]


# What `_refcounts` reads for an array that only its list references.
_LIST_ONLY = _refcounts([np.empty(0)])[0]


class Lane:
    """One thread's scratch of the fused kernels.

    `grads` holds two slab-sized vector fields, `scratch` three slab-sized
    scalar fields (the first is used by `slab_stencil`), and `spec` the rfftn
    spectrum of one grid field for `heat_solve`.
    """

    def __init__(self, planes: int, shape):
        n0, n1, n2 = shape
        self.grads = np.empty((2, 3, planes, n1, n2))
        self.scratch = np.empty((3, planes, n1, n2))
        self.spec = np.empty((n0, n1, n2 // 2 + 1), dtype=complex)


class SlabWorkspace:
    """Slabs, lanes and output arrays of the fused kernels and the Galerkin assembly's row blocks.

    Reach it through `WeightField.slab_workspace`. `slabs` lists the axis-0
    plane ranges the kernels walk. `lanes` holds one `Lane` per thread that
    runs them, `LANES` on a grid of any size; `spectral.assemble_galerkin`
    hands its row blocks to the same lanes through `map`, each lane keyed to
    two block buffers the assembly owns. With
    `LANES == 2` the workspace has one worker thread, on a one-thread pool
    that `map` makes on first use and that runs only the second lane of a
    `map`. Each lane writes only to its own scratch and to buffers the
    caller owns, so the outputs are the same for any number of lanes. The
    worker ends when the workspace is dropped.

    `grid_array` hands out the grid-sized outputs of `step` and `derive_state`.
    It keeps up to `MAX_ARRAYS` of them and hands one out again only once
    nothing outside the workspace references it: no state, no view of one of
    its arrays, no item of a hand-out. A caller may therefore hold any state or
    array it was given, for as long as it likes, and its bits never change
    under it; once every reference is dropped, the memory serves a later
    state without fresh pages.
    """

    # four states' outputs: the initial state its caller holds (two, when `run`
    # projects out the phi2 mean), the state a step reads and the one it builds
    MAX_ARRAYS = 36

    def __init__(self, shape):
        n0, n1, n2 = shape
        planes = min(n0, max(1, SLAB_NODES // (n1 * n2)))
        self.slabs = [slice(i, min(i + planes, n0)) for i in range(0, n0, planes)]
        self.lanes = [Lane(planes, shape) for _ in range(LANES)]
        self._pool = None
        self._shape = tuple(shape)
        self._arrays = []  # the grid arrays handed out, each reusable once only this list holds it
        self._arrays_lock = threading.Lock()

    def grid_array(self) -> np.ndarray:
        """A grid-shaped float array with undefined contents, which the caller now owns."""
        with self._arrays_lock:
            for a, refs in zip(self._arrays, _refcounts(self._arrays)):
                if refs == _LIST_ONLY:
                    return a
            a = np.empty(self._shape)
            if len(self._arrays) < self.MAX_ARRAYS:
                self._arrays.append(a)
            return a

    def map(self, work, items) -> list:
        """[work(item, lane) for item in items], each item handed out to whichever lane is free.

        This thread works through the items on the first lane while the worker
        takes them on the second, in a copy of this thread's context (so
        numpy's errstate holds there too); a busy worker never holds the
        result back. A single item stays on this thread, with no job for the
        worker. Both lanes have stopped when this returns or raises, and an
        error of either lane is raised here.
        """
        if len(items) < 2 or len(self.lanes) == 1:
            return [work(item, self.lanes[0]) for item in items]
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor  # imports logging: only when used

            self._pool = ThreadPoolExecutor(1, thread_name_prefix="singflow-lane")
        results = [None] * len(items)
        todo = enumerate(items)
        lock = threading.Lock()

        def drain(lane):
            while True:
                with lock:
                    i, item = next(todo, (None, None))
                if i is None:
                    return
                results[i] = work(item, lane)

        future = self._pool.submit(contextvars.copy_context().run, drain, self.lanes[1])
        try:
            drain(self.lanes[0])
        finally:
            if not future.cancel():
                future.exception()  # waits: the worker may still write to the caller's buffers
            # a job cancelled before the worker woke stays in its queue until it
            # wakes, with drain's closure; `todo` would keep its last (index,
            # item) pair there, so the cells are emptied and it pins no array
            del todo, work
        if not future.cancelled():
            future.result()  # raises what the worker raised
        return results


def _neighbours(f: np.ndarray, planes: slice) -> list:
    """Per axis, the parts (index, f at i + 1, f at i - 1) that cover the slab `planes` of f.

    f is C-contiguous. Each axis has one bulk part: a flat slice of the slab
    and two contiguous slices of f at a flat offset (+-1 on axis 2, +-n2 on
    axis 1, whole planes on axis 0). The wrap parts come after it and set the
    nodes whose neighbour wraps, overwriting what the bulk part wrote there
    on axes 1 and 2: the first and last column (axis 2) and row (axis 1) as
    thin slab indices, and the grid's end planes (axis 0) as flat slices,
    each as its own op.
    """
    n0, n1, n2 = f.shape
    a, b = planes.start, planes.stop
    m = n1 * n2  # nodes per plane
    size = (b - a) * m
    ff = f.reshape(-1)
    F, F3 = ff[a * m : b * m], f[planes]

    def rows(i, j):  # planes i .. j - 1 of f, flat
        return ff[i * m : j * m]

    lo = max(a, 1)
    hi = max(lo, min(b, n0 - 1))  # planes lo .. hi - 1: their axis-0 neighbours do not wrap
    axis0 = [(slice((lo - a) * m, (hi - a) * m), rows(lo + 1, hi + 1), rows(lo - 1, hi - 1))]
    for i in {0, n0 - 1} & {a, b - 1}:  # grid-end planes of the slab
        up, down = (i + 1) % n0, (i - 1) % n0
        axis0.append((slice((i - a) * m, (i + 1 - a) * m), rows(up, up + 1), rows(down, down + 1)))
    axis1 = [
        (slice(n2, size - n2), F[2 * n2 :], F[: size - 2 * n2]),
        (np.s_[:, 0], F3[:, 1 % n1], F3[:, n1 - 1]),
        (np.s_[:, n1 - 1], F3[:, 0], F3[:, (n1 - 2) % n1]),
    ]
    axis2 = [
        (slice(1, size - 1), F[2:], F[: size - 2]),
        (np.s_[:, :, 0], F3[:, :, 1 % n2], F3[:, :, n2 - 1]),
        (np.s_[:, :, n2 - 1], F3[:, :, 0], F3[:, :, (n2 - 2) % n2]),
    ]
    return [axis0, axis1, axis2]


def _flat(out: np.ndarray) -> np.ndarray:
    """out as a flat view; an out that is not C-contiguous raises, since its reshape would be a copy."""
    if not out.flags.c_contiguous:
        raise ValueError("slab_stencil writes only into C-contiguous outputs")
    return out.reshape(-1)


def _apply(op, parts, out: np.ndarray) -> None:
    """out = op(f at i + 1, f at i - 1), part by part (see `_neighbours`)."""
    flat = _flat(out)
    for index, plus, minus in parts:
        op(plus, minus, out=(flat if isinstance(index, slice) else out)[index])


def slab_stencil(f: np.ndarray, planes: slice, lane: Lane, s: float, lap: np.ndarray, grad=None):
    """7-point Laplacian of f on the axis-0 `planes` into lap, and the centered gradient into grad.

    s is the grid spacing. The neighbour sums and differences are read from
    f at flat offsets, with no padded copy (`_neighbours`); lap and each
    grad[ax] must be C-contiguous, else this raises. The float operations and
    their order are those of operators.laplacian and operators.gradient, so
    the results are bitwise equal to theirs.
    """
    _flat(lap)  # raises unless lap is C-contiguous
    f = np.ascontiguousarray(f)
    pair = lane.scratch[0, : planes.stop - planes.start]
    np.multiply(f[planes], -6.0, out=lap)
    inv2 = 0.5 / s
    for ax, parts in enumerate(_neighbours(f, planes)):
        if grad is not None:
            _apply(np.subtract, parts, grad[ax])
            grad[ax] *= inv2
        _apply(np.add, parts, pair)
        lap += pair
    lap /= s**2


def _dot3(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """a[0] b[0] + a[1] b[1] + a[2] b[2] into out, in the order of np.sum(a * b, axis=0)."""
    np.multiply(a[0], b[0], out=out)
    for ax in (1, 2):
        out += np.multiply(a[ax], b[ax], out=tmp)


def derive_state(phi1, phi2, t: float, w: WeightField, beside=None) -> StepState:
    """The state at (phi1, phi2, t) with its right-hand sides and stencil fields.

    One fused pass over the workspace's slabs, shared out among its lanes;
    each slab's gradients live only in its lane's scratch. The float
    operations and their order are those of operators.flow_rhs, so every
    output is bitwise equal to the reference. The seven derived fields come
    from the workspace's `grid_array`, so they are the caller's to hold.
    beside(), when given, is one more item of the hand-out, second in line:
    with two lanes the worker takes it while this thread takes the first
    slab, and either lane may run it. It must not call `map`, since the
    hand-out holds both lanes' scratch.
    """
    ws = w.slab_workspace
    s = w.grid.spacing
    lap1, lap2, wtil, r1, r2, sq1, sq2 = (ws.grid_array() for _ in range(7))

    def slab(sl, lane):
        p = sl.stop - sl.start
        g1, v = lane.grads[0, :, :p], lane.grads[1, :, :p]
        drift, tmp = lane.scratch[1, :p], lane.scratch[2, :p]
        slab_stencil(phi1, sl, lane, s, lap1[sl], g1)
        slab_stencil(phi2, sl, lane, s, lap2[sl], v)
        _dot3(g1, g1, sq1[sl], tmp)
        _dot3(v, v, sq2[sl], tmp)
        v += w.alpha_grad_log_h[:, sl]  # the phi1 drift velocity
        _dot3(v, g1, drift, tmp)
        drift *= 2.0
        np.subtract(lap1[sl], drift, out=r1[sl])
        r1[sl][w.rho.pinned[sl]] = 0.0  # pinned nodes do not move: dphi1/dt = 0 on the curve ring
        w.metric_weight(phi2[sl], out=wtil[sl], planes=sl)
        np.add(lap2[sl], np.multiply(wtil[sl], sq1[sl], out=tmp), out=r2[sl])

    items = ws.slabs if beside is None else [ws.slabs[0], beside, *ws.slabs[1:]]
    ws.map(lambda item, lane: beside() if item is beside else slab(item, lane), items)
    return StepState(phi1, phi2, t, r1, r2, lap1, lap2, wtil, sq1, sq2)


def init_state(family: str, params: dict, w: WeightField) -> StepState:
    phi1, phi2 = initial_fields(family, params, w)
    phi1 = phi1.copy()
    phi1[w.rho.pinned] = 0.0
    return derive_state(phi1, phi2, 0.0, w)


def cfl_dt(state: StepState, w: WeightField, cfl_factor: float) -> float:
    """dt <= c * spacing * min rho / (2 alpha + max |grad phi2| * min rho)."""
    s = w.grid.spacing
    min_rho = float(np.min(w.rho.rho))
    max_g2 = float(np.sqrt(np.max(state.grad2_sq)))
    return cfl_factor * s * min_rho / (2.0 * w.alpha + max_g2 * min_rho)


def _advance_field(phi, old, dphi_dt, lap, pins, dt, factor, slabs, lane) -> bool:
    """phi = heat_solve(old + dt * (dphi_dt - lap)), zero on the pins if given; whether it is finite.

    The explicit update is written slab by slab into phi, which the heat
    solve then overwrites with its result.
    """
    for sl in slabs:
        u = np.subtract(dphi_dt[sl], lap[sl], out=phi[sl])
        u *= dt
        u += old[sl]
    heat_solve(phi, factor, lane.spec, phi)
    if pins is not None:
        phi[pins] = 0.0
    return bool(np.all(np.isfinite(phi)))


def step(
    state: FlowState,
    w: WeightField,
    dt: float,
    euler_factor: np.ndarray | None = None,
    step_index: int = 0,
    beside=None,
) -> StepState:
    """One IMEX step: explicit drift/source, implicit diffusion, re-pin.

    The two fields are updated independently, each on a lane of the weight's
    slab workspace (with two lanes, this thread takes one and the worker the
    other), into arrays from its `grid_array`; `derive_state` then builds the
    new state from them. beside(state), when given, is one more item of that
    `derive_state`'s hand-out, so it runs once both new fields are in and
    finite, and has ended when this returns or raises. The new state owns
    all its arrays, and nothing of `state` is written, so a caller may hold
    any earlier state.
    """
    grid = w.grid
    if euler_factor is None:
        euler_factor = implicit_euler_factor(grid, dt)
    s = grid.spacing

    if isinstance(state, StepState):
        lap1, lap2 = state.lap1, state.lap2
    else:  # a plain record, e.g. read back from a snapshot
        lap1 = laplacian(state.phi1, s)
        lap2 = laplacian(state.phi2, s)
    # dphi1/dt - lap1 = -drift (zero drift reported on pins), dphi2/dt - lap2 =
    # nonlinear source. Separate real transforms: packing both fields into one
    # complex FFT would leak ~1e-16 * |phi2| into phi1 and bury its clean decay
    ws = w.slab_workspace
    phi1, phi2 = ws.grid_array(), ws.grid_array()
    finite1, finite2 = ws.map(
        lambda job, lane: _advance_field(*job, dt, euler_factor, ws.slabs, lane),
        [
            (phi1, state.phi1, state.dphi1_dt, lap1, w.rho.pinned),
            (phi2, state.phi2, state.dphi2_dt, lap2, None),
        ],
    )

    if not (finite1 and finite2):
        v = gradient(state.phi2, s) + w.alpha_grad_log_h
        raise FlowBlowupError(
            step_index,
            state.t,
            float(np.max(np.abs(state.phi1))),
            float(np.max(np.abs(state.phi2))),
            float(np.max(np.sqrt(np.sum(v * v, axis=0)))),
        )

    job = None if beside is None else (lambda: beside(state))
    return derive_state(phi1, phi2, state.t + dt, w, beside=job)


SERIES_COLUMNS = (
    "t",
    "H",
    "theta_l2",
    "max_abs_phi2",
    "hyp_dist_to_init",
    "residual1",
    "residual2",
)


@dataclass
class Trajectory:
    series: dict  # column -> list of floats, plus log/sup extras
    snapshots: list[FlowState]

    @property
    def snapshot_times(self) -> list[float]:
        return [st.t for st in self.snapshots]

    @property
    def initial(self) -> FlowState:
        return self.snapshots[0]

    @property
    def final(self) -> FlowState:
        return self.snapshots[-1]

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.series[name])


def steady_residual(state: FlowState, w: WeightField) -> tuple[float, float]:
    """Weighted sup residuals of the limiting elliptic system:

    (sup rho^{7/2-a} |Lap phi1 - 2 (grad phi2 + a grad h / h) . grad phi1|,
     sup rho^{7/2}   |Lap phi2 + h^{-2a} e^{-2 phi2} |grad phi1|^2|).

    Along the flow both residuals equal the same-weighted time derivatives.
    The pinned ring is excluded from the first residual; there the discrete
    solution satisfies the curve condition instead of the bulk equation.
    """
    derived = derive_state(state.phi1, state.phi2, state.t, w)
    row = _series_row(derived, w, _series_constants(derived, w))
    return row["residual1"], row["residual2"]


def _series_constants(state0: FlowState, w: WeightField) -> dict:
    """Per-run constant factors of the diagnostics row, relative to state0, and its scratch.

    The row writes its grid-sized products into the two `scratch` fields, so
    one row at a time may use them.
    """
    rho = w.rho.rho
    a = w.alpha
    return {
        "alpha_log_h": a * w.log_h,
        "rho_15ma": rho ** (1.5 - a),
        "rho_15": rho**1.5,
        "rho_35ma": rho ** (3.5 - a),
        "rho_35": rho**3.5,
        "phi1_0": state0.phi1.copy(),
        "Phi2_0": np.exp(a * w.log_h + state0.phi2),
        "scratch": np.empty((2, *rho.shape)),
    }


def _weighted_abs(r: np.ndarray, rho_power: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rho_power * |r| into out."""
    return np.multiply(rho_power, np.abs(r, out=out), out=out)


def _series_row(state: StepState, w: WeightField, pre: dict):
    vol = w.grid.cell_volume
    r1, r2 = state.dphi1_dt, state.dphi2_dt
    wtil = state.wtil
    a, b = pre["scratch"]

    energy = np.multiply(wtil, state.grad1_sq, out=a)
    energy += state.grad2_sq
    H = float(np.sum(energy)) * vol
    theta = np.multiply(wtil, r1, out=b)  # wtil r1^2 + r2^2
    theta *= r1
    theta += np.multiply(r2, r2, out=a)
    theta_l2 = float(np.sum(np.multiply(theta, theta, out=a))) * vol
    log_theta2 = log_integral_sq(theta, vol)

    Phi2 = np.add(pre["alpha_log_h"], state.phi2, out=a)
    np.exp(Phi2, out=Phi2)
    hyp = hyperbolic_distance(state.phi1, Phi2, pre["phi1_0"], pre["Phi2_0"])

    weighted = _weighted_abs(r1, pre["rho_15ma"], a)
    weighted += _weighted_abs(r2, pre["rho_15"], b)
    weighted_sup = float(np.max(weighted, where=w.rho.outside_ring, initial=-np.inf))
    res1 = float(np.max(_weighted_abs(r1, pre["rho_35ma"], a)))
    res2 = float(np.max(_weighted_abs(r2, pre["rho_35"], a)))
    return {
        "t": state.t,
        "H": H,
        "theta_l2": theta_l2,
        "log_theta2": log_theta2,
        "max_abs_phi2": float(np.max(np.abs(state.phi2, out=a))),
        "hyp_dist_to_init": float(np.max(hyp)),
        "weighted_dt_sup": weighted_sup,
        "residual1": res1,
        "residual2": res2,
    }


def march(
    state0: FlowState,
    w: WeightField,
    dt: float,
    t_final: float,
    step_callback=None,
    beside=None,
) -> StepState:
    """Take round(t_final / dt) steps from state0 and return the final state.

    step_callback(state), when given, runs on the initial state and after
    every step; streaming consumers (local-in-time diagnostics) hook in here
    without the memory cost of dense snapshots or the per-step series row.
    beside(state), when given, runs inside every step on the state it steps
    from, as one item of the new state's `derive_state` hand-out (see
    `step`), on whichever lane takes it.
    """
    factor = implicit_euler_factor(w.grid, dt)
    state = state0
    if step_callback is not None:
        step_callback(state)
    for i in range(1, int(round(t_final / dt)) + 1):
        state = step(state, w, dt, euler_factor=factor, step_index=i, beside=beside)
        if step_callback is not None:
            step_callback(state)
    return state


def run(
    state0: StepState,
    w: WeightField,
    dt: float,
    t_final: float,
    snapshot_interval: float,
    conserve_phi2_mean: bool = False,
) -> Trajectory:
    """March the flow to t_final, logging per-step series and scheduled snapshots.

    Streaming consumers that need no series row hook into `march` instead.

    The diagnostics row of state k runs inside step k + 1, as one item of
    that step's `derive_state` hand-out (see `march`'s beside): with two
    lanes the worker usually takes it beside the first slab. Either way it
    has ended before step k + 1 returns, so the series keeps step order; the
    row is a pure function of its state, so the series is the same as a
    serial one. The final state's row runs here once `march` returns. The
    mean shift and the snapshot copy of state k are made on this thread
    before step k + 1. A row's error is raised here; a step that blows up
    raises before the row of the state it stepped from runs.

    conserve_phi2_mean holds the phi2 mean at exactly zero (initial state
    included). With phi1 = 0 and zero-mean data the discrete flow conserves
    that mean exactly, but FFT round-off lets a tiny constant accumulate, and
    its own round-off then floors every decaying mode; projecting it out each
    step keeps the remaining noise proportional to the decaying amplitude, so
    pure-decay runs stay clean over hundreds of orders of magnitude. Only
    valid for phi1 = 0 and zero-mean phi2, where no source feeds the mean.
    """
    if conserve_phi2_mean:
        if np.any(state0.phi1 != 0.0):
            raise ValueError("conserve_phi2_mean requires phi1 = 0")
        mean0 = float(state0.phi2.mean())
        if abs(mean0) > 1e-12 * max(1.0, float(np.max(np.abs(state0.phi2)))):
            raise ValueError("conserve_phi2_mean requires zero-mean initial phi2")
        state0 = derive_state(state0.phi1, state0.phi2 - mean0, state0.t, w)

    pre = _series_constants(state0, w)
    n_steps = int(round(t_final / dt))
    # a whole number of steps under dt_policy = fixed (see config); the nearest one under cfl
    snap_every = max(1, int(round(snapshot_interval / dt)))

    series: dict[str, list] = {}
    snapshots: list[FlowState] = []
    counter = itertools.count()

    def append_row(state):
        for key, val in _series_row(state, w, pre).items():
            series.setdefault(key, []).append(val)

    def on_state(state):
        i = next(counter)
        if conserve_phi2_mean and i > 0:
            # constant shift: the derived gradient norms and Laplacians stay
            # equal up to rounding, and wtil only multiplies |grad phi1|^2 = 0
            phi2 = state.phi2
            phi2 -= float(phi2.mean())
        if i == 0 or i % snap_every == 0 or i == n_steps:
            snapshots.append(state.copy())

    final = march(state0, w, dt, t_final, step_callback=on_state, beside=append_row)
    append_row(final)
    return Trajectory(series=series, snapshots=snapshots)
