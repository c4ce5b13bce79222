import itertools

import numpy as np
import pytest
from oracles import curve_projection_coordinate, periodic_distance

from singflow.geometry import CurveGamma, TorusGrid, distance_to_curve


def brute_force_point_distance(p, q, L):
    """Min Euclidean distance over the 3^3 periodic images of q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    best = np.inf
    for shift in itertools.product((-1, 0, 1), repeat=3):
        best = min(best, float(np.linalg.norm(p - (q + L * np.asarray(shift)))))
    return best


def brute_force_curve_distance(grid, gamma, n_line_samples=256):
    """All-pairs oracle: dense curve samples x 3^3 images, looped per node."""
    L = grid.length
    if gamma.kind == "axis_line":
        a, b = gamma.params["a"], gamma.params["b"]
        zs = np.linspace(0, L, n_line_samples, endpoint=False)
        pts = np.stack([np.full_like(zs, a), np.full_like(zs, b), zs], axis=1)
    else:
        pts = gamma.sample_points
    out = np.empty(grid.shape)
    ax = grid.axis
    for i, x in enumerate(ax):
        for j, y in enumerate(ax):
            for k, z in enumerate(ax):
                best = np.inf
                for p in pts:
                    d = np.abs(np.array([x, y, z]) - p)
                    d = np.minimum(d % L, L - d % L)
                    best = min(best, float(np.sqrt(np.sum(d * d))))
                out[i, j, k] = best
    return out


class TestPeriodicDistance:
    def test_identity(self):
        assert periodic_distance((0.3, 0.4, 0.9), (0.3, 0.4, 0.9), 1.0) == 0.0

    def test_wrap_around(self):
        assert periodic_distance((0.0, 0.0, 0.0), (0.9, 0.0, 0.0), 1.0) == pytest.approx(0.1)

    def test_generic_point_pair_matches_brute_force(self):
        p, q = (0.1, 0.2, 0.3), (0.8, 0.9, 0.4)
        expected = brute_force_point_distance(p, q, 1.0)
        assert expected == pytest.approx(np.sqrt(0.19))
        assert periodic_distance(p, q, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_random_pairs_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
            assert periodic_distance(p, q, 1.0) == pytest.approx(
                brute_force_point_distance(p, q, 1.0), abs=1e-12
            )


class TestGrid:
    def test_spacing_times_n_is_length(self):
        g = TorusGrid(32, 1.0)
        assert g.spacing * g.n == pytest.approx(g.length, abs=1e-15)

    def test_cell_centered_nodes_avoid_axis_line(self):
        g = TorusGrid(32, 1.0)
        gamma = CurveGamma.axis_line(0.5, 0.5)
        rho = distance_to_curve(g, gamma)
        assert rho.rho_unclamped.min() > 0
        # nearest node sits at transverse offset (s/2, s/2)
        assert rho.rho_unclamped.min() == pytest.approx(g.spacing / np.sqrt(2), rel=1e-12)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            TorusGrid(0, 1.0)
        with pytest.raises(ValueError, match="^length must be positive$"):
            TorusGrid(8, -2.0)

    def test_grids_equal_by_n_and_length(self):
        grid = TorusGrid(16, 1.0)
        assert grid == TorusGrid(16, 1.0)
        assert grid != TorusGrid(32, 1.0)
        assert grid != TorusGrid(16, 2.0)
        assert grid != (16, 1.0)
        assert TorusGrid.__hash__ is None


class TestDistanceToCurve:
    def test_on_curve_node_clamps(self):
        g = TorusGrid(16, 1.0)
        gamma = CurveGamma.axis_line(0.5, 0.5)
        d = distance_to_curve(g, gamma)
        assert np.array_equal(d.rho, np.maximum(d.rho_unclamped, 0.5 * g.spacing))
        assert np.all(d.rho >= 0.5 * g.spacing)

    def test_transverse_offset_exact(self):
        g = TorusGrid(16, 1.0)
        gamma = CurveGamma.axis_line(0.5, 0.5)
        d = distance_to_curve(g, gamma)
        # node nearest to (0.75, 0.5, z): offsets are half-spacing multiples
        i = np.argmin(np.abs(g.axis - 0.75))
        j = np.argmin(np.abs(g.axis - 0.5))
        expected = np.hypot(g.axis[i] - 0.5, g.axis[j] - 0.5)
        assert d.rho_unclamped[i, j, 0] == pytest.approx(expected, rel=1e-13)

    def test_far_corner_value(self):
        g = TorusGrid(10, 1.0)
        gamma = CurveGamma.axis_line(0.5, 0.5)
        d = distance_to_curve(g, gamma)
        # node at (0.95, 0.95, z): wrapped transverse offsets 0.45 each
        assert d.rho_unclamped[9, 9, 0] == pytest.approx(np.hypot(0.45, 0.45), rel=1e-13)

    def test_axis_line_matches_brute_force(self):
        g = TorusGrid(12, 1.0)
        gamma = CurveGamma.axis_line(0.5, 0.5)
        d = distance_to_curve(g, gamma)
        oracle = brute_force_curve_distance(g, gamma)
        assert np.max(np.abs(d.rho_unclamped - oracle)) <= g.spacing

    def test_circle_matches_brute_force(self):
        g = TorusGrid(12, 1.0)
        gamma = CurveGamma.circle((0.5, 0.5, 0.5), 0.25, 2, 64)
        d = distance_to_curve(g, gamma)
        oracle = brute_force_curve_distance(g, gamma)
        assert np.max(np.abs(d.rho_unclamped - oracle)) <= g.spacing

    @pytest.mark.parametrize(
        "gamma",
        [CurveGamma.axis_line(0.5, 0.5), CurveGamma.circle((0.5, 0.5, 0.5), 0.25, 2, 64)],
        ids=["axis_line", "circle"],
    )
    def test_curve_masks_follow_their_rule(self, gamma):
        g = TorusGrid(16, 1.0)
        d = distance_to_curve(g, gamma)
        assert np.array_equal(d.pinned, d.rho_unclamped <= g.spacing)
        assert np.array_equal(d.outside_ring, d.rho_unclamped > 2.0 * g.spacing)
        assert np.any(d.pinned) and np.any(d.outside_ring)
        assert not np.any(d.pinned & d.outside_ring)

    def test_circle_radius_rejected(self):
        g = TorusGrid(12, 1.0)
        gamma = CurveGamma.circle((0.5, 0.5, 0.5), 0.5, 2, 64)
        with pytest.raises(ValueError, match="radius"):
            distance_to_curve(g, gamma)

    def test_circle_resolution_contract(self):
        g = TorusGrid(32, 1.0)
        gamma = CurveGamma.circle((0.5, 0.5, 0.5), 0.3, 2, 8)
        with pytest.raises(ValueError, match="sample spacing"):
            distance_to_curve(g, gamma)

    def test_lipschitz_under_periodic_metric(self):
        g = TorusGrid(16, 1.0)
        d = distance_to_curve(g, CurveGamma.axis_line(0.5, 0.5))
        rng = np.random.default_rng(3)
        ax = g.axis
        for _ in range(200):
            i1, j1, k1, i2, j2, k2 = rng.integers(0, g.n, size=6)
            p = (ax[i1], ax[j1], ax[k1])
            q = (ax[i2], ax[j2], ax[k2])
            lhs = abs(d.rho[i1, j1, k1] - d.rho[i2, j2, k2])
            assert lhs <= periodic_distance(p, q, 1.0) + 2 * g.spacing

    def test_symmetries_of_axis_line(self):
        g = TorusGrid(16, 1.0)
        d = distance_to_curve(g, CurveGamma.axis_line(0.5, 0.5))
        # x1 <-> x2 swap about the curve location
        assert np.allclose(d.rho, np.swapaxes(d.rho, 0, 1))
        # x3 translation invariance
        assert np.allclose(d.rho, np.roll(d.rho, 5, axis=2))
        # reflection about 0.5 maps node i to n-1-i
        assert np.allclose(d.rho, d.rho[::-1, :, :])


class TestProjectionCoordinate:
    def test_anchor_itself(self):
        gamma = CurveGamma.axis_line(0.5, 0.5)
        assert curve_projection_coordinate((0.5, 0.5, 0.2), (0.5, 0.5, 0.2), gamma, 1.0) == 0.0

    def test_plain_offset(self):
        gamma = CurveGamma.axis_line(0.5, 0.5)
        r = curve_projection_coordinate((0.1, 0.9, 0.5), (0.5, 0.5, 0.2), gamma, 1.0)
        assert r == pytest.approx(0.3)

    def test_wraparound(self):
        gamma = CurveGamma.axis_line(0.5, 0.5)
        # brute force over shifts: min |0.9 - 0.1 + m| over integers m
        expected = min(abs(0.9 - 0.1 + m) for m in (-1, 0, 1))
        r = curve_projection_coordinate((0.3, 0.3, 0.9), (0.5, 0.5, 0.1), gamma, 1.0)
        assert r == pytest.approx(expected)

    def test_circle_arc_length(self):
        gamma = CurveGamma.circle((0.5, 0.5, 0.5), 0.2, 2, 128)
        anchor = (0.7, 0.5, 0.5)  # angle 0
        x = (0.5, 0.7, 0.5)  # angle pi/2
        r = curve_projection_coordinate(x, anchor, gamma, 1.0)
        assert r == pytest.approx(0.2 * np.pi / 2, rel=1e-12)
