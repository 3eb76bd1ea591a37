"""Geometry types, predicates, and the uniform grid."""

import warnings

import numpy as np
import pytest

from repro.geometry import Envelope, Point, Polygon, UniformGrid
from repro.geometry.polygon import pack_rings, ray_cast


def _ray_cast(poly, xs, ys):
    """``ray_cast`` of every point against the one polygon."""
    every = np.arange(len(xs))
    return ray_cast(pack_rings([poly]), xs, ys, every, np.zeros_like(every))


class TestPoint:
    def test_frozen(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 1


class TestEnvelope:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Envelope(1, 0, 0, 1)

    def test_properties(self):
        env = Envelope(0, 4, 0, 2)
        assert env.width == 4
        assert env.height == 2
        assert env.center == Point(2, 1)

    def test_contains_point_boundary_closed(self):
        env = Envelope(0, 1, 0, 1)
        assert env.contains_point(Point(0, 0))
        assert env.contains_point(Point(1, 1))
        assert not env.contains_point(Point(1.0001, 0.5))

    def test_intersects(self):
        a = Envelope(0, 2, 0, 2)
        assert a.intersects(Envelope(1, 3, 1, 3))
        assert a.intersects(Envelope(2, 3, 0, 2))  # touching edge
        assert not a.intersects(Envelope(3, 4, 3, 4))

    def test_union(self):
        a = Envelope(0, 1, 0, 1)
        u = a.union(Envelope(2, 3, -1, 0.5))
        assert (u.min_x, u.max_x, u.min_y, u.max_y) == (0, 3, -1, 1)

    def test_of_points(self):
        env = Envelope.of_points([Point(1, 5), Point(-2, 3)])
        assert (env.min_x, env.max_x) == (-2, 1)
        with pytest.raises(ValueError):
            Envelope.of_points([])

    @pytest.mark.parametrize("bad", range(4))
    def test_nan_bound_rejected(self, bad):
        """Regression: ``nan > x`` is False, so NaN bounds used to pass
        and such an envelope intersected every query on that axis."""
        bounds = [0.0, 1.0, 0.0, 1.0]
        bounds[bad] = np.nan
        with pytest.raises(ValueError, match="degenerate"):
            Envelope(*bounds)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_of_points_rejects_nan_anywhere(self, at):
        # min/max skip a NaN that is not first, so this needs its own check.
        points = [Point(0, 0), Point(1, 2), Point(2, 1)]
        points[at] = Point(points[at].x, np.nan) if at == 1 else Point(np.nan, 0)
        with pytest.raises(ValueError, match="NaN"):
            Envelope.of_points(points)


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_closed_ring_deduplicated(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(poly.vertices) == 3

    def test_contains_interior_exterior(self):
        poly = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert poly.contains_point(Point(2, 2))
        assert not poly.contains_point(Point(5, 2))
        assert not poly.contains_point(Point(-1, -1))

    def test_contains_concave(self):
        # L-shaped polygon: the notch is outside.
        poly = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        assert poly.contains_point(Point(1, 3))
        assert not poly.contains_point(Point(3, 3))

    @pytest.mark.parametrize(
        "ring",
        [[(np.nan, 0), (1, 0), (1, 1)], [(0, 0), (1, np.nan), (1, 1)]],
    )
    def test_nan_vertex_rejected(self, ring):
        """Regression: a NaN first vertex gave the envelope
        ``(nan, nan, 0, 1)``, which the scalar index walk returned for
        every point in its y-range and the batched probe never did."""
        with pytest.raises(ValueError):
            Polygon(ring)

    def test_tuple_vertices_accepted(self):
        assert Polygon([(0, 0), (1, 0), (0, 1)]).envelope.max_x == 1

    def test_ray_cast_matches_scalar_on_boundaries(self):
        # L-shape probed on a half-step lattice: every vertex, edge
        # midpoint, horizontal edge and envelope corner is a sample.
        poly = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        ticks = np.arange(-1, 5.5, 0.5)
        xs, ys = (a.ravel() for a in np.meshgrid(ticks, ticks))
        expected = [poly.contains_point(Point(x, y)) for x, y in zip(xs, ys)]
        got = _ray_cast(poly, xs, ys)
        assert got.dtype == bool and got.tolist() == expected
        assert 0 < got.sum() < len(got)

    def test_ray_cast_nan_and_empty(self):
        poly = Polygon([(0, 0), (4, 0), (0, 4)])
        got = _ray_cast(poly, np.array([1.0, 3, 1]), np.array([1.0, 3, np.nan]))
        assert got.tolist() == [True, False, False]
        assert _ray_cast(poly, np.empty(0), np.empty(0)).tolist() == []


class TestUniformGrid:
    def _grid(self):
        return UniformGrid(Envelope(0, 12, 0, 8), nx=3, ny=2)

    def test_cell_sizes(self):
        grid = self._grid()
        assert grid.cell_width == 4
        assert grid.cell_height == 4

    def test_cell_of_interior(self):
        ids = self._grid().cell_ids_of_arrays([1, 11], [1, 7])
        assert ids.tolist() == [0, 5]  # cells (0, 0) and (2, 1)

    def test_cell_of_upper_boundary_clamped(self):
        assert self._grid().cell_ids_of_arrays([12], [8]).tolist() == [5]

    def test_cell_of_outside(self):
        assert self._grid().cell_ids_of_arrays([13, -1], [1, 1]).tolist() == [-1, -1]

    def test_flat_id_row_major(self):
        assert self._grid().cell_ids_of_arrays([5, 1], [1, 5]).tolist() == [1, 3]

    def test_vectorized_matches_scalar(self, rng):
        grid = self._grid()
        xs = rng.uniform(-2, 14, 200)
        ys = rng.uniform(-2, 10, 200)
        vec = grid.cell_ids_of_arrays(xs, ys)
        for i in range(200):
            # Closed envelope; the far right / top edge clamps into the
            # last column / row.
            inside = 0 <= xs[i] <= 12 and 0 <= ys[i] <= 8
            col, row = min(int(xs[i] // 4), 2), min(int(ys[i] // 4), 1)
            assert vec[i] == (row * 3 + col if inside else -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_are_outside_without_a_cast_warning(self, bad):
        grid = self._grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = grid.cell_ids_of_arrays([1.0, bad, 11.0], [1.0, 1.0, bad])
        assert ids.tolist() == [0, -1, -1]

    def test_cell_envelope(self):
        grid = self._grid()
        env = grid.cell_envelope(1, 1)
        assert (env.min_x, env.max_x, env.min_y, env.max_y) == (4, 8, 4, 8)
        with pytest.raises(IndexError):
            grid.cell_envelope(3, 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UniformGrid(Envelope(0, 10, 0, 10), 0, 2)
        with pytest.raises(ValueError):
            UniformGrid(Envelope(0, 0, 0, 0), 2, 2)
