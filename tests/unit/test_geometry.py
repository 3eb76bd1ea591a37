"""Geometry types, predicates, and the uniform grid."""

import numpy as np
import pytest

from repro.geometry import Envelope, Point, Polygon, UniformGrid


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance(Point(3, 4)) == pytest.approx(5.0)

    def test_iter_unpacks(self):
        x, y = Point(1.5, 2.5)
        assert (x, y) == (1.5, 2.5)

    def test_envelope_degenerate(self):
        env = Point(2, 3).envelope
        assert env.min_x == env.max_x == 2

    def test_within(self):
        env = Envelope(0, 10, 0, 10)
        assert Point(5, 5).within(env)
        assert not Point(11, 5).within(env)

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
        assert env.area == 8
        assert env.center == Point(2, 1)

    def test_contains_point_boundary_closed(self):
        env = Envelope(0, 1, 0, 1)
        assert env.contains_point(Point(0, 0))
        assert env.contains_point(Point(1, 1))
        assert not env.contains_point(Point(1.0001, 0.5))

    def test_contains_envelope(self):
        outer = Envelope(0, 10, 0, 10)
        assert outer.contains_envelope(Envelope(1, 9, 1, 9))
        assert not outer.contains_envelope(Envelope(5, 11, 5, 9))

    def test_intersects(self):
        a = Envelope(0, 2, 0, 2)
        assert a.intersects(Envelope(1, 3, 1, 3))
        assert a.intersects(Envelope(2, 3, 0, 2))  # touching edge
        assert not a.intersects(Envelope(3, 4, 3, 4))

    def test_expand_union(self):
        a = Envelope(0, 1, 0, 1)
        assert a.expand(1).min_x == -1
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

    def test_area_square(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert poly.area == pytest.approx(4.0)

    def test_area_triangle(self):
        poly = Polygon([(0, 0), (4, 0), (0, 3)])
        assert poly.area == pytest.approx(6.0)

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

    def test_contains_points_matches_scalar_on_boundaries(self):
        # L-shape probed on a half-step lattice: every vertex, edge
        # midpoint, horizontal edge and envelope corner is a sample.
        poly = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        ticks = np.arange(-1, 5.5, 0.5)
        xs, ys = (a.ravel() for a in np.meshgrid(ticks, ticks))
        expected = [poly.contains_point(Point(x, y)) for x, y in zip(xs, ys)]
        got = poly.contains_points(xs, ys)
        assert got.dtype == bool and got.tolist() == expected
        assert 0 < got.sum() < len(got)

    def test_contains_points_accepts_lists_and_empty(self):
        poly = Polygon([(0, 0), (4, 0), (0, 4)])
        assert poly.contains_points([1, 3, 1], [1, 3, np.nan]).tolist() == [
            True, False, False,
        ]
        assert poly.contains_points([], []).tolist() == []


class TestUniformGrid:
    def _grid(self):
        return UniformGrid(Envelope(0, 12, 0, 8), nx=3, ny=2)

    def test_cell_sizes(self):
        grid = self._grid()
        assert grid.cell_width == 4
        assert grid.cell_height == 4
        assert grid.num_cells == 6

    def test_cell_of_interior(self):
        grid = self._grid()
        assert grid.cell_of(Point(1, 1)) == (0, 0)
        assert grid.cell_of(Point(11, 7)) == (2, 1)

    def test_cell_of_upper_boundary_clamped(self):
        grid = self._grid()
        assert grid.cell_of(Point(12, 8)) == (2, 1)

    def test_cell_of_outside(self):
        assert self._grid().cell_of(Point(13, 1)) is None
        assert self._grid().cell_id_of(Point(-1, 1)) is None

    def test_flat_id_row_major(self):
        grid = self._grid()
        assert grid.cell_id_of(Point(5, 1)) == 1
        assert grid.cell_id_of(Point(1, 5)) == 3

    def test_vectorized_matches_scalar(self, rng):
        grid = self._grid()
        xs = rng.uniform(-2, 14, 200)
        ys = rng.uniform(-2, 10, 200)
        vec = grid.cell_ids_of_arrays(xs, ys)
        for i in range(200):
            scalar = grid.cell_id_of(Point(xs[i], ys[i]))
            assert vec[i] == (-1 if scalar is None else scalar)

    def test_cell_envelope(self):
        grid = self._grid()
        env = grid.cell_envelope(1, 1)
        assert (env.min_x, env.max_x, env.min_y, env.max_y) == (4, 8, 4, 8)
        with pytest.raises(IndexError):
            grid.cell_envelope(3, 0)

    def test_adjacency_four_neighbour(self):
        grid = self._grid()
        adj = grid.adjacency_matrix()
        assert adj[0, 1] == 1 and adj[0, 3] == 1
        assert adj[0, 4] == 0  # diagonal off by default
        assert adj[0, 0] == 0
        np.testing.assert_array_equal(adj, adj.T)

    def test_adjacency_eight_neighbour(self):
        adj = self._grid().adjacency_matrix(diagonal=True)
        assert adj[0, 4] == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UniformGrid(Envelope(0, 10, 0, 10), 0, 2)
        with pytest.raises(ValueError):
            UniformGrid(Envelope(0, 0, 0, 0), 2, 2)
