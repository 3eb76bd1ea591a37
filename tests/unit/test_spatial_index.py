"""The STR-tree spatial index and the cell table behind its batched
probe, held to the scalar node walk (``query_point``)."""

import math

import numpy as np
import pytest

from repro.engine import Session, agg
from repro.geometry import Envelope, Point, Polygon, STRTree
from repro.spatial import spatial_join_points_polygons
from tests.spatial_oracle import oracle_join


def _random_envelopes(rng, n):
    xs = rng.uniform(0, 100, n)
    ys = rng.uniform(0, 100, n)
    ws = rng.uniform(0.1, 5, n)
    hs = rng.uniform(0.1, 5, n)
    return [
        Envelope(x, x + w, y, y + h) for x, y, w, h in zip(xs, ys, ws, hs)
    ]


class TestSTRTree:
    def test_empty(self):
        tree = STRTree([])
        assert len(tree) == 0
        assert list(tree.query(Envelope(0, 1, 0, 1))) == []

    def test_single(self):
        tree = STRTree([(Envelope(0, 1, 0, 1), "a")])
        assert list(tree.query(Envelope(0.5, 2, 0.5, 2))) == ["a"]
        assert list(tree.query(Envelope(2, 3, 2, 3))) == []

    def test_matches_brute_force(self, rng):
        envs = _random_envelopes(rng, 300)
        tree = STRTree([(e, i) for i, e in enumerate(envs)])
        for _ in range(30):
            e = _random_envelopes(rng, 1)[0]
            q = Envelope(e.min_x - 2, e.max_x + 2, e.min_y - 2, e.max_y + 2)
            expected = {i for i, e in enumerate(envs) if e.intersects(q)}
            got = set(tree.query(q))
            assert got == expected

    def test_query_point(self, rng):
        envs = _random_envelopes(rng, 100)
        tree = STRTree([(e, i) for i, e in enumerate(envs)])
        p = Point(50, 50)
        expected = {i for i, e in enumerate(envs) if e.contains_point(p)}
        assert set(tree.query_point(p)) == expected

    def test_all_items_reachable(self, rng):
        envs = _random_envelopes(rng, 257)  # not a multiple of capacity
        tree = STRTree([(e, i) for i, e in enumerate(envs)])
        everything = Envelope(-10, 200, -10, 200)
        assert set(tree.query(everything)) == set(range(257))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            STRTree([], node_capacity=1)

    def test_query_points_matches_query_point(self, rng):
        envs = _random_envelopes(rng, 300)
        tree = STRTree([(e, i) for i, e in enumerate(envs)])
        xs, ys = rng.uniform(-5, 110, 500), rng.uniform(-5, 110, 500)
        index, payload = tree.query_points(xs, ys)
        assert payload.dtype == np.int64
        assert np.all(np.diff(index) >= 0)
        for i in range(500):
            expected = sorted(tree.query_point(Point(xs[i], ys[i])))
            assert sorted(payload[index == i]) == expected

    def test_query_points_empty_tree_and_empty_input(self):
        index, payload = STRTree([]).query_points(
            [0.5, 1.0, np.inf, np.nan], [0.5, 1.0, -np.inf, 0.5]
        )
        assert len(index) == len(payload) == 0
        tree = STRTree([(Envelope(0, 1, 0, 1), "a")])
        index, payload = tree.query_points([], [])
        assert len(index) == len(payload) == 0

    def test_query_points_keeps_any_payload(self):
        tree = STRTree(
            [(Envelope(0, 1, 0, 1), "a"), (Envelope(0, 2, 0, 2), ("b", 2))]
        )
        index, payload = tree.query_points([0.5, 1.5, 3.0], [0.5, 1.5, 3.0])
        assert index.tolist() == [0, 0, 1]
        assert sorted(map(str, payload[:2])) == ["('b', 2)", "a"]
        assert payload[2] == ("b", 2)

    def test_query_points_nan_matches_nothing(self):
        tree = STRTree([(Envelope(0, 1, 0, 1), 0)])
        index, _ = tree.query_points([np.nan, 0.5, 0.5], [0.5, np.nan, 0.5])
        assert index.tolist() == [2]

    def test_query_point_nan_matches_nothing(self):
        """The scalar walk agrees: a NaN point has no envelope, so it
        is in none (it used to intersect every node)."""
        tree = STRTree([(Envelope(0, 1, 0, 1), 0), (Envelope(-5, 5, -5, 5), 1)])
        assert list(tree.query_point(Point(np.nan, 0.5))) == []
        assert list(tree.query_point(Point(0.5, np.nan))) == []
        assert sorted(tree.query_point(Point(0.5, 0.5))) == [0, 1]


def _probe_is_the_walk(tree, xs, ys):
    """``query_points`` equals ``query_point`` on every point, with
    ``point_index`` ascending; returns the probe's pairs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    index, payload = tree.query_points(xs, ys)
    assert np.all(np.diff(index) >= 0)
    for i in range(len(xs)):
        expected = sorted(tree.query_point(Point(xs[i], ys[i])))
        assert sorted(payload[index == i]) == expected, (xs[i], ys[i])
    return index, payload


def _cut_lines(axis_map) -> np.ndarray:
    """Every value at which an axis map changes cell, and the float on
    either side of it."""
    origin, scale, table = axis_map
    cuts = origin + (np.flatnonzero(np.diff(table)) + 1) / scale
    return np.concatenate(
        [cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)]
    )


def _grid_points(xs, ys):
    gx, gy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    return gx.ravel(), gy.ravel()


def _cells_per_axis(tree) -> tuple:
    return len(np.unique(tree._x_map[2])), len(np.unique(tree._y_map[2]))


class TestCellTable:
    def test_zero_width_and_zero_height_extents(self, rng):
        ys = rng.uniform(0, 10, 60)
        vertical = [Envelope(2.0, 2.0, y, y + 0.5) for y in ys]
        tree = STRTree([(e, i) for i, e in enumerate(vertical)])
        assert _cells_per_axis(tree)[0] == 1 < _cells_per_axis(tree)[1]
        along = np.arange(-1, 12, 0.25)
        _probe_is_the_walk(tree, *_grid_points([1.5, 2.0, 2.5], along))
        horizontal = [Envelope(y, y + 0.5, -3.0, -3.0) for y in ys]
        tree = STRTree([(e, i) for i, e in enumerate(horizontal)])
        assert _cells_per_axis(tree)[1] == 1 < _cells_per_axis(tree)[0]
        _probe_is_the_walk(tree, *_grid_points(along, [-3.0, -2.5]))

    def test_all_entries_identical(self):
        tree = STRTree([(Envelope(0, 1, 0, 1), i) for i in range(50)])
        assert _cells_per_axis(tree) == (1, 1) and tree.max_cell_entries == 50
        ticks = [-0.5, 0, 0.5, 1, 1.5, 2]
        _probe_is_the_walk(tree, *_grid_points(ticks, ticks))
        assert sorted(tree.query_points([0.5], [1.0])[1]) == list(range(50))

    @pytest.mark.parametrize("covering", [1, 40])
    def test_covering_envelopes_keep_registrations_linear(self, rng, covering):
        """One envelope over the whole extent registers in every cell;
        forty would make the table ~40 n, so the cuts coarsen until at
        most 8 n registrations remain."""
        small = _random_envelopes(rng, 400)
        big = [Envelope(-1 - k, 106 + k, -1, 106) for k in range(covering)]
        tree = STRTree([(e, i) for i, e in enumerate(small + big)])
        n = len(tree)
        assert len(tree._cell_entries) <= 8 * n
        per_axis = math.isqrt(n - 1) + 1
        coarsened = max(_cells_per_axis(tree)) < per_axis / 1.5
        assert coarsened == (covering > 1)
        xs, ys = rng.uniform(-5, 110, 400), rng.uniform(-5, 110, 400)
        index, _ = _probe_is_the_walk(tree, xs, ys)
        covered = (xs >= -1) & (xs <= 106) & (ys >= -1) & (ys <= 106)
        assert np.all(np.bincount(index, minlength=400)[covered] >= covering)

    def test_entries_with_infinite_bounds(self, rng):
        small = _random_envelopes(rng, 120)
        unbounded = [
            Envelope(-np.inf, np.inf, 40, 41),
            Envelope(50, np.inf, -np.inf, 60),
            Envelope(-np.inf, -np.inf, 0, 100),
            Envelope(-np.inf, np.inf, -np.inf, np.inf),
            Envelope(30, 30, np.inf, np.inf),
        ]
        tree = STRTree([(e, i) for i, e in enumerate(small + unbounded)])
        values = [-np.inf, -1e308, -1, 0, 30, 40, 50, 60, 100, 1e308, np.inf]
        _, payload = _probe_is_the_walk(tree, *_grid_points(values, values))
        assert 123 in payload and 124 in payload  # (-inf, x) and (30, inf) found

    def test_points_on_cut_lines_and_envelope_edges(self, rng):
        # 100 entries: 10 cells and 640 fine bins per axis.  Centres
        # span 0..640, so every bin is one unit wide, every cut line is
        # an integer, and integer envelope edges fall on cut lines.
        centres = np.concatenate([[0, 640], rng.integers(0, 641, 98)])
        halves = rng.integers(0, 20, (100, 2))
        envs = [
            Envelope(cx - wx, cx + wx, cy - wy, cy + wy)
            for cx, cy, (wx, wy) in zip(centres, rng.permutation(centres), halves)
        ]
        tree = STRTree([(e, i) for i, e in enumerate(envs)])
        assert tree._x_map[1] == 1.0 and min(_cells_per_axis(tree)) > 5
        cuts_x, cuts_y = _cut_lines(tree._x_map), _cut_lines(tree._y_map)
        edges_x = np.unique([v for e in envs for v in (e.min_x, e.max_x)])
        edges_y = np.unique([v for e in envs for v in (e.min_y, e.max_y)])
        assert len(np.intersect1d(cuts_x, edges_x))
        assert len(np.intersect1d(cuts_y, edges_y))
        xs = np.concatenate([cuts_x, edges_x[::4]])
        ys = np.concatenate([cuts_y, edges_y[::4]])
        _probe_is_the_walk(tree, *_grid_points(xs, ys))

    def test_non_finite_points(self, rng):
        tree = STRTree([(e, i) for i, e in enumerate(_random_envelopes(rng, 100))])
        values = [-np.inf, np.nan, np.inf, 50.0]
        index, _ = _probe_is_the_walk(tree, *_grid_points(values, values))
        assert len(index) == 0 or set(index.tolist()) <= {15}  # only (50, 50)

    def test_join_over_clustered_zones_feeds_group_by(self, rng):
        """Many small triangles in one cluster plus a few that cover the
        extent (the case a uniform grid handles worst), joined and then
        counted per zone."""
        centres = rng.normal(5, 0.3, (300, 1, 2))
        zones = [
            Polygon([tuple(v) for v in tri])
            for tri in centres + rng.uniform(-0.2, 0.2, (300, 3, 2))
        ]
        zones += [Polygon([(-k, -k), (10 + k, -k), (5, 10 + k)]) for k in range(3)]
        xs = np.concatenate([rng.normal(5, 0.4, 1500), rng.uniform(-1, 11, 500)])
        ys = np.concatenate([rng.normal(5, 0.4, 1500), rng.uniform(-1, 11, 500)])
        session = Session(default_parallelism=3)
        joined = spatial_join_points_polygons(
            session.create_dataframe({"lon": xs, "lat": ys, "row": np.arange(2000)}),
            zones, "lon", "lat",
        )
        rows, ids, _ = oracle_join(xs, ys, zones)
        assert len(np.unique(ids)) > 100
        out = joined.to_columns()
        assert out["row"].tolist() == rows.tolist()
        assert out["polygon_id"].tolist() == ids.tolist()
        counts = joined.group_by("polygon_id").agg(agg.count(name="n")).to_columns()
        expected = np.bincount(ids, minlength=len(zones))
        assert np.array_equal(
            np.bincount(counts["polygon_id"], counts["n"], minlength=len(zones)),
            expected,
        )
