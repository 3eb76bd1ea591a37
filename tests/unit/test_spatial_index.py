"""The STR-tree spatial index."""

import numpy as np
import pytest

from repro.geometry import Envelope, Point, STRTree


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
            q = _random_envelopes(rng, 1)[0].expand(2.0)
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
        index, payload = STRTree([]).query_points([0.5, 1.0], [0.5, 1.0])
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
