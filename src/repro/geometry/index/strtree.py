"""Sort-Tile-Recursive (STR) packed R-tree.

The classic bulk-loaded R-tree used by Sedona/JTS for local per-
partition indexes in spatial joins.  Built once over a static set of
envelopes.  ``query``/``query_point`` walk the node objects for one
envelope or point (the eager baseline and the tests' oracle);
``query_points`` probes an array of points at once, descending level
by level over ``(point, node)`` pair arrays through per-level bounds
and child-range tables the constructor derives from the same nodes.
All of it is immutable after construction, so threads may share a tree.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.envelope import Envelope, bounds_table, pairs_in_bounds


class _Node:
    __slots__ = ("envelope", "children", "items")

    def __init__(self, envelope, children=None, items=None):
        self.envelope = envelope
        self.children = children or []
        self.items = items or []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class STRTree:
    """Bulk-loaded R-tree over (envelope, payload) pairs."""

    def __init__(self, entries, node_capacity: int = 8):
        """``entries`` is an iterable of (Envelope, payload)."""
        from repro import obs

        if node_capacity < 2:
            raise ValueError("node_capacity must be >= 2")
        self.node_capacity = node_capacity
        entries = list(entries)
        self._size = len(entries)
        with obs.tracer.span("geometry.strtree.build") as span:
            span.add("entries", self._size)
            self._root = self._build(entries) if entries else None
            self._flatten()

    def __len__(self) -> int:
        return self._size

    def _build(self, entries) -> _Node:
        cap = self.node_capacity
        leaves = self._pack(
            entries,
            key_x=lambda e: e[0].center.x,
            key_y=lambda e: e[0].center.y,
            make=lambda group: _Node(
                self._union_env([env for env, _ in group]), items=group
            ),
        )
        level = leaves
        while len(level) > 1:
            level = self._pack(
                level,
                key_x=lambda n: n.envelope.center.x,
                key_y=lambda n: n.envelope.center.y,
                make=lambda group: _Node(
                    self._union_env([n.envelope for n in group]), children=group
                ),
            )
        return level[0]

    def _flatten(self) -> None:
        """``query_points``' tables: ``_level_bounds[d]`` is the
        ``bounds_table`` of depth ``d`` (the entries are the last
        level), ``_level_children[d]`` the ``(start, count)`` range of
        each depth-``d`` node's children within level ``d + 1``."""
        self._level_bounds, self._level_children = [], []
        level = [self._root] if self._root is not None else []
        while level and isinstance(level[0], _Node):
            groups = [node.items or node.children for node in level]
            counts = np.array([len(group) for group in groups])
            self._level_bounds.append(bounds_table(n.envelope for n in level))
            self._level_children.append((np.cumsum(counts) - counts, counts))
            level = [member for group in groups for member in group]
        self._level_bounds.append(bounds_table(env for env, _ in level))
        # Integer payloads (polygon ids) come back as int64, not objects.
        self._payloads = np.fromiter((p for _, p in level), object, len(level))
        if all(type(p) is int for p in self._payloads):
            self._payloads = self._payloads.astype(np.int64)

    def _pack(self, items, key_x, key_y, make):
        cap = self.node_capacity
        n = len(items)
        num_nodes = math.ceil(n / cap)
        num_slices = math.ceil(math.sqrt(num_nodes))
        items = sorted(items, key=key_x)
        slice_size = math.ceil(n / num_slices)
        nodes = []
        for s in range(0, n, slice_size):
            vertical = sorted(items[s : s + slice_size], key=key_y)
            for g in range(0, len(vertical), cap):
                nodes.append(make(vertical[g : g + cap]))
        return nodes

    @staticmethod
    def _union_env(envs) -> Envelope:
        out = envs[0]
        for env in envs[1:]:
            out = out.union(env)
        return out

    def query(self, envelope: Envelope):
        """Yield payloads whose envelopes intersect the query envelope."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.envelope.intersects(envelope):
                continue
            if node.is_leaf:
                for env, payload in node.items:
                    if env.intersects(envelope):
                        yield payload
            else:
                stack.extend(node.children)

    def query_point(self, point):
        """Yield payloads whose envelopes contain the point."""
        env = Envelope(point.x, point.x, point.y, point.y)
        yield from self.query(env)

    def query_points(self, xs, ys):
        """``(point_index, payload)`` arrays with one pair per stored
        envelope (closed) that contains ``(xs[i], ys[i])`` — per point
        the set ``query_point`` yields — ``point_index`` ascending.  A
        NaN coordinate matches nothing (scalar ``query`` lets it match
        everything; no geometry contains such a point either way)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        points = np.arange(len(xs) if self._size else 0)
        nodes = np.zeros(len(points), dtype=np.intp)
        for depth, bounds in enumerate(self._level_bounds):
            if depth:  # fan each surviving pair out to its node's children
                starts, counts = self._level_children[depth - 1]
                fan_out = counts[nodes]
                offsets = np.cumsum(fan_out) - fan_out
                points = np.repeat(points, fan_out)
                nodes = np.repeat(starts[nodes] - offsets, fan_out)
                nodes += np.arange(len(nodes))
            keep = pairs_in_bounds(bounds, nodes, xs, ys, points)
            points, nodes = points[keep], nodes[keep]
        return points, self._payloads[nodes]
