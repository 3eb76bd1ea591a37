"""Sort-Tile-Recursive (STR) packed R-tree, with a quantile cell table
for batched point probes.

The classic bulk-loaded R-tree used by Sedona/JTS for local per-
partition indexes in spatial joins.  Built once over a static set of
envelopes.  ``query``/``query_point`` walk the node objects for one
envelope or point (the eager baseline and the tests' oracle).
``query_points`` probes an array of points at once through a cell table
the constructor lays over the same entries:

- per axis, a monotone cell map — about √n cells cut at quantiles of
  the envelope centres, looked up arithmetically through a uniform
  table of ``_BINS_PER_CELL`` fine bins per cell, each bin mapped to the
  quantile cell of its left edge (no search per point);
- per cell, the CSR list of the entries whose envelope overlaps it.
  Should that make more than ``_REGISTRATIONS_PER_ENTRY`` × n entries in
  all (a few envelopes covering most of the extent), the cuts are
  coarsened until it does not.

A point's candidates are its cell's list, kept where the closed
envelope test holds.  The maps are monotone, so ``min <= p <= max``
implies ``cell(min) <= cell(p) <= cell(max)``: every envelope holding a
point is in the point's cell, and the answer is exact.  All of it is
immutable after construction, so threads may share a tree.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.envelope import Envelope, bounds_table, pairs_in_bounds

#: Fine bins per quantile cell in an axis's lookup table: a cut lands
#: within 1/64 of a cell of its quantile (docs/PERFORMANCE.md §E).
_BINS_PER_CELL = 64

#: Cell registrations allowed per entry before the cuts are halved:
#: keeps the table O(n) when a few envelopes cover most of the extent
#: (docs/PERFORMANCE.md §E).
_REGISTRATIONS_PER_ENTRY = 8


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
            self._build_cells(entries)

    def __len__(self) -> int:
        return self._size

    def _build(self, entries) -> _Node:
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

    def _build_cells(self, entries) -> None:
        """``query_points``' tables: the entries' ``bounds_table`` and
        payloads (in input order), their extent, one cell map per axis,
        and the CSR cell lists — ``_cell_entries[_cell_starts[c]:][:
        _cell_counts[c]]`` are the entries overlapping cell ``c``, in
        ascending order."""
        n = self._size
        self._bounds = bounds_table(env for env, _ in entries)
        min_x, max_x, min_y, max_y = self._bounds
        self._extent = (
            min_x.min(initial=np.inf), max_x.max(initial=-np.inf),
            min_y.min(initial=np.inf), max_y.max(initial=-np.inf),
        )
        # Integer payloads (polygon ids) come back as int64, not objects.
        self._payloads = np.fromiter((p for _, p in entries), object, n)
        if all(type(p) is int for p in self._payloads):
            self._payloads = self._payloads.astype(np.int64)
        # A centre of (-inf, inf) is NaN and one of ±1e308 overflows:
        # the maps are cut on finite centres only.
        with np.errstate(invalid="ignore", over="ignore"):
            cx, cy = (min_x + max_x) / 2, (min_y + max_y) / 2
        cells = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n)) per axis
        while True:
            self._x_map, self._y_map = _axis_map(cx, cells), _axis_map(cy, cells)
            x0, x1 = _cells(min_x, *self._x_map), _cells(max_x, *self._x_map)
            y0, y1 = _cells(min_y, *self._y_map), _cells(max_y, *self._y_map)
            tall = y1 - y0 + 1
            per_entry = (x1 - x0 + 1) * tall
            if cells == 1 or per_entry.sum() <= _REGISTRATIONS_PER_ENTRY * n:
                break
            cells //= 2
        self._ny = int(self._y_map[2][-1]) + 1
        num_cells = (int(self._x_map[2][-1]) + 1) * self._ny
        # Entry ``e`` registers in the ``x0..x1`` × ``y0..y1`` block,
        # enumerated column by column.
        entry = np.repeat(np.arange(n), per_entry)
        rank = np.arange(len(entry))
        rank -= np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
        column, row = np.divmod(rank, tall[entry])
        cell = (x0[entry] + column) * self._ny + y0[entry] + row
        self._cell_entries = entry[np.argsort(cell, kind="stable")]
        self._cell_counts = np.bincount(cell, minlength=num_cells)
        self._cell_starts = np.cumsum(self._cell_counts) - self._cell_counts
        #: The most candidate pairs ``query_points`` makes for one point.
        self.max_cell_entries = int(self._cell_counts.max())

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
        """Yield payloads whose envelopes contain the point (closed
        intervals).  A point with a NaN coordinate is in none: it has
        no envelope."""
        if not (math.isnan(point.x) or math.isnan(point.y)):
            yield from self.query(Envelope(point.x, point.x, point.y, point.y))

    def query_points(self, xs, ys):
        """``(point_index, payload)`` arrays with one pair per stored
        envelope (closed) that contains ``(xs[i], ys[i])`` — per point
        the set ``query_point`` yields — ``point_index`` ascending.  A
        NaN coordinate matches nothing."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        min_x, max_x, min_y, max_y = self._extent
        points = np.flatnonzero(
            (min_x <= xs) & (xs <= max_x) & (min_y <= ys) & (ys <= max_y)
        )
        cell = _cells(xs[points], *self._x_map) * self._ny
        cell += _cells(ys[points], *self._y_map)
        counts = self._cell_counts[cell]
        offsets = np.cumsum(counts) - counts
        points = np.repeat(points, counts)
        slots = np.repeat(self._cell_starts[cell] - offsets, counts)
        slots += np.arange(len(slots))
        entries = self._cell_entries[slots]
        keep = pairs_in_bounds(self._bounds, entries, xs, ys, points)
        return points[keep], self._payloads[entries[keep]]


def _axis_map(centres: np.ndarray, cells: int) -> tuple:
    """``(origin, scale, table)`` cutting one axis into at most
    ``cells`` cells at quantiles of the finite ``centres``: uniform fine
    bins over their range, each mapped to the cell of its left edge (a
    cut is snapped down to a bin edge).  Fewer than two distinct finite
    centres, or a range too wide or narrow for float64 bins, give one
    cell."""
    finite = np.sort(centres[np.isfinite(centres)])
    bins = cells * _BINS_PER_CELL
    if cells > 1 and len(finite):
        origin, span = float(finite[0]), float(finite[-1]) - float(finite[0])
        scale = bins / span if span > 0 else math.inf
        if 0 < scale < math.inf:
            quantiles = finite[np.arange(1, cells) * len(finite) // cells]
            cuts = _fine_bins(quantiles, origin, scale, bins)
            table = np.searchsorted(cuts, np.arange(bins), side="right")
            # Cuts that share a bin leave cells with no bin: renumber.
            return origin, scale, np.unique(table, return_inverse=True)[1]
    return 0.0, 1.0, np.zeros(1, dtype=np.intp)


def _fine_bins(values, origin: float, scale: float, bins: int) -> np.ndarray:
    """The fine bin of each value, clipped into ``[0, bins)``: a chain
    of monotone steps, so ``a <= b`` gives ``bin(a) <= bin(b)``, ±inf
    included.  ``values`` must hold no NaN; a finite one far outside
    the bins may overflow to ±inf, which clips like one."""
    with np.errstate(over="ignore"):
        return np.clip((values - origin) * scale, 0, bins - 1).astype(np.intp)


def _cells(values, origin: float, scale: float, table: np.ndarray) -> np.ndarray:
    """The cell of each value on one axis (see ``_axis_map``)."""
    return table[_fine_bins(values, origin, scale, len(table))]
