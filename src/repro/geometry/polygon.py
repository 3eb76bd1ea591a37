"""Simple polygon geometry with ray-casting containment:
``Polygon.contains_point`` is the scalar definition, ``ray_cast`` the
same arithmetic over arrays of (point, polygon) pairs — the kernel
behind the brute-force spatial join — and ``ray_crossings`` its
crossing half, which the indexed join calls on candidates whose
envelope test the index has already run."""

from __future__ import annotations

import numpy as np

from repro.geometry.envelope import Envelope, bounds_table, pairs_in_bounds
from repro.geometry.point import Point


class Polygon:
    """A simple (non-self-intersecting) polygon given by its exterior
    ring.  The ring may be open (it is treated as implicitly closed)."""

    def __init__(self, vertices):
        verts = [v if isinstance(v, Point) else Point(*v) for v in vertices]
        if len(verts) >= 2 and verts[0] == verts[-1]:
            verts = verts[:-1]
        if len(verts) < 3:
            raise ValueError("a polygon needs at least 3 distinct vertices")
        self.vertices = verts
        self._envelope = Envelope.of_points(verts)

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    def contains_point(self, point: Point) -> bool:
        """Ray-casting point-in-polygon (boundary counts as inside for
        vertices on horizontal edges; adequate for aggregation use)."""
        if not self._envelope.contains_point(point):
            return False
        inside = False
        verts = self.vertices
        j = len(verts) - 1
        for i in range(len(verts)):
            vi, vj = verts[i], verts[j]
            crosses = (vi.y > point.y) != (vj.y > point.y)
            if crosses:
                x_at = vj.x + (point.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x)
                if point.x < x_at:
                    inside = not inside
            j = i
        return inside

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices)"


def pack_rings(polygons) -> tuple:
    """What ``ray_cast`` reads of ``polygons`` (anything with
    ``vertices`` and ``envelope``): every vertex x and y end to end,
    each ring's offset and size in them, the envelopes' bounds table."""
    sizes = np.array([len(p.vertices) for p in polygons])
    vx = np.array([v.x for p in polygons for v in p.vertices], dtype=np.float64)
    vy = np.array([v.y for p in polygons for v in p.vertices], dtype=np.float64)
    bounds = bounds_table(p.envelope for p in polygons)
    return vx, vy, np.cumsum(sizes) - sizes, sizes, bounds


def ray_cast(rings, xs, ys, point, ring) -> np.ndarray:
    """``Polygon.contains_point`` over pair arrays: is
    ``(xs[point[k]], ys[point[k]])`` inside polygon ``ring[k]`` of
    ``rings`` (from ``pack_rings``)?  The scalar method's closed
    envelope pre-test, then ``ray_crossings`` on the pairs that pass, so
    the answer is the scalar one, bit for bit."""
    inside = np.zeros(len(point), dtype=bool)
    live = pairs_in_bounds(rings[4], ring, xs, ys, point)
    inside[live] = ray_crossings(rings, xs, ys, point[live], ring[live])
    return inside


def ray_crossings(rings, xs, ys, point, ring) -> np.ndarray:
    """``ray_cast`` without the envelope pre-test, for pairs already
    known to pass it (an ``STRTree.query_points`` candidate passed the
    same closed test on the same envelope): the crossing test and
    ``x_at`` expression of ``Polygon.contains_point``.  The loop runs
    over edge rank: step ``r`` takes edge ``r`` of every pair whose ring
    has one, so the work is the sum of ring sizes over the pairs."""
    vx, vy, starts, sizes, _ = rings
    inside = np.zeros(len(point), dtype=bool)
    if not len(point):
        return inside
    live = np.arange(len(point))
    x, y = xs[point], ys[point]
    first, size = starts[ring], sizes[ring]
    smallest = size.min()
    for rank in range(size.max()):
        if rank >= smallest:
            keep = size > rank
            live, x, y = live[keep], x[keep], y[keep]
            first, size = first[keep], size[keep]
        i = first + rank
        j = i - 1 if rank else first + size - 1
        yi, yj = vy[i], vy[j]
        cross = np.flatnonzero((yi > y) != (yj > y))
        i, j, yi, yj = i[cross], j[cross], yi[cross], yj[cross]
        x_at = vx[j] + (y[cross] - yj) / (yi - yj) * (vx[i] - vx[j])
        hit = live[cross[x[cross] < x_at]]
        inside[hit] = ~inside[hit]
    return inside
