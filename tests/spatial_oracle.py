"""Reference spatial join: the per-row loop ``repro.spatial.spatial_join``
ran before it was batched — one ``Point`` per row, the scalar
``STRTree.query_point`` (or every polygon) for candidates, the scalar
``Polygon.contains_point`` on each.  The join no longer calls any of
the three; the spatial-join tests hold the batched pipeline to this
loop, row for row.  Candidates are visited in ascending id, which is
the join's contract: the lowest list position wins an overlap.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Point, Polygon, STRTree


def split_on_diagonal(cells) -> list:
    """Two triangles per four-vertex cell, cut from its first to its
    third vertex: no zone is its own envelope and two zones share every
    envelope (the shape of the ``zone_join`` benchmark's zones)."""
    zones = []
    for cell in cells:
        a, b, c, d = ((v.x, v.y) for v in cell.vertices)
        zones += [Polygon([a, b, c]), Polygon([a, c, d])]
    return zones


def oracle_join(xs, ys, polygons, use_index: bool = True):
    """``(rows, ids, candidate_pairs)``: the positions of the points
    that fall in a polygon, the id each is joined to, and how many
    (point, polygon) pairs candidate generation produced in all."""
    tree = (
        STRTree([(poly.envelope, idx) for idx, poly in enumerate(polygons)])
        if use_index
        else None
    )
    rows, ids = [], []
    candidate_pairs = 0
    for i in range(len(xs)):
        point = Point(float(xs[i]), float(ys[i]))
        if tree is not None:
            candidates = sorted(tree.query_point(point))
        else:
            candidates = range(len(polygons))
        candidate_pairs += len(candidates)
        for poly_id in candidates:
            if polygons[poly_id].contains_point(point):
                rows.append(i)
                ids.append(poly_id)
                break
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(ids, dtype=np.int64),
        candidate_pairs,
    )
