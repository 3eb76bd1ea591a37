"""Grid-partitioned spatial join.

The paper's preprocessing relies on Sedona's spatial join to aggregate
point records into spatial units.  This module reproduces the join's
structure: the polygon side is indexed once (an ``STRTree`` over
polygon envelopes, the "broadcast" side), and each point partition
streams through it in fixed-size chunks, each three array steps
whatever the polygons' shape: **probe** (``STRTree.query_points``
looks each point's cell up in the tree's quantile cell table and keeps
the (point, polygon) pairs whose closed envelope holds the point),
**contains** (``repro.geometry.polygon.ray_crossings`` keeps the pairs
whose polygon does, with ``Polygon.contains_point``'s arithmetic — the
envelope test is not run twice) and **reduce** (a point inside several
polygons keeps the lowest id).  Nothing runs per row, and no
intermediate outgrows ``_CHUNK_PAIRS``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.dataframe import DataFrame
from repro.engine.partition import Partition
from repro.geometry.index.strtree import STRTree
from repro.geometry.polygon import pack_rings, ray_cast, ray_crossings

#: Pairs one probe step may create: a chunk is this many points divided
#: by the step's fan-out — the longest cell list of the tree's table
#: (8 on ``zone_join``: 8 192 points), or every polygon without the
#: index.  Probing 50k-row partitions whole was slower and peaked
#: 12 MiB higher (docs/PERFORMANCE.md §E).
_CHUNK_PAIRS = 1 << 16


def spatial_join_points_polygons(
    points_df: DataFrame,
    polygons: list,
    x_column: str,
    y_column: str,
    id_alias: str = "polygon_id",
    use_index: bool = True,
) -> DataFrame:
    """Join each point row to the id of the polygon containing it.

    Rows whose point falls in no polygon (or has a NaN or infinite
    coordinate) are dropped — inner-join semantics — and the rest keep
    their order.  Where polygons overlap, the one with the **lowest
    list position wins**, with or without the index.
    ``use_index=False`` makes every polygon a candidate for every point
    instead of probing the STR-tree — the join ablation's other arm;
    the containment kernel is the same.

    Parameters
    ----------
    polygons:
        A list of ``Polygon``s (anything exposing ``envelope`` and
        ``vertices``); their list position is the joined id.
    """
    if not polygons:
        raise ValueError("spatial join needs at least one polygon")
    rings = pack_rings(polygons)
    every_polygon = np.arange(len(polygons))
    entries = [(poly.envelope, k) for k, poly in enumerate(polygons)]
    tree = STRTree(entries) if use_index else None
    fan_out = tree.max_cell_entries if use_index else len(polygons)
    chunk = max(1, _CHUNK_PAIRS // fan_out)

    def join_partition(part: Partition) -> Partition:
        from repro import obs

        xs = np.asarray(part.columns[x_column], dtype=np.float64)
        ys = np.asarray(part.columns[y_column], dtype=np.float64)
        row_chunks, id_chunks = [], []
        candidate_pairs = 0
        for start in range(0, max(part.num_rows, 1), chunk):
            cx, cy = xs[start : start + chunk], ys[start : start + chunk]
            with obs.tracer.span("spatial_join.probe"):
                if use_index:
                    point, poly = tree.query_points(cx, cy)
                else:
                    point = np.repeat(np.arange(len(cx)), len(polygons))
                    poly = np.tile(every_polygon, len(cx))
            candidate_pairs += len(point)
            with obs.tracer.span("spatial_join.contains"):
                # The probe ran the closed envelope test already.
                contains = ray_crossings if use_index else ray_cast
                inside = contains(rings, cx, cy, point, poly)
                point, poly = point[inside], poly[inside]
                # ``point`` is non-decreasing: each run is one point's
                # matches, and the run's smallest id is the winner.
                runs = np.flatnonzero(np.diff(point, prepend=-1))
                row_chunks.append(point[runs] + start)
                id_chunks.append(np.minimum.reduceat(poly, runs))
        rows = np.concatenate(row_chunks)
        if obs.enabled():
            # Per-partition totals: points probed, pairs the index (or
            # brute force) produced, pairs the join emitted.
            obs.registry.counter("spatial_join.index_probes").inc(part.num_rows)
            obs.registry.counter("spatial_join.candidate_pairs").inc(candidate_pairs)
            obs.registry.counter("spatial_join.emitted_pairs").inc(len(rows))
        columns = {name: arr[rows] for name, arr in part.columns.items()}
        columns[id_alias] = np.concatenate(id_chunks).astype(np.int64)
        return Partition(columns)

    return points_df.map_partitions(join_partition, label="spatial_join")
