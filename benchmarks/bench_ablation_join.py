"""Ablation: STR-tree-indexed spatial join vs brute-force join.

Design claim (DESIGN.md §5.1): the per-partition spatial index is what
makes the engine's point-in-polygon aggregation scale; disabling it
degrades the join to O(points x polygons).

Both arms run the same batched pipeline and the same ray-casting
arithmetic; they differ only in where the candidate (point, polygon)
pairs come from — ``use_index=True`` probes the STR-tree's cell table
(``STRTree.query_points``: the polygons whose closed envelope holds the
point, then ``repro.geometry.polygon.ray_crossings``), ``use_index=False``
pairs every point with every polygon (then ``ray_cast``, which runs the
envelope test first).  Two zone sets: the grid's own rectangles, and the
same cells split on a diagonal (no zone is its envelope, the TLC
taxi-zone case).
"""

from __future__ import annotations

import time

import pytest

from repro.core.preprocessing.grid import SpacePartition
from repro.engine import Session
from repro.experiments.fig8 import NYC_ENVELOPE, make_records
from repro.geometry import Polygon
from repro.spatial import spatial_join_points_polygons

# A finer grid than Figure 8's 12x16: index benefits grow with the
# polygon count, and city-scale joins use thousands of zones.
FINE_X, FINE_Y = 24, 32


def _rectangles() -> list:
    return SpacePartition.generate_grid_cells(NYC_ENVELOPE, FINE_X, FINE_Y)


def _triangles() -> list:
    zones = []
    for cell in _rectangles():
        a, b, c, d = ((v.x, v.y) for v in cell.vertices)
        zones += [Polygon([a, b, c]), Polygon([a, c, d])]
    return zones


def _time_join(records: dict, polygons: list, use_index: bool) -> tuple[float, int]:
    session = Session(default_parallelism=4)
    df = session.create_dataframe(records)
    started = time.perf_counter()
    joined = spatial_join_points_polygons(
        df, polygons, x_column="lon", y_column="lat", use_index=use_index
    )
    matched = joined.count()
    return time.perf_counter() - started, matched


@pytest.mark.parametrize("make_zones", [_rectangles, _triangles])
def test_ablation_spatial_join_index(benchmark, report, make_zones):
    records = make_records(20_000)
    polygons = make_zones()

    def run():
        indexed_s, indexed_n = _time_join(records, polygons, use_index=True)
        brute_s, brute_n = _time_join(records, polygons, use_index=False)
        return indexed_s, indexed_n, brute_s, brute_n

    indexed_s, indexed_n, brute_s, brute_n = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    title = f"Ablation: spatial join index ({len(polygons)} {make_zones.__name__[1:]})"
    report(
        f"{title}\n"
        f"{'=' * len(title)}\n"
        f"indexed:     {indexed_s:8.3f}s  ({indexed_n} matches)\n"
        f"brute-force: {brute_s:8.3f}s  ({brute_n} matches)\n"
        f"speedup:     {brute_s / indexed_s:8.1f}x"
    )
    assert indexed_n == brute_n  # identical join results
    assert brute_s > 3.0 * indexed_s
