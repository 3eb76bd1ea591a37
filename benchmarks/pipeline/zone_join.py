"""``zone_join`` — irregular-zone aggregation: trips joined to
triangular zones, then grouped by (time step, zone).

Why: the only workload where ``geometry``/``spatial`` dominate.  Every
12x16 grid cell is split on its diagonal, so no zone is an axis-aligned
rectangle, the join's vectorised rectangle path is *not* taken, and
``STRTree.query_point`` + ``Polygon.contains_point`` carry the pass
(the TLC taxi-zone case).  ``trip_prep`` bypasses the index entirely:
an STR-tree change must move this workload and not that one.
"""

from __future__ import annotations

import numpy as np

from harness import PROBE, Workload, require
from repro.core.preprocessing.grid import STManager
from repro.engine import Session, agg, col
from repro.geometry.grid import UniformGrid
from repro.geometry.index.strtree import STRTree
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.spatial.spatial_join import spatial_join_points_polygons
from repro.utils.memory import MemoryMeter
from trip_prep import (
    GRID_X,
    GRID_Y,
    NARROW,
    NUM_STEPS,
    NYC,
    STEP_SECONDS,
    sample_trips,
    trip_cells,
)

POINTS = 300_000
PARTITIONS = 6
PROBE_POINTS = 20_000
NUM_ZONES = 2 * GRID_X * GRID_Y


def triangular_zones() -> list:
    """Two triangles per grid cell: zone ``2*cell`` below the diagonal
    from the cell's lower-left to upper-right corner, ``2*cell + 1``
    above it."""
    grid = UniformGrid(NYC, GRID_X, GRID_Y)
    zones = []
    for j in range(GRID_Y):
        for i in range(GRID_X):
            e = grid.cell_envelope(i, j)
            lower_left, upper_right = (e.min_x, e.min_y), (e.max_x, e.max_y)
            zones.append(Polygon([lower_left, (e.max_x, e.min_y), upper_right]))
            zones.append(Polygon([lower_left, upper_right, (e.min_x, e.max_y)]))
    return zones


class ZoneJoin(Workload):
    name = "zone_join"
    min_passes = 3
    item_unit = "points"

    def generate(self) -> None:
        self.points = self.items_per_pass = self.scaled(POINTS)
        self.records = sample_trips(self.points, self.seed)
        self.zones = triangular_zones()
        # Oracle: vectorised half-plane test inside the point's cell.
        xs, ys = self.records["lon"], self.records["lat"]
        cells, steps = trip_cells(self.records)
        width = (NYC.max_x - NYC.min_x) / GRID_X
        height = (NYC.max_y - NYC.min_y) / GRID_Y
        u = (xs - (NYC.min_x + (cells % GRID_X) * width)) / width
        v = (ys - (NYC.min_y + (cells // GRID_X) * height)) / height
        inside = cells >= 0
        zone = (2 * cells + (v > u))[inside]
        key = steps[inside] * NUM_ZONES + zone
        size = (int(steps.max()) + 1) * NUM_ZONES
        self.expected_count = np.bincount(key, minlength=size)
        passengers = np.bincount(
            key, weights=self.records["passenger_count"][inside], minlength=size
        )
        self.expected_mean = passengers / np.maximum(self.expected_count, 1)

    def _points_df(self, session):
        df = session.create_dataframe(self.records)
        return STManager.add_spatial_points(
            df, lat_column="lat", lon_column="lon", new_column_alias="point"
        ).with_column("time_step", col("pickup_time") // STEP_SECONDS)

    @staticmethod
    def _aggregate(joined):
        return joined.group_by("time_step", "polygon_id").agg(
            agg.count(name="count"), agg.mean("passenger_count", "passengers")
        )

    def run_pass(self) -> dict:
        session = Session(default_parallelism=PARTITIONS)
        joined = spatial_join_points_polygons(
            self._points_df(session), self.zones, "point__x", "point__y"
        )
        return {"rows": self._aggregate(joined).collect()}

    def check(self, result: dict) -> None:
        rows = result["rows"]
        key = np.array(
            [int(r["time_step"]) * NUM_ZONES + int(r["polygon_id"]) for r in rows]
        )
        counts = np.zeros_like(self.expected_count)
        counts[key] = [r["count"] for r in rows]
        require(
            np.array_equal(counts, self.expected_count),
            "per-(step, zone) counts differ from the half-plane oracle",
        )
        require(
            np.allclose(
                [r["passengers"] for r in rows], self.expected_mean[key],
                rtol=1e-12, atol=0.0,
            ),
            "per-(step, zone) mean passenger_count differs from the oracle",
        )

    def traced_pass(self, tr) -> dict:
        meter = MemoryMeter()
        join = {"MapPartitions[spatial_join": "spatial"}
        with tr.span("zone_join.pass", "bench"):
            with tr.span("engine.plan_build", "engine"):
                session = Session(default_parallelism=PARTITIONS, meter=meter)
                points_df = self._points_df(session)
            points = tr.materialise("engine.execute.narrow", points_df)
            with tr.span("spatial.join_build", "spatial"):
                joined_df = spatial_join_points_polygons(
                    points, self.zones, "point__x", "point__y"
                )
            joined = tr.materialise("engine.execute.join", joined_df, join)
            rows = tr.engine(
                "engine.execute.groupby", session,
                lambda: self._aggregate(joined).collect(),
            )
        return {"rows": rows, "meter": meter}

    def probes(self, tr) -> None:
        with tr.span("geometry.strtree_build", "geometry"):
            tree = STRTree(
                [(zone.envelope, idx) for idx, zone in enumerate(self.zones)]
            )
        sample = self.scaled(PROBE_POINTS)
        xs, ys = self.records["lon"][:sample], self.records["lat"][:sample]
        candidates = 0
        with tr.span("geometry.probe", "geometry"):
            for k in range(sample):
                point = Point(xs[k], ys[k])
                for zone_id in tree.query_point(point):
                    candidates += 1
                    if self.zones[zone_id].contains_point(point):
                        break
        self.candidates_per_probe = candidates / sample

    def layer_metrics(self, ctx) -> dict:
        tr = ctx.tr
        groupby = tr.operators(("GroupByAgg",))[0]
        join_s = tr.operator_seconds("MapPartitions[spatial_join")
        counters = ctx.traced_counters
        return {
            "engine.plan_build_s": tr.total("engine.plan_build"),
            "engine.narrow_s": tr.operator_seconds(*NARROW),
            "engine.groupby_s": tr.operator_seconds("GroupByAgg"),
            "engine.groupby_rows_in": groupby["rows_in"],
            "engine.groupby_groups_out": groupby["rows_out"],
            "engine.rows_per_s": self.points / tr.layer_table()["engine"],
            "engine.meter_peak_mb": ctx.traced_result["meter"].peak / 2**20,
            "geometry.strtree_build_s": tr.total("geometry.strtree_build", PROBE),
            "geometry.probe_s": tr.total("geometry.probe", PROBE),
            "geometry.candidates_per_probe": self.candidates_per_probe,
            "geometry.hit_ratio": counters["spatial_join.emitted_pairs"]
            / counters["spatial_join.candidate_pairs"],
            "spatial.join_s": join_s,
            "spatial.join_points_per_s": self.points / join_s,
        }
