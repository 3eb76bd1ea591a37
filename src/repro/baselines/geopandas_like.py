"""An eager, single-node geospatial frame (GeoPandas stand-in).

Figure 8 of the paper compares GeoTorchAI's partitioned preprocessing
against GeoPandas.  This class reproduces the *semantics that drive
that comparison*:

- **eager execution** — every operation materializes a full-size
  result immediately;
- **object geometry columns** — one Python ``Point`` object per row
  (GeoPandas keeps one Shapely object per row), so geometry columns
  cost ~an order of magnitude more memory than packed coordinates;
- **whole-dataset residency** — the frame and each derived frame stay
  alive together, so peak memory grows with dataset size, unlike the
  streaming engine whose peak is O(partition + result).

A :class:`~repro.utils.memory.MemoryMeter` (optionally capped) tracks
these allocations; at the paper's largest scale the capped meter raises
``MemoryBudgetExceeded``, reproducing GeoPandas's reported OOM.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.grid import UniformGrid
from repro.geometry.point import Point
from repro.utils.memory import MemoryMeter

# Logical cost of one geometry object: CPython object header + two
# boxed floats + per-row GC tracking, mirroring one Shapely point.
_POINT_OBJECT_BYTES = 120


class EagerGeoFrame:
    """Column store with eager, fully-materializing operations."""

    def __init__(self, columns: dict, meter: MemoryMeter | None = None):
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self.num_rows = lengths.pop()
        self.meter = meter or MemoryMeter()
        self.meter.allocate(self._frame_nbytes())

    def _frame_nbytes(self) -> int:
        total = 0
        for arr in self.columns.values():
            if arr.dtype == object:
                total += arr.size * _POINT_OBJECT_BYTES
            else:
                total += arr.nbytes
        return total

    # ------------------------------------------------------------------
    # Eager operations (each materializes a full-length result)
    # ------------------------------------------------------------------
    def add_geometry(self, lat_column: str, lon_column: str, alias: str = "geometry") -> None:
        """Create one Point object per row (the expensive step)."""
        lats = self.columns[lat_column]
        lons = self.columns[lon_column]
        geoms = np.empty(self.num_rows, dtype=object)
        for i in range(self.num_rows):
            geoms[i] = Point(float(lons[i]), float(lats[i]))
        self.columns[alias] = geoms
        self.meter.allocate(self.num_rows * _POINT_OBJECT_BYTES)

    def sjoin_polygons(self, polygons: list, geometry_column: str = "geometry") -> None:
        """GeoPandas-style spatial join of points against a polygon
        layer: an R-tree narrows candidates, then an exact
        point-in-polygon (ray casting) test runs per candidate — the
        join GeoPandas executes when dissolving points into zones.
        Stores the matched polygon index as ``cell_id`` (-1 = none)."""
        from repro.geometry.index.strtree import STRTree

        tree = STRTree(
            [(poly.envelope, idx) for idx, poly in enumerate(polygons)]
        )
        self.meter.allocate(len(polygons) * 200)  # index nodes
        geoms = self.columns[geometry_column]
        cells = np.full(self.num_rows, -1, dtype=np.int64)
        for i in range(self.num_rows):
            point = geoms[i]
            for candidate in tree.query_point(point):
                if polygons[candidate].contains_point(point):
                    cells[i] = candidate
                    break
        self.columns["cell_id"] = cells
        self.meter.allocate(cells.nbytes)

    def assign_time_steps(self, time_column: str, t0: float, step_seconds: float) -> None:
        """Bucket epoch timestamps into interval indexes (eagerly)."""
        times = np.asarray(self.columns[time_column], dtype=np.float64)
        steps = np.floor((times - t0) / step_seconds).astype(np.int64)
        self.columns["time_step"] = steps
        self.meter.allocate(steps.nbytes)

    def filter_valid(self) -> None:
        """Drop rows outside the grid; materializes a full copy of the
        frame (eager frames copy on filter)."""
        keep = self.columns["cell_id"] >= 0
        new_columns = {k: v[keep] for k, v in self.columns.items()}
        # The filtered copy coexists with the original before replacing it.
        copy_nbytes = sum(
            (arr.size * _POINT_OBJECT_BYTES if arr.dtype == object else arr.nbytes)
            for arr in new_columns.values()
        )
        self.meter.allocate(copy_nbytes)
        self.columns = new_columns
        self.num_rows = int(keep.sum())

    def dissolve_count(self, keys: tuple = ("time_step", "cell_id")) -> dict:
        """Group rows by keys, counting — a dict-of-lists grouping that
        first materializes per-group row index lists (as eager
        group-then-aggregate implementations do)."""
        groups: dict = {}
        key_arrays = [self.columns[k] for k in keys]
        for i in range(self.num_rows):
            key = tuple(int(a[i]) for a in key_arrays)
            groups.setdefault(key, []).append(i)
        # index lists: ~8 bytes per row + dict overhead per group
        self.meter.allocate(self.num_rows * 8 + len(groups) * 96)
        return {key: len(rows) for key, rows in groups.items()}

    def prepare_st_tensor(
        self,
        grid: UniformGrid,
        lat_column: str,
        lon_column: str,
        time_column: str,
        t0: float,
        step_seconds: float,
        num_steps: int,
    ) -> np.ndarray:
        """End-to-end eager tensor preparation (the Fig. 8 workload).

        Returns a (T, ny, nx) count tensor.
        """
        from repro.core.preprocessing.grid.space_partition import SpacePartition

        self.add_geometry(lat_column, lon_column)
        cell_polygons = SpacePartition.generate_grid_cells(
            grid.envelope, grid.nx, grid.ny
        )
        self.meter.allocate(len(cell_polygons) * 600)  # polygon layer
        self.sjoin_polygons(cell_polygons)
        self.assign_time_steps(time_column, t0, step_seconds)
        self.filter_valid()
        counts = self.dissolve_count()
        tensor = np.zeros((num_steps, grid.ny, grid.nx), dtype=np.float32)
        self.meter.allocate(tensor.nbytes)
        for (step, cell), value in counts.items():
            if 0 <= step < num_steps:
                tensor[step, cell // grid.nx, cell % grid.nx] = value
        return tensor
