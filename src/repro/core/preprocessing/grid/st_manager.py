"""``STManager``: raw spatiotemporal records -> grid tensors.

Reproduces the paper's Listing 8 API:

.. code-block:: python

    from repro.core.preprocessing.grid import STManager as stm

    spatial_df = stm.add_spatial_points(df=data_df, lat_column="lat",
                                        lon_column="lon",
                                        new_column_alias="point")
    st_df = stm.get_st_grid_dataframe(geo_df=spatial_df, geometry="point",
                                      partitions_x=12, partitions_y=16,
                                      col_date="time_column",
                                      step_duration_sec=1800)
    array = stm.get_st_grid_array(st_df, partitions_x=12, partitions_y=16)

Geometry columns are stored *packed* (struct-of-arrays: ``point__x``
and ``point__y`` float columns), the engine analogue of Sedona's
efficient geometry encoding — in contrast to the eager baseline's one
Python object per row.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import AggSpec, count
from repro.engine.dataframe import DataFrame
from repro.engine.expressions import col, udf
from repro.geometry.envelope import Envelope
from repro.geometry.grid import UniformGrid
from repro.utils.validation import check_cells, check_positive


def _x_col(geometry: str) -> str:
    return f"{geometry}__x"


def _y_col(geometry: str) -> str:
    return f"{geometry}__y"


_grid_metrics = None


def _grid_metric_handles():
    """Lazy ``st.grid.*`` metric handles: dense-tensor allocation bytes
    (gauge — the working-set cost of the grid), plus incremental-update
    counters (how many in-place updates ran and how many (cell,
    timestep) entries they touched)."""
    global _grid_metrics
    if _grid_metrics is None:
        from repro import obs

        _grid_metrics = {
            "alloc_bytes": obs.registry.gauge("st.grid.alloc_bytes"),
            "updates": obs.registry.counter("st.grid.updates"),
            "cells_touched": obs.registry.counter("st.grid.cells_touched"),
        }
    return _grid_metrics


def _scatter(tensor, part, cells, bound: int, value_columns) -> int:
    """Write a part's rows whose step lies in ``[0, bound)`` into the
    ``(T, H, W, C)`` ``tensor``; returns how many rows were written."""
    steps = np.asarray(part.columns["time_step"], dtype=np.int64)
    valid = (steps >= 0) & (steps < bound)
    steps, cells = steps[valid], cells[valid]
    ys, xs = np.divmod(cells, tensor.shape[2])
    for channel, name in enumerate(value_columns):
        values = np.asarray(part.columns[name], dtype=np.float32)[valid]
        tensor[steps, ys, xs, channel] = values
    return len(steps)


def _acquire_grid_tensor(shape) -> np.ndarray:
    """A zeroed float32 grid tensor from the process array pool —
    epoch-over-epoch (or stream-over-stream) rebuilds recycle the same
    dense buffer instead of allocating a fresh one per call."""
    from repro.tensor.pool import default_pool

    tensor = default_pool().acquire(shape, np.float32, zero=True)
    _grid_metric_handles()["alloc_bytes"].set(tensor.nbytes)
    return tensor


class STManager:
    """Static facade for spatiotemporal tensor preparation."""

    @staticmethod
    def add_spatial_points(
        df: DataFrame,
        lat_column: str,
        lon_column: str,
        new_column_alias: str = "point",
    ) -> DataFrame:
        """Attach a packed point-geometry column built from lat/lon."""

        def as_float(values):
            return np.asarray(values, dtype=np.float64)

        return df.with_column(
            _x_col(new_column_alias), udf(as_float, [lon_column], name="x")
        ).with_column(
            _y_col(new_column_alias), udf(as_float, [lat_column], name="y")
        )

    @staticmethod
    def _extrema(df: DataFrame, names: list[str]) -> dict:
        """Stream the dataset once: ``{name: (min, max)}`` of the
        finite values of each named column (a NaN or ±inf record is
        dropped from the grid, so it bounds nothing)."""
        low = dict.fromkeys(names, np.inf)
        high = dict.fromkeys(names, -np.inf)
        for part in df.select(*names).iter_partitions():
            for name in names:
                values = part.columns[name]
                values = values[np.isfinite(values)]
                if len(values):
                    low[name] = min(low[name], float(values.min()))
                    high[name] = max(high[name], float(values.max()))
        for name in names:
            if not np.isfinite(low[name]):
                raise ValueError(
                    "cannot compute an envelope or a temporal origin: "
                    f"column {name!r} is empty or holds no finite value"
                )
        return {name: (low[name], high[name]) for name in names}

    @staticmethod
    def get_st_grid_dataframe(
        geo_df: DataFrame,
        geometry: str,
        partitions_x: int,
        partitions_y: int,
        col_date: str,
        step_duration_sec: float,
        envelope: Envelope | None = None,
        temporal_origin: float | None = None,
        aggregations: list[AggSpec] | None = None,
    ) -> DataFrame:
        """Aggregate records into (time_step, cell) groups.

        Returns a lazy DataFrame with columns ``time_step``,
        ``cell_id``, ``cell_x``, ``cell_y``, and ``count`` plus any
        extra ``aggregations``.  Records outside the grid envelope are
        dropped (as spatial-join semantics drop non-matching points),
        and so are records whose coordinate or timestamp is NaN or
        ±inf.

        The frame is cached (:meth:`DataFrame.cache`): its first action
        runs the plan over ``geo_df``, and every later one — the grid
        tensor, each converter epoch, a ``select`` on top — replays
        the at most ``T x cells`` aggregate rows, which stay resident
        while the frame (or one derived from it) is alive.
        """
        check_positive(partitions_x, "partitions_x")
        check_positive(partitions_y, "partitions_y")
        check_positive(step_duration_sec, "step_duration_sec")

        xname, yname = _x_col(geometry), _y_col(geometry)
        # Whatever was not given comes out of one pass over the input.
        missing = ([xname, yname] if envelope is None else []) + (
            [col_date] if temporal_origin is None else []
        )
        if missing:
            extrema = STManager._extrema(geo_df, missing)
            if envelope is None:
                envelope = Envelope(*extrema[xname], *extrema[yname])
            if temporal_origin is None:
                temporal_origin = extrema[col_date][0]
        grid = UniformGrid(envelope, partitions_x, partitions_y)

        # A finite sum means every value is finite: one pass and no
        # mask on the common path.
        def cell_ids(xs, ys, times):
            ids = grid.cell_ids_of_arrays(xs, ys)
            t = np.asarray(times, dtype=np.float64)
            if not np.isfinite(t.sum()):
                # A record without a finite time has no step: drop it
                # as if it lay outside the envelope.
                ids[~np.isfinite(t)] = -1
            return ids

        def time_steps(times):
            t = np.asarray(times, dtype=np.float64)
            steps = np.floor((t - temporal_origin) / step_duration_sec)
            if not np.isfinite(steps.sum()):
                steps[~np.isfinite(steps)] = 0  # the cell filter drops these
            return steps.astype(np.int64)

        specs = [count(name="count")] + list(aggregations or [])
        st = (
            geo_df.with_column(
                "cell_id", udf(cell_ids, [xname, yname, col_date], name="cell")
            )
            .with_column("time_step", udf(time_steps, [col_date], name="step"))
            .filter(col("cell_id") >= 0)
            .group_by("time_step", "cell_id")
            .agg(*specs)
            .with_column("cell_x", col("cell_id") % partitions_x)
            .with_column("cell_y", col("cell_id") // partitions_x)
        )
        return st.cache()

    @staticmethod
    def get_st_grid_array(
        st_df: DataFrame,
        partitions_x: int,
        partitions_y: int,
        num_steps: int | None = None,
        value_columns: list[str] | None = None,
    ) -> np.ndarray:
        """Materialize an aggregated DataFrame into a dense
        (T, H, W, C) float32 tensor (H = partitions_y rows, W =
        partitions_x columns, C = one channel per value column).

        The fill streams partition-by-partition; only the output
        tensor is ever fully resident.  The tensor itself comes from
        the process :func:`~repro.tensor.pool.default_pool` (zeroed
        either way), so repeated materializations recycle one buffer —
        hand a tensor you are done with back via
        :meth:`release_st_grid_array` to close the loop.  Allocation
        size is published as the ``st.grid.alloc_bytes`` gauge.  A
        ``cell_id`` outside ``[0, partitions_x * partitions_y)`` raises
        ``ValueError``.
        """
        value_columns = value_columns or ["count"]
        if num_steps is None:
            num_steps = 0
            parts = []
            for part in st_df.iter_partitions():
                parts.append(part)
                if part.num_rows:
                    num_steps = max(
                        num_steps, int(part.columns["time_step"].max()) + 1
                    )
            iterator = iter(parts)
        else:
            iterator = st_df.iter_partitions()

        tensor = _acquire_grid_tensor(
            (num_steps, partitions_y, partitions_x, len(value_columns))
        )
        num_cells = partitions_x * partitions_y
        for part in iterator:
            if part.num_rows:
                cells = check_cells(part.columns["cell_id"], num_cells)
                _scatter(tensor, part, cells, num_steps, value_columns)
        return tensor

    @staticmethod
    def update_st_grid_array(
        array: np.ndarray,
        delta,
        partitions_x: int,
        partitions_y: int,
        num_steps: int | None = None,
        value_columns: list[str] | None = None,
    ) -> np.ndarray:
        """Scatter a delta of changed (time_step, cell) aggregates into
        an existing grid tensor, updating only the touched entries —
        the incremental counterpart of :meth:`get_st_grid_array`.

        ``delta`` is a Partition or DataFrame with ``time_step``,
        ``cell_id``, and the value columns — typically
        ``StreamingAggregation.delta()`` from an aggregation keyed by
        ``("time_step", "cell_id")`` over a
        :meth:`Session.stream <repro.engine.Session.stream>`.  Because
        the streamed aggregates are themselves bit-identical to a
        batch recompute, overwriting only the changed entries leaves
        the tensor bit-identical to a from-scratch rebuild over the
        full history — at O(changed cells) cost instead of
        O(T * H * W).

        With ``num_steps=None`` (default) the tensor *grows* when a
        delta reaches a timestep beyond its current extent: a larger
        pooled buffer is acquired, existing contents copied, and the
        old buffer released back to the pool.  The possibly-new tensor
        is returned — always use the return value.  With ``num_steps``
        fixed, out-of-range steps are dropped exactly as
        :meth:`get_st_grid_array` drops them.  A ``cell_id`` outside
        the grid raises ``ValueError`` before anything is written.
        """
        check_positive(partitions_x, "partitions_x")
        check_positive(partitions_y, "partitions_y")
        value_columns = value_columns or ["count"]
        if array.ndim != 4 or array.shape[1:] != (
            partitions_y,
            partitions_x,
            len(value_columns),
        ):
            raise ValueError(
                f"tensor shape {array.shape} does not match "
                f"(T, {partitions_y}, {partitions_x}, {len(value_columns)})"
            )
        parts = (
            [delta]
            if not isinstance(delta, DataFrame)
            else list(delta.iter_partitions())
        )
        parts = [p for p in parts if p.num_rows]
        # Every part is checked before the first write: a bad delta
        # leaves the tensor as it was.
        num_cells = partitions_x * partitions_y
        cells_of = [check_cells(p.columns["cell_id"], num_cells) for p in parts]
        metrics = _grid_metric_handles()
        metrics["updates"].inc()
        if not parts:
            return array

        if num_steps is None:
            highest = max(
                int(np.asarray(p.columns["time_step"]).max()) for p in parts
            )
            if highest >= array.shape[0]:
                grown = _acquire_grid_tensor(
                    (highest + 1,) + array.shape[1:]
                )
                grown[: array.shape[0]] = array
                STManager.release_st_grid_array(array)
                array = grown
            bound = array.shape[0]
        else:
            bound = num_steps

        touched = sum(
            _scatter(array, part, cells, bound, value_columns)
            for part, cells in zip(parts, cells_of)
        )
        metrics["cells_touched"].inc(touched)
        return array

    @staticmethod
    def release_st_grid_array(array: np.ndarray) -> bool:
        """Return a tensor obtained from :meth:`get_st_grid_array` /
        :meth:`update_st_grid_array` to the array pool for reuse.
        Only call once nothing references the tensor's contents."""
        from repro.tensor.pool import default_pool

        return default_pool().release(array)
