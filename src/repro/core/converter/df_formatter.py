"""DF Formatter: the distributed row -> array-layout mapping stage."""

from __future__ import annotations

import numpy as np

from repro.core.converter.specs import (
    ClassificationSpec,
    SpatiotemporalSpec,
)
from repro.engine.dataframe import DataFrame
from repro.engine.partition import Partition
from repro.spatial.raster import RasterTile
from repro.utils.validation import check_cells


class FrameOrderError(ValueError):
    """Spatiotemporal rows out of time order, or a time step that is
    not a finite whole number."""

    def __init__(self, problem: str = "time steps decrease"):
        super().__init__(
            f"{problem}: spatiotemporal rows must arrive in time order, "
            "as group_by(time, cell) emits them"
        )


class DFFormatter:
    """Maps each row of a preprocessed DataFrame into the array shape
    of the eventual tensor — executed per-partition on the engine, so
    no centralized aggregation happens (Section III-C)."""

    def __init__(self, spec):
        self.spec = spec

    def format(self, df: DataFrame) -> DataFrame:
        """Return a DataFrame with ``__x`` (and ``__y``, ``__f``)
        object columns holding per-row arrays — for the spatiotemporal
        spec, frame blocks instead (see ``_format_spatiotemporal``)."""
        spec = self.spec
        if isinstance(spec, ClassificationSpec):
            return self._format_classification(df, spec)
        if isinstance(spec, SpatiotemporalSpec):
            return self._format_spatiotemporal(df, spec)
        raise TypeError(f"unknown spec {type(spec).__name__}")

    @staticmethod
    def _tile_array(value) -> np.ndarray:
        if isinstance(value, RasterTile):
            return value.data
        return np.asarray(value, dtype=np.float32)

    def _format_classification(self, df, spec) -> DataFrame:
        def fn(part: Partition) -> Partition:
            tiles = part.columns[spec.tile_column]
            xs = np.empty(len(tiles), dtype=object)
            for i in range(len(tiles)):
                xs[i] = self._tile_array(tiles[i])
            columns = {
                "__x": xs,
                "__y": np.asarray(
                    part.columns[spec.label_column], dtype=np.int64
                ),
            }
            if spec.feature_column is not None:
                feats = part.columns[spec.feature_column]
                fs = np.empty(len(feats), dtype=object)
                for i in range(len(feats)):
                    fs[i] = np.asarray(feats[i], dtype=np.float32)
                columns["__f"] = fs
            return Partition(columns)

        return df.map_partitions(fn, label="df_formatter[classification]")

    def _format_spatiotemporal(self, df, spec) -> DataFrame:
        """Scatter sparse aggregate rows into dense per-timestep
        frames, one ``(T_part, C, H, W)`` float32 block per partition
        with the partition's steps in ``__t`` and, in ``__w[0]``, which
        cells the first frame's rows wrote (how :class:`RowTransformer`
        folds a step that continues into the next partition; the other
        ``__w`` rows stay unset).

        The rows must already be in time order — ``group_by(time,
        cell)`` emits them that way — so a frame is a run of equal
        steps; the formatter checks the order and does not sort: steps
        that decrease, or are not finite whole numbers, raise
        :class:`FrameOrderError`."""
        h, w = spec.partitions_y, spec.partitions_x
        channels = len(spec.value_columns)

        def fn(part: Partition) -> Partition:
            steps = np.asarray(part.columns[spec.time_column])
            if steps.dtype.kind == "f":
                whole = np.isfinite(steps) & (np.trunc(steps) == steps)
                if not whole.all():
                    bad = float(steps[~whole][0])
                    raise FrameOrderError(
                        f"time step {bad} is not a finite whole number"
                    )
            steps = steps.astype(np.int64)
            if (steps[1:] < steps[:-1]).any():
                raise FrameOrderError()
            cells = check_cells(
                part.columns[spec.cell_column], h * w, spec.cell_column
            )
            first = np.diff(steps, prepend=steps[:1] - 1) != 0
            frame = np.cumsum(first) - 1
            count = int(first.sum())
            block = np.zeros((count, channels, h * w), dtype=np.float32)
            for c, name in enumerate(spec.value_columns):
                values = np.asarray(part.columns[name], dtype=np.float32)
                block[frame, c, cells] = values
            written = np.zeros((count, h * w), dtype=bool)
            written[:1, cells[frame == 0]] = True
            return Partition(
                {
                    "__t": steps[first],
                    "__x": block.reshape(count, channels, h, w),
                    "__w": written.reshape(count, h, w),
                }
            )

        return df.map_partitions(fn, label="df_formatter[spatiotemporal]")
