"""Conversion specs: how rows of a preprocessed DataFrame map to
(sample, label) arrays for each application domain."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClassificationSpec:
    """Raster classification rows: a tile column and an integer label
    column, optionally plus a handcrafted-feature column (DeepSAT-V2
    style)."""

    tile_column: str = "tile"
    label_column: str = "label"
    feature_column: str | None = None


@dataclass(frozen=True)
class SpatiotemporalSpec:
    """Aggregated spatiotemporal rows (``STManager`` output): sparse
    (time_step, cell_id, value...) records to be scattered into dense
    (C, H, W) frames, then paired as (frame_t, frame_{t+lead}).  The
    rows must arrive in time order, as ``group_by(time, cell)`` emits
    them."""

    partitions_x: int
    partitions_y: int
    value_columns: tuple = ("count",)
    lead_time: int = 1
    time_column: str = "time_step"
    cell_column: str = "cell_id"

    def __post_init__(self):
        check_positive(self.partitions_x, "partitions_x")
        check_positive(self.partitions_y, "partitions_y")
        check_positive(self.lead_time, "lead_time")
