"""Conversion specs: how rows of a preprocessed DataFrame map to
(sample, label) arrays for each application domain."""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from repro.core.datasets.base import WindowPlan
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
    (C, H, W) frames, frame t holding step t, then cut through
    ``window`` (``lead_time`` is shorthand for ``WindowPlan.basic``, one
    step by default).  The rows must arrive in time order, as
    ``group_by(time, cell)`` emits them."""

    partitions_x: int
    partitions_y: int
    value_columns: tuple = ("count",)
    lead_time: InitVar[int | None] = None
    time_column: str = "time_step"
    cell_column: str = "cell_id"
    window: WindowPlan | None = None

    def __post_init__(self, lead_time):
        check_positive(self.partitions_x, "partitions_x")
        check_positive(self.partitions_y, "partitions_y")
        if self.window is None:
            lead = 1 if lead_time is None else lead_time
            object.__setattr__(self, "window", WindowPlan.basic(lead))
        elif lead_time is not None:
            raise ValueError("set lead_time or window, not both")
