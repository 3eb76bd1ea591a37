"""Custom grid datasets (paper Section III-A1).

"GeoTorchAI datasets module provides classes that allow defining any
custom datasets instead of relying only on ready-to-use benchmark
datasets" — these wrap a tensor passed in memory or one materialized
from an ``STManager``-aggregated DataFrame.
"""

from __future__ import annotations

from repro.core.datasets.base import GridDataset
from repro.core.preprocessing.grid.st_manager import STManager


class CustomGridDataset(GridDataset):
    """A grid dataset over a user-provided (T, H, W, C) tensor."""

    @classmethod
    def from_st_dataframe(
        cls,
        st_df,
        partitions_x: int,
        partitions_y: int,
        num_steps: int | None = None,
        value_columns=None,
        **kwargs,
    ) -> "CustomGridDataset":
        """Materialize an ``STManager``-aggregated DataFrame straight
        into a trainable dataset."""
        tensor = STManager.get_st_grid_array(
            st_df,
            partitions_x,
            partitions_y,
            num_steps=num_steps,
            value_columns=value_columns,
        )
        return cls(tensor, **kwargs)
