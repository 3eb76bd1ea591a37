"""``SpacePartition``: spatial partitioning utilities.

The paper pairs ``STManager`` with a ``SpacePartition`` class that
generates grid cells over a dataset's extent and supports re-
partitioning grid datasets to reduce training volume (their ICDE'22
re-partitioning work).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.envelope import Envelope
from repro.geometry.grid import UniformGrid
from repro.geometry.polygon import Polygon
from repro.utils.validation import check_positive


class SpacePartition:
    """Static facade for grid generation and repartitioning."""

    @staticmethod
    def generate_grid_cells(
        envelope: Envelope, partitions_x: int, partitions_y: int
    ) -> list[Polygon]:
        """Materialize every grid cell as a polygon, ordered by flat
        cell id (row-major, y outer)."""
        grid = UniformGrid(envelope, partitions_x, partitions_y)
        cells = []
        for j in range(grid.ny):
            for i in range(grid.nx):
                env = grid.cell_envelope(i, j)
                cells.append(
                    Polygon(
                        [
                            (env.min_x, env.min_y),
                            (env.max_x, env.min_y),
                            (env.max_x, env.max_y),
                            (env.min_x, env.max_y),
                        ]
                    )
                )
        return cells

    @staticmethod
    def coarsen_st_tensor(tensor: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
        """Reduce a (T, H, W, C) tensor's spatial resolution by summing
        ``factor_y`` x ``factor_x`` blocks — the volume-reduction
        re-partitioning the paper cites for cutting training time."""
        check_positive(factor_y, "factor_y")
        check_positive(factor_x, "factor_x")
        t, h, w, c = tensor.shape
        if h % factor_y or w % factor_x:
            raise ValueError(
                f"grid ({h}, {w}) not divisible by factors "
                f"({factor_y}, {factor_x})"
            )
        reshaped = tensor.reshape(
            t, h // factor_y, factor_y, w // factor_x, factor_x, c
        )
        return reshaped.sum(axis=(2, 4))
