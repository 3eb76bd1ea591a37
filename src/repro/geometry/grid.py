"""Uniform grid partitioning of space.

This is the geometric heart of the preprocessing module: the paper's
``SpacePartition`` divides the dataset's bounding envelope into an
``partitions_x`` x ``partitions_y`` grid of equal cells, and every
record is assigned to the cell containing its point.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.envelope import Envelope
from repro.utils.validation import check_positive


class UniformGrid:
    """An equal-cell grid over an envelope.

    Cell (i, j) covers column i (along x) and row j (along y); the
    flat cell id is ``j * nx + i``.  Points on the far right/top edge
    are assigned to the last column/row (closed upper boundary), so
    every point inside the envelope maps to a valid cell.
    """

    def __init__(self, envelope: Envelope, nx: int, ny: int):
        check_positive(nx, "nx")
        check_positive(ny, "ny")
        if envelope.width <= 0 or envelope.height <= 0:
            raise ValueError("grid envelope must have positive extent")
        self.envelope = envelope
        self.nx = int(nx)
        self.ny = int(ny)
        self.cell_width = envelope.width / nx
        self.cell_height = envelope.height / ny

    def cell_ids_of_arrays(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized cell assignment; -1 marks out-of-envelope points
        (NaN and ±inf coordinates included)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        inside = (
            (xs >= self.envelope.min_x)
            & (xs <= self.envelope.max_x)
            & (ys >= self.envelope.min_y)
            & (ys <= self.envelope.max_y)
        )
        # Clamped into the grid before the integer cast, so no NaN, ±inf
        # or far-off coordinate reaches it (fmin / fmax take the bound
        # over a NaN); the rows outside the envelope become -1 below.
        i = np.fmax(np.fmin((xs - self.envelope.min_x) / self.cell_width,
                            self.nx - 1), 0).astype(np.int64)
        j = np.fmax(np.fmin((ys - self.envelope.min_y) / self.cell_height,
                            self.ny - 1), 0).astype(np.int64)
        ids = j * self.nx + i
        ids[~inside] = -1
        return ids

    def cell_envelope(self, i: int, j: int) -> Envelope:
        """Envelope of cell (i, j)."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"cell ({i}, {j}) outside {self.nx}x{self.ny} grid")
        x0 = self.envelope.min_x + i * self.cell_width
        y0 = self.envelope.min_y + j * self.cell_height
        return Envelope(x0, x0 + self.cell_width, y0, y0 + self.cell_height)

    def __repr__(self):
        return f"UniformGrid({self.nx}x{self.ny} over {self.envelope})"
