"""Argument validation helpers shared across the public API."""

from __future__ import annotations

import numpy as np


def check_positive(value, name: str):
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(value, name: str):
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(value, low, high, name: str):
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return value


def check_cells(column, num_cells: int, name: str = "cell_id"):
    """``column`` as int64 grid cell ids; raise ``ValueError`` unless
    every one lies in ``[0, num_cells)``.  A cell outside the grid
    would otherwise wrap through negative indexing into another cell
    or fail deep inside a scatter."""
    cells = np.asarray(column, dtype=np.int64)
    if len(cells) and not (0 <= cells.min() and cells.max() < num_cells):
        bad = cells[(cells < 0) | (cells >= num_cells)]
        raise ValueError(
            f"{name} must be in [0, {num_cells}), got {int(bad[0])}"
        )
    return cells
