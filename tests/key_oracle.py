"""Reference key index for group-by: ``np.unique(axis=0)`` over the
stacked key matrix — the void-typed lexicographic row sort the engine
used before key rows were packed into integer codes
(``repro.engine.aggregates.KeyPacking``).  The engine no longer calls
it; the key-index property tests hold the packed path to it, row for
row.  It never merges NaN rows, so it is an oracle for NaN-free keys
only.
"""

from __future__ import annotations

import numpy as np


def oracle_unique_rows(rows: np.ndarray):
    """``(uniques, inverse, counts)`` of a ``(rows, K)`` key matrix:
    distinct rows in lexicographic order, each row's position among
    them, and the rows per distinct row."""
    uniques, inverse, counts = np.unique(
        rows, axis=0, return_inverse=True, return_counts=True
    )
    return uniques, inverse.reshape(-1), counts
