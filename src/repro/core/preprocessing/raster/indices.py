"""The normalized difference index (map algebra over raster bands).

Takes two (H, W) band arrays and returns an (H, W) float32 index; a
small epsilon keeps zero-denominator pixels finite.  NDVI, NDWI, NDBI
and NBR are this index over the matching band pair.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-8


def normalized_difference(band_a: np.ndarray, band_b: np.ndarray) -> np.ndarray:
    """(a - b) / (a + b) — the generic normalized difference index."""
    a = np.asarray(band_a, dtype=np.float64)
    b = np.asarray(band_b, dtype=np.float64)
    return ((a - b) / (a + b + _EPS)).astype(np.float32)
