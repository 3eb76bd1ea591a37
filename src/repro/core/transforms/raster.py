"""Raster transforms: callables on (C, H, W) float arrays.

These are the *on-the-fly* counterparts of the offline
:class:`~repro.core.preprocessing.raster.RasterProcessing` operations
(the Table VIII experiment measures exactly this online-vs-offline
trade-off).  Apply them via a dataset's ``transform=`` parameter
(Listing 7).
"""

from __future__ import annotations

import numpy as np

from repro.core.preprocessing.raster import indices as idx


class AppendNormalizedDifferenceIndex:
    """Append (b1 - b2) / (b1 + b2) of two bands as a new band."""

    def __init__(self, band_index1: int, band_index2: int):
        self.band_index1 = band_index1
        self.band_index2 = band_index2

    def __call__(self, image: np.ndarray) -> np.ndarray:
        band = idx.normalized_difference(
            image[self.band_index1], image[self.band_index2]
        )
        return np.concatenate([image, band[None]], axis=0)

    def __repr__(self):
        return (
            f"AppendNormalizedDifferenceIndex({self.band_index1}, "
            f"{self.band_index2})"
        )


class AppendRatioIndex:
    """Append b1 / b2 as a new band."""

    def __init__(self, band_index1: int, band_index2: int):
        self.band_index1 = band_index1
        self.band_index2 = band_index2

    def __call__(self, image: np.ndarray) -> np.ndarray:
        ratio = image[self.band_index1] / (image[self.band_index2] + 1e-8)
        return np.concatenate(
            [image, ratio[None].astype(image.dtype)], axis=0
        )

    def __repr__(self):
        return f"AppendRatioIndex({self.band_index1}, {self.band_index2})"
