"""Custom raster datasets (paper Section III-A1).

Wraps user-provided in-memory imagery with the same band-selection /
feature-extraction / transform machinery as the benchmark datasets.
"""

from __future__ import annotations

from repro.core.datasets.base import RasterDataset


class CustomRasterDataset(RasterDataset):
    """A raster dataset over user-provided (N, C, H, W) images."""
