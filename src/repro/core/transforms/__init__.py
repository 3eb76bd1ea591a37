"""Composable transforms for raster samples."""

from repro.core.transforms.compose import Compose
from repro.core.transforms.raster import (
    AppendNormalizedDifferenceIndex,
    AppendRatioIndex,
)

__all__ = [
    "Compose",
    "AppendNormalizedDifferenceIndex",
    "AppendRatioIndex",
]
