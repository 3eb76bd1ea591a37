"""GeoTorchAI benchmark datasets (grid spatiotemporal + raster)."""

from repro.core.datasets import grid, raster
from repro.core.datasets.base import DatasetCacheError, WindowPlan
from repro.core.datasets.registry import DATASET_REGISTRY, DatasetInfo

__all__ = ["grid", "raster", "DATASET_REGISTRY", "DatasetCacheError", "DatasetInfo",
           "WindowPlan"]
