"""Raster preprocessing: transformations, map algebra, and features."""

from repro.core.preprocessing.raster.raster_processing import RasterProcessing
from repro.core.preprocessing.raster.glcm import glcm_features
from repro.core.preprocessing.raster import indices

__all__ = [
    "RasterProcessing",
    "glcm_features",
    "indices",
]
