"""Spatial operations over the DataFrame engine (Sedona substitute).

Provides:

- a grid-partitioned spatial join (points vs polygon/envelope sets);
- the :class:`RasterTile` container plus a GeoTIFF-like on-disk format
  (``.rtif``) with reader/writer, and raster DataFrames whose rows are
  whole tiles.
"""

from repro.spatial.spatial_join import spatial_join_points_polygons
from repro.spatial.raster import RasterTile
from repro.spatial.raster_io import (
    read_rtif,
    write_rtif,
    load_raster_folder,
    write_raster_dataframe,
)

__all__ = [
    "spatial_join_points_polygons",
    "RasterTile",
    "read_rtif",
    "write_rtif",
    "load_raster_folder",
    "write_raster_dataframe",
]
