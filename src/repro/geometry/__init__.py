"""Computational geometry: the spatial-type layer under the engine.

Substitutes the geometry core of Apache Sedona / Shapely: point,
envelope and polygon types; containment/intersection predicates; the
STR-tree spatial index; and the grid
partitioner that the preprocessing module uses to rasterize space.
"""

from repro.geometry.point import Point
from repro.geometry.envelope import Envelope
from repro.geometry.polygon import Polygon
from repro.geometry.grid import UniformGrid
from repro.geometry.index.strtree import STRTree

__all__ = [
    "Point",
    "Envelope",
    "Polygon",
    "UniformGrid",
    "STRTree",
]
