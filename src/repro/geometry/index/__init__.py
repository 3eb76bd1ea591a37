"""The spatial index used by the spatial join."""

from repro.geometry.index.strtree import STRTree

__all__ = ["STRTree"]
