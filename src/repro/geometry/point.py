"""2D point geometry."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """An immutable 2D point (x = longitude, y = latitude by
    convention for geographic data)."""

    x: float
    y: float
