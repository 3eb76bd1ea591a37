"""Axis-aligned bounding boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point


@dataclass(frozen=True)
class Envelope:
    """An axis-aligned rectangle [min_x, max_x] x [min_y, max_y]."""

    min_x: float
    max_x: float
    min_y: float
    max_y: float

    def __post_init__(self):
        # Written as "not <=" so that a NaN bound is rejected too.
        if not (self.min_x <= self.max_x and self.min_y <= self.max_y):
            raise ValueError(
                f"degenerate envelope: ({self.min_x}, {self.max_x}, "
                f"{self.min_y}, {self.max_y})"
            )

    @classmethod
    def of_points(cls, points) -> "Envelope":
        """Smallest envelope covering an iterable of points; a NaN
        coordinate anywhere is a ``ValueError`` (``min``/``max`` would
        skip it unless it came first)."""
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        if not xs:
            raise ValueError("cannot build an envelope from zero points")
        if any(map(math.isnan, xs + ys)):
            raise ValueError("cannot build an envelope from a NaN coordinate")
        return cls(min(xs), max(xs), min(ys), max(ys))

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def contains_point(self, point: Point) -> bool:
        """Closed-interval containment test."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def intersects(self, other: "Envelope") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "Envelope") -> "Envelope":
        return Envelope(
            min(self.min_x, other.min_x),
            max(self.max_x, other.max_x),
            min(self.min_y, other.min_y),
            max(self.max_y, other.max_y),
        )


def bounds_table(envelopes) -> np.ndarray:
    """``(4, n)`` float64 array: the ``min_x``, ``max_x``, ``min_y`` and
    ``max_y`` of every envelope, one contiguous row each."""
    rows = [(e.min_x, e.max_x, e.min_y, e.max_y) for e in envelopes]
    return np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy()


def pairs_in_bounds(bounds: np.ndarray, boxes, xs, ys, points) -> np.ndarray:
    """``Envelope.contains_point`` (closed intervals) over pair arrays:
    the ascending positions ``k`` at which column ``boxes[k]`` of a
    ``bounds_table`` contains ``(xs[points[k]], ys[points[k]])``.  y is
    only tested for the pairs that pass on x."""
    min_x, max_x, min_y, max_y = bounds
    px = xs[points]
    keep = np.flatnonzero((min_x[boxes] <= px) & (px <= max_x[boxes]))
    boxes, py = boxes[keep], ys[points[keep]]
    return keep[(min_y[boxes] <= py) & (py <= max_y[boxes])]
