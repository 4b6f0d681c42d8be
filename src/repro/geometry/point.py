"""Points and distance primitives.

Every spatial location in the library is a :class:`Point`, a lightweight
immutable ``NamedTuple`` so it unpacks, hashes, and compares like a plain
``(x, y)`` pair while still reading as a domain type.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Point(NamedTuple):
    """A location in the 2-D data space."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        """Return this point moved by the vector ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def dist_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def dist_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def dist_point_segment(p: Point, a: Point, b: Point) -> float:
    """Distance from point ``p`` to the closed segment ``ab``."""
    ax, ay = a
    bx, by = b
    px, py = p
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = ax + t * abx
    cy = ay + t * aby
    return math.hypot(px - cx, py - cy)
