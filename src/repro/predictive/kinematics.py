"""Kinematics for linearly moving points (the predictive-query model).

The paper contrasts itself with *predictive* RNN queries (Benetis et
al., IDEAS 2002), which assume every object moves linearly:
``pos(t) = pos(t0) + v * (t - t0)``.  This package implements that
model's query semantics from scratch; this module provides the algebra:
squared distances between linearly moving points are quadratics in time,
so every comparison of two distances reduces to the sign analysis of a
quadratic on an interval.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.geometry.point import Point

#: Comparisons of moving distances are exact up to this tolerance; event
#: times closer than this are merged.
EPS = 1e-9


class MovingPoint(NamedTuple):
    """A point with constant velocity, anchored at time ``t0 = 0``."""

    pos: Point
    vel: tuple[float, float]

    def at(self, t: float) -> Point:
        """Position at time ``t``."""
        return Point(self.pos[0] + self.vel[0] * t, self.pos[1] + self.vel[1] * t)


class Quadratic(NamedTuple):
    """``a*t^2 + b*t + c`` — here always a squared distance difference."""

    a: float
    b: float
    c: float

    def __call__(self, t: float) -> float:
        return (self.a * t + self.b) * t + self.c

    def roots(self) -> list[float]:
        """Real roots in ascending order (0, 1, or 2 of them)."""
        if abs(self.a) < EPS:
            if abs(self.b) < EPS:
                return []
            return [-self.c / self.b]
        disc = self.b * self.b - 4.0 * self.a * self.c
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        r1 = (-self.b - sq) / (2.0 * self.a)
        r2 = (-self.b + sq) / (2.0 * self.a)
        return sorted((r1, r2))


def dist_sq_quadratic(p: MovingPoint, q: MovingPoint) -> Quadratic:
    """Squared distance between two moving points as a quadratic in t."""
    dx = p.pos[0] - q.pos[0]
    dy = p.pos[1] - q.pos[1]
    dvx = p.vel[0] - q.vel[0]
    dvy = p.vel[1] - q.vel[1]
    return Quadratic(
        a=dvx * dvx + dvy * dvy,
        b=2.0 * (dx * dvx + dy * dvy),
        c=dx * dx + dy * dy,
    )


def difference(f: Quadratic, g: Quadratic) -> Quadratic:
    """``f - g`` (itself a quadratic)."""
    return Quadratic(f.a - g.a, f.b - g.b, f.c - g.c)


def sign_change_times(q: Quadratic, t0: float, t1: float) -> list[float]:
    """Times in ``(t0, t1)`` where the quadratic's sign can change."""
    return [t for t in q.roots() if t0 + EPS < t < t1 - EPS]
