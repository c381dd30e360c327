"""Exact planar predicates and p-norm metrics.

Integral coordinates are Python ints; a coordinate is a Fraction only where
geometry creates a rational point: a crossing point or an edge parameter.
All topological predicates (orientation, segment intersection, containment)
are exact on int, Fraction or mixed points, so downstream certificates never
suffer from floating-point misclassification.  Lengths are floating point
except for the 1-norm, which stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence


class Point(NamedTuple):
    x: int | Fraction
    y: int | Fraction


class Point3(NamedTuple):
    x: float
    y: float
    z: float


def _exact(v) -> int | Fraction:
    """v as an exact rational: an int when it is integral, else a Fraction."""
    if type(v) is int:
        return v
    f = Fraction(v)
    return int(f.numerator) if f.denominator == 1 else f


def pt(x, y) -> Point:
    """Build a Point, normalizing coordinates to ints or exact rationals."""
    return Point(_exact(x), _exact(y))


@dataclass(frozen=True)
class PNorm:
    """The p-norm, 1 <= p < inf.  p=1 has an exact integer/rational fast path."""

    p: float = 2

    def __post_init__(self):
        if not 1 <= self.p < math.inf:  # also rejects NaN
            raise ValueError(f"p must be a finite number at least 1 (the p-norm), got {self.p}")

    @property
    def is_one(self) -> bool:
        return self.p == 1

    @property
    def is_two(self) -> bool:
        return self.p == 2


# Integer coordinate differences below this bound give a Euclidean distance as
# the square root of the exact integer dx^2 + dy^2: that sum stays below 2^53,
# so it converts to a double exactly, and one correctly rounded sqrt follows.
SQUARE_SPAN = 1 << 26


def pdist(norm: PNorm, a: Point, b: Point):
    """p-norm distance.  Exact (Fraction) for p=1, float otherwise.

    For p=2, `math.sqrt(dx*dx + dy*dy)` when dx and dy are ints below
    `SQUARE_SPAN`, else `math.hypot`.
    """
    dx = abs(a.x - b.x)
    dy = abs(a.y - b.y)
    if norm.is_one:
        return dx + dy
    if norm.is_two:
        if type(dx) is int and type(dy) is int and dx < SQUARE_SPAN and dy < SQUARE_SPAN:
            return math.sqrt(dx * dx + dy * dy)
        return math.hypot(float(dx), float(dy))
    p = norm.p
    return (float(dx) ** p + float(dy) ** p) ** (1.0 / p)


def pdist3(a: Point3, b: Point3) -> float:
    """Euclidean distance in R^3 (metric support only, no 3-D predicates)."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (d > 0) - (d < 0)


class Segment(NamedTuple):
    a: Point
    b: Point


# Segment relation verdicts.

class Disjoint(NamedTuple):
    pass


class SharedEndpoint(NamedTuple):
    point: Point


class Touch(NamedTuple):
    point: Point


class Cross(NamedTuple):
    point: Point


class Overlap(NamedTuple):
    segment: Segment


SegmentRelation = Disjoint | SharedEndpoint | Touch | Cross | Overlap


def _on_segment(s: Segment, p: Point) -> bool:
    """p collinear with s assumed; is p within the closed segment?"""
    return (min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)
            and min(s.a.y, s.b.y) <= p.y <= max(s.a.y, s.b.y))


def _line_intersection(e: Segment, f: Segment) -> Point:
    """Intersection point of the two supporting lines (not parallel)."""
    x1, y1, x2, y2 = e.a.x, e.a.y, e.b.x, e.b.y
    x3, y3, x4, y4 = f.a.x, f.a.y, f.b.x, f.b.y
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    t = Fraction((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4), den)
    return Point(x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def segment_relation(e: Segment, f: Segment) -> SegmentRelation:
    """Exact classification of how two closed segments intersect."""
    if e.a == e.b or f.a == f.b:
        raise ValueError("degenerate segment")

    o1 = orientation(f.a, f.b, e.a)
    o2 = orientation(f.a, f.b, e.b)
    o3 = orientation(e.a, e.b, f.a)
    o4 = orientation(e.a, e.b, f.b)

    if o1 == 0 and o2 == 0:
        # Collinear: compare 1-D parameters along the dominant axis.
        axis = 0 if e.a.x != e.b.x else 1
        ea, eb = sorted((e.a[axis], e.b[axis]))
        fa, fb = sorted((f.a[axis], f.b[axis]))
        lo, hi = max(ea, fa), min(eb, fb)
        if lo > hi:
            return Disjoint()
        if lo == hi:
            # Touching at a single collinear point: an endpoint of both.
            p = e.a if e.a[axis] == lo else e.b
            return SharedEndpoint(p)
        def at(seg, v):
            return seg.a if seg.a[axis] == v else (seg.b if seg.b[axis] == v else None)
        lo_pt = at(e, lo) or at(f, lo)
        hi_pt = at(e, hi) or at(f, hi)
        return Overlap(Segment(lo_pt, hi_pt))

    # Endpoint lying on the other segment (at most one such point when not collinear).
    touch_pt = None
    if o1 == 0 and _on_segment(f, e.a):
        touch_pt = e.a
    elif o2 == 0 and _on_segment(f, e.b):
        touch_pt = e.b
    elif o3 == 0 and _on_segment(e, f.a):
        touch_pt = f.a
    elif o4 == 0 and _on_segment(e, f.b):
        touch_pt = f.b
    if touch_pt is not None:
        if touch_pt in (e.a, e.b) and touch_pt in (f.a, f.b):
            return SharedEndpoint(touch_pt)
        return Touch(touch_pt)

    if o1 != o2 and o3 != o4:
        return Cross(_line_intersection(e, f))
    return Disjoint()


def point_in_polygon(p: Point, poly: Sequence[Point]) -> str:
    """Exact ray-casting verdict for a simple polygon: 'interior', 'boundary' or 'exterior'.

    The polygon's simplicity is the caller's to guarantee.  No certificate
    step calls this: `partition.classify_edges` places chords by a cone test.
    """
    n = len(poly)
    for i in range(n):
        seg = Segment(poly[i], poly[(i + 1) % n])
        if orientation(seg.a, seg.b, p) == 0 and _on_segment(seg, p):
            return "boundary"

    # Horizontal ray towards +x; count strict crossings with exact rationals.
    inside = False
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            x_int = a.x + Fraction((p.y - a.y) * (b.x - a.x), b.y - a.y)
            if x_int > p.x:
                inside = not inside
    return "interior" if inside else "exterior"
