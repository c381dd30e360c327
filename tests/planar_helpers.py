"""Point-set helpers that only the tests use: the bounding box, its perimeter bound, collinearity.

`bounding_box` and `perimeter_lower_bound` state the bounding-box lemma
that acceptance criterion 8 checks; `is_degenerate` lets a test skip or
build all-collinear instances.  All three are exact on int and Fraction
coordinates.
"""

from typing import Sequence

from kopt_lab.geometry import PNorm, Point, orientation, pdist, pt
from kopt_lab.tour import Instance


def bounding_box(points: Sequence[Point]) -> tuple:
    """Side lengths (d_x, d_y) of the axis-aligned bounding rectangle."""
    if not points:
        raise ValueError("bounding_box of empty point set")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return max(xs) - min(xs), max(ys) - min(ys)


def perimeter_lower_bound(poly: Sequence[Point], norm: PNorm):
    """2 * (d_x^p + d_y^p)^(1/p) for the polygon's bounding box.

    Any closed walk through the polygon's vertices has p-perimeter at least
    this value; callers compare it against the measured perimeter.
    """
    if len(poly) < 2:
        raise ValueError("need at least 2 points")
    dx, dy = bounding_box(poly)
    return 2 * pdist(norm, pt(0, 0), Point(dx, dy))


def is_degenerate(inst: Instance) -> bool:
    """True iff all points lie on one line (exact orientation tests)."""
    if inst.dim != 2:
        raise ValueError("is_degenerate supports 2-D instances only")
    pts = inst.points
    if len(pts) <= 2:
        return True
    a, b = pts[0], pts[1]
    return all(orientation(a, b, c) == 0 for c in pts[2:])
