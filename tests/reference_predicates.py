"""Reference predicates: the pair-by-pair loops the orientation-sign filter replaced.

`reference_is_simple` and `reference_find_crossings` call `segment_relation`
on every edge pair in (i, j) order.  `reference_candidate_pairs` is the
orientation-sign filter that computed the four signs of each block of edge
pairs from the coordinates, before `tour._candidate_pairs` read them from a
side table.  `reference_classify_edges` places each chord by exact ray
casting from its midpoint (`point_in_polygon`).  The tests use them as the
oracle for `tour.is_simple`, `crossing.find_crossings`,
`tour._candidate_pairs` and `partition.classify_edges`.  `is_simple_polygon` is the polygon simplicity
check that `point_in_polygon` used to run on its input.
"""

from fractions import Fraction
from typing import Sequence

import numpy as np

from kopt_lab import geometry
from kopt_lab import tour as tour_module
from kopt_lab.crossing import GeneralPositionViolation
from kopt_lab.geometry import (
    Cross,
    Disjoint,
    Overlap,
    Point,
    Segment,
    SharedEndpoint,
    Touch,
    segment_relation,
)
from kopt_lab.partition import PartitionError
from kopt_lab.tour import SimpleVerdict


class NonSimplePolygonError(ValueError):
    pass


def polygon_edges(poly: Sequence[Point]) -> list[Segment]:
    return [Segment(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]


def is_simple_polygon(poly: Sequence[Point]) -> bool:
    n = len(poly)
    if n < 3 or len(set(poly)) != n:
        return False
    edges = polygon_edges(poly)
    for i in range(n):
        for j in range(i + 1, n):
            rel = segment_relation(edges[i], edges[j])
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                if not isinstance(rel, SharedEndpoint):
                    return False
            elif not isinstance(rel, Disjoint):
                return False
    return True


def point_in_polygon(p: Point, poly: Sequence[Point], *, assume_simple: bool = False) -> str:
    """`geometry.point_in_polygon`, which trusts the caller, behind the O(n^2) simplicity check.

    Pass assume_simple=True to skip the check when the caller already knows
    the polygon is simple.
    """
    if not assume_simple and not is_simple_polygon(poly):
        raise NonSimplePolygonError("point_in_polygon requires a simple polygon")
    return geometry.point_in_polygon(p, poly)


def midpoint(a: Point, b: Point) -> Point:
    return Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))


def reference_is_simple(inst, t) -> SimpleVerdict:
    """`tour.is_simple` by `segment_relation` on every pair of tour edges."""
    if inst.dim != 2:
        raise ValueError("is_simple supports 2-D instances only")
    t.validate(inst)
    edges = t.edges()
    n = len(edges)
    for i in range(n):
        si = inst.segment(*edges[i])
        for j in range(i + 1, n):
            rel = segment_relation(si, inst.segment(*edges[j]))
            if not isinstance(rel, (Disjoint, SharedEndpoint)):
                return SimpleVerdict(False, (edges[i], edges[j]))
    return SimpleVerdict(True, None)


def reference_find_crossings(inst, t, s) -> list:
    """`crossing.find_crossings` by `segment_relation` on every T x S edge pair."""
    for tour in (t, s):
        verdict = reference_is_simple(inst, tour)
        if not verdict.simple:
            raise ValueError(f"tour is not simple; crossing pair {verdict.witness}")
    out = []
    s_edges = s.edges()
    for te in t.edges():
        seg_t = inst.segment(*te)
        for se in s_edges:
            if frozenset(te) == frozenset(se):
                continue  # shared identical edge, not a crossing
            rel = segment_relation(seg_t, inst.segment(*se))
            if isinstance(rel, Cross):
                out.append((te, se, rel.point))
            elif isinstance(rel, (Touch, Overlap)):
                raise GeneralPositionViolation(te, se, rel)
    return out


def reference_candidate_pairs(inst, *rings):
    """The edge pairs (i, j), i < j, of the rings laid end to end that the
    four orientation signs of `segment_relation` leave open, in (i, j) order.

    A pair is settled when both endpoints of one segment lie strictly on one
    side of the other's line, or when the segments share a vertex and one
    of the other endpoints is not collinear with it.  Each block of rows
    computes its signs from the coordinates, in at most `tour._BLOCK_CELLS`
    cells.
    """
    xs, ys = inst._xy
    tail = np.concatenate([ring[:-1] for ring in rings])
    head = np.concatenate([ring[1:] for ring in rings])
    x, y = xs[tail], ys[tail]
    edges = tail, head, x, y, xs[head] - x, ys[head] - y
    m = len(tail)
    step = max(1, tour_module._BLOCK_CELLS // max(m, 1))
    for i0 in range(0, m - 1, step):
        j0 = i0 + 1
        ea, eb, ex, ey, edx, edy = (v[i0 : i0 + step, None] for v in edges)
        fa, fb, fx, fy, fdx, fdy = (v[None, j0:] for v in edges)
        gx, gy = ex - fx, ey - fy  # f's tail -> e's tail
        cross = fdx * edy - fdy * edx
        # Side of e's tail, then head, against f's line; side of f's tail, then
        # head, against e's line, both negated.
        e_side = fdx * gy - fdy * gx
        f_side = edx * gy - edy * gx
        s1, s2 = np.sign(e_side), np.sign(e_side + cross)
        s3, s4 = np.sign(f_side), np.sign(f_side + cross)
        settled = (s1 * s2 > 0) | (s3 * s4 > 0)
        shared = (ea == fa) | (ea == fb) | (eb == fa) | (eb == fb)
        settled |= shared & (s1 != s2)
        r, c = np.nonzero(~settled)
        upper = c >= r
        yield from zip((r[upper] + i0).tolist(), (c[upper] + j0).tolist())


def reference_classify_edges(pair) -> tuple[list, list, list]:
    """`partition.classify_edges` by the side of each chord's midpoint."""
    inst = pair.instance
    poly = [inst.points[i] for i in pair.tprime.order]
    t_edge_set = {frozenset(e) for e in pair.tprime.edges()}
    s1, s2, s3 = [], [], []
    for u, v in pair.sprime.edges():
        if frozenset((u, v)) in t_edge_set:
            s3.append((u, v))
            continue
        where = point_in_polygon(midpoint(inst.points[u], inst.points[v]), poly, assume_simple=True)
        if where == "interior":
            s1.append((u, v))
        elif where == "exterior":
            s2.append((u, v))
        else:
            raise PartitionError(
                f"midpoint of S' edge {(u, v)} lies on the polygon boundary; "
                "upstream crossing-free transform is inconsistent"
            )
    return s1, s2, s3
