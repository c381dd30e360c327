"""Five-way partition of the 2-optimal tour's edges relative to the optimal tour.

Edges of S' are split by position (interior / exterior / on the polygon T')
and the interior and exterior chord sets are further split by orientation
compatibility with a reference path along T'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .crossing import CrossingFreePair
from .geometry import Point, point_in_polygon
from .tour import Tour


class NotEnoughChords(ValueError):
    """Fewer than two chords: the caller bounds their length by c(T) directly."""


class PartitionError(ValueError):
    pass


@dataclass
class EdgePartition:
    s1p: list   # interior chords, orientation-compatible with the reference path
    s1pp: list  # interior chords, oriented the other way
    s2p: list   # exterior, compatible
    s2pp: list  # exterior, other way
    s3: list    # edges identical to T' edges
    e0: Optional[tuple] = None          # interior reference edge
    e0_path: Optional[list] = None      # vertex path along T' from x0 to y0
    f0: Optional[tuple] = None          # exterior reference edge
    f0_path: Optional[list] = None


def _midpoint(a: Point, b: Point) -> Point:
    return Point(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))


def classify_edges(pair: CrossingFreePair) -> tuple[list, list, list]:
    """Split E(S') into (S1 interior, S2 exterior, S3 on T')."""
    inst = pair.instance
    poly = [inst.points[i] for i in pair.tprime.order]
    t_edge_set = {frozenset(e) for e in pair.tprime.edges()}
    s1, s2, s3 = [], [], []
    for u, v in pair.sprime.edges():
        if frozenset((u, v)) in t_edge_set:
            s3.append((u, v))
            continue
        where = point_in_polygon(
            _midpoint(inst.points[u], inst.points[v]), poly, assume_simple=True
        )
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


def _tour_paths(tprime: Tour, a: int, b: int) -> tuple[list, list]:
    """The two vertex paths from a to b along the cycle T'."""
    o = list(tprime.order)
    ia, ib = o.index(a), o.index(b)
    n = len(o)
    fwd = [o[(ia + k) % n] for k in range(((ib - ia) % n) + 1)]
    bwd = [o[(ia - k) % n] for k in range(((ia - ib) % n) + 1)]
    return fwd, bwd


def select_reference_edge(chords: list, tprime: Tour) -> tuple[tuple, list]:
    """Pick e0 = (x0, y0) and the x0->y0 path along T' carrying all other chord endpoints.

    e0 qualifies when one of the two x0-y0 paths contains no other chord
    endpoint in its interior; among qualifying chords the one with the
    smallest tail vertex index wins.
    """
    if len(chords) < 2:
        raise NotEnoughChords(f"need at least 2 chords, got {len(chords)}")
    endpoints = {v for e in chords for v in e}
    best = None
    for a, b in chords:
        fwd, bwd = _tour_paths(tprime, a, b)
        others = endpoints - {a, b}
        for clear, carrier in ((fwd, bwd), (bwd, fwd)):
            if not (set(clear[1:-1]) & others):
                if set(carrier[1:-1]) >= others or not others:
                    cand = ((a, b), carrier)
                    if best is None or a < best[0][0]:
                        best = cand
                    break
    if best is None:
        raise PartitionError("no reference chord found; chord set is not laminar along T'")
    return best


def orientation_split(chords: list, e0: tuple, path: list) -> tuple[list, list]:
    """Split chords by orientation along the reference path.

    A chord (a, b) is compatible when a precedes b on the x0->y0 path, i.e.
    the initial path segment ending at b already contains a.
    """
    pos = {v: i for i, v in enumerate(path)}
    compatible, reversed_ = [], []
    for a, b in chords:
        if a not in pos or b not in pos:
            raise PartitionError(f"chord {(a, b)} has an endpoint off the reference path")
        (compatible if pos[a] < pos[b] else reversed_).append((a, b))
    if e0 not in compatible:
        raise PartitionError("reference edge e0 must be orientation-compatible with its path")
    return compatible, reversed_


def partition_edges(pair: CrossingFreePair) -> EdgePartition:
    """Full five-way partition; chord sets with < 2 chords stay unsplit in s1p/s2p."""
    s1, s2, s3 = classify_edges(pair)
    part = EdgePartition(s1p=[], s1pp=[], s2p=[], s2pp=[], s3=s3)
    for chords, tag in ((s1, "interior"), (s2, "exterior")):
        try:
            e0, path = select_reference_edge(chords, pair.tprime)
            compat, rest = orientation_split(chords, e0, path)
        except NotEnoughChords:
            e0, path, compat, rest = None, None, list(chords), []
        if tag == "interior":
            part.s1p, part.s1pp, part.e0, part.e0_path = compat, rest, e0, path
        else:
            part.s2p, part.s2pp, part.f0, part.f0_path = compat, rest, e0, path
    return part
