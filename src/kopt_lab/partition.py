"""Five-way partition of the 2-optimal tour's edges relative to the optimal tour.

Edges of S' are split by position (interior / exterior / on the polygon T')
and the interior and exterior chord sets are further split by orientation
compatibility with a reference path along T'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .crossing import CrossingFreePair
from .geometry import Point, orientation
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


def _in_cone(p: Point, u: Point, q: Point, v: Point) -> Optional[bool]:
    """Does the chord u -> v leave u into the interior of a counterclockwise polygon?

    p -> u -> q are consecutive polygon vertices, so the interior near u is
    the cone left of both p -> u and u -> q: their intersection when u is
    convex or straight, their union when u is reflex (O'Rourke's InCone).
    True when v lies in the open cone, False when it lies outside the closed
    cone, None when it lies on the cone's boundary: along u -> p or u -> q.
    """
    cq = orientation(u, q, v)  # > 0: v left of u -> q
    cp = orientation(u, v, p)  # > 0: v left of p -> u
    if orientation(u, q, p) >= 0:
        inside, closed = cq > 0 and cp > 0, cq >= 0 and cp >= 0
    else:
        inside, closed = cq > 0 or cp > 0, cq >= 0 or cp >= 0
    return inside if inside == closed else None


def classify_edges(pair: CrossingFreePair) -> tuple[list, list, list]:
    """Split E(S') into (S1 interior, S2 exterior, S3 on T').

    S' meets the simple polygon T' only at shared vertices, so a chord
    (u, v) lies on the side into which it leaves its tail u: a cone test
    against u's two neighbours on T', which are taken in counterclockwise
    order.  T''s orientation is the turn at its lowest-then-leftmost vertex,
    which is strictly convex.
    """
    pts = pair.instance.points
    order = pair.tprime.order
    n = len(order)
    low = min(range(n), key=lambda k: (pts[order[k]].y, pts[order[k]].x))
    ccw = orientation(pts[order[low - 1]], pts[order[low]], pts[order[(low + 1) % n]]) > 0
    ring = {}  # vertex -> (previous, next) in counterclockwise order along T'
    for k, u in enumerate(order):
        prev, nxt = order[k - 1], order[(k + 1) % n]
        ring[u] = (prev, nxt) if ccw else (nxt, prev)
    t_edge_set = {frozenset(e) for e in pair.tprime.edges()}
    s1, s2, s3 = [], [], []
    for u, v in pair.sprime.edges():
        if frozenset((u, v)) in t_edge_set:
            s3.append((u, v))
            continue
        prev, nxt = ring[u]
        inside = _in_cone(pts[prev], pts[u], pts[nxt], pts[v])
        if inside is None:
            raise PartitionError(
                f"S' edge {(u, v)} leaves {u} along an edge of T'; "
                "upstream crossing-free transform is inconsistent"
            )
        (s1 if inside else s2).append((u, v))
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
                if best is None or a < best[0][0]:
                    best = ((a, b), carrier)
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
