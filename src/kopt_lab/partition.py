"""Five-way partition of the 2-optimal tour's edges relative to the optimal tour.

Edges of S' are split by position (interior / exterior / on the polygon T')
and the interior and exterior chord sets are further split by orientation
compatibility with a reference path along T', into one table of chord
classes that the certificate loops over.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .crossing import CrossingFreePair
from .geometry import Point, orientation
from .tour import Tour


class PartitionError(ValueError):
    pass


class ChordClass(NamedTuple):
    """One row of the chord table: a class of S' chords and what bounds it."""

    name: str               # S1' / S1'' interior, S2' / S2'' exterior; ' marks the compatible class
    chords: list
    path: Optional[list]    # the side's T' path from x0 to y0; None below two chords
    root: Optional[tuple]   # e0 (f0 outside) for the compatible class, None for the other


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


def select_reference_edge(chords: list, tprime: Tour) -> tuple[tuple, list]:
    """Pick e0 = (x0, y0) and the x0->y0 path along T' carrying all other chord endpoints.

    T' positions are mapped once.  e0 qualifies when its endpoints are
    adjacent among the sorted positions of all chord endpoints, so one of
    its two T' paths holds no other endpoint; among qualifying chords the
    least tail wins, the first in input order on ties.  The carrier is the
    other path: backward when the forward one is clear (forward wins when
    both are), else forward.  Only that path is built: O(n + k log k).
    """
    if len(chords) < 2:
        raise PartitionError(f"need at least 2 chords, got {len(chords)}")
    order = tprime.order
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    ends = sorted({pos[v] for e in chords for v in e})
    succ = dict(zip(ends, ends[1:] + ends[:1]))  # the next endpoint position forward along T'
    best = None
    for a, b in chords:
        forward_clear = succ[pos[a]] == pos[b]
        if (forward_clear or succ[pos[b]] == pos[a]) and (best is None or a < best[0][0]):
            best = ((a, b), forward_clear)
    if best is None:
        raise PartitionError("no reference chord found; chord set is not laminar along T'")
    (a, b), forward_clear = best
    step = -1 if forward_clear else 1
    path = [order[(pos[a] + step * k) % n] for k in range((step * (pos[b] - pos[a])) % n + 1)]
    return (a, b), path


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


def partition_edges(pair: CrossingFreePair) -> tuple[list, list]:
    """The chord table of S' against T', S1', S1'', S2', S2'' in that order, and S3.

    A side with fewer than two chords has no reference chord: its chords
    stay in the compatible row, and both of its rows have no path, since the
    caller bounds a lone chord by c(T) directly.
    """
    s1, s2, s3 = classify_edges(pair)
    table = []
    for side, chords in (("S1", s1), ("S2", s2)):
        root = path = None
        compat, rest = chords, []
        if len(chords) >= 2:
            root, path = select_reference_edge(chords, pair.tprime)
            compat, rest = orientation_split(chords, root, path)
        table += [ChordClass(side + "'", compat, path, root), ChordClass(side + "''", rest, path, None)]
    return table, s3
