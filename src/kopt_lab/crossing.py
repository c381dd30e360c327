"""Crossing detection between two tours and the crossing-free subdivision.

Every crossing between an edge of T and an edge of S is a rational point;
adding these points to the instance and subdividing both tours yields a pair
of tours tracing the same polygons (hence the same lengths) with no
remaining crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Cross, Overlap, Point, Touch, segment_relation
from .tour import Instance, Tour, _candidate_pairs, _check_planar, _first_intersecting


class GeneralPositionViolation(ValueError):
    def __init__(self, t_edge, s_edge, relation):
        self.t_edge = t_edge
        self.s_edge = s_edge
        self.relation = relation
        super().__init__(
            f"tour edges {t_edge} and {s_edge} are in relation {type(relation).__name__}, "
            "which the crossing-free transform refuses to resolve"
        )


@dataclass
class CrossingFreePair:
    instance: Instance          # extended instance V'
    tprime: Tour
    sprime: Tour
    crossings: int
    # provenance[i] is ("original", old_index) or ("crossing", (t_edge, s_edge))
    provenance: list


def find_crossings(inst: Instance, t: Tour, s: Tour) -> list[tuple[tuple, tuple, Point]]:
    """All (T-edge, S-edge, point) crossings, ordered by T edge then S edge.

    One `_candidate_pairs` pass over T's edges followed by S's gives the
    candidates of both simplicity checks and of the T x S search: with n
    edges in T, a pair (i, j) is T x T when j < n, S x S when i >= n, and
    otherwise T's edge i against S's edge j - n; an edge of both tours is
    settled there, as no crossing.  Both tours must be simple,
    T checked first (ValueError naming that tour's first witness).  A T x S
    pair that touches or overlaps raises `GeneralPositionViolation`, an
    invariant guard: such a pair puts a vertex, which both tours visit,
    inside an edge of one of them, which makes that tour non-simple, so only
    a broken simplicity test can reach it.
    """
    _check_planar(inst)
    rings = t.validate(inst), s.validate(inst)
    edges = t.edges() + s.edges()
    n = t.n
    in_t, in_s, t_by_s = [], [], []
    for i, j in _candidate_pairs(inst, *rings):
        if j < n:
            in_t.append((i, j))
        elif i >= n:
            in_s.append((i, j))
        else:
            t_by_s.append((i, j))
    for pairs in (in_t, in_s):
        witness = _first_intersecting(inst, edges, pairs)
        if witness is not None:
            raise ValueError(f"tour is not simple; crossing pair {witness}")
    out = []
    for i, j in t_by_s:
        te, se = edges[i], edges[j]
        rel = segment_relation(inst.segment(*te), inst.segment(*se))
        if isinstance(rel, Cross):
            out.append((te, se, rel.point))
        elif isinstance(rel, (Touch, Overlap)):
            raise GeneralPositionViolation(te, se, rel)
    return out


def _edge_param(a: Point, b: Point, p: Point) -> Fraction:
    """Position of p along segment a->b, as an exact rational in (0, 1)."""
    if b.x != a.x:
        return Fraction(p.x - a.x, b.x - a.x)
    return Fraction(p.y - a.y, b.y - a.y)


def make_crossing_free(inst: Instance, t: Tour, s: Tour) -> CrossingFreePair:
    """Subdivide both tours at all mutual crossings (merged rational points).

    Without a crossing the pair's instance is `inst` itself, not a copy;
    with crossings it is `inst.extended` by the crossing points, so a
    distance matrix of V' copies V's.
    """
    crossings = find_crossings(inst, t, s)

    new_points: dict[Point, tuple] = {}  # point -> provenance tag
    splits_t: dict[tuple, list[Point]] = {}
    splits_s: dict[tuple, list[Point]] = {}
    for te, se, p in crossings:
        new_points.setdefault(p, ("crossing", (te, se)))
        splits_t.setdefault(te, []).append(p)
        splits_s.setdefault(se, []).append(p)

    added = sorted(new_points)
    index_of = {p: inst.n + k for k, p in enumerate(added)}
    provenance = [("original", i) for i in range(inst.n)] + [new_points[p] for p in added]

    if crossings:
        vprime = inst.extended(added, name=f"{inst.name}+crossings" if inst.name else "")
    else:
        vprime = inst  # V' = V: keeps the distance cache already built on V

    def subdivide(tour: Tour, splits: dict) -> Tour:
        if not splits:
            return tour  # nothing to insert: the tour itself, with the ring it was checked by
        order = []
        for u, v in tour.edges():
            order.append(u)
            pts = splits.get((u, v), [])
            a, b = inst.points[u], inst.points[v]
            for p in sorted(set(pts), key=lambda q: _edge_param(a, b, q)):
                order.append(index_of[p])
        return Tour(tuple(order))

    return CrossingFreePair(
        instance=vprime,
        tprime=subdivide(t, splits_t),
        sprime=subdivide(s, splits_s),
        crossings=len(crossings),
        provenance=provenance,
    )
