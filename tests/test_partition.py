import dataclasses
import random
from fractions import Fraction

import pytest

from kopt_lab.crossing import CrossingFreePair, make_crossing_free
from kopt_lab.geometry import PNorm, Point, orientation, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.partition import (
    PartitionError,
    classify_edges,
    orientation_split,
    partition_edges,
    select_reference_edge,
    _in_cone,
)
from kopt_lab.tour import Instance, Tour, two_opt

from reference_certificate import reference_tour_paths
from reference_predicates import point_in_polygon, reference_classify_edges

from worked_examples import (
    FORTYTWO_COMPATIBLE,
    FORTYTWO_E0,
    FORTYTWO_EXTERIOR,
    FORTYTWO_INTERIOR,
    FORTYTWO_ON_T,
    fortytwo_point_pair,
    fz,
    twelve_point_pair,
)


@pytest.fixture(scope="module")
def fortytwo_pair():
    inst, t, s = fortytwo_point_pair()
    return make_crossing_free(inst, t, s)


class TestClassification:
    def test_tours_already_crossing_free(self, fortytwo_pair):
        assert fortytwo_pair.crossings == 0
        assert fortytwo_pair.instance.n == 42

    def test_three_way_split(self, fortytwo_pair):
        s1, s2, s3 = classify_edges(fortytwo_pair)
        assert fz(s1, based=0) == fz(FORTYTWO_INTERIOR)
        assert fz(s2, based=0) == fz(FORTYTWO_EXTERIOR)
        assert fz(s3, based=0) == fz(FORTYTWO_ON_T)

    def test_split_is_a_partition(self, fortytwo_pair):
        s1, s2, s3 = classify_edges(fortytwo_pair)
        assert len(s1) + len(s2) + len(s3) == 42

    def test_twelve_point_pair_classifies_after_subdivision(self):
        inst, t, s = twelve_point_pair()
        pair = make_crossing_free(inst, t, s)
        s1, s2, s3 = classify_edges(pair)
        assert len(s1) + len(s2) + len(s3) == pair.sprime.n


class TestReferenceEdge:
    def test_selected_edge_qualifies(self, fortytwo_pair):
        s1, _, _ = classify_edges(fortytwo_pair)
        e0, path = select_reference_edge(s1, fortytwo_pair.tprime)
        assert e0 in s1
        # the carrier path contains every chord endpoint
        endpoints = {v for e in s1 for v in e}
        assert endpoints <= set(path)
        # the complementary path is clear of other chord endpoints
        fwd, bwd = reference_tour_paths(fortytwo_pair.tprime, *e0)
        other = next(p for p in (fwd, bwd) if p != path)
        assert not (set(other[1:-1]) & (endpoints - set(e0)))

    def test_smallest_tail_tie_break(self, fortytwo_pair):
        s1, _, _ = classify_edges(fortytwo_pair)
        e0, _ = select_reference_edge(s1, fortytwo_pair.tprime)
        # several chords qualify; the winner has the smallest tail index
        assert e0 == (16, 38)

    def test_hand_picked_edge_reproduces_known_split(self, fortytwo_pair):
        # the worked example fixes its own reference edge; with that edge the
        # compatible set is exactly the nine frozen chords
        s1, _, _ = classify_edges(fortytwo_pair)
        e0 = tuple(v - 1 for v in FORTYTWO_E0)
        assert e0 in s1
        endpoints = {v for e in s1 for v in e}
        fwd, bwd = reference_tour_paths(fortytwo_pair.tprime, *e0)
        path = next(
            p for p in (fwd, bwd) if not (set(p[1:-1]) & (endpoints - set(e0)))
        )
        carrier = bwd if path is fwd else fwd
        compat, rest = orientation_split(s1, e0, carrier)
        assert fz(compat, based=0) == fz(FORTYTWO_COMPATIBLE)
        assert len(rest) == len(s1) - len(FORTYTWO_COMPATIBLE)

    def test_too_few_chords(self, fortytwo_pair):
        with pytest.raises(PartitionError, match="need at least 2 chords, got 1"):
            select_reference_edge([(0, 5)], fortytwo_pair.tprime)

    def test_split_refuses_a_chord_off_the_path(self, fortytwo_pair):
        s1, _, _ = classify_edges(fortytwo_pair)
        e0, path = select_reference_edge(s1, fortytwo_pair.tprime)
        assert orientation_split(s1, e0, path)[0]
        a, b = next(chord for chord in s1 if chord != e0)
        with pytest.raises(PartitionError, match=rf"chord \({a}, {b}\) has an endpoint off the reference path"):
            orientation_split(s1, e0, [v for v in path if v != b])

    def test_split_refuses_a_reversed_reference_edge(self, fortytwo_pair):
        # Read backwards, the path runs from y0 to x0, so e0 itself is reversed.
        s1, _, _ = classify_edges(fortytwo_pair)
        e0, path = select_reference_edge(s1, fortytwo_pair.tprime)
        with pytest.raises(PartitionError, match="reference edge e0 must be orientation-compatible"):
            orientation_split(s1, e0, path[::-1])


def chord_table(pair):
    """{class name: row} of the chord table, and S3."""
    classes, s3 = partition_edges(pair)
    return {row.name: row for row in classes}, s3


class TestFullPartition:
    def test_five_way_sizes(self, fortytwo_pair):
        rows, s3 = chord_table(fortytwo_pair)
        assert list(rows) == ["S1'", "S1''", "S2'", "S2''"]
        assert len(s3) == 13
        assert len(rows["S1'"].chords) + len(rows["S1''"].chords) == 17
        assert len(rows["S2'"].chords) + len(rows["S2''"].chords) == 12
        assert rows["S1'"].root in rows["S1'"].chords
        assert rows["S2'"].root in rows["S2'"].chords
        assert rows["S1''"].root is None and rows["S2''"].root is None

    def test_reference_edges_span_their_paths(self, fortytwo_pair):
        rows, _ = chord_table(fortytwo_pair)
        for compat, other in (("S1'", "S1''"), ("S2'", "S2''")):
            path, root = rows[compat].path, rows[compat].root
            assert (path[0], path[-1]) == root
            assert rows[other].path is path

    def test_single_chord_class_left_unsplit(self):
        # square with center: the 2-optimal tour differing in few edges
        # produces a chord class with < 2 chords, which stays in the
        # compatible bucket with no reference edge and no path
        inst = Instance(
            [pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10), pt(5, 1)], PNorm(2)
        )
        t = Tour((0, 4, 1, 2, 3))
        s = Tour((0, 1, 4, 2, 3))  # not 2-optimal, but valid for partitioning
        pair = make_crossing_free(inst, t, s)
        rows, _ = chord_table(pair)
        lone = [name for name in ("S1'", "S2'") if len(rows[name].chords) == 1]
        assert lone
        for name in lone:
            assert rows[name].root is None and rows[name].path is None
            assert rows[name + "'"] == (name + "'", [], None, None)


def pair_of(coords, t_order, s_order):
    """A CrossingFreePair of two given tours, built without uncrossing them."""
    inst = Instance([pt(x, y) for x, y in coords], PNorm(2))
    return CrossingFreePair(inst, Tour(t_order), Tour(s_order), 0,
                            [("original", i) for i in range(len(coords))])


def with_reversed_tprime(pair):
    return dataclasses.replace(pair, tprime=Tour(pair.tprime.order[::-1]))


def tail_kinds(pair, chords):
    """'convex', 'reflex' or 'straight' for the tail of each chord, on T'."""
    pts = pair.instance.points
    order = pair.tprime.order
    area2 = sum(pts[a].x * pts[b].y - pts[b].x * pts[a].y for a, b in pair.tprime.edges())
    pos = {v: k for k, v in enumerate(order)}
    kinds = []
    for u, _ in chords:
        k = pos[u]
        turn = orientation(pts[order[k - 1]], pts[u], pts[order[(k + 1) % len(order)]])
        turn = turn if area2 > 0 else -turn
        kinds.append("convex" if turn > 0 else "reflex" if turn < 0 else "straight")
    return kinds


# Counterclockwise: a straight vertex at (6, 0) and at (0, 4), a reflex one at (6, 4).
CONE_POLYGON = [(0, 0), (6, 0), (12, 0), (12, 8), (6, 4), (0, 8), (0, 4)]


class TestConeTest:
    """`_in_cone` and `classify_edges` against the ray-casting oracle."""

    @pytest.mark.parametrize("k", range(len(CONE_POLYGON)))
    def test_every_direction_at_every_vertex(self, k):
        poly = [pt(x, y) for x, y in CONE_POLYGON]
        p, u, q = poly[k - 1], poly[k], poly[(k + 1) % len(poly)]
        side = {"interior": True, "exterior": False, "boundary": None}
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                if dx == dy == 0:
                    continue
                # A point close enough to u that only u's two edges are near.
                near = Point(u.x + Fraction(dx, 1000), u.y + Fraction(dy, 1000))
                want = side[point_in_polygon(near, poly)]
                assert _in_cone(p, u, q, pt(u.x + dx, u.y + dy)) is want, (k, dx, dy)

    def test_chord_on_edge_line_at_reflex_tail_is_interior(self):
        # Leaving A = (0, 0) straight away from B = (4, 0), into the reflex
        # angle at A, to X = (-3, 0).
        pair = pair_of([(0, 0), (4, 0), (4, 4), (-4, 4), (-3, 0), (-2, -3)],
                       (0, 1, 2, 3, 4, 5), (0, 4, 3, 2, 1, 5))
        for p in (pair, with_reversed_tprime(pair)):
            assert classify_edges(p) == ([(0, 4)], [(1, 5)], [(4, 3), (3, 2), (2, 1), (5, 0)])
            assert classify_edges(p) == reference_classify_edges(p)
        assert tail_kinds(pair, [(0, 4)]) == ["reflex"]

    def test_chord_on_edge_line_at_convex_tail_is_exterior(self):
        # Leaving B = (4, 0) straight away from A = (0, 0), across the notch
        # under C = (5, 4), to Z = (8, 0).
        pair = pair_of([(0, 0), (4, 0), (5, 4), (8, 0), (9, 6), (0, 6)],
                       (0, 1, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2))
        for p in (pair, with_reversed_tprime(pair)):
            assert classify_edges(p) == ([(5, 2), (2, 0)], [(1, 3)], [(0, 1), (3, 4), (4, 5)])
            assert classify_edges(p) == reference_classify_edges(p)
        assert tail_kinds(pair, [(1, 3), (2, 0)]) == ["convex", "reflex"]

    def test_chord_along_a_tprime_edge_is_refused(self):
        # A -> Z runs along the T' edge A -> B and on through B.
        pair = pair_of([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)],
                       (0, 1, 2, 3, 4), (0, 2, 1, 3, 4))
        for p in (pair, with_reversed_tprime(pair)):
            with pytest.raises(PartitionError):
                classify_edges(p)
            with pytest.raises(PartitionError):
                reference_classify_edges(p)

    def test_chord_along_a_tprime_edge_is_refused_off_the_midpoint(self):
        # The chord's midpoint (2, 0) misses T', so the ray cast would place it;
        # the cone test still sees it leave along A -> B.
        pair = pair_of([(0, 0), (1, 0), (2, -2), (4, 0), (4, 4), (0, 4)],
                       (0, 1, 2, 3, 4, 5), (0, 3, 1, 2, 4, 5))
        assert reference_classify_edges(pair)[0][0] == (0, 3)
        for p in (pair, with_reversed_tprime(pair)):
            with pytest.raises(PartitionError):
                classify_edges(p)

    def test_random_pairs_match_reference_in_both_orientations(self):
        kinds = set()
        for seed in (5, 6, 14, 33, 40):
            inst = gen_random(30, 10**6, seed=seed)
            rng = random.Random(seed)
            t = two_opt(inst, random_tour(30, rng))
            s = two_opt(inst, random_tour(30, rng))
            pair = make_crossing_free(inst, t, s)
            want = reference_classify_edges(pair)
            assert classify_edges(pair) == want
            assert classify_edges(with_reversed_tprime(pair)) == want
            for chords, where in ((want[0], "interior"), (want[1], "exterior")):
                kinds.update((kind, where) for kind in tail_kinds(pair, chords))
        assert kinds == {(kind, where) for kind in ("convex", "reflex", "straight")
                         for where in ("interior", "exterior")}
