import hashlib
import random
from fractions import Fraction

import pytest

from kopt_lab.crossing import _edge_param, find_crossings, make_crossing_free
from kopt_lab.geometry import PNorm, orientation, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.partition import partition_edges
from kopt_lab.tour import Instance, Tour, is_simple, tour_length, two_opt

from worked_examples import TWELVE_CROSSINGS, twelve_point_pair


class TestTwelvePointExample:
    def test_crossing_count(self):
        inst, t, s = twelve_point_pair()
        assert len(find_crossings(inst, t, s)) == TWELVE_CROSSINGS

    def test_subdivision_size(self):
        inst, t, s = twelve_point_pair()
        pair = make_crossing_free(inst, t, s)
        assert pair.instance.n == 12 + TWELVE_CROSSINGS
        assert pair.crossings == TWELVE_CROSSINGS

    def test_lengths_preserved(self):
        inst, t, s = twelve_point_pair()
        pair = make_crossing_free(inst, t, s)
        assert tour_length(pair.instance, pair.tprime) == pytest.approx(
            tour_length(inst, t), rel=1e-12
        )
        assert tour_length(pair.instance, pair.sprime) == pytest.approx(
            tour_length(inst, s), rel=1e-12
        )

    def test_result_is_crossing_free(self):
        inst, t, s = twelve_point_pair()
        pair = make_crossing_free(inst, t, s)
        assert find_crossings(pair.instance, pair.tprime, pair.sprime) == []
        assert is_simple(pair.instance, pair.tprime).simple
        assert is_simple(pair.instance, pair.sprime).simple

    def test_provenance_covers_all_points(self):
        inst, t, s = twelve_point_pair()
        pair = make_crossing_free(inst, t, s)
        originals = [p for p in pair.provenance if p[0] == "original"]
        added = [p for p in pair.provenance if p[0] == "crossing"]
        assert len(originals) == 12
        assert len(added) == TWELVE_CROSSINGS


class TestEdgeCases:
    def test_identical_tours_have_no_crossings(self):
        inst, t, _ = twelve_point_pair()
        assert find_crossings(inst, t, t) == []
        pair = make_crossing_free(inst, t, t)
        assert pair.instance.n == 12

    def test_shared_edges_are_skipped(self):
        # the worked example's tours share 6 edges; those must not be
        # reported as crossings or general-position violations
        inst, t, s = twelve_point_pair()
        shared = {frozenset(e) for e in t.edges()} & {frozenset(e) for e in s.edges()}
        assert len(shared) == 6
        crossed = {frozenset(e) for _, e, _ in find_crossings(inst, t, s)}
        assert not (crossed & shared)

    def test_non_simple_input_rejected(self):
        inst = Instance([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)], PNorm(2))
        crossed = Tour((0, 2, 1, 3))
        ok = Tour((0, 1, 2, 3))
        with pytest.raises(ValueError):
            make_crossing_free(inst, crossed, ok)


class TestRandomPairs:
    def test_random_two_opt_pairs_subdivide_cleanly(self):
        rng = random.Random(101)
        for trial in range(10):
            pts, seen = [], set()
            while len(pts) < 10:
                c = (rng.randint(0, 500), rng.randint(0, 500))
                if c not in seen:
                    seen.add(c)
                    pts.append(pt(*c))
            inst = Instance(pts, PNorm(2))
            t = two_opt(inst, Tour(tuple(rng.sample(range(10), 10))))
            s = two_opt(inst, Tour(tuple(rng.sample(range(10), 10))))
            pair = make_crossing_free(inst, t, s)
            assert tour_length(pair.instance, pair.tprime) == pytest.approx(
                tour_length(inst, t), rel=1e-9
            )
            assert find_crossings(pair.instance, pair.tprime, pair.sprime) == []


class TestExactSubdivision:
    def test_crossing_points_are_exact_and_on_both_segments(self):
        crossings = 0
        for seed in range(20):
            inst = gen_random(30, 10**6, seed=seed)
            rng = random.Random(seed)
            t = two_opt(inst, random_tour(30, rng))
            s = two_opt(inst, random_tour(30, rng))
            pair = make_crossing_free(inst, t, s)
            for p in pair.instance.points:
                assert all(type(c) in (int, Fraction) for c in p), p
            for i, (kind, tag) in enumerate(pair.provenance):
                if kind != "crossing":
                    continue
                p = pair.instance.points[i]
                for u, v in tag:
                    a, b = inst.points[u], inst.points[v]
                    assert orientation(a, b, p) == 0
                    param = _edge_param(a, b, p)
                    assert type(param) is Fraction and 0 < param < 1
            crossings += pair.crossings
        assert crossings == 4  # seeds 5, 6, 14 and 18 have one crossing each

    def test_edge_param_of_int_points_is_a_fraction(self):
        for a, b, p, want in (
            (pt(0, 0), pt(4, 2), pt(2, 1), Fraction(1, 2)),
            (pt(3, 0), pt(3, 8), pt(3, 2), Fraction(1, 4)),
        ):
            param = _edge_param(a, b, p)
            assert type(param) is Fraction and param == want


class TestPinnedSubdivisions:
    """Outputs pinned to the pair-by-pair predicates and the midpoint ray cast.

    The digest covers the crossing count, the points of V', the orders of T'
    and S' and the provenance of every point, which names each crossing's
    edge pair; the sizes are those of S1', S1'', S2', S2'' and S3.
    """

    @pytest.mark.parametrize("seed,crossings,digest,sizes", [
        (1, 0, "0ec179f7f0fbe287c076d4c02bfad23ef91c8d099d5a7b778f21559a5b23ef0c",
         (3, 2, 1, 1, 23)),
        (5, 1, "f07bf2523fea85df3276bc59a2d3084a2de5207948824b488777c1b6c1017cf8",
         (3, 3, 4, 2, 19)),
        (6, 1, "befa27f2d18a1cf2f2a599236f5e0ccf457a144f385593795254bd71d34baa05",
         (4, 5, 1, 3, 18)),
        (14, 1, "7e88237b63a59b991059bafa08b1ae40437c239fc29334cc4a9f0cd975fbfa9f",
         (3, 2, 2, 2, 22)),
        (33, 2, "198b461e4d67abcba121092bd1109a48b732bc4dbcb37214de103aed0c8350b9",
         (3, 3, 3, 4, 19)),
    ])
    def test_two_opt_pair(self, seed, crossings, digest, sizes):
        inst = gen_random(30, 10**6, seed=seed)
        rng = random.Random(seed)
        t = two_opt(inst, random_tour(30, rng))
        s = two_opt(inst, random_tour(30, rng))
        pair = make_crossing_free(inst, t, s)
        text = repr((pair.crossings, [tuple(p) for p in pair.instance.points],
                     pair.tprime.order, pair.sprime.order, pair.provenance))
        assert pair.crossings == crossings
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        classes, s3 = partition_edges(pair)
        assert tuple(len(row.chords) for row in classes) + (len(s3),) == sizes
