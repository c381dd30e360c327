"""The orientation-sign filter behind `is_simple` and `find_crossings`, against the pair loops.

Every case compares the verdict, the first witness, the crossing list and
its order, or the error raised, with `reference_predicates`, under block
sizes of 1, 7 and 2**15 cells.  `TestSideTable` compares the filter's
pairs themselves with the coordinate-block filter it replaced.
"""

import itertools
import math
import random

import numpy as np
import pytest

from kopt_lab import crossing
from kopt_lab import tour as tour_module
from kopt_lab.crossing import GeneralPositionViolation, find_crossings, make_crossing_free
from kopt_lab.geometry import PNorm, orientation, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.tour import Instance, SimpleVerdict, Tour, is_simple, two_opt

import reference_predicates
from memory import traced
from reference_predicates import reference_candidate_pairs, reference_find_crossings, reference_is_simple


@pytest.fixture(params=[1, 7, 1 << 15], ids=lambda c: f"cells{c}", autouse=True)
def block_cells(request, monkeypatch):
    monkeypatch.setattr(tour_module, "_BLOCK_CELLS", request.param)
    return request.param


def outcome(fn, *args):
    """The result of fn, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def star_tour(inst, center, rng):
    """The points in angular order around `center`: simple unless two angles tie."""
    cx, cy = center
    key = [(math.atan2(float(p.y - cy), float(p.x - cx)), rng.random()) for p in inst.points]
    return Tour(tuple(sorted(range(inst.n), key=key.__getitem__)))


def monotone_tour(inst, axis):
    """The x-monotone (axis 0) or y-monotone (axis 1) polygon through the points.

    It runs from the least point along the axis to the greatest above the
    line between them and back below it: simple when no three points are
    collinear.
    """
    key = (lambda i: inst.points[i]) if axis == 0 else (lambda i: inst.points[i][::-1])
    order = sorted(range(inst.n), key=key)
    lo, hi = inst.points[order[0]], inst.points[order[-1]]
    upper = [i for i in order[1:-1] if orientation(lo, hi, inst.points[i]) > 0]
    lower = [i for i in order[1:-1] if orientation(lo, hi, inst.points[i]) <= 0]
    return Tour(tuple([order[0]] + upper + [order[-1]] + lower[::-1]))


def snake_tour(side):
    """Boustrophedon up and down the columns of a grid (index x * side + y), closed along y = 0.

    Simple when side is even, with straight vertices along every column.
    """
    rows = [[x * side + y for y in range(1, side)] for x in range(side)]
    for x in range(1, side, 2):
        rows[x].reverse()
    order = [i for row in rows for i in row] + [x * side for x in reversed(range(side))]
    return Tour(tuple(order))


def grid_instance(side):
    return Instance([pt(x, y) for x in range(side) for y in range(side)], PNorm(2))


def spanned_instance(n, span, rng, offset=0):
    """n distinct random points in [offset, offset + span]^2 with both spans exactly `span`."""
    fixed = [(0, rng.randrange(span + 1)), (span, rng.randrange(span + 1)),
             (rng.randrange(span + 1), 0), (rng.randrange(span + 1), span)]
    coords = list(dict.fromkeys(fixed))
    while len(coords) < n:
        c = (rng.randrange(span + 1), rng.randrange(span + 1))
        if c not in coords:
            coords.append(c)
    return Instance([pt(x + offset, y + offset) for x, y in coords], PNorm(2))


def tours(inst, rng, count=6):
    """Random permutations (mostly not simple), then a 2-Opt tour, a star tour
    and the two monotone polygons of inst."""
    out = [random_tour(inst.n, rng) for _ in range(count)]
    out.append(two_opt(inst, random_tour(inst.n, rng)))
    xs = [float(p.x) for p in inst.points]
    ys = [float(p.y) for p in inst.points]
    center = (rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
    out.append(star_tour(inst, center, rng))
    return out + [monotone_tour(inst, 0), monotone_tour(inst, 1)]


def assert_matches_reference(inst, ts, pairs_of=4):
    """Same simplicity verdicts on every tour, and the same crossing lists or
    errors on every ordered pair of the last `pairs_of` tours."""
    for t in ts:
        assert is_simple(inst, t) == reference_is_simple(inst, t), t
    for t in ts[-pairs_of:]:
        for s in ts[-pairs_of:]:
            got = outcome(find_crossings, inst, t, s)
            assert got == outcome(reference_find_crossings, inst, t, s), (t, s)


class TestGrids:
    """Collinear, touching and overlapping edges everywhere."""

    @pytest.mark.parametrize("side", [2, 3, 4, 6])
    def test_grid_tours_match_reference(self, side):
        inst = grid_instance(side)
        rng = random.Random(side)
        assert_matches_reference(inst, tours(inst, rng) + [snake_tour(side)])

    def test_snake_is_simple_with_straight_vertices(self):
        inst = grid_instance(6)
        assert is_simple(inst, snake_tour(6)) == reference_is_simple(inst, snake_tour(6))
        assert is_simple(inst, snake_tour(6)).simple

    def test_grid_tour_pairs_match_reference(self):
        seen = set()
        for side in (3, 4, 6):
            inst = grid_instance(side)
            rng = random.Random(side)
            ts = [snake_tour(side), monotone_tour(inst, 0), monotone_tour(inst, 1)]
            ts += [star_tour(inst, (rng.uniform(0, side), rng.uniform(0, side)), rng)
                   for _ in range(2)]
            for t in ts:
                for s in ts:
                    got = outcome(find_crossings, inst, t, s)
                    assert got == outcome(reference_find_crossings, inst, t, s), (t, s)
                    seen.add("not simple" if isinstance(got, tuple) else bool(got))
        assert seen == {"not simple", True, False}

    def test_touch_and_overlap_errors(self, monkeypatch):
        # Between two simple tours of one point set no edge pair touches or
        # overlaps, so the T x S loop raises only when the simplicity check
        # that precedes it is taken out.
        never = lambda inst, t: SimpleVerdict(True, None)  # noqa: E731
        monkeypatch.setattr(crossing, "_first_intersecting", lambda inst, edges, pairs: None)
        monkeypatch.setattr(reference_predicates, "reference_is_simple", never)
        seen = set()
        for side in (3, 4, 5):
            inst = grid_instance(side)
            rng = random.Random(side)
            ts = [random_tour(inst.n, rng) for _ in range(4)] + [snake_tour(side)]
            for t in ts:
                for s in ts:
                    got = outcome(find_crossings, inst, t, s)
                    assert got == outcome(reference_find_crossings, inst, t, s), (t, s)
                    try:
                        find_crossings(inst, t, s)
                    except GeneralPositionViolation as exc:
                        seen.add(type(exc.relation).__name__)
        assert seen == {"Touch", "Overlap"}

    def test_first_witness_among_many(self):
        inst = grid_instance(6)
        rng = random.Random(3)
        for _ in range(20):
            t = random_tour(inst.n, rng)
            want = reference_is_simple(inst, t)
            assert not want.simple
            assert is_simple(inst, t) == want


class TestSpans:
    """int64 below a span of 2**31, Python ints from 2**31 on."""

    @pytest.mark.parametrize("span,dtype", [
        (2**31 - 1, np.int64), (2**31, object), (2**40, object),
    ])
    def test_dtype_rule(self, span, dtype):
        inst = spanned_instance(12, span, random.Random(span), offset=-(span // 3))
        xs, ys = inst._xy
        assert xs.dtype == dtype and ys.dtype == dtype
        if dtype == np.int64:  # each axis shifted to start at 0
            assert min(xs) == min(ys) == 0 and max(xs) == span and max(ys) == span
        else:  # the points' own coordinates, unshifted
            for k, axis in enumerate((xs, ys)):
                assert [(type(c), c) for c in axis.tolist()] == [(type(p[k]), p[k]) for p in inst.points]

    @pytest.mark.parametrize("span", [2**31 - 1, 2**31, 2**40])
    def test_large_spans_match_reference(self, span):
        rng = random.Random(span % 1000)
        inst = spanned_instance(16, span, rng, offset=-(span // 2))
        assert_matches_reference(inst, tours(inst, rng))

    @pytest.mark.parametrize("span", [2**31 - 1, 2**40])
    def test_crossing_lists_at_large_spans(self, span):
        rng = random.Random(span % 997)
        inst = spanned_instance(40, span, rng)
        t, s = monotone_tour(inst, 0), monotone_tour(inst, 1)
        got = find_crossings(inst, t, s)
        assert got == reference_find_crossings(inst, t, s)
        assert len(got) >= 2


class TestRationalVertices:
    """V' from `make_crossing_free`: Fraction crossing points in object arrays."""

    def crossing_free_pairs(self):
        for seed in (1, 2):  # 4 and 5 crossings
            inst = gen_random(14, 10**6, seed=seed)
            t, s = monotone_tour(inst, 0), monotone_tour(inst, 1)
            yield inst, t, s, make_crossing_free(inst, t, s)

    def test_rational_vertices_use_object_arrays(self):
        _, _, _, pair = next(self.crossing_free_pairs())
        assert pair.crossings > 0
        assert pair.instance._xy[0].dtype == object

    def test_star_pairs_cross_in_reference_order(self):
        for inst, t, s, pair in self.crossing_free_pairs():
            got = find_crossings(inst, t, s)
            assert got == reference_find_crossings(inst, t, s)
            assert len(got) == pair.crossings >= 2

    def test_subdivided_tours_match_reference(self):
        _, _, _, pair = next(self.crossing_free_pairs())
        vp, tp, sp = pair.instance, pair.tprime, pair.sprime
        rng = random.Random(vp.n)
        assert_matches_reference(vp, [random_tour(vp.n, rng) for _ in range(3)] + [tp, sp],
                                 pairs_of=3)
        assert find_crossings(vp, tp, sp) == [] == reference_find_crossings(vp, tp, sp)


class TestSmallTours:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tiny_tours(self, n):
        inst = Instance([pt(0, 0), pt(3, 1), pt(1, 4), pt(5, 5)][:n], PNorm(2))
        for order in itertools.permutations(range(n)):
            t = Tour(order)
            assert is_simple(inst, t) == reference_is_simple(inst, t)

    def test_identical_tours_share_every_edge(self):
        inst = gen_random(10, 100, seed=4)
        t = two_opt(inst, random_tour(10, random.Random(4)))
        assert find_crossings(inst, t, t) == [] == reference_find_crossings(inst, t, t)


def oracle_pairs(inst, rings):
    """`reference_candidate_pairs`, less the pairs that join the same two
    vertices in different rings: an edge of two tours."""
    ends = [frozenset(e) for ring in rings for e in zip(ring[:-1].tolist(), ring[1:].tolist())]
    return [(i, j) for i, j in reference_candidate_pairs(inst, *rings)
            if ends[i] != ends[j] or i // inst.n == j // inst.n]


class TestSideTable:
    """`_candidate_pairs` yields exactly the oracle's pairs, in order, for
    each tour's ring alone (`is_simple`) and each ordered pair of rings
    (`find_crossings`)."""

    def assert_matches_oracle(self, inst, ts):
        rings = [t.validate(inst) for t in ts]
        groups = [(r,) for r in rings] + list(itertools.product(rings, repeat=2))
        for group in groups:
            assert list(tour_module._candidate_pairs(inst, *group)) == oracle_pairs(inst, group)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_tiny_tours(self, n):
        # n = 2: a ring that runs along its one segment twice keeps that pair.
        inst = Instance([pt(0, 0), pt(3, 1), pt(1, 4), pt(5, 5)][:n], PNorm(2))
        self.assert_matches_oracle(inst, [Tour(order) for order in itertools.permutations(range(n))])

    @pytest.mark.parametrize("side", [3, 4, 6])
    def test_collinear_grids(self, side):
        inst = grid_instance(side)
        rng = random.Random(side)
        self.assert_matches_oracle(inst, tours(inst, rng, count=2) + [snake_tour(side)])

    @pytest.mark.parametrize("n,grid", [(9, 20), (30, 40)])
    def test_small_grids(self, n, grid):
        inst = gen_random(n, grid, seed=n)
        rng = random.Random(n)
        ts = tours(inst, rng, count=2)
        self.assert_matches_oracle(inst, ts + [two_opt(inst, random_tour(n, rng))])

    def test_rational_vertices(self):
        inst = gen_random(14, 10**6, seed=1)
        pair = make_crossing_free(inst, monotone_tour(inst, 0), monotone_tour(inst, 1))
        assert pair.crossings > 0 and pair.instance._xy[0].dtype == object
        rng = random.Random(2)
        ts = [random_tour(pair.instance.n, rng) for _ in range(2)]
        self.assert_matches_oracle(pair.instance, ts + [pair.tprime, pair.sprime])

    def test_several_row_blocks(self):
        # 400 edges: five row blocks of the default 2**15 cells, more below it.
        inst = gen_random(200, 10**6, seed=5)
        rng = random.Random(5)
        t, s = monotone_tour(inst, 0), monotone_tour(inst, 1)
        for group in [(t, s), (t, t), (random_tour(200, rng), s)]:
            rings = [tour.validate(inst) for tour in group]
            assert list(tour_module._candidate_pairs(inst, *rings)) == oracle_pairs(inst, rings)


class TestSideTableMemory:
    @pytest.fixture
    def block_cells(self):
        """The default block only: the bound below is in its cells."""
        return tour_module._BLOCK_CELLS

    def test_peak_is_the_table_and_one_block(self):
        # The side table's n * m int8 cells, and one vertex block's work
        # arrays, of at most _BLOCK_CELLS int64 cells each; a second n x m
        # table or an unblocked m x m gather exceeds it.
        inst = gen_random(1000, 10**6, seed=1)
        rings = monotone_tour(inst, 0).validate(inst), monotone_tour(inst, 1).validate(inst)
        inst._xy
        count, _, peak = traced(lambda: sum(1 for _ in tour_module._candidate_pairs(inst, *rings)))
        assert count > 0
        assert peak <= inst.n * 2 * inst.n + 4 * tour_module._BLOCK_CELLS * 8
