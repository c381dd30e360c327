"""`tour_length` against the per-edge fold, and instances built from coordinate arrays.

On 2-D instances under p = 1, and under p = 2 on integer spans below 2^26,
`tour_length` gathers the tour's coordinates from `Instance._xy`; every
length must equal the fold's in value and in type (int, Fraction or float,
bit for bit).
`Instance.from_xy` must give the instance `Instance(points)` gives, and the
layered family must not build its points on the way to its verdict and length.
"""

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import tsplib
from kopt_lab.crossing import make_crossing_free
from kopt_lab.geometry import Point, PNorm, orientation, pt
from kopt_lab.harness import gen_random
from kopt_lab.lowerbound import (
    build_lb_tour,
    generate_3d_instance,
    generate_lb_instance,
    scan_2opt_optimality,
)
from kopt_lab.tour import Instance, Tour, tour_length

from memory import traced
from reference_tour_length import reference_tour_length


def assert_same_length(inst, t):
    got, want = tour_length(inst, t), reference_tour_length(inst, t)
    assert (type(got), got) == (type(want), want)


def typed(values):
    return [(type(v), v) for v in values]


def assert_backend_is_dist(inst, t):
    """The `_coordinates` backend's edges, pairs and outer matrices equal `dist` in value and type.

    Both copies are checked: the instance's, in index order and never
    narrowed, and the tour's ring copy from `take`, whose int64
    coordinates are narrowed under p = 1.  Returns the ring copy's dtype.
    """
    backend, n, ring_order = inst._coordinates, inst.n, t.order + t.order[:1]
    ring = backend.take(np.array(ring_order))
    want = [[inst.dist(a, b) for b in ring_order] for a in ring_order]
    assert typed(ring.edge.tolist()) == typed(want[k][k + 1] for k in range(n))
    assert typed(ring.outer(slice(None), slice(None)).ravel().tolist()) == typed(sum(want, []))
    a, b = np.divmod(np.arange((n + 1) ** 2), n + 1)
    assert typed(ring.pair(a, b).tolist()) == typed(sum(want, []))
    assert typed(backend.outer(slice(None), slice(None)).ravel().tolist()) == typed(
        inst.dist(i, j) for i in range(n) for j in range(n))
    return ring.x.dtype


# The dtype of the backend's ring copies on the largest instance, by (p, span); None: no backend.
RING_DTYPES = {
    (1, 50): np.int16, (1, 10**6): np.int32, (1, 2**26 - 1): np.int32, (1, 2**31 - 1): np.int64,
    (1, 2**31): np.int64, (1, 2**62): object, (2, 50): np.int64, (2, 10**6): np.int64,
    (2, 2**26 - 1): np.int64,
}


def random_tours(inst, rng, count=4):
    for _ in range(count):
        yield Tour(tuple(rng.sample(range(inst.n), inst.n)))


def grid_points(rng, n, span, offset=0):
    seen = {}
    while len(seen) < n:
        seen[(offset + rng.randint(0, span), offset + rng.randint(0, span))] = None
    return [pt(x, y) for x, y in seen]


def monotone_tour(inst, axis):
    """A simple tour: the points above the line through the extremes along `axis`, then those below."""
    key = (lambda i: inst.points[i]) if axis == 0 else (lambda i: inst.points[i][::-1])
    order = sorted(range(inst.n), key=key)
    lo, hi = inst.points[order[0]], inst.points[order[-1]]
    upper = [i for i in order[1:-1] if orientation(lo, hi, inst.points[i]) > 0]
    lower = [i for i in order[1:-1] if orientation(lo, hi, inst.points[i]) <= 0]
    return Tour(tuple([order[0]] + upper + [order[-1]] + lower[::-1]))


def rational_points(seed):
    """V' of two simple tours that cross: int points and Fraction crossing points."""
    inst = gen_random(14, 10**6, seed=seed)
    pair = make_crossing_free(inst, monotone_tour(inst, 0), monotone_tour(inst, 1))
    assert pair.crossings > 0
    return pair.instance.points, [pair.tprime, pair.sprime]


class TestAgainstFold:
    @pytest.mark.parametrize("p", [1, 2, 1.5, 3])
    @pytest.mark.parametrize("span,offset", [
        (50, 0), (10**6, -500_000), (2**26 - 1, -(2**40)), (2**31 - 1, 0), (2**31, -(2**30)),
        (2**62, -(2**61)),
    ])
    def test_integer_points(self, p, span, offset):
        """The lengths, and where the coordinate backend applies, its distances."""
        rng = random.Random(span % 1009 + int(p * 10))
        dtype, seen = RING_DTYPES.get((p, span)), set()
        for n in (3, 4, 7, 12, 25):
            inst = Instance(grid_points(rng, n, span, offset), PNorm(p))
            assert (inst._coordinates is None) == (dtype is None)
            for t in random_tours(inst, rng):
                assert_same_length(inst, t)
                if dtype is not None:
                    seen.add(assert_backend_is_dist(inst, t))
        assert dtype is None or np.dtype(dtype) in seen  # the largest n reaches the span's dtype

    def test_spans_pick_both_dtypes(self):
        rng = random.Random(5)
        small, large = (Instance(list(dict.fromkeys([pt(0, span), pt(span, 0)] + grid_points(rng, 9, span))),
                                 PNorm(1)) for span in (2**31 - 1, 2**31))
        assert small._xy[0].dtype == np.int64 and large._xy[0].dtype == object
        for inst in (small, large):
            t = Tour(tuple(range(inst.n)))
            assert type(tour_length(inst, t)) is int
            assert_same_length(inst, t)

    @pytest.mark.parametrize("p", [1, 2, 1.5, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_crossing_free_rational_points(self, p, seed):
        points, tours = rational_points(seed)
        inst = Instance(points, PNorm(p))
        assert inst._xy[0].dtype == object
        rng = random.Random(seed)
        for t in tours + list(random_tours(inst, rng)):
            assert_same_length(inst, t)
            if p == 1:
                assert assert_backend_is_dist(inst, t) == object
        if p == 1:
            assert type(tour_length(inst, tours[0])) is Fraction

    @pytest.mark.parametrize("p", [1, 2])
    def test_random_fractions(self, p):
        rng = random.Random(p)
        for n in (3, 8, 20):
            points = list({pt(Fraction(rng.randint(-999, 999), rng.randint(1, 9)),
                              Fraction(rng.randint(-999, 999), rng.randint(1, 9))): None
                           for _ in range(n)})
            inst = Instance(points, PNorm(p))
            for t in random_tours(inst, rng):
                assert_same_length(inst, t)
                if p == 1:
                    assert assert_backend_is_dist(inst, t) == object

    def test_euclidean_sum_is_left_to_right(self):
        # Irrational edges at n up to 60: a pairwise sum (np.sum) differs from
        # the fold in the last bits in some cases.
        rng = random.Random(11)
        for n in range(8, 61):
            inst = Instance(grid_points(rng, n, 10**7, -(10**6)), PNorm(2))
            for t in random_tours(inst, rng, count=6):
                assert_same_length(inst, t)

    @pytest.mark.parametrize("p", [2, 3])
    def test_float_sum_is_not_compensated(self, p):
        """The length is the left-to-right sum on every Python version; from 3.12 on `sum` compensates floats.

        Under p = 2 the coordinate backend adds its edge array, under p = 3
        `tour_length` folds `dist`; the edges here have a compensated sum
        that differs from theirs.
        """
        rng = random.Random(15)
        inst = Instance(grid_points(rng, 60, 10**7, -(10**6)), PNorm(p))
        assert (inst._coordinates is None) == (p == 3)
        t = Tour(tuple(rng.sample(range(60), 60)))
        edges = [inst.dist(a, b) for a, b in t.edges()]
        fold = 0
        for e in edges:
            fold += e
        assert tour_length(inst, t) == fold == reference_tour_length(inst, t)
        assert fold != math.fsum(edges)

    def test_euclidean_edges_are_math_hypot(self):
        # A 2-vertex tour is one edge there and back: its length shows a
        # last-bit difference of the edge.  `pdist` takes math.sqrt of the
        # exact integer dx^2 + dy^2 and tour_length np.sqrt of the same int64
        # sum; both must equal math.hypot, which `pdist` called before, and
        # which np.hypot does not equal for some integer (dx, dy).
        rng = random.Random(12)
        for _ in range(3000):
            dx, dy = rng.randint(-1000, 1000), rng.randint(1, 1000)
            inst = Instance([pt(0, 0), pt(dx, dy)], PNorm(2))
            assert_same_length(inst, Tour((0, 1)))
            assert tour_length(inst, Tour((0, 1))) == 2 * math.hypot(dx, dy)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_prisms(self, k):
        three = generate_3d_instance(k)
        inst = three.as_instance()
        for t in (three.tour_t, three.tour_s, *random_tours(inst, random.Random(k))):
            assert_same_length(inst, t)

    def test_single_vertex_and_edge(self):
        for p in (1, 2):
            for points in ([pt(3, 4)], [pt(0, 0), pt(3, 4)]):
                inst = Instance(points, PNorm(p))
                assert_same_length(inst, Tour(tuple(range(len(points)))))


class TestLayeredLengths:
    def test_p1_tsplib_round_trip(self):
        lb = generate_lb_instance(2, 1, 3)
        buf = io.StringIO()
        tsplib.write_instance(buf, lb.as_instance())
        inst = tsplib.read_instance(io.StringIO(buf.getvalue()))
        length = tour_length(inst, build_lb_tour(lb))
        assert (type(length), length) == (int, 7836)

    def test_p2(self):
        lb = generate_lb_instance(2, 2, 3)
        length = tour_length(lb.as_instance(), build_lb_tour(lb))
        assert (type(length), length) == (float, 210456.0)

    def test_the_tour_takes_eight_bytes_a_vertex(self):
        """(2, 3), 74,190 points: `build_lb_tour` keeps its walk as the tour's int64 ring.

        The tour keeps 8 bytes a vertex.  Its length on a fresh instance
        keeps nothing new, for the instance's coordinates already start at
        0, and peaks below 26 bytes a vertex: three n-long gathers at a
        time.  A tuple of Python ints kept about 40 bytes a vertex; a
        shifted copy of the coordinates kept 16, and the length peaked at
        40 with it.
        """
        lb = generate_lb_instance(2, 2, 3)
        inst, n = lb.as_instance(), lb.n
        tour, kept, _ = traced(lambda: build_lb_tour(lb))
        length, grown, peak = traced(lambda: tour_length(inst, tour))
        assert length == 210456.0
        assert kept <= 8 * n + 4096
        assert grown <= 4096
        assert peak < 26 * n

    def test_points_are_not_built(self):
        lb = generate_lb_instance(2, 1, 3)
        inst, t = lb.as_instance(), build_lb_tour(lb)
        assert scan_2opt_optimality(inst, t).two_optimal
        assert tour_length(inst, t) == 7836
        assert "points" not in inst.__dict__
        lb = generate_lb_instance(2, 2, 3)
        inst = lb.as_instance()
        tour_length(inst, build_lb_tour(lb))
        assert "points" not in inst.__dict__


class TestFromXY:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("span,offset", [(40, 0), (10**6, -(10**6)), (2**31, -5), (2**62, -(2**62))])
    def test_matches_instance_of_points(self, p, span, offset):
        rng = random.Random(span % 997 + p)
        points = grid_points(rng, 30, span, offset)
        xs = np.array([q.x for q in points], dtype=np.int64)
        ys = np.array([q.y for q in points], dtype=np.int64)
        got, want = Instance.from_xy(xs, ys, PNorm(p), "g"), Instance(points, PNorm(p), "g")
        assert (got.n, got.dim, got.exact, got.norm, got.name) == (
            want.n, want.dim, want.exact, want.norm, want.name)
        for a, b in zip(got._xy, want._xy):
            assert a.dtype == b.dtype
            assert [(type(c), c) for c in a.tolist()] == [(type(c), c) for c in b.tolist()]
        assert got.points == want.points
        assert all(type(q) is Point and {type(q.x), type(q.y)} == {int} for q in got.points)
        t = Tour(tuple(rng.sample(range(30), 30)))
        assert (type(tour_length(got, t)), tour_length(got, t)) == (
            type(tour_length(want, t)), tour_length(want, t))

    @pytest.mark.parametrize("span,dtype", [(2**31 - 1, np.int64), (2**31, object)])
    def test_span_rule_at_the_boundary(self, span, dtype):
        xs, ys = np.array([-7, span - 7, 3]), np.array([span - 1, -1, 2])
        got = Instance.from_xy(xs, ys, PNorm(1))
        want = Instance(list(map(pt, xs.tolist(), ys.tolist())), PNorm(1))
        for a, b in zip(got._xy, want._xy):
            assert a.dtype == b.dtype == dtype and a.tolist() == b.tolist()

    def test_points_built_on_first_use(self):
        inst = Instance.from_xy(np.array([0, 5, 0]), np.array([0, 0, 7]), PNorm(1))
        assert "points" not in inst.__dict__
        assert inst.dist(1, 2) == 12 and inst.points == [pt(0, 0), pt(5, 0), pt(0, 7)]
        assert "points" in inst.__dict__

    def test_duplicates_raise_the_same_error(self):
        xs, ys = np.array([3, 1, 4, 1, 5]), np.array([2, 7, 1, 7, 8])
        with pytest.raises(ValueError) as want:
            Instance([pt(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
        with pytest.raises(ValueError) as got:
            Instance.from_xy(xs, ys)
        assert str(got.value) == str(want.value)
        Instance.from_xy(np.array([1, 1, 2]), np.array([1, 2, 1]))  # shared x or y is fine

    def test_arrays_are_read_only_copies(self):
        xs, ys = np.array([0, 5, 0]), np.array([0, 0, 7])
        inst = Instance.from_xy(xs, ys, PNorm(1))
        xs[0] = 9
        assert inst.points[0] == pt(0, 0)
        for col in inst._columns:
            assert col.dtype == np.int64 and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1

    def test_rejects_non_integer_or_mismatched_arrays(self):
        with pytest.raises(ValueError):
            Instance.from_xy(np.array([0.5, 1.0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            Instance.from_xy(np.array([0, 1, 2]), np.array([0, 1]))

    def test_layered_instance(self):
        lb = generate_lb_instance(2, 1, 3)
        inst = lb.as_instance()
        want = Instance(list(map(Point._make, zip(lb.xs.tolist(), lb.ys.tolist()))), PNorm(1))
        assert inst.exact and want.exact and inst.n == want.n == 2916
        assert all(a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
                   for a, b in zip(inst._xy, want._xy))
