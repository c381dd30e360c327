"""The vectorized 2-move engine against the pure-Python reference scan.

Both modes must agree with the reference exactly: the same (i, j), the same
gain and the same type of gain (int, float or Fraction), on every norm and
on 3-D, rational and huge-coordinate instances.  2-Opt, which keeps one
position-ordered state and reverses it in place after every move, must make
the reference pivot's moves, one by one.
"""

import functools
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import geometry, tour
from kopt_lab.crossing import make_crossing_free
from kopt_lab.geometry import PNorm, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.lowerbound import (
    build_lb_tour,
    generate_3d_instance,
    generate_lb_instance,
    scan_2opt_optimality,
)
from kopt_lab.tour import Instance, Tour, TwoMove, _best_2move, find_improving_2move, two_opt

import reference_scan
from memory import traced
from reference_scan import _moves, reference_best_2move, reference_first_2move, reference_two_opt


def grid_instance(rng, n, p, grid=1000, offset=0):
    pts, seen = [], set()
    while len(pts) < n:
        c = (offset + rng.randint(0, grid), offset + rng.randint(0, grid))
        if c not in seen:
            seen.add(c)
            pts.append(pt(*c))
    return Instance(pts, PNorm(p))


def rational_instance(rng, n):
    """The 1-norm on rational points: V' of two simple tours, or random fractions."""
    inst = gen_random(n, 1000, seed=rng.randrange(2**32))
    t, s = (reference_two_opt(inst, Tour(tuple(rng.sample(range(n), n))))[0] for _ in range(2))
    points = make_crossing_free(inst, t, s).instance.points
    if len(points) == n:  # no crossing: random rational points instead
        points = list({pt(Fraction(rng.randint(0, 9999), 7), rng.randint(0, 999)): None
                       for _ in range(n)})
    return Instance(points, PNorm(1))


def tours(rng, inst, count=3):
    """Random tours, a 2-optimal tour, and 2-optimal tours with a reversed segment.

    The inputs come from the reference pivot, so a broken engine cannot
    change them (or loop forever building them).
    """
    n = inst.n
    out = [Tour(tuple(rng.sample(range(n), n))) for _ in range(count)]
    local = reference_two_opt(inst, out[0])[0]
    out.append(local)
    for _ in range(count):
        i, j = sorted(rng.sample(range(n), 2))
        o = list(local.order)
        o[i:j + 1] = reversed(o[i:j + 1])
        out.append(Tour(tuple(o)))
    return out


def assert_engine_matches(inst, t):
    got, want = find_improving_2move(inst, t), reference_first_2move(inst, t)
    assert got == want
    if want is not None:
        assert type(got.gain) is type(want.gain)
    (got, examined), want = _best_2move(inst, t), reference_best_2move(inst, t)
    assert got == want
    assert examined <= max(0, inst.n * (inst.n - 3) // 2)
    if want is not None:
        assert type(got.gain) is type(want.gain)
    return want


def instances():
    rng = random.Random(4242)
    for p in (1, 1.5, 2, 3):
        for n in (4, 5, 7, 12, 23, 40):
            yield f"p{p}-n{n}", grid_instance(rng, n, p)
    for k in (2, 4, 6, 10):
        yield f"prism-k{k}", generate_3d_instance(k).as_instance()
    for n in (6, 9, 12):
        yield f"rational-n{n}", rational_instance(rng, n)
    # Exact coordinates far from the origin, small span: shifted int64 path.
    yield "far-int64", grid_instance(rng, 15, 1, offset=2**70)
    # Spans whose sums of two distances reach 2**63: Python-int path.
    yield "huge-span", grid_instance(rng, 15, 1, grid=2**62)


# One row per block, a few rows per block, and the default (one block here).
@pytest.fixture(params=[1, 50, tour._BLOCK_CELLS])
def block_cells(request, monkeypatch):
    monkeypatch.setattr(tour, "_BLOCK_CELLS", request.param)
    return request.param


instance_ids = pytest.mark.parametrize("name,inst", list(instances()),
                                       ids=lambda v: v if isinstance(v, str) else "")


@functools.cache
def reference_runs(name, inst):
    """(start, final tour, moves) of the reference pivot from each of the instance's `tours`."""
    return [(t, *reference_two_opt(inst, t)) for t in tours(random.Random(name), inst)]


@instance_ids
def test_engine_matches_reference(name, inst, block_cells):
    planted = 0
    for t, _, _ in reference_runs(name, inst):
        if assert_engine_matches(inst, t) is not None:
            planted += 1
    assert planted > 0  # the improving branch is exercised on every instance


def same_array(a, b):
    """Equal bit for bit, dtype and shape included; object arrays by element type and value."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return [(type(v), v) for v in a.ravel().tolist()] == [(type(v), v) for v in b.ravel().tolist()]
    return a.tobytes() == b.tobytes()


def assert_same_state(got, want):
    assert type(got.dist) is type(want.dist)
    assert vars(got.dist).keys() == vars(want.dist).keys()
    for key, value in vars(want.dist).items():
        mine = vars(got.dist)[key]
        assert same_array(mine, value) if isinstance(value, np.ndarray) else mine == value, key
    # The kept edge array, which the scan's edge views read, is the state's own and was reversed too.
    assert got.dist.edge.base is None and same_array(got.dist.edge, want.dist.edge)
    assert got.rows == want.rows and got.bound is want.bound
    assert [(b.dtype, b.size) for b in (*got.buffers, got.flags)] == [
        (b.dtype, b.size) for b in (*want.buffers, want.flags)]


@instance_ids
def test_two_opt_matches_reference_pivot(name, inst, block_cells, monkeypatch):
    """The reference pivot's final order and moves, from one state kept in step with the tour.

    Every move goes through the module's `apply_2move`: the bench counts
    2-Opt's moves as the `apply_2move` calls nested in `two_opt`.
    """
    real_apply, real_state = tour.apply_2move, tour._TourState
    applied = []

    def counting_apply(t, m):
        applied.append(m)
        return real_apply(t, m)

    class CheckedState(real_state):
        """After every reversal, equal to a state built fresh for the moved tour."""

        def __init__(self, inst, ring):
            super().__init__(inst, ring)
            self.inst, self.tour = inst, Tour(tuple(ring[:-1].tolist()))

        def reverse(self, m):
            super().reverse(m)
            self.tour = real_apply(self.tour, m)
            assert_same_state(self, real_state(self.inst, self.tour.validate(self.inst)))

    monkeypatch.setattr(tour, "apply_2move", counting_apply)
    monkeypatch.setattr(tour, "_TourState", CheckedState)
    moved = 0
    for start, want, moves in reference_runs(name, inst):
        applied.clear()
        assert tour.two_opt(inst, start) == want
        assert [(m.i, m.j, m.gain, type(m.gain)) for m in applied] == [
            (m.i, m.j, m.gain, type(m.gain)) for m in moves]
        moved += len(moves)
    assert moved > 0  # a state was reversed, checked and scanned again on every instance


def test_two_opt_order_pin_at_two_blocks():
    # n = 200 takes 163 rows per block at the default budget: two blocks a scan.
    inst = gen_random(200, 10**6, seed=1)
    order = two_opt(inst, random_tour(200, random.Random(1))).order
    assert hashlib.sha256(repr(order).encode()).hexdigest() == (
        "c257e08faac2ccfc9e1444a6a774c23c6e5046e45adb21a39498d8cf19f3bb4e")


# A float64 state at the default budget: 182 is the last size of one block,
# 183 takes two blocks, 400 five blocks of 81 rows.
@pytest.mark.parametrize("n,blocks,digest", [
    (182, 1, "6c3a62a4bd952c66442240a1cb57d28a0af5f6e35d8138445599b05e316650ce"),
    (183, 2, "6341098ebb0d7262ead71245af540a6b5b5c897c43c01be97829fbaddfad3b9d"),
    (400, 5, "768af6202203eae06d9d35ff95e84441e7d768a4c211d482f3144ff88a736a35"),
])
def test_two_opt_order_pins_around_the_block_boundary(n, blocks, digest):
    inst = gen_random(n, 10**6, seed=1)
    start = random_tour(n, random.Random(1))
    rows = tour._block_rows(n, np.dtype(np.float64))
    assert -(-(n - 2) // rows) == blocks
    order = two_opt(inst, start).order
    assert hashlib.sha256(repr(order).encode()).hexdigest() == digest


def nearest_neighbour_tour(inst):
    """From vertex 0, always on to the nearest unvisited vertex, the least index among ties.

    Distances are compared exactly on the integer points: |dx| + |dy|
    under p = 1, dx^2 + dy^2 under p = 2.
    """
    x, y = (np.array(c, dtype=np.int64) for c in zip(*inst.points))
    left = np.ones(inst.n, dtype=bool)
    order = [0]
    for _ in range(inst.n - 1):
        v = order[-1]
        left[v] = False
        dx, dy = np.abs(x - x[v]), np.abs(y - y[v])
        d = dx + dy if inst.norm.is_one else dx * dx + dy * dy
        order.append(int(np.where(left, d, np.iinfo(np.int64).max).argmin()))
    return Tour(tuple(order))


# n = 1000 from a nearest-neighbour start: a float64 matrix state of 32 blocks
# of 32 rows under p = 2, an int32 coordinate state of 16 blocks of 65 rows under p = 1.
@pytest.mark.parametrize("p,dtype,blocks,digest", [
    (2, np.float64, 32, "07c985ca17d9c8fc43b9b617df4297b3709c84f6621f91886f590d08c53de63b"),
    (1, np.int32, 16, "b5cfea09d6456723fed255bce830aad85808bc422e983e352a12cec01cfb0b72"),
], ids=["p2", "p1"])
def test_two_opt_order_pins_at_n_1000(p, dtype, blocks, digest):
    n = 1000
    inst = gen_random(n, 10**6, seed=1, p=p)
    start = nearest_neighbour_tour(inst)
    state = tour._TourState(inst, start.validate(inst))
    assert state.dist.edge.dtype == dtype and len(state.starts) == blocks
    order = two_opt(inst, start).order
    assert hashlib.sha256(repr(order).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [182, 183])
def test_dense_verdicts_at_the_block_boundary(n):
    """p = 3 matrix states at the last size of one block and the first of two, at the default budget.

    On a 2-optimal tour and on one with a single improving move planted in
    the last block's last rows, both verdicts equal the reference in move,
    gain and type: block 0's wrapped columns hold no pair, and a flat hit
    decodes to its (i, j).
    """
    rng = random.Random(n)
    inst = grid_instance(rng, n, 3, grid=10**6)
    rows = tour._block_rows(n, np.dtype(np.float64))
    last = rows * ((n - 3) // rows)  # the last block's first row
    assert not tour._indexed_scan(inst) and last == (0 if n == 182 else rows)
    local = two_opt(inst, Tour(tuple(rng.sample(range(n), n))))
    assert reference_first_2move(inst, local) is None
    assert assert_engine_matches(inst, local).gain <= 0
    for i in range(n - 3, last - 1, -1):
        o = list(local.order)
        o[i + 1], o[i + 2] = o[i + 2], o[i + 1]  # undone by the move (i, i + 2)
        planted = Tour(tuple(o))
        if [(a, b) for a, b, gain, threshold in _moves(inst, planted) if gain > threshold] == [(i, i + 2)]:
            break
    else:
        pytest.fail("no single improving move could be planted in the last block")
    assert i >= n - 6  # among its last rows, next to the wrapped columns
    move = assert_engine_matches(inst, planted)
    assert (move.i, move.j) == (i, i + 2) and move.gain > 0


def test_matrix_block_0_reads_whole_rows():
    """Block 0 of a float64 state is whole rows: every operand contiguous, or a broadcast of a contiguous array.

    near and far are rows x (n + 1) views onto the state's ring matrix, from
    its flat cells 2 and W + 3 (W = n + 1), and the edge views read its kept
    edge array, so `reverse` keeps them current; the gain bound is the
    state's own, 0 on the pairs and +inf on every other cell.  Later blocks
    keep their 2-D slices, n - j0 columns wide.
    """
    n = 400
    inst = gen_random(n, 10**6, seed=1)
    state = tour._TourState(inst, random_tour(n, random.Random(1)).validate(inst))
    rows, width, matrix, edge = state.rows, n + 1, state.dist.matrix, state.dist.edge
    first = state.first
    assert (rows, len(state.starts), first.fill) == (81, 5, None)
    for view in (first.near, first.far, first.gain, first.threshold, first.bound, first.spare):
        assert view.shape == (rows, width) and view.flags.c_contiguous
    def address(a):
        return a.__array_interface__["data"][0]

    assert matrix.flags.c_contiguous
    flat = matrix.ravel()
    for view, offset in ((first.near, 2), (first.far, width + 3)):
        assert np.shares_memory(view, matrix) and address(view) == address(flat[offset:])
        assert (view.ravel() == flat[offset : offset + rows * width]).all()
    # Contiguous fronts of the work arrays, and the state's one bound itself.
    for view, work in ((first.gain, state.buffers[1]), (first.threshold, state.buffers[0]), (first.spare, state.flags)):
        assert address(view) == address(work)
    assert first.bound is state.bound and first.bound.dtype == np.float64
    assert (first.tails.shape, first.tails.strides) == ((rows, 1), (8, 0))
    assert (first.heads.shape, first.heads.strides) == ((1, width), (0, 8))
    assert np.shares_memory(first.tails, edge) and np.shares_memory(first.heads, edge)
    assert edge.flags.c_contiguous and not np.shares_memory(edge, matrix)
    assert (edge[:n] == matrix.diagonal(1)).all()
    # The cells of bound 0 are block 0's pairs, and they read their distances; no gain exceeds the others'.
    assert set(np.unique(first.bound).tolist()) == {0.0, np.inf}
    i, c = np.nonzero(first.bound == 0)
    assert len(i) == sum(n - 2 - r for r in range(rows)) - 1 and (c <= n - 3).all()
    assert (first.near[i, c] == matrix[i, c + 2]).all()
    assert (first.far[i, c] == matrix[i + 1, c + 3]).all()
    for i0 in state.starts[1:]:
        block = state.block(i0)
        shape = (min(rows, n - 2 - i0), n - i0 - 2)
        assert block.near.shape == block.far.shape == block.gain.shape == shape
        assert block.bound.shape == block.spare.shape == block.threshold.shape == shape
        assert np.shares_memory(block.near, matrix) and np.shares_memory(block.tails, edge)


def test_exact_scans_stay_linear_in_memory():
    """(p, q) = (1, 3), 2916 points: one n x n int64 array would be 68 MB."""
    lb = generate_lb_instance(2, 1, 3)
    inst, hand = lb.as_instance(), build_lb_tour(lb)
    (moved, report), _, peak = traced(lambda: (two_opt(inst, hand), scan_2opt_optimality(inst, hand)))
    assert moved == hand and report.two_optimal
    assert peak < 8 * 2**20
    # Every block's bound is the state's one int16 bound of at most the int16 budget,
    # _BLOCK_CELLS * 8 // 2 cells, or a view of it: none is made per block.
    state = tour._TourState(inst, hand.validate(inst))
    assert state.dist.edge.dtype == state.bound.dtype == np.int16
    assert state.bound.base is None and state.bound.size <= tour._BLOCK_CELLS * 4
    bounds = [state.first.bound] + [state.block(i0).bound for i0 in state.starts[1:]]
    assert len(bounds) > 1
    assert bounds[0] is state.bound and all(bound.base is state.bound for bound in bounds[1:])


def test_tours_of_one_size_share_read_only_blocks():
    """The gain bound is cached per size, rows a block, width and dtype, so no state may write it."""
    rng = random.Random(8)
    # Two int64 coordinate scans and two float64 matrix scans: one budget of 2^15 cells.
    a, b = grid_instance(rng, 40, 1, grid=2**30), grid_instance(rng, 40, 2)
    sa, sa2, sb, sb2 = (tour._TourState(inst, Tour(tuple(rng.sample(range(40), 40))).validate(inst))
                        for inst in (a, a, b, b))
    assert (sa.dist.edge.dtype, sb.dist.edge.dtype) == (np.int64, np.float64)
    assert sa.rows == sb.rows and sa.bound is sa2.bound and sb.bound is sb2.bound
    # A matrix state's bound is block 0's whole rows, n + 1 wide; its first n - 2 columns
    # hold the other's pairs.  Every other cell holds the dtype's top: no gain exceeds it.
    assert (sa.bound.shape, sb.bound.shape) == ((sa.rows, 38), (sa.rows, 41))
    assert (sa.bound.dtype, sb.bound.dtype) == (np.int64, np.float64)
    assert ((sb.bound[:, :38] == 0) == (sa.bound == 0)).all() and np.isinf(sb.bound[:, 38:]).all()
    assert set(np.unique(sa.bound).tolist()) == {0, np.iinfo(np.int64).max}
    assert not sa.bound.flags.writeable and not sb.bound.flags.writeable
    # Work arrays are each state's own.
    own = [(*s.buffers, s.flags) for s in (sa, sb)]
    assert not any(np.shares_memory(x, y) for x in own[0] for y in own[1])


def test_rational_instances_take_the_fraction_path():
    inst = rational_instance(random.Random(3), 9)
    assert inst._xy[0].dtype == object and inst.norm.is_one
    t = Tour(tuple(random.Random(4).sample(range(inst.n), inst.n)))
    m = find_improving_2move(inst, t)
    assert m == reference_first_2move(inst, t) and isinstance(m.gain, Fraction)


def test_rational_scans_call_no_pdist(monkeypatch):
    """The 1-norm on rational points scans its coordinates: no n x n matrix of `pdist` calls."""
    inst = rational_instance(random.Random(12), 12)
    assert inst._xy[0].dtype == object and any(type(c) is Fraction for p in inst.points for c in p)
    start = Tour(tuple(random.Random(13).sample(range(inst.n), inst.n)))
    want = reference_two_opt(inst, start)[0]
    real, calls = geometry.pdist, []

    def counting_pdist(*args):
        calls.append(args)
        return real(*args)

    for module in (geometry, tour):  # every namespace that binds it
        monkeypatch.setattr(module, "pdist", counting_pdist)
    got = two_opt(inst, start)
    report = scan_2opt_optimality(inst, got)
    assert len(calls) == 0
    assert got == want and report.two_optimal


@pytest.mark.parametrize("eps", [0.02, 0.2])
def test_positive_gains_within_the_threshold_are_passed_over(eps, monkeypatch):
    """With the threshold at eps times the removed length, a scan's first positive gain is often no move.

    `_first_2move` finds the first pair of positive gain in a block, and
    when its gain is within its threshold, clears it and looks again.  On
    random tours of 300 seeded instances of 5-40 points under p = 2, 3 and
    1.5, both verdicts and 2-Opt's moves match the reference, which reads
    the same threshold, and some first scans pass over a positive gain
    before their move, or before finding none.
    """
    for module in (tour, reference_scan):
        monkeypatch.setattr(module, "DEFAULT_GAIN_EPS", eps)
    real_apply, applied = tour.apply_2move, []

    def counting_apply(t, m):
        applied.append(m)
        return real_apply(t, m)

    monkeypatch.setattr(tour, "apply_2move", counting_apply)
    rng = random.Random(f"pass-over-{eps}")
    passed = 0
    for _ in range(300):
        inst = grid_instance(rng, rng.randint(5, 40), rng.choice([2, 3, 1.5]))
        start = Tour(tuple(rng.sample(range(inst.n), inst.n)))
        assert_engine_matches(inst, start)
        for _, _, gain, threshold in _moves(inst, start):
            if gain > 0:
                passed += gain <= threshold
                break
        final, moves = reference_two_opt(inst, start)
        applied.clear()
        assert two_opt(inst, start) == final
        assert [(m.i, m.j, m.gain) for m in applied] == [(m.i, m.j, m.gain) for m in moves]
    assert passed > 0


def test_rational_gain_below_the_float_threshold_improves():
    """A rational 1-norm move whose gain is positive but at most 1e-9 times the removed length.

    The crossed rectangle of width 1000 and height h gains 2h by its move
    (0, 2) over a removed length of 2000 + 2h.  The 1-norm is exact on
    rational points, so every scan takes it with threshold 0.
    """
    h = Fraction(1, 10**9)
    inst = Instance([pt(0, 0), pt(1000, 0), pt(1000, h), pt(0, h)], PNorm(1))
    crossed = Tour((0, 2, 1, 3))
    removed = inst.dist(0, 2) + inst.dist(1, 3)  # its edges 0 and 2
    assert removed == 2000 + 2 * h and 0 < 2 * h <= 1e-9 * removed and inst.exact
    want = TwoMove(0, 2, 2 * h)
    assert reference_first_2move(inst, crossed) == want
    got = find_improving_2move(inst, crossed)
    assert got == want and type(got.gain) is Fraction
    assert two_opt(inst, crossed) == reference_two_opt(inst, crossed)[0] == Tour((0, 1, 2, 3))
    report = scan_2opt_optimality(inst, crossed)
    assert not report.two_optimal and report.best_gain == 2 * h


@pytest.mark.parametrize("p,dtype", [(2, np.float64), (1, np.int16)], ids=["float64", "int16"])
def test_repeat_scans_allocate_no_array(p, dtype):
    """A repeat `_first_2move` on a single-block state only computes into the state's own arrays.

    Every view that the scan reads is made with the state, and a matrix
    state's threshold goes into its spare work array.  With numpy's ufunc
    buffers cut to 16 elements, the scan's traced peak grows by about
    1.5 KB of ufunc iterators and Python objects; one more array of the
    block's 28 x 28 pairs would add 6.3 KB of float64, 1.6 KB of int16 or
    0.8 KB of bool.
    """
    rng = random.Random(30)
    inst = gen_random(30, 10**6, seed=30, p=2) if p == 2 else grid_instance(rng, 30, 1)
    state = tour._TourState(inst, two_opt(inst, random_tour(30, rng)).validate(inst))
    assert state.dist.edge.dtype == dtype and state.rows == inst.n - 2
    assert tour._first_2move(state) is None and tour._first_2move(state) is None
    size = np.setbufsize(16)
    try:
        move, _, grown = traced(lambda: tour._first_2move(state))
    finally:
        np.setbufsize(size)
    assert move is None
    assert grown < 2048


def test_overflowing_square_regression():
    # Crossed tour on a square of side 2**62: the gain is 2**63, beyond int64.
    b = 2**62
    inst = Instance([pt(0, 0), pt(b, 0), pt(b, b), pt(0, b)], PNorm(1))
    crossed = Tour((0, 2, 1, 3))
    report = scan_2opt_optimality(inst, crossed)
    assert not report.two_optimal
    assert report.best_gain == 2**63 and type(report.best_gain) is int
    assert report.witness == ((0, 2), (1, 3))
    assert find_improving_2move(inst, crossed) == (0, 2, 2**63)


@pytest.mark.parametrize("side", [2**60, 2**61 - 1, 2**61])
def test_int64_boundary(side):
    inst = Instance([pt(0, 0), pt(side, 0), pt(side, side), pt(0, side)], PNorm(1))
    crossed = Tour((0, 2, 1, 3))
    assert find_improving_2move(inst, crossed) == reference_first_2move(inst, crossed)
    assert scan_2opt_optimality(inst, crossed).best_gain == 2 * side


# D, the sum of the two coordinate spans, on each side of the dtype rule's bounds,
# with the dtype the rule picks.  One step past each bound, 2^15 and 2^31, a
# crossed square's gain is 2^15 or 2^31 itself, which the narrower dtype would wrap.
SPAN_DTYPES = [
    (2**14 - 1, np.int16), (2**14, np.int32), (2**15, np.int32),
    (2**30 - 1, np.int32), (2**30, np.int64), (2**31, np.int64),
]
span_dtypes = pytest.mark.parametrize("span,dtype", SPAN_DTYPES, ids=[f"D{s}" for s, _ in SPAN_DTYPES])


def spanned_instance(rng, span, n, offset=-(2**40) + 3):
    """n distinct integer points, far from the origin, whose x- and y-spans sum to `span`.

    Two opposite corners of the box fix the spans; a cluster at each of them
    gives pairs of short edges whose swap loses almost 2 * span.
    """
    w = span // 2
    h = span - w
    pts = {(0, 0): None, (w, h): None}
    while len(pts) < n:
        near = rng.choice([(0, 0), (w, h), None])
        if near is None:
            c = (rng.randint(0, w), rng.randint(0, h))
        else:
            c = tuple(min(max(v + rng.randint(-3, 3), 0), top) for v, top in zip(near, (w, h)))
        pts[c] = None
    return Instance([pt(offset + x, offset + y) for x, y in pts], PNorm(1))


@span_dtypes
def test_scan_dtype_is_the_narrowest_exact_one(span, dtype):
    inst = spanned_instance(random.Random(span), span, 12)
    t = Tour(tuple(range(inst.n)))
    assert tour._scan_dtype(*inst._xy) == dtype
    state = tour._TourState(inst, t.validate(inst))
    assert state.dist.square is False
    for key, array in vars(state.dist).items():
        if isinstance(array, np.ndarray):
            assert array.dtype == dtype, key
    assert [b.dtype for b in state.buffers] == [dtype, dtype]
    first = state.first
    assert (first.gain.dtype, first.spare.dtype, state.flags.dtype) == (dtype, bool, bool)
    # The instance's own cache, which Held-Karp sums over, stays int64.
    assert inst._pair_dist.x.dtype == np.int64


@span_dtypes
def test_crossed_square_gain_at_the_dtype_bounds(span, dtype):
    w = span // 2
    h = span - w
    inst = Instance([pt(0, 0), pt(w, 0), pt(w, h), pt(0, h)], PNorm(1))
    crossed = Tour((0, 2, 1, 3))
    assert tour._scan_dtype(*inst._xy) == dtype
    assert assert_engine_matches(inst, crossed) == (0, 2, 2 * h)
    report = scan_2opt_optimality(inst, crossed)
    assert report.best_gain == 2 * h and type(report.best_gain) is int
    assert two_opt(inst, crossed) == Tour((0, 1, 2, 3))


@span_dtypes
def test_random_tours_at_the_dtype_bounds(span, dtype, block_cells, monkeypatch):
    """Both scan modes and 2-Opt's moves, gains and gain types against the reference."""
    rng = random.Random(span)
    inst = spanned_instance(rng, span, 24)
    assert tour._scan_dtype(*inst._xy) == dtype
    real_apply, applied = tour.apply_2move, []

    def counting_apply(t, m):
        applied.append(m)
        return real_apply(t, m)

    monkeypatch.setattr(tour, "apply_2move", counting_apply)
    moved, lowest = 0, 0
    for start in tours(rng, inst):
        lowest = min(lowest, min(gain for _, _, gain, _ in _moves(inst, start)))
        want = assert_engine_matches(inst, start)
        assert want is None or type(want.gain) is int
        best = scan_2opt_optimality(inst, start).best_gain
        assert best == reference_best_2move(inst, start).gain and type(best) is int
        final, moves = reference_two_opt(inst, start)
        applied.clear()
        assert two_opt(inst, start) == final
        assert [(m.i, m.j, m.gain, type(m.gain)) for m in applied] == [
            (m.i, m.j, m.gain, int) for m in moves]
        moved += len(moves)
    assert moved > 0
    assert lowest < -2 * span + 32  # the scans met gains near the bottom of the range


def block_budget_instances():
    """(instance, scan dtype) of one size, n = 700, on each dtype the scan can take."""
    rng = random.Random(700)
    for span, dtype in ((2**14 - 1, np.int16), (2**30 - 1, np.int32), (2**30, np.int64)):
        yield spanned_instance(rng, span, 700), dtype
    yield grid_instance(rng, 700, 2), np.float64
    yield grid_instance(rng, 700, 1, grid=2**62), object


@pytest.mark.parametrize("inst,dtype", list(block_budget_instances()),
                         ids=["int16", "int32", "int64", "float64", "object"])
def test_scan_blocks_are_sized_in_bytes(inst, dtype):
    """A block's gains take _BLOCK_CELLS * 8 bytes: 2^17 cells of int16, 2^16 of int32, else 2^15.

    rows x n cells, that is: block 0 of a matrix state, whole rows n + 1
    wide, takes one cell a row more, as the two distance buffers do.  Those
    hold one block's distances, one row and one column more than its gains.
    Every view of a block has its shape, and the gain and spare views are
    contiguous fronts of the work arrays, since `argmax` would copy a
    strided one.
    """
    n, itemsize = inst.n, np.dtype(dtype).itemsize
    state = tour._TourState(inst, Tour(tuple(range(n))).validate(inst))
    assert state.dist.edge.dtype == dtype
    rows = tour._BLOCK_CELLS * 8 // itemsize // n
    width = n + 1 if dtype == np.float64 else n - 2
    assert state.rows == rows == tour._block_rows(n, np.dtype(dtype))
    assert state.bound.shape == (rows, width) and state.flags.size == state.bound.size
    assert state.bound.dtype == dtype
    assert rows * n * itemsize <= tour._BLOCK_CELLS * 8
    assert [b.size for b in state.buffers] == [(rows + 1) * (n + 1)] * 2
    assert list(state.starts) == list(range(0, n - 2, rows))
    for i0 in state.starts:
        block = state.block(i0) if i0 else state.first
        shape = (min(rows, n - 2 - i0), width if i0 == 0 else n - i0 - 2)
        assert block.near.shape == block.far.shape == shape
        assert block.gain.shape == block.spare.shape == block.bound.shape == shape
        assert block.threshold is None if inst.exact else block.threshold.shape == shape
        assert block.gain.flags.c_contiguous and block.spare.flags.c_contiguous
        assert np.shares_memory(block.gain, state.buffers[1]) and np.shares_memory(block.spare, state.flags)


def state_memory(inst, t):
    """(state, bytes it keeps): a `_TourState` built under tracemalloc, its gain bound not yet cached."""
    inst._pair_dist  # the instance's own O(n) cache, not the state's
    ring = t.validate(inst)  # the caller's, which the state does not keep
    tour._scan_bound.cache_clear()
    state, kept, _ = traced(lambda: tour._TourState(inst, ring))
    return state, kept


def test_one_row_blocks_keep_linear_memory():
    """Past the block budget each block is one row, whose views the walk makes as it reaches it.

    20,001 points whose 1-norm span D reaches 2^30 scan in int64, 2^15 cells
    a block.  A tuple and two views per row took about 12 MB here; the state
    keeps its O(n) arrays and the n int64 cells of one gain bound.
    """
    n = 20_001
    inst = Instance.from_xy(np.arange(n) * 2**16, np.arange(n) % 2, PNorm(1))
    t = Tour(tuple(range(n)))
    state, kept = state_memory(inst, t)
    assert state.dist.edge.dtype == np.int64 and state.rows == 1
    assert kept < 80 * n  # 65 bytes a point: 24 of coordinates and edges, 32 of work buffers, 8 of bound
    first, second = state.first, state.block(1)
    assert state.starts[:2] == range(2)
    assert (first.bound.shape, first.gain.shape, first.spare.shape) == ((1, n - 2),) * 3
    assert first.bound[0, -1] > 0 and not first.bound[0, :-1].any()
    assert (second.bound.shape, second.gain.shape) == ((1, n - 3),) * 2 and not second.bound.any()


def test_two_row_blocks_keep_linear_memory():
    """50,001 points of D = 7148 scan in int16, two rows a block: 25,000 blocks and no object per block.

    Prebuilt blocks, a tuple and two views each, kept 15.8 MB of Python
    objects, against about 1.2 MB of coordinates, edges, work buffers and gain bound.
    """
    n = 50_001
    inst = Instance.from_xy(np.arange(n) // 7, np.arange(n) % 7, PNorm(1))
    state, kept = state_memory(inst, Tour(tuple(range(n))))
    assert state.dist.edge.dtype == np.int16 and state.rows == 2
    assert kept < 2 * 2**20


def test_small_tours_have_no_pairs():
    inst = Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(2))
    t = Tour((0, 1, 2))
    assert find_improving_2move(inst, t) is None and _best_2move(inst, t) == (None, 0)
    report = scan_2opt_optimality(inst, t)
    assert (report.pairs_scanned, report.two_optimal, report.best_gain) == (0, True, 0)


def test_scan_report_matches_reference():
    rng = random.Random(77)
    for p in (1, 2, 3):
        inst = grid_instance(rng, 25, p)
        for t in tours(rng, inst, count=2):
            report = scan_2opt_optimality(inst, t)
            best = reference_best_2move(inst, t)
            assert report.pairs_scanned == 25 * 22 // 2
            assert report.best_gain == best.gain
            assert report.two_optimal == (reference_first_2move(inst, t) is None)
            if not report.two_optimal:
                o = t.order
                assert report.witness == ((o[best.i], o[best.i + 1]),
                                          (o[best.j], o[(best.j + 1) % 25]))
