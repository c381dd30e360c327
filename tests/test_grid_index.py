"""The indexed 2-optimality verdicts against the dense engine and the pure-Python reference.

On a 2-D integer instance under p = 1, or under p = 2 with exact squares,
whose dense scan takes more than one block, `find_improving_2move` and
`_best_2move` examine only the pairs that the instance's grid index finds
(`tour._indexed_scan`).  Every result must equal the dense engine's, forced
by `dense_verdicts`, and the reference's: the same (i, j), gain and gain
type.  Small instances take the index path when the `block_cells` fixture
shrinks the block budget.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import tour
from kopt_lab.geometry import PNorm, pt
from kopt_lab.lowerbound import build_lb_tour, generate_lb_instance, scan_2opt_optimality
from kopt_lab.tour import Instance, Tour, _best_2move, find_improving_2move, is_k_optimal, two_opt

from memory import traced
from reference_scan import _moves, reference_best_2move, reference_first_2move


def random_instance(rng, n, p, grid=1000):
    pts = {}
    while len(pts) < n:
        pts[(rng.randrange(grid), rng.randrange(grid))] = None
    xs, ys = zip(*pts)
    return Instance.from_xy(xs, ys, PNorm(p))


def snake(inst):
    """A short tour: columns of width about span / sqrt(n), up one column and down the next."""
    x, y = inst._xy
    band = int(x.max()) // int(inst.n ** 0.5) + 1
    return Tour(tuple(sorted(range(inst.n), key=lambda v: (
        x[v] // band, y[v] if x[v] // band % 2 == 0 else -y[v]))))


def variants(rng, t):
    """The tour, two rotations, its reversal, and two copies with a reversed segment."""
    o, n = t.order, t.n
    out = [t, Tour(o[n // 3:] + o[:n // 3]), Tour(o[-1:] + o[:-1]), Tour(o[::-1])]
    for _ in range(2):
        i, j = sorted(rng.sample(range(n), 2))
        out.append(Tour(o[:i] + o[i:j + 1][::-1] + o[j + 1:]))
    return out


def verdicts(inst, t):
    return find_improving_2move(inst, t), _best_2move(inst, t)[0]


def dense_verdicts(inst, t):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tour, "_indexed_scan", lambda inst: False)
        return verdicts(inst, t)


def same(got, want):
    """Equal moves, gains of one type."""
    return got == want and (want is None or type(got.gain) is type(want.gain))


@pytest.fixture
def block_cells(monkeypatch):
    """One cell a block, and the grid always pays: every instance of at least 4 points takes the index path."""
    monkeypatch.setattr(tour, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(tour, "_grid_pays", lambda inst, visits: True)


# n = 200 under p = 1 needs spans summing past 2^30 (int64, 2^15 cells a block) for two blocks.
@pytest.mark.parametrize("n,p,grid", [(200, 1, 2**30), (200, 2, 1000), (700, 1, 1000), (700, 2, 1000)])
def test_many_blocks_match_the_dense_engine(n, p, grid):
    rng = random.Random(n * p)
    inst = random_instance(rng, n, p, grid)
    assert tour._indexed_scan(inst)
    local = two_opt(inst, snake(inst))
    moved = 0
    for t in [Tour(tuple(rng.sample(range(n), n))), *variants(rng, local)]:
        got, want = verdicts(inst, t), dense_verdicts(inst, t)
        assert all(map(same, got, want))
        if n <= 200:
            assert same(got[0], reference_first_2move(inst, t))
            assert same(got[1], reference_best_2move(inst, t))
        moved += want[0] is not None
    assert moved >= 2  # the random tour and a reversed segment improve


@pytest.mark.parametrize("p", [1, 2])
def test_random_tours_keep_the_dense_first_scan(p, monkeypatch):
    """A random tour's long edges put most vertices in its strict balls: more to visit than pairs.

    The improving query then scans densely, whose first hit comes early;
    the best-margin query, whose balls shrink by L/2 > 0, keeps the grid.
    """
    rng = random.Random(5)
    inst = random_instance(rng, 400, p)
    t = Tour(tuple(rng.sample(range(400), 400)))
    real, built = tour._TourState, []

    class CountedState(real):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    want = dense_verdicts(inst, t)
    monkeypatch.setattr(tour, "_TourState", CountedState)
    assert tour._indexed_scan(inst)
    assert same(find_improving_2move(inst, t), want[0]) and len(built) == 1
    best, examined = _best_2move(inst, t)
    assert same(best, want[1]) and len(built) == 1 and examined < 400 * 397 // 2 // 4


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n", [4, 5])
def test_every_tour_of_four_and_five_points(n, p, block_cells):
    inst = random_instance(random.Random(n + p), n, p, grid=20)
    assert tour._indexed_scan(inst)
    for perm in itertools.permutations(range(n)):
        t = Tour(perm)
        assert same(find_improving_2move(inst, t), reference_first_2move(inst, t))
        assert same(_best_2move(inst, t)[0], reference_best_2move(inst, t))


def lattice(w, h, p):
    """The w x h lattice with a boustrophedon tour: column by column, alternately up and down.

    Under the 1-norm every pair of parallel unit edges a column apart ties
    for the best margin, so the verdict's tie rule picks among many.
    """
    pts = [(x, y if x % 2 == 0 else h - 1 - y) for x in range(w) for y in range(h)]
    xs, ys = zip(*pts)
    return Instance.from_xy(xs, ys, PNorm(p)), Tour(tuple(range(w * h)))


@pytest.mark.parametrize("p", [1, 2])
def test_best_margin_ties_resolve_to_the_least_pair(p, block_cells):
    inst, t = lattice(6, 5, p)
    for v in variants(random.Random(p), t):
        best = reference_best_2move(inst, v)
        ties = [(i, j) for i, j, gain, threshold in _moves(inst, v)
                if (gain if inst.exact else gain - threshold) == best.gain]
        assert len(ties) > 1 or v != t
        assert same(_best_2move(inst, v)[0], best)
        assert same(find_improving_2move(inst, v), reference_first_2move(inst, v))


@pytest.mark.parametrize("p", [1, 2])
def test_one_edge_as_long_as_the_instance(p, block_cells):
    """A lattice tour closed by a jump across the whole instance: one query reads every point."""
    w, h = 8, 7
    pts = [(x, y if x % 2 == 0 else h - 1 - y) for x in range(w) for y in range(h)]
    pts.append((3 * w, 3 * h))  # far corner: the two closing edges span the instance
    xs, ys = zip(*pts)
    inst = Instance.from_xy(xs, ys, PNorm(p))
    t = Tour(tuple(range(inst.n)))
    for v in variants(random.Random(7), t):
        assert same(find_improving_2move(inst, v), reference_first_2move(inst, v))
        assert same(_best_2move(inst, v)[0], reference_best_2move(inst, v))


# 2-optimal tours whose best pair (i, j) is no seed (k - 1, k + 1) and lies in
# no ball of radius e: D(o_i, o_j) > e_i and D(o_{i+1}, o_{j+1}) > e_j.  Only
# the -L/2 widening finds it.
OUTSIDE_BALLS = [
    (PNorm(1), [(19, 1), (1, 10), (5, 4), (3, 3), (13, 18), (7, 6), (16, 16), (12, 3), (6, 12)],
     (8, 4, 6, 0, 7, 5, 2, 3, 1)),
    (PNorm(1), [(34, 0), (10, 20), (23, 13), (9, 37), (6, 25), (20, 32), (26, 23), (21, 16)],
     (5, 6, 0, 2, 7, 1, 4, 3)),
    (PNorm(1), [(49, 28), (2, 13), (4, 20), (28, 42), (19, 7), (15, 43)], (0, 3, 5, 2, 1, 4)),
    (PNorm(2), [(10 * k, 0) for k in range(7)] + [(10 * k, 3) for k in range(6, -1, -1)],
     tuple(range(1, 14)) + (0,)),
]


@pytest.mark.parametrize("norm,points,order", OUTSIDE_BALLS)
def test_best_pair_outside_the_radius_e_balls(norm, points, order, block_cells):
    inst, t = Instance([pt(*c) for c in points], norm), Tour(order)
    n, o, d = inst.n, order, inst.dist
    best = reference_best_2move(inst, t)
    i, j = best.i, best.j
    assert j != i + 2 and (i, j) not in ((0, n - 2), (1, n - 1))
    assert d(o[i], o[j]) > d(o[i], o[i + 1]) and d(o[i + 1], o[(j + 1) % n]) > d(o[j], o[(j + 1) % n])
    assert same(_best_2move(inst, t)[0], best)
    assert same(find_improving_2move(inst, t), reference_first_2move(inst, t))


# Four integer points A, B, X, Y whose move on (A, B), (X, Y) gains
# |AB| + |XY| - |AX| - |BY| in (0.1e-9, 0.9e-9) times the removed length,
# checked in 60-digit decimals: no improvement under the 1e-9 threshold.
NEAR_TIES = [
    [(121, 66), (135, 198), (123, 144), (78, 37)],
    [(86, 60), (188, 136), (129, 92), (39, 25)],
    [(154, 67), (7, 100), (67, 87), (132, 72)],
    [(128, 8), (135, 198), (123, 144), (128, 10)],
]


@pytest.mark.parametrize("points", NEAR_TIES)
def test_euclidean_near_ties_stay_non_improving(points, block_cells):
    inst = Instance([pt(*c) for c in points], PNorm(2))
    t = Tour((0, 1, 2, 3))  # edges 0 = (A, B) and 2 = (X, Y)
    assert tour._indexed_scan(inst)
    (gain, threshold), = [(g, thr) for i, j, g, thr in _moves(inst, t) if (i, j) == (0, 2)]
    assert 0 < gain <= threshold
    first = find_improving_2move(inst, t)
    assert same(first, reference_first_2move(inst, t)) and (first is None or first.i != 0)
    assert same(_best_2move(inst, t)[0], reference_best_2move(inst, t))
    # The same points inside a larger instance, the near tie as its pair (0, 2).
    rng = random.Random(points[0][0])
    inst = Instance([pt(*c) for c in points] + [pt(rng.randrange(300, 400), rng.randrange(300, 400))
                                                 for _ in range(6)], PNorm(2))
    t = Tour(tuple(range(inst.n)))
    assert all(map(same, verdicts(inst, t), dense_verdicts(inst, t)))


def test_layered_family_examines_few_pairs():
    lb = generate_lb_instance(2, 1, 3)
    inst, hand = lb.as_instance(), build_lb_tour(lb)
    assert tour._indexed_scan(inst)
    best, examined = _best_2move(inst, hand)
    assert best == dense_verdicts(inst, hand)[1] == (0, 2914, -2)
    assert 2916 <= examined < 4_247_154 // 100
    # Planted crossings: the least improving pair and the best margin of the dense scan.
    rng = random.Random(13)
    for _ in range(8):
        i, j = sorted(rng.sample(range(inst.n), 2))
        o = hand.order
        planted = Tour(o[:i] + o[i:j + 1][::-1] + o[j + 1:])
        got, want = verdicts(inst, planted), dense_verdicts(inst, planted)
        assert all(map(same, got, want)) and want[0] is not None
    # The grid's levels stay on the instance for its next verdict.
    assert inst._grid._levels


def test_routing_rule():
    rng = random.Random(3)
    # Integer 2-D instances above one block take the index, at the dtype's budget.
    assert tour._indexed_scan(random_instance(rng, 200, 2))  # float64: 163 rows a block
    assert not tour._indexed_scan(random_instance(rng, 181, 2))  # 181 rows, one block
    assert tour._indexed_scan(random_instance(rng, 400, 1))  # int16: 327 rows a block
    assert not tour._indexed_scan(random_instance(rng, 300, 1))
    # Every other kind keeps the dense engine.
    assert not tour._indexed_scan(random_instance(rng, 400, 3))
    assert not tour._indexed_scan(Instance.from_xy(np.arange(400) * 2**32, np.arange(400), PNorm(1)))
    assert not tour._indexed_scan(Instance.from_xy(np.arange(400) * 2**26, np.arange(400), PNorm(2)))
    assert not tour._indexed_scan(Instance([pt(Fraction(k, 7), k % 5) for k in range(400)], PNorm(2)))


@pytest.mark.parametrize("order", [
    (0, 1, 2, 3, 3), (0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 4), (-1, 1, 2, 3), (0, 1.0, 2, 3),
])
def test_index_path_checks_the_permutation(order, block_cells):
    inst = random_instance(random.Random(1), 4, 1, grid=10)
    t = Tour(order)
    for check in (find_improving_2move, _best_2move,
                  lambda i, t: is_k_optimal(i, t, 2), scan_2opt_optimality):
        with pytest.raises(ValueError, match="not a permutation"):
            check(inst, t)


def test_unit_step_ring_has_no_candidates(monkeypatch):
    """A 2 x 200 rectangle walked in unit steps under p = 1: every strict ball, radius e - 1 = 0, is empty.

    The tour takes the index (int16, 327 rows a block against 398 rows of
    pairs), whose candidate search returns no pair without a grid query.
    """
    inst = Instance.from_xy(np.r_[np.arange(200), np.arange(199, -1, -1)], np.repeat([0, 1], 200), PNorm(1))
    t = Tour(np.arange(400))
    assert tour._indexed_scan(inst) and tour._block_rows(400, np.dtype(np.int16)) == 327
    real, found = tour._GridTour._candidates, []

    def recorded(self, limit, root):
        found.append(real(self, limit, root))
        return found[-1]

    monkeypatch.setattr(tour._GridTour, "_candidates", recorded)
    monkeypatch.setattr(tour._GridIndex, "runs", lambda *args: pytest.fail("a grid query was made"))
    assert find_improving_2move(inst, t) is None
    assert found == [[]]
    monkeypatch.undo()
    assert reference_first_2move(inst, t) is None


def outcomes(inst, tours):
    """Per tour: the improving move, the best-margin move, the pairs examined and the `ScanReport`."""
    out = []
    for t in tours:
        best, examined = _best_2move(inst, t)
        out.append((find_improving_2move(inst, t), best, examined, scan_2opt_optimality(inst, t)))
    return out


def reordered_outcomes(monkeypatch, build, tours, tiebreak):
    """`outcomes` on a fresh `build()` whose grid levels list each cell's vertices in `tiebreak(n)` order.

    Keys stay sorted and each cell keeps its vertices; the patched level is
    kept as the real one is.  Also returns whether any level's order moved.
    """
    real, moved = tour._GridIndex.level, []

    def level(self, s):
        if s not in self._levels:
            stride, keys, order = real(self, s)
            within = np.lexsort((tiebreak(len(keys)), keys))  # keys are sorted: only ties move
            moved.append(not np.array_equal(order[within], order))
            self._levels[s] = stride, keys, order[within]
        return self._levels[s]

    with monkeypatch.context() as mp:
        mp.setattr(tour._GridIndex, "level", level)
        got = outcomes(build(), tours)
    return got, any(moved)


def assert_within_cell_order_is_invisible(monkeypatch, build, tours):
    """The verdicts under reversed and shuffled cells equal the default's and, but for the count, the dense engine's."""
    want = outcomes(build(), tours)
    with monkeypatch.context() as mp:
        mp.setattr(tour, "_indexed_scan", lambda inst: False)
        dense = outcomes(build(), tours)
    rng = np.random.default_rng(17)
    for tiebreak in (lambda n: -np.arange(n), rng.permutation):
        got, moved = reordered_outcomes(monkeypatch, build, tours, tiebreak)
        assert moved  # some cell holds two vertices
        for g, w, d in zip(got, want, dense):
            assert all(map(same, g[:2], w[:2])) and all(map(same, g[:2], d[:2]))
            assert g[2] == w[2] and g[3] == w[3] == d[3]


def test_within_cell_order_never_changes_a_layered_verdict(monkeypatch):
    lb = generate_lb_instance(2, 1, 3)
    hand = build_lb_tour(lb)
    o, rng = hand.order, random.Random(29)
    planted = []
    for _ in range(2):
        i, j = sorted(rng.sample(range(lb.n), 2))
        planted.append(Tour(o[:i] + o[i:j + 1][::-1] + o[j + 1:]))
    assert_within_cell_order_is_invisible(monkeypatch, lb.as_instance, [hand, *planted])


@pytest.mark.parametrize("p", [1, 2])
def test_within_cell_order_never_changes_a_random_verdict(p, monkeypatch):
    rng = random.Random(700 + p)
    inst = random_instance(rng, 700, p)
    xs, ys = inst._xy
    build = lambda: Instance.from_xy(xs, ys, PNorm(p))
    t = snake(inst)
    assert tour._indexed_scan(inst)
    tours = [Tour(tuple(rng.sample(range(700), 700))), *variants(rng, t)]
    assert_within_cell_order_is_invisible(monkeypatch, build, tours)


@pytest.mark.parametrize("p", [1, 2])
def test_within_cell_order_never_changes_a_five_point_verdict(p, monkeypatch, block_cells):
    inst = random_instance(random.Random(50 + p), 5, p, grid=6)
    xs, ys = inst._xy
    build = lambda: Instance.from_xy(xs, ys, PNorm(p))
    assert tour._indexed_scan(inst)
    assert_within_cell_order_is_invisible(monkeypatch, build, [Tour(o) for o in itertools.permutations(range(5))])


@pytest.mark.parametrize("p", [1, 2])
def test_candidate_chunks_stay_within_their_byte_budget(p, monkeypatch):
    """The chunk loop's traced peak stays within `_CHUNK_BYTES` over what `_candidates` holds when it starts, and what it keeps.

    What it holds then is the run arrays of `_GridIndex.runs` and the
    per-query arrays beside them; what it keeps, the candidate keys.  Both
    queries of a 4000-point snake find 70,000 vertices or more, over four
    chunks' worth, so a budget four times larger breaks the pin.
    """
    inst = random_instance(random.Random(4000 + p), 4000, p, grid=10_000)
    grid_tour = tour._GridTour(inst, snake(inst).validate(inst))
    real_candidates, calls = tour._GridTour._candidates, []

    def recorded(self, limit, root):
        calls.append((limit, root))
        return real_candidates(self, limit, root)

    monkeypatch.setattr(tour._GridTour, "_candidates", recorded)
    grid_tour.first(), grid_tour.best()  # also builds the levels, which stay on the instance
    assert [root for _, root in calls] == [False, True]
    real_chunks, loop = tour._chunks, {}

    def chunks(runs, budget):
        loop["start"] = tracemalloc.get_traced_memory()[0]
        loop["found"], loop["largest"] = int(runs[1].sum()), int(runs[1].sum(axis=1).max())
        yield from real_chunks(runs, budget)

    monkeypatch.setattr(tour, "_chunks", chunks)
    vertices = tour._CHUNK_BYTES // tour._FOUND_BYTES
    for limit, root in calls:
        parts, kept, peak = traced(lambda: real_candidates(grid_tour, limit, root))
        assert parts and loop["found"] > 4 * vertices >= 4 * loop["largest"]
        assert peak <= loop["start"] + tour._CHUNK_BYTES + kept
