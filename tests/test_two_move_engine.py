"""The vectorized 2-move engine against the pure-Python reference scan.

Both modes must agree with the reference exactly: the same (i, j), the same
gain and the same type of gain (int, float or Fraction), on every norm and
on 3-D, rational and huge-coordinate instances.
"""

import random
from fractions import Fraction

import pytest

from kopt_lab import tour
from kopt_lab.crossing import make_crossing_free
from kopt_lab.geometry import PNorm, pt
from kopt_lab.harness import gen_random
from kopt_lab.lowerbound import generate_3d_instance, scan_2opt_optimality
from kopt_lab.tour import Instance, Tour, _best_2move, find_improving_2move, two_opt

from reference_scan import reference_best_2move, reference_first_2move


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
    t, s = (two_opt(inst, Tour(tuple(rng.sample(range(n), n)))) for _ in range(2))
    points = make_crossing_free(inst, t, s).instance.points
    if len(points) == n:  # no crossing: random rational points instead
        points = list({pt(Fraction(rng.randint(0, 9999), 7), rng.randint(0, 999)): None
                       for _ in range(n)})
    return Instance(points, PNorm(1))


def tours(rng, inst, count=3):
    """Random tours, a 2-optimal tour, and 2-optimal tours with a reversed segment."""
    n = inst.n
    out = [Tour(tuple(rng.sample(range(n), n))) for _ in range(count)]
    local = two_opt(inst, out[0])
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
    got, want = _best_2move(inst, t), reference_best_2move(inst, t)
    assert got == want
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


@pytest.mark.parametrize("name,inst", list(instances()), ids=lambda v: v if isinstance(v, str) else "")
def test_engine_matches_reference(name, inst, block_cells):
    rng = random.Random(name)
    planted = 0
    for t in tours(rng, inst):
        if assert_engine_matches(inst, t) is not None:
            planted += 1
    assert planted > 0  # the improving branch is exercised on every instance


def test_rational_instances_take_the_fraction_path():
    inst = rational_instance(random.Random(3), 9)
    assert not inst.exact and inst.norm.is_one
    t = Tour(tuple(random.Random(4).sample(range(inst.n), inst.n)))
    m = find_improving_2move(inst, t)
    assert m == reference_first_2move(inst, t) and isinstance(m.gain, Fraction)


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


def test_small_tours_have_no_pairs():
    inst = Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(2))
    t = Tour((0, 1, 2))
    assert find_improving_2move(inst, t) is None and _best_2move(inst, t) is None
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
