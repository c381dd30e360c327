"""The p = 2 distance rule: square roots of exact integer squares.

On integer points whose differences are below `SQUARE_SPAN` = 2^26,
`pdist` returns `math.sqrt(dx*dx + dy*dy)`; the sum is below 2^53, so it is
an exact double and the root is correctly rounded.  An instance whose two
spans are below that bound builds its distance matrix from int64 squares
with no `pdist` call, and `tour_length` sums the same doubles.  Larger spans
and rational points keep `math.hypot`, through `pdist` itself.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import geometry, tour
from kopt_lab.geometry import SQUARE_SPAN, PNorm, pdist, pt
from kopt_lab.lowerbound import build_lb_tour, generate_lb_instance
from kopt_lab.tour import Instance, Tour, tour_length

from reference_tour_length import reference_tour_length


@pytest.fixture
def pdist_calls(monkeypatch):
    """The arguments of every `pdist` call, in every namespace that binds it."""
    calls = []

    def counting_pdist(*args):
        calls.append(args)
        return pdist(*args)

    for module in (geometry, tour):
        monkeypatch.setattr(module, "pdist", counting_pdist)
    return calls


def spanned_points(rng, n, span, offset):
    """n distinct integer points from offset, whose x- and y-spans are both `span`."""
    seen = {(0, 0): None, (span, span): None, (0, span): None}
    while len(seen) < n:
        seen[(rng.randint(0, span), rng.randint(0, span))] = None
    return [pt(offset + x, offset + y) for x, y in seen]


def pdist_matrix(inst):
    return np.array([[pdist(inst.norm, a, b) for b in inst.points] for a in inst.points])


@pytest.mark.parametrize("dx,dy", [
    (0, 0), (3, 4), (1, 1), (2047, 2046), (SQUARE_SPAN - 1, SQUARE_SPAN - 1),
    (SQUARE_SPAN - 1, 1), (12345678, 87654321 % SQUARE_SPAN),
])
def test_pdist_is_the_root_of_the_exact_square(dx, dy):
    for a, b in ((pt(0, 0), pt(dx, dy)), (pt(-dx, 5), pt(0, 5 - dy))):
        d = pdist(PNorm(2), a, b)
        assert d == math.sqrt(dx * dx + dy * dy) == math.hypot(dx, dy)


def test_pdist_keeps_hypot_past_the_bound_and_on_fractions():
    for dx, dy in ((SQUARE_SPAN, 3), (7, SQUARE_SPAN), (2**40 + 1, 2**40 - 1)):
        assert pdist(PNorm(2), pt(0, 0), pt(dx, dy)) == math.hypot(dx, dy)
    rng = random.Random(3)
    for _ in range(200):
        a = pt(Fraction(rng.randint(-999, 999), rng.randint(1, 9)), rng.randint(-99, 99))
        b = pt(rng.randint(-99, 99), Fraction(rng.randint(-999, 999), 7))
        assert pdist(PNorm(2), a, b) == math.hypot(float(abs(a.x - b.x)), float(abs(a.y - b.y)))


def build(points, from_xy):
    if from_xy:
        xs, ys = (np.array([p[k] for p in points], dtype=np.int64) for k in (0, 1))
        return Instance.from_xy(xs, ys, PNorm(2))
    return Instance(points, PNorm(2))


@pytest.mark.parametrize("from_xy", [False, True], ids=["points", "from_xy"])
@pytest.mark.parametrize("span,offset", [
    (1000, -500), (10**6, -(10**7)), (SQUARE_SPAN - 1, -(2**40)), (SQUARE_SPAN - 1, 0),
])
def test_matrix_from_exact_squares_calls_no_pdist(pdist_calls, from_xy, span, offset):
    inst = build(spanned_points(random.Random(span), 40, span, offset), from_xy)
    assert inst._exact_squares
    matrix = inst._pair_dist.matrix
    assert pdist_calls == []
    assert matrix.tobytes() == pdist_matrix(inst).tobytes()


@pytest.mark.parametrize("from_xy", [False, True], ids=["points", "from_xy"])
def test_matrix_past_the_bound_is_pdist_itself(pdist_calls, from_xy):
    inst = build(spanned_points(random.Random(26), 30, SQUARE_SPAN, -7), from_xy)
    assert not inst._exact_squares
    matrix = inst._pair_dist.matrix
    assert len(pdist_calls) == 30 * 31 // 2
    assert matrix.tobytes() == pdist_matrix(inst).tobytes()


def test_rational_points_keep_hypot(pdist_calls):
    rng = random.Random(9)
    points = list({pt(Fraction(rng.randint(-999, 999), 7), rng.randint(-99, 99)): None
                   for _ in range(20)})
    inst = Instance(points, PNorm(2))
    assert not inst._exact_squares
    matrix = inst._pair_dist.matrix
    assert len(pdist_calls) == inst.n * (inst.n + 1) // 2
    want = [[math.hypot(float(abs(a.x - b.x)), float(abs(a.y - b.y))) for b in points] for a in points]
    assert matrix.tobytes() == np.array(want).tobytes()


def test_layered_tour_length_matches_the_fold():
    lb = generate_lb_instance(2, 2, 3)
    inst, t = lb.as_instance(), build_lb_tour(lb)
    assert inst._exact_squares
    got, want = tour_length(inst, t), reference_tour_length(inst, t)
    assert (type(got), got) == (type(want), want) == (float, 210456.0)


@pytest.mark.parametrize("span", [SQUARE_SPAN - 1, SQUARE_SPAN])
def test_tour_length_near_the_bound_matches_the_fold(span):
    rng = random.Random(span)
    for n in (3, 10, 60):
        inst = Instance(spanned_points(rng, n, span, -(span // 3)), PNorm(2))
        assert inst._exact_squares == (span < SQUARE_SPAN)
        for _ in range(5):
            t = Tour(tuple(rng.sample(range(n), n)))
            got, want = tour_length(inst, t), reference_tour_length(inst, t)
            assert (type(got), got) == (type(want), want)
