"""The 3-optimality scan against the loop it replaced.

`is_k_optimal(k=3)` reads the instance's distance cache and the six segment
ends of each triple; `reference_find_improving_3move` calls `inst.dist` on
every edge of every reconnection and slices the tour.  Both must give the
same `KOptVerdict`: the same positions (i, j, k) and the same new tour, on
every tour of 6 points and of 7 points, on random, 2-optimal and 3-optimal
tours under several norms, on rational 1-norm points and on the 3-D prism.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kopt_lab.geometry import PNorm, pt
from kopt_lab.lowerbound import generate_3d_instance
from kopt_lab.tour import Instance, KOptVerdict, Tour, is_k_optimal, two_opt

from reference_scan import reference_find_improving_3move

# Integer points on which 1-norm gains of exactly 0 occur, and some tour's first
# improving triple improves both by s2 s1 and by s2 reversed(s1).
SIX = [(13, 70), (18, 54), (22, 11), (22, 97), (23, 64), (24, 67)]
SEVEN = SIX + [(20, 80)]


def grid_instance(rng, n, p, grid=60):
    coords = {(rng.randint(0, grid), rng.randint(0, grid)) for _ in range(4 * n)}
    return Instance([pt(*c) for c in sorted(coords)[:n]], PNorm(p))


def assert_matches_oracle(inst, t) -> bool:
    """Assert the scan's verdict is the oracle's; return whether the tour is 3-optimal."""
    hit = reference_find_improving_3move(inst, t)
    assert is_k_optimal(inst, t, 3) == KOptVerdict(hit is None, hit)
    return hit is None


@pytest.mark.parametrize("p", [1, 2])
def test_every_tour_of_six_and_seven_points(p):
    """All 720 orders of 6 points, and the 360 tours of 7 points from vertex 0, one per cycle."""
    six = Instance([pt(*c) for c in SIX], PNorm(p))
    seven = Instance([pt(*c) for c in SEVEN], PNorm(p))
    tours = [(six, Tour(o)) for o in itertools.permutations(range(6))]
    tours += [(seven, Tour((0,) + o)) for o in itertools.permutations(range(1, 7)) if o[0] < o[-1]]
    assert len(tours) == 720 + 360
    optimal = [assert_matches_oracle(inst, t) for inst, t in tours]
    assert 0 < sum(optimal) < len(optimal)


def tours_to_three_optimality(rng, inst):
    """A random tour, the 2-Opt tour from it, then each witness until the tour is 3-optimal."""
    n = inst.n
    t = Tour(tuple(rng.sample(range(n), n)))
    out = [t, two_opt(inst, t)]
    while (v := reference_find_improving_3move(inst, out[-1])) is not None:
        out.append(v[1])
    return out


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_random_and_local_tours(p):
    """Walks from random tours through 2-Opt to 3-optimality, more 2-Opt tours, and random and 2-Opt tours at n = 40."""
    rng = random.Random(int(10 * p))
    for n in (3, 4, 5, 8, 13, 21):
        inst = grid_instance(rng, n, p)
        assert [assert_matches_oracle(inst, t) for t in tours_to_three_optimality(rng, inst)][-1]
    for _ in range(25):
        n = rng.randint(6, 11)
        inst = grid_instance(rng, n, p, grid=1000)
        assert_matches_oracle(inst, two_opt(inst, Tour(tuple(rng.sample(range(n), n)))))
    inst = grid_instance(rng, 40, p, grid=1000)
    t = Tour(tuple(rng.sample(range(40), 40)))
    for tour in (t, two_opt(inst, t)):
        assert_matches_oracle(inst, tour)


def test_rational_one_norm_points():
    rng = random.Random(5)
    for n in (6, 12):
        points = {pt(Fraction(rng.randint(0, 99), 7), Fraction(rng.randint(0, 99), 3)): None for _ in range(n)}
        inst = Instance(list(points), PNorm(1))
        assert [assert_matches_oracle(inst, t) for t in tours_to_three_optimality(rng, inst)][-1]


def test_three_d_prism():
    prism = generate_3d_instance(4)
    inst = prism.as_instance()
    for t in (prism.tour_t, prism.tour_s, Tour(tuple(random.Random(2).sample(range(16), 16)))):
        assert_matches_oracle(inst, t)


@pytest.fixture()
def dist_calls(monkeypatch):
    """Every `Instance.dist` call, as (i, j)."""
    calls, dist = [], Instance.dist
    monkeypatch.setattr(Instance, "dist", lambda inst, i, j: calls.append((i, j)) or dist(inst, i, j))
    return calls


@pytest.mark.parametrize("p", [2, 3])
def test_a_full_scan_reads_the_cache(dist_calls, p):
    """A full scan calls `dist` only to build the cache: never on exact squares, n(n+1)/2 times under p = 3.

    The loop it replaced made 24 calls a triple, 27,360 on these 20 points.
    """
    rng = random.Random(3)
    points = grid_instance(rng, 20, p, grid=1000).points
    t = tours_to_three_optimality(rng, Instance(points, PNorm(p)))[-1]
    inst = Instance(points, PNorm(p))
    assert inst._exact_squares == (p == 2)
    dist_calls.clear()
    assert is_k_optimal(inst, t, 3).optimal
    assert len(dist_calls) == (0 if p == 2 else 20 * 21 // 2)


def test_the_cap_fires_before_the_cache(dist_calls):
    points = [pt(k, k * k % 401) for k in range(401)]
    inst = Instance(points, PNorm(3))
    with pytest.raises(ValueError, match=r"^3-optimality scan limited to n <= 400$"):
        is_k_optimal(inst, Tour(tuple(range(401))), 3)
    assert dist_calls == [] and "_pair_dist" not in vars(inst)
    at_cap = Instance(points[:400], PNorm(1))
    assert not is_k_optimal(at_cap, Tour(tuple(range(400))), 3).optimal
