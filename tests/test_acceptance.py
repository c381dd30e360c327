"""End-to-end acceptance checks, one test per numbered criterion.

The terminal summary (see conftest) prints one pass/fail line per criterion.
Runtime budgets are asserted with wall-clock margins suitable for a laptop.
"""

import random
import time

import pytest

from kopt_lab.arborescence import (
    build_arborescence,
    certify_pair,
    verify_combined_inequalities,
    verify_lemma_suite,
)
from kopt_lab.crossing import make_crossing_free
from kopt_lab.geometry import PNorm, orientation, pdist, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.lowerbound import (
    build_lb_tour,
    doubled_spanning_tree_tour,
    generate_3d_instance,
    generate_lb_instance,
    lb_tour_length_exact,
    scan_2opt_optimality,
)
from kopt_lab.partition import partition_edges
from kopt_lab.tour import (
    Instance,
    Tour,
    exact_opt,
    is_k_optimal,
    is_simple,
    tour_length,
    two_opt,
)

from planar_helpers import perimeter_lower_bound
from reference_held_karp import brute_force_check
from reference_scan import reference_first_2move
from synthetic import random_feasible_arborescence

N_CORPUS_TRIALS = 200
CORPUS_SEED = 20240917


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random instances with their 2-opt tours, optima,
    certificates and the arborescences built along the way."""
    records = []
    t0 = time.perf_counter()
    for trial in range(N_CORPUS_TRIALS):
        rng = random.Random(CORPUS_SEED * 1_000_003 + trial)
        n = rng.randint(6, 12)
        inst = gen_random(n, 1000, seed=rng.randrange(2**32))
        s = two_opt(inst, random_tour(n, rng))
        t, _ = exact_opt(inst)
        cert = certify_pair(inst, t, s)

        pair = make_crossing_free(inst, t, s)
        arbs = [
            build_arborescence(pair.instance, path, chords, e0=root)
            for _, chords, path, root in partition_edges(pair)[0]
            if chords and path is not None
        ]
        records.append(
            {"inst": inst, "s": s, "t": t, "cert": cert, "arbs": arbs}
        )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_lower_bound_generator_fidelity():
    t0 = time.perf_counter()
    lb = generate_lb_instance(2, 1, 3)
    elapsed = time.perf_counter() - t0
    assert lb.n == 2916
    assert lb.groups == (824, 824, 728, 540)
    assert elapsed < 1.0


def test_criterion_2_hand_built_tour_bounds():
    lb = generate_lb_instance(2, 1, 3)
    tour = build_lb_tour(lb)
    tour.validate(lb.as_instance())  # Hamiltonian cycle over all points
    length = lb_tour_length_exact(lb)
    assert length == 7836
    assert length >= 2187  # q * q^((p+1)q)
    tree, doubled = doubled_spanning_tree_tour(lb)
    assert tree == 4191
    assert tree <= 5103  # 7 * q^((p+1)q)
    assert doubled == 8382
    assert doubled <= 10206  # 14 * q^((p+1)q)


def test_criterion_3_exhaustive_scan():
    lb = generate_lb_instance(2, 1, 3)
    inst = lb.as_instance()
    tour = build_lb_tour(lb)
    t0 = time.perf_counter()
    report = scan_2opt_optimality(inst, tour)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert report.pairs_scanned > 4_000_000
    # verdict asserted only against the pure-Python reference search
    move = reference_first_2move(inst, tour)
    assert report.two_optimal == (move is None)


def test_criterion_4_upper_bound_machinery(corpus):
    records, elapsed = corpus
    assert len(records) == N_CORPUS_TRIALS
    assert elapsed < 300.0
    for rec in records:
        cert = rec["cert"]
        assert cert.passed, cert.failures
        assert cert.ratio <= cert.bound * (1 + 1e-9)
        for arb in rec["arbs"]:
            assert verify_combined_inequalities(arb).all_pass


def test_criterion_5_lemma_suite(corpus):
    records, _ = corpus
    for rec in records:
        for arb in rec["arbs"]:
            assert verify_lemma_suite(arb).all_pass
    rng = random.Random(5150)
    for _ in range(1000):
        arb = random_feasible_arborescence(rng, max_edges=50)
        assert verify_combined_inequalities(arb).all_pass
        assert verify_lemma_suite(arb).all_pass


def test_criterion_6_simplicity_and_degeneracy(corpus):
    records, _ = corpus
    for rec in records:
        assert is_simple(rec["inst"], rec["s"]).simple

    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(4, 9)
        slope, icept = rng.randint(-5, 5), rng.randint(-100, 100)
        xs = rng.sample(range(-200, 200), n)
        inst = Instance([pt(x, slope * x + icept) for x in xs], PNorm(2))
        t = two_opt(inst, Tour(tuple(rng.sample(range(n), n))))
        _, opt_len = exact_opt(inst)
        got, want = float(tour_length(inst, t)), float(opt_len)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_7_oracle_equivalence():
    rng = random.Random(707)
    for _ in range(50):
        n = rng.randint(4, 8)
        inst = gen_random(n, 500, seed=rng.randrange(2**32))
        brute_force_check(inst)  # raises beyond 1e-12 relative


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def test_criterion_8_bounding_box_lemma():
    rng = random.Random(808)
    norms = [PNorm(1), PNorm(2), PNorm(3)]
    checked = 0
    while checked < 10_000:
        raw = [pt(rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(rng.randint(3, 10))]
        hull = _convex_hull(raw)
        if len(hull) < 3:
            continue
        norm = norms[checked % 3]
        perim = sum(
            float(pdist(norm, hull[i], hull[(i + 1) % len(hull)]))
            for i in range(len(hull))
        )
        bound = float(perimeter_lower_bound(hull, norm))
        assert perim >= bound * (1 - 1e-9)
        checked += 1


def test_criterion_9_three_d_family():
    g = generate_3d_instance(8)
    inst = g.as_instance()
    assert inst.n == 32
    for tour in (g.tour_t, g.tour_s):
        edges = tour.edges()
        assert len(edges) == 32
        for a, b in edges:
            assert abs(float(inst.dist(a, b)) - 1.0) <= 1e-12
    assert is_k_optimal(inst, g.tour_s, 2).optimal
