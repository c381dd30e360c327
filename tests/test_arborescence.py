import math
import random
import time

import numpy as np
import pytest

from kopt_lab import arborescence as arb_module
from kopt_lab.arborescence import (
    ArbEdge,
    Arborescence,
    ChordCrossingError,
    InequalityCheck,
    build_arborescence,
    certified_ratio_bound,
    certify_pair,
    subset_E_prime,
    verify_combined_inequalities,
    verify_lemma_suite,
)
from kopt_lab.crossing import make_crossing_free
from kopt_lab import tour as tour_module
from kopt_lab.geometry import PNorm, pdist, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.partition import partition_edges
from kopt_lab.tour import Instance, Tour, exact_opt, is_k_optimal, tour_length, two_opt

from reference_certificate import reference_subset_E_r
from synthetic import random_feasible_arborescence
from worked_examples import fortytwo_point_pair, twelve_point_pair


@pytest.fixture(scope="module")
def fortytwo_arb():
    inst, t, s = fortytwo_point_pair()
    pair = make_crossing_free(inst, t, s)
    s1p = partition_edges(pair)[0][0]
    assert s1p.name == "S1'"
    arb = build_arborescence(pair.instance, s1p.path, s1p.chords, e0=s1p.root)
    return pair, s1p, arb


class TestConstruction:
    def test_one_node_per_chord_plus_root(self, fortytwo_arb):
        _, s1p, arb = fortytwo_arb
        assert len(arb.edges) == len(s1p.chords) == 9
        assert arb.n_nodes == 10

    def test_reference_edge_is_single_root_child(self, fortytwo_arb):
        _, s1p, arb = fortytwo_arb
        root_kids = arb.child_edges(arb.root)
        assert len(root_kids) == 1
        assert arb.edges[root_kids[0]].chord == s1p.root

    def test_chord_weights_are_chord_lengths(self, fortytwo_arb):
        pair, _, arb = fortytwo_arb
        for e in arb.edges:
            assert e.c == pytest.approx(float(pair.instance.dist(*e.chord)), rel=1e-12)

    def test_tour_weight_conservation(self, fortytwo_arb):
        # every reference-path edge is owned by exactly one region, so the
        # w-weights sum to at most the tour length
        pair, s1p, arb = fortytwo_arb
        path_len = sum(
            float(pair.instance.dist(a, b))
            for a, b in zip(s1p.path, s1p.path[1:])
        )
        w_non_root = sum(e.w for e in arb.edges)
        assert w_non_root <= path_len + 1e-9
        assert w_non_root <= float(tour_length(pair.instance, pair.tprime)) + 1e-9

    def test_subtree_weights_are_monotone(self, fortytwo_arb):
        _, _, arb = fortytwo_arb
        for idx, e in enumerate(arb.edges):
            for child in arb.child_edges(e.head):
                assert arb.subtree_w(child) <= arb.subtree_w(idx) + 1e-12

    def test_crossing_chords_rejected(self):
        inst = Instance([pt(i, (i * i) % 7) for i in range(6)], PNorm(2))
        path = [0, 1, 2, 3, 4, 5]
        with pytest.raises(ChordCrossingError):
            build_arborescence(inst, path, [(0, 3), (2, 5)])

    @pytest.mark.parametrize("chords, e0, message", [
        ([(0, 7)], None, r"chord \(0, 7\) has an endpoint off the path"),
        ([(2, 2)], None, r"degenerate chord \(2, 2\)"),
        ([(0, 2)], (0, 5), "e0 must be one of the chords"),
        ([(0, 2), (3, 5)], (0, 2), "e0 must span the full reference path"),
    ], ids=["off-path", "degenerate", "e0-not-a-chord", "e0-short"])
    def test_malformed_chords_rejected(self, chords, e0, message):
        inst = Instance([pt(i, (3 * i + 1) % 11) for i in range(6)], PNorm(2))
        with pytest.raises(ValueError, match=message):
            build_arborescence(inst, [0, 1, 2, 3, 4, 5], chords, e0=e0)

    def test_virtual_root_adopts_top_level_chords(self):
        # no full-span chord: both chords hang off the root directly
        inst = Instance([pt(i, (3 * i + 1) % 11) for i in range(6)], PNorm(2))
        arb = build_arborescence(inst, [0, 1, 2, 3, 4, 5], [(0, 2), (3, 5)])
        assert len(arb.child_edges(arb.root)) == 2


class TestEdgeOrder:
    """Edge k must enter node k + 1 from a node <= k; any other edge list is refused when built."""

    @pytest.mark.parametrize("arcs", [
        [(0, 1), (3, 2), (2, 3)],   # nodes 2 and 3 on a cycle, out of the root's reach
        [(0, 1), (1, 5)],           # a head out of range
        [(0, 1), (0, 1)],           # two edges into node 1
        [(0, 1), (3, 2), (1, 3)],   # node 2 listed before its parent, node 3
        [(0, 1), (2, 2)],           # a loop
    ])
    def test_malformed_edge_lists_are_refused(self, arcs):
        edges = [ArbEdge(tail=t, head=h, c=1.0, w=1.0) for t, h in arcs]
        with pytest.raises(ValueError, match=r"edge 1 runs .* it must enter node 2 from a node in 0\.\.1"):
            Arborescence(edges=edges)

    def test_node_count_and_root_are_derived(self):
        arb = Arborescence(edges=[ArbEdge(tail=0, head=1, c=1.0, w=1.0), ArbEdge(tail=0, head=2, c=1.0, w=1.0)])
        assert (arb.n_nodes, arb.root) == (3, 0)
        assert Arborescence(edges=[]).n_nodes == 1
        with pytest.raises(TypeError):
            Arborescence(n_nodes=3, edges=arb.edges)


class TestInequalities:
    def test_worked_example_passes(self, fortytwo_arb):
        _, _, arb = fortytwo_arb
        cert = verify_combined_inequalities(arb)
        assert cert.all_pass
        assert len(cert.triangle) == 9

    def test_violation_is_caught(self):
        # head region has a long chord and a short boundary: infeasible
        arb = Arborescence(edges=[ArbEdge(tail=0, head=1, c=100.0, w=1.0)])
        cert = verify_combined_inequalities(arb)
        assert not cert.all_pass

    def test_synthetic_arborescences_always_feasible(self):
        rng = random.Random(7)
        for _ in range(50):
            arb = random_feasible_arborescence(rng)
            assert verify_combined_inequalities(arb).all_pass


class TestEdgeSubsets:
    def hand_arb(self):
        return Arborescence(
            edges=[
                ArbEdge(tail=0, head=1, c=10.0, w=5.0),
                ArbEdge(tail=1, head=2, c=8.0, w=3.0),
                ArbEdge(tail=1, head=3, c=2.0, w=4.0),
            ],
        )

    def test_tables(self):
        """Per edge: the sum and max of its child chords, and w(A_e)."""
        arb = self.hand_arb()
        assert (arb.child_c_sum, arb.child_c_max) == ([10.0, 0.0, 0.0], [8.0, -math.inf, -math.inf])
        assert [arb.subtree_w(k) for k in range(3)] == [12.0, 3.0, 4.0]

    def test_small_relative_chords(self):
        arb = self.hand_arb()
        # edge 0 has child chords {8, 2}: 10 < 2 * 8, so it is the only member
        assert subset_E_prime(arb, 2.0) == {0}
        # leaves can never be members
        assert subset_E_prime(arb, 1000.0) == {0}

    def test_threshold_is_strict(self):
        arb = self.hand_arb()
        assert subset_E_prime(arb, 1.25) == set()  # 10 < 1.25 * 8 is false

    @pytest.mark.parametrize("l", [0.0, -2.0])
    def test_E_prime_refuses_a_non_positive_l(self, l):
        with pytest.raises(ValueError, match="l must be positive"):
            subset_E_prime(self.hand_arb(), l)

    def test_band_subset(self):
        arb = self.hand_arb()
        # l=8: E' = {0}; band (1, 2] catches only the c=2 edge
        assert reference_subset_E_r(arb, 8.0, 1.0) == {2}
        # band (4, 8] catches only the c=8 edge
        assert reference_subset_E_r(arb, 8.0, 4.0) == {1}

    def test_lemma_suite_on_worked_example(self, fortytwo_arb):
        _, _, arb = fortytwo_arb
        cert = verify_lemma_suite(arb)
        assert cert.all_pass
        assert cert.params["main_lemma"] == "vacuous"  # ratio far below 18

    def test_lemma_suite_on_synthetic(self):
        rng = random.Random(13)
        for _ in range(50):
            arb = random_feasible_arborescence(rng)
            assert verify_lemma_suite(arb).all_pass

    def test_lemma_suite_on_an_edgeless_arborescence(self):
        cert = verify_lemma_suite(Arborescence(edges=[]))
        assert (cert.lemma_checks, cert.params, cert.all_pass) == ([], {}, True)

    def test_no_E_r_band_when_w_is_zero(self):
        """w(A) = 0 makes every band radius r = (4/l)^i w(A) zero, so no E_r or cover check is made."""
        arb = Arborescence(edges=[ArbEdge(tail=0, head=1, c=1.0, w=0.0, chord=(0, 1)),
                                  ArbEdge(tail=1, head=2, c=1.0, w=0.0, chord=(1, 2))])
        cert = verify_lemma_suite(arb)
        assert [(c.label, c.passed) for c in cert.lemma_checks] == [
            ("E'(l=2): c(E') <= l/2*w(A) chords (0, 1)", False),  # c(E') = 1 > 0: edge 0 is in E'
            ("E'(l=6): c(E') <= l/2*w(A) chords (0, 1)", False),
            ("E'(l=18): c(E') <= l/2*w(A) chords (0, 1)", False),
            ("A_e[0]: c(e) <= w(A_e) chord (0, 1)", False),
            ("A_e[1]: c(e) <= w(A_e) chord (1, 2)", False),
            ("main: vacuous (c(A) < 18*w(A))", True),
        ]


class TestRatioBound:
    def test_small_n(self):
        assert certified_ratio_bound(4) == 97.0

    def test_smallest_accepted_n(self):
        # log2(log2(3)) is about 0.66: the quotient 12 log2(3) / 0.66 = 28.6 exceeds 18.
        assert certified_ratio_bound(3) == 115.49822865355651
        assert certified_ratio_bound(3) > certified_ratio_bound(4) > 4 * 18.0 + 1

    def test_formula_at_1000(self):
        expected = 4 * max(18.0, 12 * math.log2(1000) / math.log2(math.log2(1000))) + 1
        assert certified_ratio_bound(1000) == pytest.approx(expected, rel=1e-12)

    def test_monotone_for_large_n(self):
        values = [certified_ratio_bound(n) for n in (100, 1000, 10**6)]
        assert values == sorted(values)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            certified_ratio_bound(2)


class TestCertifyPair:
    def test_twelve_point_pair(self):
        inst, t, s = twelve_point_pair()
        cert = certify_pair(inst, t, s)
        assert cert.passed
        assert cert.crossings == 3
        assert cert.nprime == 15
        assert cert.ratio <= cert.bound

    def test_fortytwo_point_pair(self):
        inst, t, s = fortytwo_point_pair()
        cert = certify_pair(inst, t, s)
        assert cert.passed
        assert cert.part_sizes == {
            "S1'": 9, "S1''": 8, "S2'": 4, "S2''": 8, "S3": 13,
        }

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_fewer_than_three_points(self, n):
        inst = Instance([pt(i, i * i) for i in range(n)], PNorm(2))
        tour = Tour(tuple(range(n)))
        with pytest.raises(ValueError, match=f"certify_pair needs n >= 3 points, got n = {n}$"):
            certify_pair(inst, tour, tour)

    def test_rejects_non_2_optimal_s(self):
        inst = Instance([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)], PNorm(2))
        with pytest.raises(ValueError):
            certify_pair(inst, Tour((0, 1, 2, 3)), Tour((0, 2, 1, 3)))

    def test_crossing_free_pair_builds_one_distance_cache(self, monkeypatch):
        n = 12
        inst = gen_random(n, 1000, seed=2)
        t, _ = exact_opt(inst)
        s = two_opt(inst, random_tour(n, random.Random(2)))
        inst = gen_random(n, 1000, seed=2)  # no distance cache built yet
        assert make_crossing_free(inst, t, s).instance is inst
        calls = []
        monkeypatch.setattr(tour_module, "pdist", lambda *a: calls.append(a) or pdist(*a))
        cert = certify_pair(inst, t, s)
        assert cert.passed and cert.crossings == 0 and cert.nprime == n
        # One n x n cache, shared by both 2-optimality checks and built from exact
        # integer squares with no `pdist` call; tour_length reads `_xy`.
        assert len(calls) == 0 and "_pair_dist" in vars(inst)

    def test_pair_with_crossings_gets_new_instance(self):
        inst, t, s = twelve_point_pair()
        pair = make_crossing_free(inst, t, s)
        assert pair.instance is not inst
        assert pair.instance.n == inst.n + pair.crossings == 15

    @pytest.mark.parametrize("p", [2, 3])
    def test_pair_with_crossings_copies_the_distance_matrix(self, monkeypatch, p):
        """V' copies V's matrix and calls `pdist` only on the rows of its k crossing points."""
        inst, t, s = twelve_point_pair()
        inst = Instance(inst.points, PNorm(p))
        inst._pair_dist  # built first, as by certify_pair's check of S on V
        pair = make_crossing_free(inst, t, s)
        vp, n, k = pair.instance, inst.n, pair.crossings
        calls = []
        monkeypatch.setattr(tour_module, "pdist", lambda *a: calls.append(a) or pdist(*a))
        matrix = vp._pair_dist.matrix
        assert k > 0 and 0 < len(calls) <= k * (n + k)
        want = [[pdist(vp.norm, a, b) for b in vp.points] for a in vp.points]
        assert matrix.tobytes() == np.array(want).tobytes()


def lopsided_arb(n_edges: int, ratio: float) -> Arborescence:
    """A chain of n_edges chords (0, 1), (0, 2), ... with c(A) = ratio * w(A): far past c(A) >= 18 w(A)."""
    edges = [ArbEdge(tail=k, head=k + 1, c=ratio, w=1.0, chord=(0, k + 1)) for k in range(n_edges)]
    return Arborescence(edges=edges)


def broom(n_kids: int) -> Arborescence:
    """A handle chord (0, 1) with n_kids chords on its head: one edge with the most 2-optimality pairs."""
    edges = [ArbEdge(tail=0, head=1, c=1.0, w=1.0, chord=(0, 1))]
    edges += [ArbEdge(tail=1, head=k, c=1.0, w=1.0, chord=(1, k)) for k in range(2, n_kids + 2)]
    return Arborescence(edges=edges)


@pytest.mark.parametrize("build", [lambda m: lopsided_arb(m, 50.0), broom], ids=["chain", "broom"])
def test_checks_are_linear_in_the_edges(build):
    """10,000 edges through both checks in well under 2 s: one pass each, no walk per edge or sibling re-sum."""
    start = time.perf_counter()
    arb = build(10_000)
    ineq, lemmas = verify_combined_inequalities(arb), verify_lemma_suite(arb)
    assert time.perf_counter() - start < 2.0
    assert len(ineq.triangle) == len(arb.edges) and len(ineq.two_opt) == len(arb.edges) - 1
    assert lemmas.lemma_checks[-1].label.startswith("main")


@pytest.mark.parametrize("n_edges", [1000, 4000, 10_000])
def test_lemma_suite_takes_E_prime_once_per_l(monkeypatch, n_edges):
    """Four E' passes on the chain, one per l (2, 6, 18 and c(A)/w(A) = 50), not one more per E_r band."""
    calls = []
    monkeypatch.setattr(arb_module, "subset_E_prime", lambda arb, l: calls.append(l) or subset_E_prime(arb, l))
    cert = verify_lemma_suite(lopsided_arb(n_edges, 50.0))
    assert calls == [2.0, 6.0, 18.0, 50.0]
    assert sum(c.label.startswith("E_r") for c in cert.lemma_checks) == 12  # 0 + 1 + 3 + 8 bands


# A pair whose exterior side has one chord: S2' holds it, bounded by c(T) alone.
LONE_CHORD_POINTS = [(46, 60), (61, 36), (53, 29), (57, 0), (52, 84), (91, 33), (30, 81)]
LONE_CHORD_T = (0, 6, 4, 5, 3, 2, 1)
LONE_CHORD_S = (4, 6, 0, 2, 3, 5, 1)


class TestChecksFire:
    """Every failure branch of the certificate, fired on hand-built inputs and monkeypatched bounds."""

    def test_failed_inequalities_name_their_chords(self):
        cert = verify_combined_inequalities(lopsided_arb(2, 50.0))
        assert [(c.label, c.passed) for c in cert.triangle + cert.two_opt] == [
            ("triangle[0] chord (0, 1)", True),   # w + c(child) = 51 >= 50
            ("triangle[1] chord (0, 2)", False),
            ("2opt[0,1] chords (0, 1) (0, 2)", False),
        ]

    def test_failed_lemma_checks_name_their_chords(self):
        """A failed E', E_r, cover or A_e check names its chords; a passing one keeps its label."""
        chain = verify_lemma_suite(lopsided_arb(2, 50.0))  # E' = {(0, 1)} at every l
        failed = [c.label for c in chain.lemma_checks if not c.passed]
        assert failed == [
            "E'(l=2): c(E') <= l/2*w(A) chords (0, 1)",
            "E'(l=6): c(E') <= l/2*w(A) chords (0, 1)",
            "E'(l=18): c(E') <= l/2*w(A) chords (0, 1)",
            "A_e[0]: c(e) <= w(A_e) chord (0, 1)",
            "A_e[1]: c(e) <= w(A_e) chord (0, 2)",
            "main: |E(A)| too small for log log",
        ]
        assert "E'(l=50): c(E') <= l/2*w(A)" in [c.label for c in chain.lemma_checks if c.passed]
        # A star of four chords of c = 3, w = 1 and one of c = 0.5, w = -1: w(A) = 3, so
        # at l = 6 the four make E_r with c(E_r) = 12 > 2 w(A) and cover sum w = 4 > w(A).
        edges = [ArbEdge(tail=0, head=k, c=3.0, w=1.0, chord=(0, k)) for k in range(1, 5)]
        edges.append(ArbEdge(tail=0, head=5, c=0.5, w=-1.0, chord=(0, 5)))
        star = verify_lemma_suite(Arborescence(edges=edges))
        labels = {c.label: c.passed for c in star.lemma_checks}
        four = "chords (0, 1) (0, 2) (0, 3) (0, 4)"
        assert labels[f"E_r(l=6,i=1): c(E_r) <= 2*w(A) {four}"] is False
        assert labels[f"cover(l=6,i=1): sum w(A_e) <= w(A) {four}"] is False
        assert labels["E_r(l=18,i=2): c(E_r) <= 2*w(A)"] is True  # E_r = {(0, 5)}
        assert labels["A_e[4]: c(e) <= w(A_e) chord (0, 5)"] is False

    def test_failed_inequality_fails_the_pair(self, monkeypatch):
        monkeypatch.setattr(arb_module, "build_arborescence", lambda *a, **k: lopsided_arb(2, 50.0))
        inst, t, s = fortytwo_point_pair()
        cert = certify_pair(inst, t, s)
        assert not cert.passed
        assert [a["class"] for a in cert.arb_stats if a.get("combined_pass") is False] == [
            "S1'", "S1''", "S2'", "S2''"]
        assert "S1': triangle[1] chord (0, 2) (slack -4.900e+01)" in cert.failures
        assert "S2'': 2opt[0,1] chords (0, 1) (0, 2) (slack -9.900e+01)" in cert.failures
        assert "S1': main: |E(A)| too small for log log (slack -1.000e+00)" in cert.failures

    def test_single_chord_longer_than_the_reference_tour(self, monkeypatch):
        inst = Instance([pt(x, y) for x, y in LONE_CHORD_POINTS], PNorm(2))
        t, s = Tour(LONE_CHORD_T), Tour(LONE_CHORD_S)
        assert certify_pair(inst, t, s).passed
        # c(T) read as 1: shorter than any chord
        monkeypatch.setattr(arb_module, "tour_length",
                            lambda i, tour: 1 if tour is t else tour_length(i, tour))
        cert = certify_pair(inst, t, s)
        assert [a["note"] for a in cert.arb_stats if a["class"] == "S2'"] == ["triangle-inequality bound"]
        assert "S2': single chord (0, 2) longer than c(T)" in cert.failures
        assert not cert.passed

    def test_ratio_above_the_bound(self, monkeypatch):
        monkeypatch.setattr(arb_module, "certified_ratio_bound", lambda nprime: 0.5)
        inst, t, s = fortytwo_point_pair()
        cert = certify_pair(inst, t, s)
        assert cert.failures == [f"ratio {cert.ratio} exceeds certified bound 0.5"]
        assert not cert.passed and cert.bound == 0.5

    def test_subdivided_tour_that_lost_2_optimality(self, monkeypatch):
        inst, t, s = twelve_point_pair()
        verdicts = []

        def second_verdict_fails(i, tour, k):
            verdict = is_k_optimal(i, tour, k)
            verdicts.append(verdict)
            return verdict if len(verdicts) == 1 else verdict._replace(optimal=False)

        monkeypatch.setattr(arb_module, "is_k_optimal", second_verdict_fails)
        with pytest.raises(AssertionError, match="subdivided tour S' lost 2-optimality"):
            certify_pair(inst, t, s)
        assert len(verdicts) == 2

    @pytest.mark.parametrize("n_edges, ratio, passed", [
        (3, 18.0, True),    # the bound at |E| = 3: 12 log2(3) / log2(log2(3)) = 28.6 w(A)
        (3, 40.0, False),
        (8, 22.0, True),    # at |E| = 8: 12 * 3 / log2(3) = 22.7 w(A)
        (8, 23.0, False),
    ])
    def test_main_lemma_checked(self, n_edges, ratio, passed):
        cert = verify_lemma_suite(lopsided_arb(n_edges, ratio))
        assert cert.params["main_lemma"] == "checked"
        main = [c for c in cert.lemma_checks if c.label.startswith("main")]
        assert [(c.label, c.passed) for c in main] == [("main: c(A) <= 12*log/loglog(|E|)*w(A)", passed)]

    @pytest.mark.parametrize("n_edges", [1, 2])
    def test_main_lemma_checked_below_three_edges(self, n_edges):
        cert = verify_lemma_suite(lopsided_arb(n_edges, 18.0))
        assert cert.params["main_lemma"] == "checked"
        assert cert.lemma_checks[-1] == InequalityCheck("main: |E(A)| too small for log log", False, -1.0)


def over(rhs: float, k: float) -> float:
    """A left side past rhs by k tolerances: slack -k / (1 + k * CERT_EPS) times CERT_EPS * max(1, |lhs|, |rhs|)."""
    return rhs + k * arb_module.CERT_EPS * max(1.0, abs(rhs))


def star(cs: list, ws: list) -> Arborescence:
    """Chords (0, 1), (0, 2), ... all on the root, of the given c and w."""
    return Arborescence(edges=[ArbEdge(tail=0, head=k, c=c, w=w, chord=(0, k))
                               for k, (c, w) in enumerate(zip(cs, ws), 1)])


def passes(checks: list, prefix: str) -> bool:
    """The verdict of the one check whose label starts with prefix."""
    [check] = [c for c in checks if c.label.startswith(prefix)]
    return check.passed


def triangle_at(k, monkeypatch):
    return verify_combined_inequalities(star([over(3.0, k)], [3.0])).triangle[0].passed


def two_opt_at(k, monkeypatch):
    # 2opt[0,1]: c(e) + c(f) against w(e) plus the other child chords, here none: w(e) = 5.
    arb = Arborescence(edges=[ArbEdge(tail=0, head=1, c=over(5.0, k) - 1.0, w=5.0, chord=(0, 1)),
                              ArbEdge(tail=1, head=2, c=1.0, w=1.0, chord=(1, 2))])
    return verify_combined_inequalities(arb).two_opt[0].passed


def e_prime_at(k, monkeypatch):
    # At l = 2 edge 0 (c < 2 c(child)) is E', and its c is l/2 w(A) = 3.
    arb = Arborescence(edges=[ArbEdge(tail=0, head=1, c=over(3.0, k), w=2.0, chord=(0, 1)),
                              ArbEdge(tail=1, head=2, c=10.0, w=1.0, chord=(1, 2))])
    return passes(verify_lemma_suite(arb).lemma_checks, "E'(l=2)")


def e_r_at(k, monkeypatch):
    # w(A) = 3; at l = 6, i = 1 the band (2, 3] holds all three chords, which sum to 2 w(A) = 6.
    return passes(verify_lemma_suite(star([over(6.0, k) / 3] * 3, [1.0] * 3)).lemma_checks, "E_r(l=6,i=1)")


def cover_at(k, monkeypatch):
    # Three band chords of w = 1 cover w = 3; a fourth chord of c = 0 and w = -3k CERT_EPS lowers w(A) below 3.
    arb = star([2.5] * 3 + [0.0], [1.0] * 3 + [-3 * k * arb_module.CERT_EPS])
    return passes(verify_lemma_suite(arb).lemma_checks, "cover(l=6,i=1)")


def a_e_at(k, monkeypatch):
    return passes(verify_lemma_suite(star([over(2.0, k)], [2.0])).lemma_checks, "A_e[0]")


def main_at(k, monkeypatch):
    # |E| = 4, w(A) = 4: the bound is 12 * 2 / 1 * 4 = 96, and c(A) >= 18 w(A) makes it apply.
    return passes(verify_lemma_suite(star([over(96.0, k) / 4] * 4, [1.0] * 4)).lemma_checks, "main")


def single_chord_at(k, monkeypatch):
    inst = Instance([pt(x, y) for x, y in LONE_CHORD_POINTS], PNorm(2))
    t, s = Tour(LONE_CHORD_T), Tour(LONE_CHORD_S)
    [chord] = [a["c_total"] for a in certify_pair(inst, t, s).arb_stats if a["class"] == "S2'"]
    monkeypatch.setattr(arb_module, "tour_length",
                        lambda i, tour: chord / (1 + k * arb_module.CERT_EPS) if tour is t else tour_length(i, tour))
    return "S2': single chord (0, 2) longer than c(T)" not in certify_pair(inst, t, s).failures


def ratio_at(k, monkeypatch):
    inst, t, s = fortytwo_point_pair()
    ratio = certify_pair(inst, t, s).ratio
    monkeypatch.setattr(arb_module, "certified_ratio_bound", lambda nprime: ratio / (1 + k * arb_module.CERT_EPS))
    return certify_pair(inst, t, s).passed


@pytest.mark.parametrize("kind", [triangle_at, two_opt_at, e_prime_at, e_r_at, cover_at, a_e_at, main_at,
                                  single_chord_at, ratio_at], ids=lambda f: f.__name__[:-3])
def test_every_inequality_passes_within_one_tolerance(kind, monkeypatch):
    """lhs <= rhs passes within CERT_EPS * max(1, |lhs|, |rhs|): half a tolerance over passes, two fail.

    E_r's tolerance scales with its right side 2 w(A), and the ratio's with
    max(1, ratio, bound), as every other check's does.
    """
    assert kind(0.5, monkeypatch)
    assert not kind(2.0, monkeypatch)
