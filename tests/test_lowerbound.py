import io
import itertools
from decimal import Decimal, localcontext

import numpy as np
import pytest

from kopt_lab import geometry, lowerbound, tsplib
from kopt_lab import tour as tour_module
from kopt_lab.geometry import PNorm
from kopt_lab.lowerbound import (
    _scan_2opt,
    build_lb_tour,
    doubled_spanning_tree_tour,
    estimate_inequality,
    estimate_scan,
    generate_3d_instance,
    generate_lb_instance,
    layer_offset,
    lb_tour_edges,
    lb_tour_length_exact,
    scan_2opt_optimality,
)
from kopt_lab.tour import (
    MATRIX_SCAN_MAX_N,
    Instance,
    Tour,
    find_improving_2move,
    is_k_optimal,
    tour_length,
    two_opt,
)

from memory import traced
from reference_lowerbound import cycle_from_edges, three_d_tours
from reference_scan import reference_best_2move, reference_first_2move


@pytest.fixture(scope="module")
def lb3():
    return generate_lb_instance(2, 1, 3)


class TestLayeredGenerator:
    def test_layer_offsets(self):
        assert [layer_offset(i, 3, 1) for i in (0, 1, 2, 3)] == [0, 243, 270, 273]

    def test_group_sizes(self, lb3):
        assert lb3.groups == (824, 824, 728, 540)
        assert lb3.n == 2916

    def test_points_are_distinct(self, lb3):
        pts = lb3.as_instance().points
        assert len(set(pts)) == len(pts)

    def test_a_point_count_off_the_closed_form_is_refused(self, monkeypatch):
        sizes = lowerbound.layered_sizes(1, 3)
        monkeypatch.setattr(lowerbound, "layered_sizes", lambda p, q: sizes._replace(n=sizes.n + 1))
        with pytest.raises(AssertionError, match="point count 2916 != formula value 2917"):
            generate_lb_instance(2, 1, 3)

    def test_k_does_not_change_geometry(self):
        a = generate_lb_instance(2, 1, 3)
        b = generate_lb_instance(5, 1, 3)
        assert a.xs.tolist() == b.xs.tolist() and a.ys.tolist() == b.ys.tolist()

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            generate_lb_instance(2, 1, 4)

    @pytest.mark.parametrize("call, message", [
        (lambda: layer_offset(-1, 3, 1), r"layer index -1 out of range 0\.\.3"),
        (lambda: layer_offset(4, 3, 1), r"layer index 4 out of range 0\.\.3"),
        (lambda: generate_lb_instance(2, 0, 3), "p must be >= 1"),
        (lambda: generate_lb_instance(1, 1, 3), "k must be >= 2"),
    ], ids=["layer-below", "layer-above", "p-below-1", "k-below-2"])
    def test_parameters_out_of_range_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_p2_instance_also_wellformed(self):
        lb = generate_lb_instance(2, 2, 3)
        assert lb.n == len(set(lb.as_instance().points))
        assert lb.as_instance().norm == PNorm(2)


class TestHandBuiltTour:
    def test_is_hamiltonian_cycle(self, lb3):
        tour = build_lb_tour(lb3)
        tour.validate(lb3.as_instance())

    def test_exact_length(self, lb3):
        assert lb_tour_length_exact(lb3) == 7836

    def test_length_matches_generic_evaluation(self, lb3):
        inst = lb3.as_instance()
        tour = build_lb_tour(lb3)
        assert tour_length(inst, tour) == 7836

    def test_length_dominates_layer_width_times_q(self, lb3):
        # length >= q * q^((p+1)q) = 3 * 729
        assert lb_tour_length_exact(lb3) >= 2187

    def test_edge_groups_cover_every_vertex_twice(self, lb3):
        order, _, _ = lb_tour_edges(lb3)
        degree = (np.bincount(order, minlength=lb3.n)
                  + np.bincount(np.roll(order, -1), minlength=lb3.n))
        assert len(degree) == lb3.n
        assert set(degree.tolist()) == {2}

    def test_walk_arrays_follow_the_tour(self, lb3):
        order, wx, wy = lb_tour_edges(lb3)
        assert tuple(order.tolist()) == build_lb_tour(lb3).order
        assert wx.dtype == wy.dtype == np.int64
        assert (wx.tolist(), wy.tolist()) == (lb3.xs[order].tolist(), lb3.ys[order].tolist())


class TestCycleFromEdges:
    def test_degree_three_rejected(self):
        with pytest.raises(AssertionError, match="vertex 0 has degree 3"):
            cycle_from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])

    def test_two_disjoint_triangles_rejected(self):
        with pytest.raises(AssertionError, match="single Hamiltonian cycle"):
            cycle_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


class TestSpanningTreeBound:
    def test_tree_and_doubled_lengths(self, lb3):
        tree, doubled = doubled_spanning_tree_tour(lb3)
        assert tree == 4191
        assert doubled == 8382

    def test_closed_form_caps(self, lb3):
        tree, doubled = doubled_spanning_tree_tour(lb3)
        width = 3 ** 6
        assert tree <= 7 * width == 5103
        assert doubled <= 14 * width == 10206

    def test_a_tree_above_seven_widths_is_refused(self, lb3, monkeypatch):
        sizes = lowerbound.layered_sizes(1, 3)
        monkeypatch.setattr(lowerbound, "layered_sizes", lambda p, q: sizes._replace(tree=7 * 3**6 + 1))
        with pytest.raises(AssertionError, match=r"tree length 5104 exceeds 7\*q\^\(\(p\+1\)q\) = 5103"):
            doubled_spanning_tree_tour(lb3)

    def test_gap_certificate(self, lb3):
        # the hand-built tour is longer than the doubled-tree upper bound on
        # the optimum by a factor that grows with q; at q=3 the optimum is
        # provably <= 10206 while the tour has length 7836 >= 2187 = q * width
        length = lb_tour_length_exact(lb3)
        _, doubled = doubled_spanning_tree_tour(lb3)
        assert length / doubled >= 3 / 14


class TestEstimate:
    def test_zero_case(self):
        assert estimate_inequality(0, 0, 2, 1, 3, 0)

    def test_worked_margin(self):
        # at a=b=2, k=2, p=1, q=3, s=0 the two sides differ by exactly 81
        p, q, s = 1, 3, 0
        lhs = (2 * q ** ((p + 1) * (q - s))) ** p + q ** (p * ((p + 1) * (q - s) - 1))
        rhs = (2 * q ** ((p + 1) * (q - s)) + 2 * q ** ((p + 1) * (q - s - 1))) ** p
        assert lhs - rhs == 81
        assert estimate_inequality(2, 2, 2, p, q, s)

    @pytest.mark.parametrize("a, b, s, message", [
        (-1, 0, 0, "need 0 <= a, b <= k"),
        (3, 0, 0, "need 0 <= a, b <= k"),
        (0, 3, 0, "need 0 <= a, b <= k"),
        (0, 0, -1, "need 0 <= s < q"),
        (0, 0, 3, "need 0 <= s < q"),
    ], ids=["a-below", "a-above", "b-above", "s-below", "s-at-q"])
    def test_arguments_out_of_range_rejected(self, a, b, s, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_inequality(a, b, 2, 1, 3, s)

    def test_non_integer_p_agrees_with_60_digit_decimals(self):
        verdicts = set()
        with localcontext() as ctx:
            ctx.prec = 60
            for p, q, k in itertools.product((1.5, 2.5), (3, 5, 7), (2, 3)):
                dp, dq = Decimal(str(p)), Decimal(q)
                for a, b, s in itertools.product(range(k + 1), range(k + 1), range(q)):
                    e = (dp + 1) * (q - s)
                    qe = dq ** e
                    lhs = (a * qe) ** dp + dq ** (dp * (e - 1))
                    rhs = (a * qe + b * dq ** (e - (dp + 1))) ** dp
                    # No case lies near a tie, where float rounding could decide.
                    assert abs(lhs - rhs) > Decimal("1e-12") * rhs
                    assert estimate_inequality(a, b, k, p, q, s) == (lhs > rhs), (a, b, k, p, q, s)
                    verdicts.add(lhs > rhs)
        assert verdicts == {True, False}

    def test_scan_threshold_grows_with_p(self):
        # the inequality only holds for q large enough; the threshold depends
        # on the norm exponent
        def smallest_q(p):
            return next(q for q in range(3, 41, 2) if estimate_scan(2, p, q))

        assert smallest_q(1) == 3
        assert smallest_q(2) == 9
        assert smallest_q(3) == 25


class TestBigScan:
    def test_agrees_with_reference_search(self, lb3):
        inst = lb3.as_instance()
        tour = build_lb_tour(lb3)
        report = scan_2opt_optimality(inst, tour)
        assert report.n == 2916
        move = reference_first_2move(inst, tour)
        assert report.two_optimal == (move is None)

    def test_detects_improvable_tour(self, lb3):
        inst = lb3.as_instance()
        tour = build_lb_tour(lb3)
        # reversing an interior block creates crossings the scan must find
        o = list(tour.order)
        o[100:200] = reversed(o[100:200])
        planted = Tour(tuple(o))
        report = scan_2opt_optimality(inst, planted)
        assert not report.two_optimal
        assert report.witness is not None
        assert report.best_gain > 0
        assert find_improving_2move(inst, planted) == reference_first_2move(inst, planted)


    def test_pins_the_1_3_verdicts(self, lb3):
        inst, tour = lb3.as_instance(), build_lb_tour(lb3)
        report = scan_2opt_optimality(inst, tour)
        assert (report.n, report.pairs_scanned) == (2916, 4_247_154)
        assert report.two_optimal and report.witness is None
        assert report.best_gain == -2 and type(report.best_gain) is int
        assert is_k_optimal(inst, tour, 2) == (True, None)


def test_pins_the_2_3_verdict():
    """(p, q) = (2, 3): 74,190 points, 2.75 * 10^9 pairs, at a q where `estimate_scan` fails.

    A dense blockwise scan of every pair in the engine's float arithmetic
    gave the same verdict, margin and pair.
    """
    assert not estimate_scan(2, 2, 3)
    lb = generate_lb_instance(2, 2, 3)
    inst, tour = lb.as_instance(), build_lb_tour(lb)
    report = scan_2opt_optimality(inst, tour)
    assert (report.n, report.pairs_scanned) == (74_190, 2_751_966_765)
    assert report.two_optimal and report.witness is None
    assert report.best_gain == -1.000045086630854 and type(report.best_gain) is float
    assert tour_module._best_2move(inst, tour)[0][:2] == (0, 74_188)
    # The grid index's candidate sets, pinned: the gains of 325,740 pairs are computed.
    assert _scan_2opt(inst, tour)[1] == 325_740


def test_the_family_path_reads_only_the_ring(lb3, no_tuple_build):
    """(1, 3): the hand-built tour, its TSPLIB round trip, both verdicts and the length never build its tuple."""
    inst, tour = lb3.as_instance(), build_lb_tour(lb3)
    buf = io.StringIO()
    tsplib.write_tour(buf, tour)
    back = tsplib.read_tour(io.StringIO(buf.getvalue()))
    assert back == tour and back.n == tour.n == 2916
    assert scan_2opt_optimality(inst, back).two_optimal and is_k_optimal(inst, back, 2).optimal
    assert tour_length(inst, back) == tour_length(inst, tour) == 7836


def two_rows(m, p):
    """2m + 1 points, x = 0..m on the row y = 0 and x = 0..m-1 on y = 1, and a tour.

    The tour runs along row 0 and back along row 1.  Under the 1-norm it is
    optimal, since its length 2(m + 1) is the bounding box's perimeter.
    """
    xs, ys = list(range(m + 1)) + list(range(m)), [0] * (m + 1) + [1] * m
    order = tuple(range(m + 1)) + tuple(range(2 * m, m, -1))
    return Instance.from_xy(xs, ys, PNorm(p)), Tour(order)


class TestScanSizeCap:
    """The n x n matrix scan stops at MATRIX_SCAN_MAX_N; the O(n) coordinate and index paths do not."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_coordinate_scan_runs_past_the_matrix_cap(self, p):
        inst, tour = two_rows(10_000, p)
        assert inst.n == MATRIX_SCAN_MAX_N + 1
        report, _, peak = traced(lambda: scan_2opt_optimality(inst, tour))
        assert report.pairs_scanned == inst.n * (inst.n - 3) // 2
        assert report.two_optimal and report.witness is None
        # The best pair is the one a small copy of the family has, against the reference.
        small, small_tour = two_rows(20, p)
        want = reference_best_2move(small, small_tour).gain
        assert report.best_gain == want and type(report.best_gain) is type(want)
        # One n x n int16 array would be 800 MB, a float64 one 3.2 GB.
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("run", [
        scan_2opt_optimality,
        lambda inst, tour: is_k_optimal(inst, tour, 2),
        two_opt,
    ], ids=["scan_2opt_optimality", "is_k_optimal", "two_opt"])
    def test_matrix_scan_cap_is_checked_before_any_distance(self, run, monkeypatch):
        """Every dense scan of a matrix instance refuses it in `Instance._pair_dist`, before allocating."""
        inst, tour = two_rows(10_000, 3)
        real, calls = geometry.pdist, []

        def counting_pdist(*args):
            calls.append(args)
            return real(*args)

        for module in (geometry, tour_module):  # every namespace that binds it
            monkeypatch.setattr(module, "pdist", counting_pdist)
        with pytest.raises(ValueError, match=f"limited to n <= {MATRIX_SCAN_MAX_N}"):
            run(inst, tour)
        assert calls == [] and "_pair_dist" not in vars(inst)


class TestThreeDFamily:
    def test_point_count(self):
        assert generate_3d_instance(8).as_instance().n == 32

    def test_all_tour_edges_unit_length(self):
        g = generate_3d_instance(8)
        inst = g.as_instance()
        for tour in (g.tour_t, g.tour_s):
            for a, b in tour.edges():
                assert float(inst.dist(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_both_tours_2_optimal(self):
        g = generate_3d_instance(4)
        inst = g.as_instance()
        assert is_k_optimal(inst, g.tour_t, 2).optimal
        assert is_k_optimal(inst, g.tour_s, 2).optimal

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            generate_3d_instance(3)

    @pytest.mark.parametrize("k", [2, 4, 8, 20])
    def test_tours_are_the_walks_of_their_edge_lists(self, k):
        g = generate_3d_instance(k)
        assert (g.tour_t, g.tour_s) == three_d_tours(k)
