"""The array-built layered family against the loop-built oracle, its checks, and its memory."""

import numpy as np
import pytest

import reference_lowerbound as ref
from kopt_lab import lowerbound
from kopt_lab.geometry import Point
from kopt_lab.lowerbound import (
    MAX_LAYERED_N,
    build_lb_tour,
    doubled_spanning_tree_tour,
    generate_lb_instance,
    layered_sizes,
    lb_tour_length_exact,
)
from kopt_lab.tour import _BLOCK_CELLS, tour_length
from memory import traced

FAMILIES = [(1, 3), (2, 3)]


@pytest.fixture(scope="module", params=[(k, p, q) for p, q in FAMILIES for k in (2, 5)],
                ids=lambda kpq: "k{}-p{}-q{}".format(*kpq))
def pair(request):
    return generate_lb_instance(*request.param), ref.generate_lb_instance(*request.param)


class TestAgainstOracle:
    def test_points(self, pair):
        lb, want = pair
        assert list(zip(lb.xs.tolist(), lb.ys.tolist())) == want.all_points()
        assert lb.groups == (len(want.v1), len(want.v2), len(want.v3), len(want.v4))
        points = lb.as_instance().points
        assert points == want.all_points()
        assert {type(p) for p in points} == {Point}
        assert {type(c) for p in points for c in p} == {int}
        assert (points[-1].x, points[-1].y) == (lb.xs[-1], lb.ys[-1])

    def test_tour_order(self, pair):
        lb, want = pair
        assert build_lb_tour(lb) == ref.build_lb_tour(want)

    def test_tour_length(self, pair):
        lb, want = pair
        length = lb_tour_length_exact(lb)
        assert length == ref.lb_tour_length_exact(want)
        assert type(length) is int

    def test_spanning_tree(self, pair):
        lb, want = pair
        got = doubled_spanning_tree_tour(lb)
        assert got == ref.doubled_spanning_tree_tour(want)
        assert {type(v) for v in got} == {int}


class TestClosedForms:
    @pytest.mark.parametrize("p,q", FAMILIES)
    def test_match_enumeration(self, p, q):
        want = ref.generate_lb_instance(2, p, q)
        assert layered_sizes(p, q) == (
            want.n, ref.lb_tour_length_exact(want), ref.doubled_spanning_tree_tour(want)[0])

    def test_sizes_at_3_3_and_the_limit(self):
        # (3, 3) matched the oracle once; building it takes seconds, so only its sizes are pinned.
        assert layered_sizes(3, 3) == (1_966_332, 5_673_132, 3_015_927)
        assert layered_sizes(3, 3).n <= MAX_LAYERED_N < layered_sizes(1, 5).n


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the size guard")


class TestSizeGuard:
    @pytest.mark.parametrize("p,q", [(1, 9), (1, 5), (4, 3), (10**9, 3), (1, 99999)])
    def test_rejects_before_allocating(self, monkeypatch, p, q):
        monkeypatch.setattr(lowerbound, "np", _NoArrays())
        with pytest.raises(ValueError, match=r"has n [=>] \S+ points, above the limit of 2097152"):
            generate_lb_instance(2, p, q)

    def test_names_n(self):
        with pytest.raises(ValueError, match=f"n = {layered_sizes(1, 9).n} points"):
            generate_lb_instance(2, 1, 9)


@pytest.fixture()
def lb3():
    return generate_lb_instance(2, 1, 3)


class TestChecksFail:
    def test_repeated_vertex(self, monkeypatch, lb3):
        order = lowerbound._walk_order(lb3)
        order[7] = order[8]
        monkeypatch.setattr(lowerbound, "_walk_order", lambda lb: order)
        with pytest.raises(AssertionError, match="not a permutation"):
            build_lb_tour(lb3)

    def test_non_axis_parallel_step(self, monkeypatch, lb3):
        order = lowerbound._walk_order(lb3)
        order[[1, 500]] = order[[500, 1]]
        monkeypatch.setattr(lowerbound, "_walk_order", lambda lb: order)
        with pytest.raises(AssertionError, match="tour edge 0 from vertex 0 is not axis-parallel"):
            build_lb_tour(lb3)

    def test_length_off_closed_form(self, lb3):
        # Raising the whole top layer by one keeps every edge axis-parallel
        # and lengthens the two connectors that reach it.
        lb3.ys[lb3.ys == lb3.ys.max()] += 1
        with pytest.raises(AssertionError, match=r"tour length 7838 != closed form c\(S\) = 7836"):
            build_lb_tour(lb3)

    def test_vertex_off_every_tree_column(self, lb3):
        v = sum(lb3.groups[:3])  # first connector vertex, on the column x = 0
        assert (lb3.xs[v], lb3.ys[v]) == (0, 1)
        lb3.xs[v] = 1
        with pytest.raises(AssertionError, match=f"does not cover vertex {v} at \\(1, 1\\)"):
            doubled_spanning_tree_tour(lb3)
        lb3.xs[v] = 0
        assert doubled_spanning_tree_tour(lb3) == (4191, 8382)

    def test_vertex_off_the_tree_in_a_later_block(self):
        lb = generate_lb_instance(2, 2, 3)
        v = lb.n - 1  # the last connector vertex, in the coverage check's third block
        assert v // _BLOCK_CELLS == 2 and lb.ys[v] < lb.ys.max()
        lb.xs[v] += 1
        with pytest.raises(AssertionError, match=f"does not cover vertex {v} at \\({lb.xs[v]}, {lb.ys[v]}\\)"):
            doubled_spanning_tree_tour(lb)


def test_step_lengths_are_computed_in_place():
    walk = np.array([3, 7, 7, -2, 0])
    steps = lowerbound._step_lengths(walk)
    assert steps is walk and steps.tolist() == [4, 0, 9, 2, 3]


def test_no_stage_holds_more_than_32_bytes_a_vertex():
    """(2, 3), 74,190 points: each stage of the family pass, traced alone, peaks at most 32 bytes a vertex above what it keeps.

    Each pass gathers one axis at a time, differences in place and checks
    in blocks.  Before, `build_lb_tour` and `lb_tour_length_exact` rose 41
    and 48 bytes a vertex above what they kept, on `np.roll` copies and
    both axes' walks held at once.
    """
    got = {}
    stages = {
        "generate_lb_instance": lambda: generate_lb_instance(2, 2, 3),
        "build_lb_tour": lambda: build_lb_tour(got["generate_lb_instance"]),
        "lb_tour_length_exact": lambda: lb_tour_length_exact(got["generate_lb_instance"]),
        "as_instance": lambda: got["generate_lb_instance"].as_instance(),
        "tour_length": lambda: tour_length(got["as_instance"], got["build_lb_tour"]),
        "doubled_spanning_tree_tour": lambda: doubled_spanning_tree_tour(got["generate_lb_instance"]),
    }
    above = {}
    for name, stage in stages.items():
        got[name], kept, peak = traced(stage)
        above[name] = peak - kept
    n = got["generate_lb_instance"].n
    assert (got["lb_tour_length_exact"], got["tour_length"]) == (210456, 210456.0)
    assert got["doubled_spanning_tree_tour"] == (112041, 224082)
    assert max(above.values()) <= 32 * n, {name: b / n for name, b in above.items()}
