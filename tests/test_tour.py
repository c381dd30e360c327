import copy
import functools
import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import crossing
from kopt_lab import tour as tour_module
from kopt_lab.geometry import PNorm, Point3, pt
from kopt_lab.lowerbound import scan_2opt_optimality
from kopt_lab.tour import (
    Instance,
    Tour,
    TwoMove,
    apply_2move,
    exact_opt,
    find_improving_2move,
    is_k_optimal,
    is_simple,
    tour_length,
    two_opt,
)

from planar_helpers import is_degenerate
from reference_held_karp import brute_force_check
from worked_examples import TWELVE_CROSSINGS, twelve_point_pair


def rand_instance(rng, n, grid=100, p=2):
    seen = set()
    pts = []
    while len(pts) < n:
        c = (rng.randint(0, grid), rng.randint(0, grid))
        if c not in seen:
            seen.add(c)
            pts.append(pt(*c))
    return Instance(pts, PNorm(p))


# Each makes a permutation o of an instance's vertices into a tour that is not one.
BAD_TOURS = {
    "short": lambda o: o[:-1],
    "repeated": lambda o: o[:-1] + o[:1],
    "too-large": lambda o: o[:-1] + (len(o),),
    "huge": lambda o: o[:-1] + (2**40,),  # more bins than memory: no count is made
    "negative": lambda o: (-1,) + o[1:],
    "float": lambda o: (0, 1.0) + o[2:],  # equal to an int, but no index
    "Fraction": lambda o: (0, Fraction(1)) + o[2:],
    "empty": lambda o: (),
}


# The BAD_TOURS whose entries fit an int64 array, made into one; and a float64 array of the permutation.
BAD_ARRAYS = {
    **{bad: lambda o, bad=bad: np.array(BAD_TOURS[bad](o), dtype=np.int64)
       for bad in ("short", "repeated", "too-large", "huge", "negative", "empty")},
    "float64": lambda o: np.array(o, dtype=np.float64),
}

# Every entry point that takes a tour, each checking it by `Tour.validate`.
ENTRIES = {
    "find_improving_2move": find_improving_2move,
    "two_opt": two_opt,
    "tour_length": tour_length,
    "is_simple": is_simple,
    "is_k_optimal-2": lambda inst, t: is_k_optimal(inst, t, 2),
    "is_k_optimal-3": lambda inst, t: is_k_optimal(inst, t, 3),
    "scan_2opt_optimality": scan_2opt_optimality,
}


@functools.cache
def bad_tour_instances() -> tuple:
    """Eight points under p = 1, 2 and 3, and 200 points whose verdicts take the grid index."""
    big = rand_instance(random.Random(9), 200, grid=10**6)
    assert tour_module._indexed_scan(big)
    return (*(rand_instance(random.Random(8), 8, p=p) for p in (1, 2, 3)), big)


class TestInstance:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            Instance([pt(0, 0), pt(0, 0), pt(1, 1)], PNorm(2))

    def test_exact_flag(self):
        assert Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(1)).exact
        assert not Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(2)).exact

    @pytest.mark.parametrize("p", [1, 3, 1.5])
    def test_3d_needs_the_euclidean_norm(self, p):
        with pytest.raises(ValueError, match="3-D instances support the Euclidean norm only"):
            Instance([Point3(0, 0, 0), Point3(1, 2, 2), Point3(3, 0, 1)], PNorm(p))

    def test_tour_validation(self):
        inst = Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(2))
        with pytest.raises(ValueError):
            Tour((0, 1)).validate(inst)
        with pytest.raises(ValueError):
            Tour((0, 1, 1)).validate(inst)

    @pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
    @pytest.mark.parametrize("bad", list(BAD_TOURS))
    def test_non_integer_entries_rejected(self, entry, bad):
        """Every entry point rejects every tour that is not a permutation, on every kind of instance.

        The one permutation check, `Tour.validate`, serves them all: under
        p = 1 and p = 2 (the coordinate paths), p = 3 (the `dist` fold of
        `tour_length`) and on an instance whose verdicts take the grid
        index.  The empty tour is a permutation of the empty instance's
        vertices: accepted, with one answer under every norm.
        """
        for inst in bad_tour_instances():
            t = Tour(BAD_TOURS[bad](tuple(range(inst.n))))
            with pytest.raises(ValueError, match="not a permutation"):
                entry(inst, t)
        if bad == "empty":
            answers = [entry(Instance([], PNorm(p)), Tour(())) for p in (1, 2, 3)]
            assert answers == [answers[0]] * 3


class TestArrayBornTours:
    """A tour built from an ndarray keeps a read-only ring; it checks and answers as the tuple-born tour does."""

    @pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
    @pytest.mark.parametrize("bad", list(BAD_ARRAYS))
    def test_bad_arrays_rejected(self, entry, bad):
        """Constructing takes every array; every entry point's check rejects each one that is no permutation."""
        for inst in bad_tour_instances():
            t = Tour(BAD_ARRAYS[bad](tuple(range(inst.n))))
            with pytest.raises(ValueError, match="not a permutation"):
                entry(inst, t)
        if bad == "empty":
            want = entry(Instance([], PNorm(1)), Tour(()))
            assert [entry(Instance([], PNorm(p)), Tour(np.empty(0, np.int64))) for p in (1, 2, 3)] == [want] * 3

    @pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
    def test_answers_as_the_tuple_born_tour(self, entry):
        rng = random.Random(4)
        for inst in bad_tour_instances()[:3]:
            order = tuple(rng.sample(range(inst.n), inst.n))
            assert entry(inst, Tour(np.array(order))) == entry(inst, Tour(order))

    def test_equal_across_forms(self):
        a, t = Tour(np.arange(3)), Tour((0, 1, 2))
        assert a == t and t == a and hash(a) == hash(t)
        assert Tour(np.array([0, 2, 1], dtype=np.int32)) == Tour([0, 2, 1]) == Tour(np.array([0, 2, 1]))
        assert a != Tour((0, 2, 1)) and a != Tour(np.arange(4)) and a != (0, 1, 2)
        assert len({a, t, Tour(np.arange(3)), Tour((0, 2, 1))}) == 2
        assert Tour(np.empty(0, np.int64)) == Tour(()) and Tour(np.empty(0, np.int64)).n == 0

    def test_order_holds_ints(self):
        t = Tour(np.array([2, 0, 1], dtype=np.int64))
        assert t.n == 3 and t.order == (2, 0, 1) and {type(v) for v in t.order} == {int}
        assert t.edges() == [(2, 0), (0, 1), (1, 2)] and {type(v) for e in t.edges() for v in e} == {int}

    def test_ring_is_read_only_and_the_callers_array_is_copied(self):
        inst = rand_instance(random.Random(3), 5)
        given = np.array([4, 2, 0, 1, 3])
        t = Tour(given)
        given[:] = 0
        ring = t.validate(inst)
        assert ring.tolist() == [4, 2, 0, 1, 3, 4] and not ring.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ring[0] = 1
        assert t.order == (4, 2, 0, 1, 3)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("order", [(4, 2, 0, 1, 3), np.array([4, 2, 0, 1, 3])], ids=["tuple", "array"])
    def test_a_copy_is_equal_with_a_read_only_ring(self, duplicate, order):
        inst = rand_instance(random.Random(3), 5)
        t = Tour(order)
        t.validate(inst)
        got = duplicate(t)
        assert got == t and not got.validate(inst).flags.writeable

    def test_a_tuple_born_tour_keeps_its_ring(self):
        inst = rand_instance(random.Random(3), 5)
        t = Tour((4, 2, 0, 1, 3))
        ring = t.validate(inst)
        assert t.validate(inst) is ring and not ring.flags.writeable
        with pytest.raises(ValueError, match="not a permutation"):
            t.validate(rand_instance(random.Random(3), 6))  # the count is made on every call

    def test_repr_names_the_entries_in_either_form(self):
        assert repr(Tour((2, 0, 1))) == repr(Tour(np.array([2, 0, 1]))) == "Tour(order=(2, 0, 1))"
        assert repr(Tour(())) == repr(Tour(np.empty(0, np.int64))) == "Tour(order=())"

    def test_immutable(self):
        t = Tour(np.arange(3))
        with pytest.raises(AttributeError):
            t.order = (0, 2, 1)
        with pytest.raises(AttributeError):
            t.name = "t"
        with pytest.raises(AttributeError):
            t.missing


class TestTwoOpt:
    def crossed_square(self):
        inst = Instance([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)], PNorm(2))
        return inst, Tour((0, 2, 1, 3))

    def test_uncrosses_square(self):
        inst, t = self.crossed_square()
        out = two_opt(inst, t)
        assert tour_length(inst, out) == pytest.approx(8.0)
        assert is_k_optimal(inst, out, 2).optimal

    def test_move_gain_matches_length_delta(self):
        rng = random.Random(11)
        inst = rand_instance(rng, 10)
        t = Tour(tuple(rng.sample(range(10), 10)))
        m = find_improving_2move(inst, t)
        assert m is not None
        before = tour_length(inst, t)
        after = tour_length(inst, apply_2move(t, m))
        assert before - after == pytest.approx(m.gain, rel=1e-9)

    @pytest.mark.parametrize("i, j", [(3, 4), (0, 9), (5, 5), (6, 2), (2, 10), (4, 12)],
                             ids=["adjacent", "wrap", "i-eq-j", "i-gt-j", "j-eq-n", "j-gt-n"])
    def test_apply_2move_rejects_invalid_positions(self, i, j):
        with pytest.raises(ValueError, match=rf"invalid 2-move positions \({i}, {j}\) for tour of size 10"):
            apply_2move(Tour(tuple(range(10))), TwoMove(i, j, 1.0))

    def test_local_optimum_has_no_witness(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = rand_instance(rng, 9)
            out = two_opt(inst, Tour(tuple(range(9))))
            assert find_improving_2move(inst, out) is None

    def test_adjacent_edges_never_selected(self):
        # adjacent tour edges share a vertex; swapping them is a no-op
        inst = Instance([pt(0, 0), pt(5, 0), pt(5, 5), pt(0, 5)], PNorm(2))
        assert find_improving_2move(inst, Tour((0, 1, 2, 3))) is None

    def test_exact_instance_uses_zero_threshold(self):
        # p=1 integer instance: a gain of exactly 0 is not improving
        inst = Instance([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)], PNorm(1))
        for perm in itertools.permutations(range(1, 4)):
            t = two_opt(inst, Tour((0,) + perm))
            assert find_improving_2move(inst, t) is None


class TestThreeOpt:
    def test_two_optimal_but_not_three_optimal(self):
        # hand-built: segment reversal cannot fix this tour, a 3-move can
        rng = random.Random(1)
        found = False
        for _ in range(200):
            inst = rand_instance(rng, 10)
            t = two_opt(inst, Tour(tuple(rng.sample(range(10), 10))))
            v3 = is_k_optimal(inst, t, 3)
            if not v3.optimal:
                found = True
                _, better = v3.witness
                assert tour_length(inst, better) < tour_length(inst, t)
                break
        assert found

    def test_three_move_witness_is_valid_tour(self):
        rng = random.Random(3)
        inst = rand_instance(rng, 8)
        t = Tour(tuple(rng.sample(range(8), 8)))
        v = is_k_optimal(inst, t, 3)
        if not v.optimal:
            _, better = v.witness
            better.validate(inst)

    def test_unsupported_k(self):
        inst = Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(2))
        with pytest.raises(ValueError):
            is_k_optimal(inst, Tour((0, 1, 2)), 4)


class TestExactOpt:
    def test_square(self):
        inst = Instance([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)], PNorm(2))
        t, length = brute_force_check(inst)
        assert length == pytest.approx(8.0)

    def test_matches_brute_force_on_random(self):
        rng = random.Random(17)
        for _ in range(5):
            inst = rand_instance(rng, 8)
            brute_force_check(inst)  # raises on disagreement

    def test_size_limit(self):
        rng = random.Random(2)
        inst = rand_instance(rng, 19, grid=1000)
        with pytest.raises(ValueError):
            exact_opt(inst)

    def test_optimum_is_2_and_3_optimal(self):
        rng = random.Random(23)
        inst = rand_instance(rng, 9)
        t, _ = exact_opt(inst)
        assert is_k_optimal(inst, t, 2).optimal
        assert is_k_optimal(inst, t, 3).optimal


class TestSimpleAndDegenerate:
    def test_crossing_tour_is_not_simple(self):
        inst = Instance([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)], PNorm(2))
        v = is_simple(inst, Tour((0, 2, 1, 3)))
        assert not v.simple
        assert v.witness is not None

    def test_two_optimal_tours_are_simple(self):
        rng = random.Random(29)
        for _ in range(10):
            inst = rand_instance(rng, 10)
            if is_degenerate(inst):
                continue
            t = two_opt(inst, Tour(tuple(rng.sample(range(10), 10))))
            assert is_simple(inst, t).simple

    def test_one_filter_pass_per_call(self, monkeypatch):
        """`is_simple` and `find_crossings` each make one orientation-sign pass.

        `find_crossings` reads both simplicity verdicts and the T x S
        candidates from one pass over T's edges followed by S's, whether or
        not the tours cross.
        """
        calls = []
        counted = tour_module._candidate_pairs

        def counting(*args):
            calls.append(len(args) - 1)  # the number of rings
            return counted(*args)

        monkeypatch.setattr(tour_module, "_candidate_pairs", counting)
        monkeypatch.setattr(crossing, "_candidate_pairs", counting)
        inst, t, s = twelve_point_pair()
        assert is_simple(inst, t).simple
        assert calls == [1]
        for other, crossings in ((s, TWELVE_CROSSINGS), (t, 0)):
            calls.clear()
            assert len(crossing.find_crossings(inst, t, other)) == crossings
            assert calls == [2]

    def test_degenerate_detection(self):
        line = Instance([pt(i, 2 * i) for i in range(5)], PNorm(2))
        assert is_degenerate(line)
        assert not is_degenerate(Instance([pt(0, 0), pt(1, 0), pt(0, 1)], PNorm(2)))

    def test_degenerate_two_opt_reaches_optimum(self):
        # collinear points: any 2-optimal tour is optimal
        rng = random.Random(31)
        xs = rng.sample(range(50), 7)
        inst = Instance([pt(x, 3 * x + 1) for x in xs], PNorm(2))
        t = two_opt(inst, Tour(tuple(rng.sample(range(7), 7))))
        _, opt_len = brute_force_check(inst)
        assert tour_length(inst, t) == pytest.approx(float(opt_len), rel=1e-12)
