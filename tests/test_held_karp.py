"""The numpy Held-Karp against the dict-based reference DP, and its plan against the map-based builder.

`exact_opt` must return the identical tour and an identical length, equal
in value and type (int, float or Fraction), on every norm, on 3-D and
rational instances, on grids small enough for many ties, and past int64.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import tour
from kopt_lab.geometry import PNorm, Point3, pt
from kopt_lab.tour import EXACT_MAX_N, Instance, Tour, exact_opt, is_k_optimal, two_opt

from reference_held_karp import brute_force_check, reference_held_karp, reference_held_karp_plan


def grid_instance(rng, n, p, grid):
    coords = {}
    while len(coords) < n:
        coords[(rng.randint(0, grid), rng.randint(0, grid))] = None
    return Instance([pt(*c) for c in coords], PNorm(p))


def instances():
    rng = random.Random(5151)
    for p in (1, 1.5, 2, 3):
        for n in range(3, 13):
            # Grids as small as n put many tours at one length under p=1.
            for grid in (n, 3 * n, 1000):
                yield f"p{p}-n{n}-g{grid}", grid_instance(rng, n, p, grid)
    for n in (4, 7, 10):
        coords = {(rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20)): None
                  for _ in range(3 * n)}
        yield f"3d-n{n}", Instance([Point3(*c) for c in list(coords)[:n]], PNorm(2))
    for n in (5, 8, 11):
        coords = {(Fraction(rng.randint(0, 60), rng.choice((1, 2, 3))), rng.randint(0, 20)): None
                  for _ in range(3 * n)}
        yield f"rational-n{n}", Instance([pt(*c) for c in list(coords)[:n]], PNorm(1))


# One candidate per block, a few masks per block, and the default.
@pytest.fixture(params=[1, 50, tour._BLOCK_CELLS])
def block_cells(request, monkeypatch):
    monkeypatch.setattr(tour, "_BLOCK_CELLS", request.param)
    return request.param


@pytest.mark.parametrize("name,inst", list(instances()), ids=lambda v: v if isinstance(v, str) else "")
def test_exact_opt_matches_reference(name, inst, block_cells):
    got, want = exact_opt(inst), reference_held_karp(inst)
    assert got == want
    assert type(got[1]) is type(want[1])


def plan_blocks_fit(blocks, cells):
    """Every block holds at most `cells` candidates, or the states of one mask."""
    return all(b.src.size <= cells or b.src.shape[1] == b.src.shape[0] + 1 for b in blocks)


def test_a_plan_serves_only_its_own_block_budget(monkeypatch):
    inst = grid_instance(random.Random(9), 10, 2, 1000)
    want = reference_held_karp(inst)
    plan, served = tour._held_karp_plan, []

    def recorded(m, cells):
        served.append(plan(m, cells))
        return served[-1]

    monkeypatch.setattr(tour, "_held_karp_plan", recorded)
    for cells in (tour._BLOCK_CELLS, 1, 50, tour._BLOCK_CELLS, 1):
        monkeypatch.setattr(tour, "_BLOCK_CELLS", cells)
        assert exact_opt(inst) == want
        assert plan_blocks_fit(served[-1], cells)
    # One block per mask under a budget of 1: 2^9 - 1 - 9 masks of size >= 2.
    blocks = [len(plan) for plan in served]
    assert blocks[0] == 8 < blocks[2] < blocks[1] == 2**9 - 10
    assert served[1] is served[4] and served[0] is served[3]


def dtype_kinds(rng, n):
    """Instances of n points whose distance cache is int64, float64 and object (twice)."""
    rational = {(Fraction(rng.randint(0, 60), rng.choice((2, 3))), rng.randint(0, 20)): None
                for _ in range(3 * n)}
    return [
        (np.int64, grid_instance(rng, n, 1, 1000)),
        (np.float64, grid_instance(rng, n, 2, 1000)),
        (object, Instance([pt(*c) for c in list(rational)[:n]], PNorm(1))),
        (object, Instance([pt(rng.randrange(2**61), rng.randrange(2**61)) for _ in range(n)],
                          PNorm(1))),
    ]


def test_plans_are_shared_across_dtypes_and_sizes():
    rng = random.Random(1212)
    for n in (12, 6, 12):
        kinds = dtype_kinds(rng, n)
        for dtype, inst in kinds + kinds[::-1]:  # each plan alternates between dtypes
            assert inst._pair_dist.outer(slice(None), slice(None)).dtype == dtype
            got, want = exact_opt(inst), reference_held_karp(inst)
            assert got == want and type(got[1]) is type(want[1])
    for m in (11, 5):
        blocks = tour._held_karp_plan(m, tour._BLOCK_CELLS)
        assert blocks and all(type(block.start) is int for block in blocks)
        arrays = [a for block in blocks for a in (block.src, block.cell)]
        assert all(not a.flags.writeable for a in arrays)


@pytest.mark.parametrize("cells", [1, 50, tour._BLOCK_CELLS])
@pytest.mark.parametrize("m", range(2, 10))
def test_plan_lays_the_states_out_in_block_order(m, cells):
    blocks = tour._held_karp_plan(m, cells)
    size = m << (m - 1)
    assert type(blocks) is tuple and all(type(b) is tour._HeldKarpBlock for b in blocks)
    assert plan_blocks_fit(blocks, cells)
    # Layer 1 holds column m - 1 - i at entry i; each block column's state is its c with its u's.
    state = {i: (1 << c, c) for i, c in enumerate(range(m - 1, -1, -1))}  # entry -> (mask, c)
    run = m
    for b in blocks:
        # The blocks' runs tile entries m..size-1 in order, with no gap.
        assert b.start == run and b.src.shape == b.cell.shape
        run += b.src.shape[1]
        for a in range(b.src.shape[1]):
            c, u = np.divmod(b.cell[:, a], m)
            assert (c == c[0]).all()
            state[b.start + a] = (sum(1 << v for v in {int(c[0]), *u.tolist()}), int(c[0]))
    assert run == size
    # The entries map one-to-one onto the live states (mask, c), c in mask.
    where = {key: entry for entry, key in state.items()}
    assert len(where) == size == len(state)
    assert set(where) == {(mask, c) for mask in range(1, 1 << m) for c in range(m) if mask >> c & 1}
    # The full mask holds the last m entries, columns descending.
    assert [state[size - m + i] for i in range(m)] == [((1 << m) - 1, c) for c in range(m - 1, -1, -1)]
    for b in blocks:
        assert (b.src < b.start).all()
        for a in range(b.src.shape[1]):
            mask, c = state[b.start + a]
            u = b.cell[:, a] - c * m
            # Every other column of the mask, descending, from the state (mask ^ bit(c), u).
            assert u.tolist() == [v for v in range(m - 1, -1, -1) if mask >> v & 1 and v != c]
            assert b.src[:, a].tolist() == [where[mask ^ 1 << c, v] for v in u.tolist()]


@pytest.mark.parametrize("cells", [1, 50, tour._BLOCK_CELLS])
@pytest.mark.parametrize("m", range(2, 14))
def test_plan_equals_the_entry_map_builder(m, cells):
    got, want = tour._held_karp_plan(m, cells), reference_held_karp_plan(m, cells)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.start == w.start and type(g.start) is int
        for a, b in ((g.src, w.src), (g.cell, w.cell)):
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


def test_instances_take_every_dtype():
    kinds = {}
    for _, inst in instances():
        dtype = inst._pair_dist.outer(slice(None), slice(None)).dtype
        kinds.setdefault((dtype, inst.dim, inst.norm.is_one), inst)
    assert type(exact_opt(kinds[(np.dtype(np.int64), 2, True)])[1]) is int
    assert type(exact_opt(kinds[(np.dtype(object), 2, True)])[1]) is Fraction
    assert type(exact_opt(kinds[(np.dtype(np.float64), 3, False)])[1]) is float


def test_closing_tie_goes_to_the_largest_last_vertex():
    # Under p=1 a tour and its mirror image tie exactly; the larger last vertex wins.
    inst = Instance([pt(x, y) for x in range(3) for y in range(3)], PNorm(1))
    t, length = exact_opt(inst)
    mirror = Tour((0,) + tuple(reversed(t.order[1:])))
    assert tour.tour_length(inst, mirror) == length == 10
    assert t.order[-1] > t.order[1]


def test_overflow_past_int64(block_cells):
    # 12 points in [0, 2^61)^2: a tour length past 2^63, summed in Python ints.
    r = random.Random(1)
    inst = Instance([pt(r.randrange(2**61), r.randrange(2**61)) for _ in range(12)], PNorm(1))
    t, length = exact_opt(inst)
    assert length == 9_121_563_848_623_123_684 and type(length) is int
    assert (t, length) == reference_held_karp(inst)


def test_largest_instance_is_2_and_3_optimal():
    rng = random.Random(18)
    inst = grid_instance(rng, EXACT_MAX_N, 2, 1000)
    t, length = exact_opt(inst)
    t.validate(inst)
    assert length <= tour.tour_length(inst, two_opt(inst, Tour(tuple(range(inst.n))))) + 1e-9
    assert is_k_optimal(inst, t, 2).optimal
    assert is_k_optimal(inst, t, 3).optimal


def test_cross_check_compares_exact_lengths_exactly(monkeypatch):
    inst = Instance([pt(0, 0), pt(2**60, 0), pt(2**60, 2**60), pt(0, 2**60)], PNorm(1))
    assert brute_force_check(inst)[1] == 2**62

    def off_by_one(inst):
        t, length = exact_opt(inst)
        return t, length + 1

    # 2^62 + 1 and 2^62 are the same float: a relative tolerance would pass it.
    monkeypatch.setattr("reference_held_karp.exact_opt", off_by_one)
    with pytest.raises(AssertionError, match="disagrees"):
        brute_force_check(inst)


def test_no_distance_calls_once_the_cache_is_built(monkeypatch):
    inst = grid_instance(random.Random(3), 10, 2, 1000)
    two_opt(inst, Tour(tuple(range(inst.n))))  # builds the distance cache
    want = reference_held_karp(inst)

    def no_pdist(*args):
        raise AssertionError("pdist called")

    monkeypatch.setattr(tour, "pdist", no_pdist)
    assert exact_opt(inst) == want
