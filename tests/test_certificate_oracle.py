"""The reference chord, the arborescences and their checks against the oracles they replaced.

`select_reference_edge` and `build_arborescence` must give exactly what
the per-chord path scans and pairwise loops of `reference_certificate` give:
the same e0 and path, and arborescences with the same node ids, edge order
and bit-identical c and w.  The inputs are both chord sides of seeded 2-Opt
pairs under p = 1 and p = 2, and random chord sets, crossing ones included.
The certificate checks, which read the tables an `Arborescence` builds,
must give the verdicts of the per-edge walks and sibling re-sums they
replaced, each inequality decided in its old per-site form, on those
arborescences and on random trees, and the lemma suite
the E_r sets, in their iteration order, that a fresh E' per band gives.
"""

import math
import random

import pytest

from kopt_lab import arborescence as arb_module
from kopt_lab.arborescence import (ArbEdge, Arborescence, ChordCrossingError, build_arborescence,
                                   verify_combined_inequalities, verify_lemma_suite)
from kopt_lab.crossing import make_crossing_free
from kopt_lab.geometry import PNorm, pt
from kopt_lab.harness import gen_random, random_tour
from kopt_lab.partition import PartitionError, classify_edges, orientation_split, select_reference_edge
from kopt_lab.tour import Instance, Tour, two_opt

from reference_certificate import (reference_build_arborescence, reference_combined_inequalities,
                                   reference_lemma_suite, reference_select_reference_edge, reference_subset_E_r,
                                   reference_subtree_w, reference_topmost)
from synthetic import random_feasible_arborescence

N_SEEDS = 480  # about one pair in six is refused: p = 1 tours that cross themselves


@pytest.fixture(scope="module")
def chord_sides():
    """(seed, p, V', T', chords) for each side with two or more chords of every usable seeded pair."""
    sides, pairs = [], set()
    for seed in range(N_SEEDS):
        rng = random.Random(seed)
        n, p = rng.randint(6, 40), 1 + seed % 2
        inst = gen_random(n, 1000, seed=seed, p=p)
        t, s = (two_opt(inst, random_tour(n, rng)) for _ in range(2))
        try:
            pair = make_crossing_free(inst, t, s)
            s1, s2, _ = classify_edges(pair)
        except ValueError:  # a self-crossing tour or a degenerate crossing
            continue
        pairs.add((seed, p))
        sides += [(seed, p, pair.instance, pair.tprime, chords) for chords in (s1, s2) if len(chords) >= 2]
    assert len(pairs) >= 400 and {p for _, p in pairs} == {1, 2}
    return sides


def same_arborescence(got, want):
    return (got.n_nodes, got.root, got.edges) == (want.n_nodes, want.root, want.edges)


def test_reference_chord_matches_the_oracle(chord_sides):
    for seed, p, _, tprime, chords in chord_sides:
        assert select_reference_edge(chords, tprime) == reference_select_reference_edge(chords, tprime), (seed, p)


def test_arborescences_match_the_oracle(chord_sides, monkeypatch):
    """Bit-identical c and w, from lengths that make no `dist` call where V' has the `_coordinates` backend.

    Without the backend, as on a V' with Fraction points under p = 2, each
    path edge and chord length is one `dist` call.
    """
    real, calls = Instance.dist, []

    def counting_dist(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(Instance, "dist", counting_dist)
    built, backends = 0, set()
    for seed, p, vp, tprime, chords in chord_sides:
        e0, path = select_reference_edge(chords, tprime)
        compat, rest = orientation_split(chords, e0, path)
        for cls, root in ((compat, e0), (rest, None)):
            calls.clear()
            got = build_arborescence(vp, path, cls, e0=root)
            backend = vp._coordinates is not None
            assert len(calls) == (0 if backend else len(path) - 1 + len(cls)), (seed, p)
            backends.add(backend)
            assert same_arborescence(got, reference_build_arborescence(vp, path, cls, e0=root)), (seed, p)
            built += len(got.edges) > 0
    assert built > len(chord_sides)
    assert backends == {True, False}


def verdicts(checks):
    return [(c.label, c.passed) for c in checks]


def reference_E_r_sets(arb) -> list:
    """The suite's E_r bands, in its (l, i) order, each from `reference_subset_E_r`."""
    if not arb.edges:
        return []
    cA, wA = arb.c_total(), arb.w_total()
    l_values = [2.0, 6.0, 18.0] + ([cA / wA] if wA > 0 and cA / wA > 0 else [])
    out = []
    for l in l_values:
        for i in range(1, math.floor(l / 6) + 1):
            r = (4 / l) ** i * wA
            if r <= 0:
                break
            out.append(reference_subset_E_r(arb, l, r))
    return out


def match_old_traversals(arb, monkeypatch, rng) -> bool:
    """Assert every verdict, and w(A_e) to 1e-12 relative, as the walks and re-sums give them; return whether all pass.

    The E_r sets are those the suite hands `_topmost`, one per band.
    """
    for k in range(len(arb.edges)):
        assert math.isclose(arb.subtree_w(k), reference_subtree_w(arb, k), rel_tol=1e-12)
    for _ in range(3):
        members = {k for k in range(len(arb.edges)) if rng.random() < 0.4}
        assert arb_module._topmost(arb, members) == reference_topmost(arb, members)
    got, want = verify_combined_inequalities(arb), reference_combined_inequalities(arb)
    assert verdicts(got.triangle + got.two_opt) == verdicts(want.triangle + want.two_opt)
    bands, topmost = [], arb_module._topmost
    with monkeypatch.context() as recorded:
        recorded.setattr(arb_module, "_topmost", lambda a, members: bands.append(members) or topmost(a, members))
        got = verify_lemma_suite(arb)
    assert [list(er) for er in bands] == [list(er) for er in reference_E_r_sets(arb)]
    want = reference_lemma_suite(arb)
    assert verdicts(got.lemma_checks) == verdicts(want.lemma_checks) and got.params == want.params
    return got.all_pass and verify_combined_inequalities(arb).all_pass


def test_checks_match_the_old_traversals(chord_sides, monkeypatch):
    rng, checked = random.Random(11), 0
    for seed, p, vp, tprime, chords in chord_sides:
        e0, path = select_reference_edge(chords, tprime)
        for cls, root in zip(orientation_split(chords, e0, path), (e0, None)):
            arb = build_arborescence(vp, path, cls, e0=root)
            assert match_old_traversals(arb, monkeypatch, rng), (seed, p)
            checked += len(arb.edges) > 1
    assert checked > len(chord_sides)


def random_weighted_arborescence(rng, max_edges):
    """Any tree shape with c and w drawn at random, so checks fail as well as pass."""
    m, scale = rng.randint(1, max_edges), rng.choice([0.02, 0.3, 3.0])
    return Arborescence(edges=[ArbEdge(tail=rng.randrange(k + 1), head=k + 1, c=rng.uniform(0, 10),
                                       w=scale * rng.uniform(0, 1), chord=(0, k + 1)) for k in range(m)])


def test_random_trees_match_the_old_traversals(monkeypatch):
    rng, failed, lemmas = random.Random(17), 0, set()
    for _ in range(150):
        assert match_old_traversals(random_feasible_arborescence(rng), monkeypatch, rng)
        arb = random_weighted_arborescence(rng, 60)
        failed += not match_old_traversals(arb, monkeypatch, rng)
        lemmas.add(verify_lemma_suite(arb).params["main_lemma"])
    assert failed > 0 and lemmas == {"checked", "vacuous"}


def random_chords(rng, n, k):
    """k distinct vertex pairs of 0..n-1, each in a random direction."""
    pairs = set()
    while len(pairs) < k:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in sorted(pairs)]


def test_random_chord_sets_pick_the_oracles_reference_chord():
    """Any chord set on a cycle, crossing or not: the same e0 and path, or PartitionError in both."""
    rng = random.Random(3)
    outcomes = set()
    for _ in range(500):
        n = rng.randint(4, 14)
        order = list(range(n))
        rng.shuffle(order)
        tprime, chords = Tour(tuple(order)), random_chords(rng, n, rng.randint(2, n))
        try:
            want = reference_select_reference_edge(chords, tprime)
        except PartitionError:
            with pytest.raises(PartitionError):
                select_reference_edge(chords, tprime)
            outcomes.add("refused")
            continue
        assert select_reference_edge(chords, tprime) == want
        outcomes.add("chosen")
    assert outcomes == {"chosen", "refused"}


def crosses(path, c1, c2):
    pos = {v: i for i, v in enumerate(path)}
    (lo1, hi1), (lo2, hi2) = (sorted((pos[a], pos[b])) for a, b in (c1, c2))
    return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1


def test_crossing_chord_sets_raise_in_both():
    """Random chords on a path: both raise ChordCrossingError, naming a crossing pair, or agree exactly."""
    rng = random.Random(5)
    outcomes = {"crossing": 0, "laminar": 0}
    for _ in range(600):
        m = rng.randint(3, 16)
        inst = Instance([pt(x, rng.randrange(10**4)) for x in range(m + 1)], PNorm(rng.choice([1, 2])))
        path = list(range(m + 1))
        rng.shuffle(path)
        chords = [(path[a], path[b]) for a, b in random_chords(rng, m + 1, rng.randint(1, m))]
        e0 = None
        if rng.random() < 0.5:
            e0 = (path[0], path[m]) if rng.random() < 0.5 else (path[m], path[0])
            chords = [e0] + [c for c in chords if set(c) != set(e0)]
        try:
            want = reference_build_arborescence(inst, path, chords, e0=e0)
        except ChordCrossingError:
            with pytest.raises(ChordCrossingError) as err:
                build_arborescence(inst, path, chords, e0=e0)
            named = [c for c in chords if str(c) in str(err.value)]
            assert len(named) == 2 and crosses(path, *named)
            outcomes["crossing"] += 1
            continue
        assert same_arborescence(build_arborescence(inst, path, chords, e0=e0), want)
        outcomes["laminar"] += 1
    assert min(outcomes.values()) >= 100
