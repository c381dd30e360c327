"""Oracles for `tour.exact_opt`: the dict-based Held-Karp and a brute-force search.

`reference_held_karp` is the subset DP the numpy layers replaced,
unchanged: one dict of (cost, predecessor) per subset mask, each path cost
a left fold of `inst.dist` in path order, and a strict `<` so that ties
keep the first candidate seen, the largest predecessor.

`brute_force_check` compares `exact_opt`'s length with the shortest of all
(n - 1)! tours: exactly on 2-D 1-norm instances, whose lengths are ints or
Fractions, and within 1e-12 relative otherwise.
"""

import itertools

from kopt_lab.tour import Instance, Tour, exact_opt, tour_length


def reference_held_karp(inst: Instance) -> tuple[Tour, object]:
    n = inst.n
    dist = [[inst.dist(i, j) for j in range(n)] for i in range(n)]
    full = 1 << (n - 1)  # subsets of vertices 1..n-1, vertex 0 is the anchor
    INF = float("inf")
    dp = [dict() for _ in range(full)]
    for v in range(1, n):
        dp[1 << (v - 1)][v] = (dist[0][v], 0)
    for mask in range(1, full):
        row = dp[mask]
        if not row:
            continue
        for last, (cost, _) in list(row.items()):
            for v in range(1, n):
                bit = 1 << (v - 1)
                if mask & bit:
                    continue
                nmask = mask | bit
                ncost = cost + dist[last][v]
                cur = dp[nmask].get(v)
                if cur is None or ncost < cur[0]:
                    dp[nmask][v] = (ncost, last)
    best, best_last = INF, None
    for last, (cost, _) in dp[full - 1].items():
        total = cost + dist[last][0]
        if total < best:
            best, best_last = total, last
    order = [0]
    mask, last = full - 1, best_last
    chain = []
    while last != 0:
        chain.append(last)
        _, prev = dp[mask][last]
        mask ^= 1 << (last - 1)
        last = prev
    order += list(reversed(chain))
    return Tour(tuple(order)), best


def brute_force_opt(inst: Instance) -> tuple[Tour, object]:
    """The first shortest tour over all orders that start at vertex 0."""
    best_t, best = None, None
    for perm in itertools.permutations(range(1, inst.n)):
        t = Tour((0,) + perm)
        length = tour_length(inst, t)
        if best is None or length < best:
            best_t, best = t, length
    return best_t, best


def brute_force_check(inst: Instance) -> tuple[Tour, object]:
    """`exact_opt(inst)`, after checking its length against brute force (n <= 9)."""
    if inst.n > 9:
        raise ValueError("brute-force check limited to n <= 9")
    tour, length = exact_opt(inst)
    _, bf_length = brute_force_opt(inst)
    if inst.dim == 2 and inst.norm.is_one:  # int or Fraction lengths: exact equality
        agree = length == bf_length
    else:
        agree = abs(float(length) - float(bf_length)) <= 1e-12 * max(1.0, abs(float(bf_length)))
    if not agree:
        raise AssertionError(f"Held-Karp ({length}) disagrees with brute force ({bf_length})")
    return tour, length
