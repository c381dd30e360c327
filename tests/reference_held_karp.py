"""Oracles for `tour.exact_opt`: the dict-based Held-Karp and a brute-force search.

`reference_held_karp` is the subset DP the numpy layers replaced,
unchanged: one dict of (cost, predecessor) per subset mask, each path cost
a left fold of `inst.dist` in path order, and a strict `<` so that ties
keep the first candidate seen, the largest predecessor.

`reference_held_karp_plan` is the builder of `tour._held_karp_plan` that
found each candidate's source entry in a map from mask * m + c to the
entry of (mask, c), filled layer by layer; the plan computes it from the
mask's rank instead.

`brute_force_check` compares `exact_opt`'s length with the shortest of all
(n - 1)! tours: exactly on 2-D 1-norm instances, whose lengths are ints or
Fractions, and within 1e-12 relative otherwise.
"""

import itertools

import numpy as np

from kopt_lab.tour import Instance, Tour, _HeldKarpBlock, exact_opt, tour_length


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


def reference_held_karp_plan(m: int, block_cells: int) -> tuple:
    """The `_HeldKarpBlock`s of `tour._held_karp_plan(m, block_cells)`, with `src` read from an entry map."""
    index = np.int16 if m << (m - 1) <= 1 << 15 else np.int32
    where = np.full(m << m, -1, dtype=index)
    blocks, first = [], 0  # first: the entry of the layer's first state
    for k in range(1, m + 1):
        # The masks of size k, each as its columns in descending order.
        combos = itertools.combinations(range(m - 1, -1, -1), k)
        v = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int8).reshape(-1, k)
        bit = np.left_shift(1, v, dtype=np.int64)
        mask = bit.sum(axis=1, keepdims=True)
        where[(mask * m + v).ravel()] = np.arange(first, first + v.size)
        if k > 1:
            j = np.arange(k - 1)
            others = j + (j >= np.arange(k)[:, None])  # row a: 0..k-1 without a, in order
            u = v[:, others.T].transpose(1, 0, 2).reshape(k - 1, -1)  # u[j, (mask, a)]
            src = where[((mask ^ bit) * m).ravel() + u]
            cell = v.astype(np.int16).ravel() * m + u
            src.flags.writeable = cell.flags.writeable = False
            step = k * max(1, block_cells // (k * (k - 1)))  # states per block, whole masks
            for s0 in range(0, v.size, step):
                s = slice(s0, s0 + step)
                blocks.append(_HeldKarpBlock(first + s0, src[:, s], cell[:, s]))
        first += v.size
    return tuple(blocks)


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
