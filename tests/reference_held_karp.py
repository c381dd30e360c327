"""Dict-based Held-Karp, kept as the tests' oracle for `tour.exact_opt`.

This is the subset DP the numpy layers replaced, unchanged: one dict of
(cost, predecessor) per subset mask, each path cost a left fold of
`inst.dist` in path order, and a strict `<` so that ties keep the first
candidate seen, the largest predecessor.
"""

from kopt_lab.tour import Instance, Tour


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
