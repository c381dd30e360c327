"""Random feasible arborescences for property testing.

Weights are assigned child-first so that every edge satisfies both the
combined triangle inequality and the combined 2-optimality inequality by
construction; the lemma suite is then a theorem, not a coincidence.
"""

import random

from kopt_lab.arborescence import ArbEdge, Arborescence


def random_feasible_arborescence(rng: random.Random, max_edges: int = 50) -> Arborescence:
    m = rng.randint(1, max_edges)
    parent = [None] + [rng.randrange(i) for i in range(1, m + 1)]
    children = {v: [] for v in range(m + 1)}
    for v in range(1, m + 1):
        children[parent[v]].append(v)

    c = [0.0] * (m + 1)
    w = [0.0] * (m + 1)
    # parent index < child index, so a reverse sweep sees children first
    for v in range(m, 0, -1):
        kid_c = [c[u] for u in children[v]]
        s, top = sum(kid_c), max(kid_c, default=0.0)
        slack = rng.uniform(0.05, 10.0)
        w[v] = max(2 * top - s, 0.0) + slack
        # any c in (0, w + s - 2*top] keeps both inequalities tight-safe
        c[v] = rng.uniform(1e-6, w[v] + s - 2 * top)

    edges = [
        ArbEdge(tail=parent[v], head=v, c=c[v], w=w[v]) for v in range(1, m + 1)
    ]
    return Arborescence(edges=edges)
