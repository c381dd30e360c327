"""Reference certificate steps: the per-chord path scans and pairwise loops the stack walks replaced.

`reference_select_reference_edge` builds both T' paths between the
endpoints of every chord (`reference_tour_paths`) and looks for other
chord endpoints inside each.  `reference_build_arborescence` tests
laminarity on every pair of chord intervals, nests them with a stack, and
paints each path edge with the intervals longest first, so the innermost
one owns it.  The tests use them as the oracle for
`partition.select_reference_edge` and `arborescence.build_arborescence`.

The certificate checks' old traversals are the oracle for the tables an
`Arborescence` builds at construction: `reference_subtree_w` walks the
tree below an edge for w(A_e), `reference_topmost` walks from each member
towards the root, and `reference_combined_inequalities` re-sums the
sibling chords for every 2-optimality pair.  `reference_subset_E_r` is the
band E_r as the lemma suite took it before it kept one E' per l: it
computes E' afresh on every call.  `reference_lemma_suite` is the lemma
suite on those traversals.  Both suites decide each inequality in the form
it took at its own site before `arborescence._check` decided them all:
`_eps` of the two sides, except E_r's, scaled by w(A) and not 2 w(A).
"""

import math
from typing import Optional

from kopt_lab.arborescence import (CERT_EPS, Arborescence, ArbEdge, ArborescenceCertificate, ChordCrossingError,
                                   InequalityCheck, subset_E_prime)
from kopt_lab.partition import PartitionError
from kopt_lab.tour import Instance, Tour


def _eps(a, b) -> float:
    """The tolerance of the combined checks' old form, rhs - lhs >= -_eps(lhs, rhs)."""
    return CERT_EPS * max(1.0, abs(float(a)), abs(float(b)))


def reference_tour_paths(tprime: Tour, a: int, b: int) -> tuple[list, list]:
    """The two vertex paths from a to b along the cycle T'."""
    o = list(tprime.order)
    ia, ib = o.index(a), o.index(b)
    n = len(o)
    fwd = [o[(ia + k) % n] for k in range(((ib - ia) % n) + 1)]
    bwd = [o[(ia - k) % n] for k in range(((ia - ib) % n) + 1)]
    return fwd, bwd


def reference_select_reference_edge(chords: list, tprime: Tour) -> tuple[tuple, list]:
    """e0 and the x0 -> y0 path along T' that carries every other chord endpoint.

    e0 qualifies when one of its two T' paths holds no other chord endpoint
    in its interior; the least tail wins, the first in input order on ties.
    """
    if len(chords) < 2:
        raise PartitionError(f"need at least 2 chords, got {len(chords)}")
    endpoints = {v for e in chords for v in e}
    best = None
    for a, b in chords:
        fwd, bwd = reference_tour_paths(tprime, a, b)
        others = endpoints - {a, b}
        for clear, carrier in ((fwd, bwd), (bwd, fwd)):
            if not (set(clear[1:-1]) & others):
                if best is None or a < best[0][0]:
                    best = ((a, b), carrier)
                break
    if best is None:
        raise PartitionError("no reference chord found; chord set is not laminar along T'")
    return best


def reference_build_arborescence(
    inst: Instance,
    path: list,
    chords: list,
    e0: Optional[tuple] = None,
) -> Arborescence:
    """The dual arborescence of `chords` on `path`, rooted beyond e0 when it is given."""
    pos = {v: i for i, v in enumerate(path)}
    m = len(path) - 1
    intervals = []
    for a, b in chords:
        if a not in pos or b not in pos:
            raise ValueError(f"chord {(a, b)} has an endpoint off the path")
        lo, hi = sorted((pos[a], pos[b]))
        if hi - lo < 1:
            raise ValueError(f"degenerate chord {(a, b)}")
        intervals.append((lo, hi, (a, b)))
    if e0 is not None:
        if e0 not in chords:
            raise ValueError("e0 must be one of the chords")
        lo, hi = sorted((pos[e0[0]], pos[e0[1]]))
        if (lo, hi) != (0, m):
            raise ValueError("e0 must span the full reference path")

    # Laminarity: any two chord intervals are nested or interior-disjoint.
    for i in range(len(intervals)):
        lo1, hi1, c1 = intervals[i]
        for j in range(i + 1, len(intervals)):
            lo2, hi2, c2 = intervals[j]
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                raise ChordCrossingError(f"chords {c1} and {c2} cross")

    # Sort so that any containing interval precedes its contents.
    intervals.sort(key=lambda t: (t[0], -t[1]))
    node_of = {}          # chord -> node id of the region just inside it
    parents = {}
    stack = []            # chain of open intervals (lo, hi, node)
    next_node = 1
    for lo, hi, ch in intervals:
        while stack and not (stack[-1][0] <= lo and hi <= stack[-1][1]):
            stack.pop()
        parent = stack[-1][2] if stack else 0
        node_of[ch] = next_node
        parents[next_node] = parent
        stack.append((lo, hi, next_node))
        next_node += 1

    n_nodes = next_node
    chord_len = {ch: float(inst.dist(*ch)) for ch in node_of}

    # Each path edge (t, t+1) belongs to the region of the smallest interval
    # containing it; uncovered path edges border the root region.
    owner = [0] * m
    for lo, hi, ch in sorted(intervals, key=lambda t: (t[1] - t[0]), reverse=True):
        node = node_of[ch]
        for t in range(lo, hi):
            owner[t] = node
    path_edge_len = [float(inst.dist(path[t], path[t + 1])) for t in range(m)]

    w_of = [0.0] * n_nodes
    for t in range(m):
        w_of[owner[t]] += path_edge_len[t]

    edges = [
        ArbEdge(tail=parents[node], head=node, c=chord_len[ch], w=w_of[node], chord=ch)
        for ch, node in node_of.items()
    ]
    return Arborescence(edges=edges)


def reference_subtree_w(arb: Arborescence, edge_idx: int) -> float:
    """w(A_e) by a depth-first walk of the tree below the edge's head."""
    e = arb.edges[edge_idx]
    total = e.w
    stack = [e.head]
    while stack:
        node = stack.pop()
        for ci in arb.child_edges(node):
            total += arb.edges[ci].w
            stack.append(arb.edges[ci].head)
    return total


def reference_topmost(arb: Arborescence, edge_set: set) -> list:
    """The members of edge_set with no other member above them, by a walk towards the root from each."""
    in_edge = {e.head: idx for idx, e in enumerate(arb.edges)}
    out = []
    for idx in edge_set:
        node = arb.edges[idx].tail
        while node in in_edge and in_edge[node] not in edge_set:
            node = arb.edges[in_edge[node]].tail
        if node not in in_edge:
            out.append(idx)
    return sorted(out)


def reference_combined_inequalities(arb: Arborescence) -> ArborescenceCertificate:
    """The combined triangle and 2-optimality checks, each sum taken afresh over the head's child edges."""
    cert = ArborescenceCertificate()
    for idx, e in enumerate(arb.edges):
        kids = arb.child_edges(e.head)
        rhs = e.w + sum(arb.edges[f].c for f in kids)
        cert.triangle.append(InequalityCheck(
            f"triangle[{idx}] chord {e.chord}", rhs - e.c >= -_eps(e.c, rhs), rhs - e.c))
        for f in kids:
            rhs4 = e.w + sum(arb.edges[g].c for g in kids if g != f)
            lhs4 = e.c + arb.edges[f].c
            cert.two_opt.append(InequalityCheck(
                f"2opt[{idx},{f}] chords {e.chord} {arb.edges[f].chord}", rhs4 - lhs4 >= -_eps(lhs4, rhs4),
                rhs4 - lhs4))
    return cert


def reference_subset_E_r(arb: Arborescence, l: float, r: float) -> set[int]:
    """{ e not in E' : r < c(e) <= (l/4) * r }."""
    if l <= 0 or r <= 0:
        raise ValueError("l and r must be positive")
    eprime = subset_E_prime(arb, l)
    return {
        idx for idx, e in enumerate(arb.edges)
        if idx not in eprime and r < e.c <= (l / 4) * r
    }


def reference_lemma_suite(arb: Arborescence) -> ArborescenceCertificate:
    """The E', E_r, cover, A_e and main checks of `verify_lemma_suite`, each in its old per-site form."""
    cert = ArborescenceCertificate()
    checks = cert.lemma_checks

    def check(label, passed, slack, members, noun="chords"):
        if not passed:
            label += f" {noun} " + " ".join(str(arb.edges[i].chord) for i in sorted(members))
        checks.append(InequalityCheck(label, passed, slack))

    if not arb.edges:
        return cert
    cA, wA = arb.c_total(), arb.w_total()
    for l in [2.0, 6.0, 18.0] + ([cA / wA] if wA > 0 and cA / wA > 0 else []):
        bound = (l / 2) * wA
        eprime = subset_E_prime(arb, l)
        val = sum(arb.edges[i].c for i in eprime)
        check(f"E'(l={l:g}): c(E') <= l/2*w(A)", val <= bound + _eps(val, bound), bound - val, eprime)
        for i in range(1, math.floor(l / 6) + 1):
            r = (4 / l) ** i * wA
            if r <= 0:
                break
            er = reference_subset_E_r(arb, l, r)
            val = sum(arb.edges[k].c for k in er)
            check(f"E_r(l={l:g},i={i}): c(E_r) <= 2*w(A)", val <= 2 * wA + _eps(val, wA), 2 * wA - val, er)
            cover = reference_topmost(arb, er)
            wsum = sum(reference_subtree_w(arb, k) for k in cover)
            check(f"cover(l={l:g},i={i}): sum w(A_e) <= w(A)", wsum <= wA + _eps(wsum, wA), wA - wsum, cover)
    for idx, e in enumerate(arb.edges):
        wae = reference_subtree_w(arb, idx)
        check(f"A_e[{idx}]: c(e) <= w(A_e)", e.c <= wae + _eps(e.c, wae), wae - e.c, [idx], "chord")
    if wA > 0 and cA >= 18 * wA:
        n_edges = len(arb.edges)
        if n_edges >= 3:
            ratio_bound = 12 * math.log2(n_edges) / math.log2(math.log2(n_edges)) * wA
            checks.append(InequalityCheck("main: c(A) <= 12*log/loglog(|E|)*w(A)",
                                          cA <= ratio_bound + _eps(cA, ratio_bound), ratio_bound - cA))
        else:
            checks.append(InequalityCheck("main: |E(A)| too small for log log", False, -1.0))
        cert.params["main_lemma"] = "checked"
    else:
        checks.append(InequalityCheck("main: vacuous (c(A) < 18*w(A))", True, 0.0))
        cert.params["main_lemma"] = "vacuous"
    return cert
