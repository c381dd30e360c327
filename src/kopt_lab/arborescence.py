"""Dual arborescences of a tour plus non-crossing chords, and the bound certificates.

The plane graph formed by the optimal tour T' and one orientation class of
interior (or exterior) chords has a dual tree; rooting it and weighting each
edge by its chord length (c) and the tour-edge length on the head region's
boundary (w) turns the geometric bound into a purely combinatorial statement
that is checked, not assumed, on every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .crossing import make_crossing_free
from .partition import partition_edges
from .tour import Instance, Tour, is_k_optimal, tour_length

CERT_EPS = 1e-9


class ChordCrossingError(ValueError):
    pass


@dataclass
class ArbEdge:
    tail: int           # parent region id
    head: int           # child region id
    c: float            # length of the dual chord
    w: float            # total tour-edge length on the head region's boundary
    chord: Optional[tuple] = None  # originating chord (vertex pair), if geometric


@dataclass
class Arborescence:
    """Rooted dual tree on nodes 0..len(edges); node 0 is the root, edges point away from it.

    Edge k enters node k + 1 from a node <= k, so a parent precedes its
    children, as `build_arborescence`'s walk numbers them; any other edge
    list (a cycle, a node entered twice, a head out of range or out of
    order) raises ValueError.  The same pass tabulates each edge's child
    chords, and one reverse sweep w(A_e), so each check is one pass.
    """

    edges: list          # list[ArbEdge]
    root = 0

    def __post_init__(self):
        m = len(self.edges)
        self._children = [[] for _ in range(m + 1)]
        self.child_c_sum = [0.0] * m        # per edge: the c of its child edges, summed
        self.child_c_max = [-math.inf] * m  # and their largest; -inf for a leaf
        for k, e in enumerate(self.edges):
            if e.head != k + 1 or not 0 <= e.tail <= k:
                raise ValueError(f"edge {k} runs {e.tail} -> {e.head}; "
                                 f"it must enter node {k + 1} from a node in 0..{k}")
            self._children[e.tail].append(k)
            if e.tail:
                self.child_c_sum[e.tail - 1] += e.c
                self.child_c_max[e.tail - 1] = max(self.child_c_max[e.tail - 1], e.c)
        self._subtree_w = [e.w for e in self.edges]
        for k in reversed(range(m)):  # children before parents
            if self.edges[k].tail:
                self._subtree_w[self.edges[k].tail - 1] += self._subtree_w[k]

    @property
    def n_nodes(self) -> int:
        return len(self.edges) + 1

    def child_edges(self, node: int) -> list[int]:
        """Indices of edges in delta^+(node)."""
        return self._children[node]

    def c_total(self) -> float:
        return sum(e.c for e in self.edges)

    def w_total(self) -> float:
        return sum(e.w for e in self.edges)

    def subtree_w(self, edge_idx: int) -> float:
        """w(A_e): the edge itself plus all edges below its head."""
        return self._subtree_w[edge_idx]


def build_arborescence(
    inst: Instance,
    path: list,
    chords: list,
    e0: Optional[tuple] = None,
) -> Arborescence:
    """Dual arborescence via laminar interval nesting of chord endpoints.

    `path` is the vertex path along T' carrying all chord endpoints; `chords`
    are directed chords of the simple polygon T'.  If e0 is given it must span
    the whole path and becomes the single child of the root (the region on the
    far side of e0); otherwise the root is the region containing that far
    side, adopting every top-level chord.

    One stack walk along the path does the work.  The chord intervals, sorted
    by (lo, -hi), open in that order, so each nests in the innermost interval
    still open at its start; an open interval that ends inside the new one
    is the first crossing pair in path order, a ChordCrossingError.  Each
    path edge adds its length to the w of the innermost interval open over
    it, the root when there is none, in path order.

    The lengths of the path edges and the chords, in the value of `dist`,
    come from one `pair` pass of the instance's `_coordinates` backend,
    the one that `tour_length` reads; an instance without it calls `dist`
    on each.
    """
    pos = {v: i for i, v in enumerate(path)}
    m = len(path) - 1
    intervals = []
    for idx, (a, b) in enumerate(chords):
        if a not in pos or b not in pos:
            raise ValueError(f"chord {(a, b)} has an endpoint off the path")
        lo, hi = sorted((pos[a], pos[b]))
        if hi - lo < 1:
            raise ValueError(f"degenerate chord {(a, b)}")
        intervals.append((lo, hi, (a, b), m + idx))
    if e0 is not None:
        if e0 not in chords:
            raise ValueError("e0 must be one of the chords")
        lo, hi = sorted((pos[e0[0]], pos[e0[1]]))
        if (lo, hi) != (0, m):
            raise ValueError("e0 must span the full reference path")
    intervals.sort(key=lambda t: (t[0], -t[1]))
    # Path edge t has length t, and a chord the length its interval names last.
    ends = path[:-1] + [a for a, _ in chords], path[1:] + [b for _, b in chords]
    coordinates = inst._coordinates
    if coordinates is None:
        lengths = list(map(inst.dist, *ends))
    else:
        lengths = coordinates.pair(*np.array(ends, dtype=np.intp)).tolist()

    stack = [(m, 0, None)]  # open intervals (hi, node, chord), innermost last; the root spans the path
    parents, w = [], [0.0] * (len(intervals) + 1)
    k = 0
    for t in range(m):
        while stack[-1][0] <= t:
            stack.pop()
        while k < len(intervals) and intervals[k][0] == t:
            _, hi, ch, _ = intervals[k]
            if stack[-1][0] < hi:
                raise ChordCrossingError(f"chords {stack[-1][2]} and {ch} cross")
            parents.append(stack[-1][1])
            k += 1
            stack.append((hi, k, ch))
        w[stack[-1][1]] += float(lengths[t])

    edges = [
        ArbEdge(tail=parent, head=node, c=float(lengths[idx]), w=w[node], chord=ch)
        for node, (parent, (_, _, ch, idx)) in enumerate(zip(parents, intervals), 1)
    ]
    return Arborescence(edges=edges)


@dataclass
class InequalityCheck:
    label: str
    passed: bool
    slack: float  # rhs - lhs; negative means violated


@dataclass
class ArborescenceCertificate:
    triangle: list = field(default_factory=list)  # combined triangle inequality, per edge
    two_opt: list = field(default_factory=list)   # combined 2-optimality, per edge pair
    lemma_checks: list = field(default_factory=list)
    params: dict = field(default_factory=dict)  # "main_lemma": "checked" or "vacuous"

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.triangle + self.two_opt + self.lemma_checks)


def _check(label: str, lhs: float, rhs: float) -> InequalityCheck:
    """The one pass/fail rule of the certificate: lhs <= rhs within CERT_EPS * max(1, |lhs|, |rhs|).

    Its slack is rhs - lhs, negative when lhs exceeds rhs.
    """
    return InequalityCheck(label, lhs <= rhs + CERT_EPS * max(1.0, abs(lhs), abs(rhs)), rhs - lhs)


def verify_combined_inequalities(arb: Arborescence) -> ArborescenceCertificate:
    """Check the combined triangle inequality and combined 2-optimality per edge."""
    cert = ArborescenceCertificate()
    for idx, e in enumerate(arb.edges):
        cert.triangle.append(_check(f"triangle[{idx}] chord {e.chord}", e.c, e.w + arb.child_c_sum[idx]))
        for f in arb.child_edges(e.head):
            cert.two_opt.append(_check(f"2opt[{idx},{f}] chords {e.chord} {arb.edges[f].chord}",
                                       e.c + arb.edges[f].c, e.w + (arb.child_c_sum[idx] - arb.edges[f].c)))
    return cert


def subset_E_prime(arb: Arborescence, l: float) -> set[int]:
    """Edges whose c-weight is small relative to their largest child chord.

    Leaf edges are never members (max over the empty child set is -inf).
    """
    if l <= 0:
        raise ValueError("l must be positive")
    return {idx for idx, e in enumerate(arb.edges) if e.c < l * arb.child_c_max[idx]}


def verify_lemma_suite(arb: Arborescence) -> ArborescenceCertificate:
    """Check the E', A_e, E_r and ratio lemmas on a concrete arborescence.

    E' is computed once per l, and each E_r of that l, { e not in E' :
    r < c(e) <= (l/4) * r }, is filtered from the edges outside it.  A
    failed E', E_r or cover check names its member chords, and a failed
    A_e check its edge's chord, after the label that it passes with.
    """
    cert = ArborescenceCertificate()
    checks = cert.lemma_checks

    def check(label, lhs, rhs, members, noun="chords"):
        chk = _check(label, lhs, rhs)
        if not chk.passed:
            chk.label += f" {noun} " + " ".join(str(arb.edges[i].chord) for i in sorted(members))
        checks.append(chk)

    cA, wA = arb.c_total(), arb.w_total()
    n_edges = len(arb.edges)
    if n_edges == 0:
        return cert

    l_values = [2.0, 6.0, 18.0]
    l_main = cA / wA if wA > 0 else None
    if l_main is not None and l_main > 0:
        l_values.append(l_main)

    def c_of(idxs):
        return sum(arb.edges[i].c for i in idxs)

    for l in l_values:
        bound = (l / 2) * wA
        eprime = subset_E_prime(arb, l)
        val = c_of(eprime)
        check(f"E'(l={l:g}): c(E') <= l/2*w(A)", val, bound, eprime)
        rest = [(idx, e.c) for idx, e in enumerate(arb.edges) if idx not in eprime]
        for i in range(1, math.floor(l / 6) + 1):
            r = (4 / l) ** i * wA
            if r <= 0:
                break
            er = {idx for idx, c in rest if r < c <= (l / 4) * r}
            val = c_of(er)
            check(f"E_r(l={l:g},i={i}): c(E_r) <= 2*w(A)", val, 2 * wA, er)
            # The minimal-cover decomposition used in the E_r proof.
            cover = _topmost(arb, er)
            wsum = sum(arb.subtree_w(e) for e in cover)
            check(f"cover(l={l:g},i={i}): sum w(A_e) <= w(A)", wsum, wA, cover)

    for idx in range(n_edges):
        check(f"A_e[{idx}]: c(e) <= w(A_e)", arb.edges[idx].c, arb.subtree_w(idx), [idx], "chord")

    # Main implication (base-2 logarithms): applies only when c(A) >= 18 w(A).
    if wA > 0 and cA >= 18 * wA:
        if n_edges >= 3:
            ratio_bound = 12 * math.log2(n_edges) / math.log2(math.log2(n_edges)) * wA
            checks.append(_check("main: c(A) <= 12*log/loglog(|E|)*w(A)", cA, ratio_bound))
        else:
            checks.append(InequalityCheck("main: |E(A)| too small for log log", False, -1.0))
        cert.params["main_lemma"] = "checked"
    else:
        checks.append(InequalityCheck("main: vacuous (c(A) < 18*w(A))", True, 0.0))
        cert.params["main_lemma"] = "vacuous"
    return cert


def _topmost(arb: Arborescence, edge_set: set[int]) -> list[int]:
    """Minimal subset of edge_set whose sub-arborescences cover edge_set, in one forward sweep."""
    out, covered = [], [False] * len(arb.edges)  # covered[k]: a member lies strictly above edge k
    for k, e in enumerate(arb.edges):
        up = e.tail - 1
        covered[k] = up >= 0 and (up in edge_set or covered[up])
        if k in edge_set and not covered[k]:
            out.append(k)
    return out


def certified_ratio_bound(nprime: int) -> float:
    """Explicit upper bound on c(S)/c(T) implied by the five-set assembly."""
    if nprime < 3:
        raise ValueError("need nprime >= 3")
    # log2(log2(3)) > 0.66, so the quotient is defined for every accepted nprime.
    term = max(18.0, 12 * math.log2(nprime) / math.log2(math.log2(nprime)))
    return 4 * term + 1


@dataclass
class PairCertificate:
    passed: bool
    ratio: float
    bound: float
    nprime: int
    crossings: int
    lengths: dict
    part_sizes: dict
    arb_stats: list          # per chord-class dict
    failures: list = field(default_factory=list)


def certify_pair(inst: Instance, t_opt: Tour, s_2opt: Tour) -> PairCertificate:
    """Full pipeline: uncross, partition, build and verify all arborescences."""
    if inst.n < 3:
        raise ValueError(f"certify_pair needs n >= 3 points, got n = {inst.n}")
    verdict = is_k_optimal(inst, s_2opt, 2)
    if not verdict.optimal:
        raise ValueError("s_2opt is not 2-optimal; certification precondition violated")

    len_t = float(tour_length(inst, t_opt))
    len_s = float(tour_length(inst, s_2opt))
    pair = make_crossing_free(inst, t_opt, s_2opt)
    vp = pair.instance

    # Subdividing S at the crossings must keep it 2-optimal on V'.
    if not is_k_optimal(vp, pair.sprime, 2).optimal:
        raise AssertionError("subdivided tour S' lost 2-optimality")

    classes, s3 = partition_edges(pair)
    failures = []
    arb_stats = []
    for name, chords, path, root in classes:
        stat = {"class": name, "n_chords": len(chords)}
        if not chords:
            stat["note"] = "empty"
        elif path is None:
            # Single chord: bounded directly by the triangle inequality via c(T').
            chord_len = float(vp.dist(*chords[0]))
            stat["note"] = "triangle-inequality bound"
            stat["c_total"] = chord_len
            chk = _check(f"{name}: single chord {chords[0]} longer than c(T)", chord_len, len_t)
            if not chk.passed:
                failures.append(chk.label)
        else:
            arb = build_arborescence(vp, path, chords, e0=root)
            cert_ineq = verify_combined_inequalities(arb)
            cert_lem = verify_lemma_suite(arb)
            c_total, w_total = arb.c_total(), arb.w_total()
            stat.update({
                "n_edges": len(arb.edges),
                "c_total": c_total,
                "w_total": w_total,
                "ratio_cw": c_total / w_total if w_total else None,
                "combined_pass": cert_ineq.all_pass,
                "lemmas_pass": cert_lem.all_pass,
            })
            for chk in cert_ineq.triangle + cert_ineq.two_opt + cert_lem.lemma_checks:
                if not chk.passed:
                    failures.append(f"{name}: {chk.label} (slack {chk.slack:.3e})")
        arb_stats.append(stat)

    nprime = vp.n
    bound = certified_ratio_bound(nprime)
    ratio = len_s / len_t
    chk = _check(f"ratio {ratio} exceeds certified bound {bound}", ratio, bound)
    if not chk.passed:
        failures.append(chk.label)

    return PairCertificate(
        passed=not failures,
        ratio=ratio,
        bound=bound,
        nprime=nprime,
        crossings=pair.crossings,
        lengths={"t": len_t, "s": len_s},
        part_sizes={**{cls.name: len(cls.chords) for cls in classes}, "S3": len(s3)},
        arb_stats=arb_stats,
        failures=failures,
    )
