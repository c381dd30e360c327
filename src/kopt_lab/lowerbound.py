"""Adversarial lower-bound families: the layered 2-D instances and the 3-D prism chain.

The 2-D family places exponentially spaced vertex rows on q+1 horizontal
layers (plus a shifted copy, a filled top layer, and vertical connector
columns) so that the hand-built tour T is locally optimal while a doubled
spanning tree certifies a far shorter optimum.  Its coordinates, tour
walk and checks are numpy int64 arithmetic, which `MAX_LAYERED_N` keeps
far from overflow; the closed forms (`layered_sizes`) are big integers.
Everything here is exact for integer p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import PNorm, Point3
from .tour import _BLOCK_CELLS, Instance, Tour, _best_2move

SQRT3_HALF = math.sqrt(3) / 2


# Largest point count `generate_lb_instance` builds.  (p, q) = (3, 3), at
# 1,966,332 points, is the largest family below it; the next ones, (1, 5) and
# (4, 3), have over 10^7 points.  Below it every coordinate and tour length
# fits int64 with room to spare.
MAX_LAYERED_N = 1 << 21


def layer_offset(i: int, q: int, p: int) -> int:
    """y-coordinate of the i-th layer: sum of the inter-layer gaps below it."""
    if not 0 <= i <= q:
        raise ValueError(f"layer index {i} out of range 0..{q}")
    return sum(q ** ((p + 1) * (q - s) - 1) for s in range(i))


class LayeredSizes(NamedTuple):
    n: int        # points
    length: int   # c(S): the 1-norm length of the hand-built tour
    tree: int     # length of the explicit spanning tree


def _layers(p: int, q: int):
    """Width w and, per layer i = 0..q, its y offset, row gap and row vertices per copy."""
    offsets = [layer_offset(i, q, p) for i in range(q + 1)]
    gaps = [q ** ((p + 1) * (q - i)) for i in range(q + 1)]
    rows = [q ** ((p + 1) * i) + 1 for i in range(q + 1)]
    return gaps[0], offsets, gaps, rows


def _columns(i: int, w: int) -> tuple[int, int]:
    """x of the connector columns from layer i to i + 1: original copy, shifted copy."""
    return (0, 3 * w) if i % 2 == 0 else (w, 2 * w)


def layered_sizes(p: int, q: int) -> LayeredSizes:
    """Closed forms of the (p, q) layered family, in big ints; nothing is built.

    With w = q^((p+1)q) and h_i = q^((p+1)(q-i)-1), the rise from layer i to
    layer i + 1: each copy has q^((p+1)i) + 1 row vertices on layer i, each
    of its q + 1 layers spans w, and so do the top layer's filled middle and
    the bottom bridge, so c(S) = (2q + 4) w + 2 sum_{i<q} h_i.  The tree
    climbs h_i above every row vertex of layer i < q and spans the top layer
    (3w).
    """
    w, offsets, _, rows = _layers(p, q)
    rises = [offsets[i + 1] - offsets[i] for i in range(q)]
    return LayeredSizes(
        n=2 * sum(rows) + w - 1 + 2 * sum(h - 1 for h in rises),
        length=(2 * q + 4) * w + 2 * sum(rises),
        tree=3 * w + 2 * sum(h * r for h, r in zip(rises, rows)),
    )


@dataclass
class LowerBoundInstance:
    """The layered family as int64 coordinate arrays.

    Vertices are indexed group by group: v1, the row vertices of layers
    0..q of the original copy, layer by layer from the left; v2, the same
    shifted right by 2w; v3, the filled middle of the top layer; v4, the
    connector columns, band by band, original column first, bottom up.
    `groups` holds the four group sizes.
    """
    k: int
    p: int
    q: int
    xs: np.ndarray
    ys: np.ndarray
    groups: tuple[int, int, int, int]

    @property
    def n(self) -> int:
        return len(self.xs)

    def as_instance(self) -> Instance:
        return Instance.from_xy(self.xs, self.ys, PNorm(self.p), f"I_q{self.q}_p{self.p}")


def _check_params(k: int, p: int, q: int):
    if q % 2 == 0 or q < 3:
        raise ValueError("q must be odd and >= 3")
    if p < 1:
        raise ValueError("p must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")


def _check_size(p: int, q: int) -> LayeredSizes:
    """The family's closed forms; ValueError naming n when n > MAX_LAYERED_N."""
    e = (p + 1) * q
    if e >= MAX_LAYERED_N.bit_length():
        # n > w = q^e >= 3^e > MAX_LAYERED_N, and n itself may be too large to print.
        raise ValueError(f"the layered family p={p}, q={q} has n > {q}^{e} points, "
                         f"above the limit of {MAX_LAYERED_N}")
    sizes = layered_sizes(p, q)
    if sizes.n > MAX_LAYERED_N:
        raise ValueError(f"the layered family p={p}, q={q} has n = {sizes.n} points, "
                         f"above the limit of {MAX_LAYERED_N}")
    return sizes


def generate_lb_instance(k: int, p: int, q: int) -> LowerBoundInstance:
    """The layered instance's points, written group by group into two preallocated int64 arrays.

    Raises ValueError naming n, before building anything, when n exceeds
    `MAX_LAYERED_N`.
    """
    _check_params(k, p, q)
    sizes = _check_size(p, q)
    w, offsets, gaps, rows = _layers(p, q)
    m = sum(rows)  # row vertices per copy
    col_len = [offsets[i + 1] - offsets[i] - 1 for i in range(q)]  # vertices per connector column
    groups = (m, m, w - 1, 2 * sum(col_len))
    if sum(groups) != sizes.n:
        raise AssertionError(f"point count {sum(groups)} != formula value {sizes.n}")
    xs, ys = np.empty(sizes.n, dtype=np.int64), np.empty(sizes.n, dtype=np.int64)
    at = 0
    for r, g, y in zip(rows, gaps, offsets):
        np.multiply(np.arange(r, dtype=np.int64), g, out=xs[at : at + r])
        ys[at : at + r] = y
        at += r
    np.add(xs[:m], 2 * w, out=xs[m : 2 * m])
    ys[m : 2 * m] = ys[:m]
    xs[2 * m : 2 * m + w - 1] = np.arange(w + 1, 2 * w, dtype=np.int64)
    ys[2 * m : 2 * m + w - 1] = offsets[q]
    at = 2 * m + w - 1
    for i, count in enumerate(col_len):
        for x in _columns(i, w):
            xs[at : at + count] = x
            ys[at : at + count] = np.arange(offsets[i] + 1, offsets[i + 1], dtype=np.int64)
            at += count
    return LowerBoundInstance(k=k, p=p, q=q, xs=xs, ys=ys, groups=groups)


def _walk_order(lb: LowerBoundInstance) -> np.ndarray:
    """The hand-built tour's vertex order, index run by index run into one array, from vertex 0 to vertex 1.

    After layer 0 of the original copy the walk crosses the bottom bridge and
    climbs the shifted copy: each even layer left to right and each odd one
    right to left, then up the connector at x = 3w from an even layer or 2w
    from an odd one.  It comes back along the top layer through v3 and
    descends the original copy the same way, by the connector at x = 0 below
    an even layer or w below an odd one, to vertex 0.
    """
    q = lb.q
    w, offsets, _, rows = _layers(lb.p, q)
    col_len = [offsets[i + 1] - offsets[i] - 1 for i in range(q)]  # vertices per connector column
    row_start = np.cumsum([0] + rows).tolist()
    v2, v3 = row_start[-1], 2 * row_start[-1]
    col_start = (v3 + w - 1 + 2 * np.cumsum([0] + col_len)).tolist()

    runs = [(0, rows[0], True)]
    for i in range(q + 1):
        runs.append((v2 + row_start[i], rows[i], i % 2 == 0))
        if i < q:
            runs.append((col_start[i] + col_len[i], col_len[i], True))
    runs.append((v3, w - 1, False))
    for i in range(q, 0, -1):
        runs.append((row_start[i], rows[i], i % 2 == 0))
        runs.append((col_start[i - 1], col_len[i - 1], False))
    order = np.empty(sum(count for _, count, _ in runs), dtype=np.int64)
    at = 0
    for start, count, forward in runs:
        run = np.arange(start, start + count)
        order[at : at + count] = run if forward else run[::-1]
        at += count
    return order


def lb_tour_edges(lb: LowerBoundInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hand-built tour's walk: its vertex order and their x and y, int64 arrays.

    Tour edge k runs from walk point k to walk point k + 1; the last edge
    closes the cycle back to walk point 0.
    """
    order = _walk_order(lb)
    return order, lb.xs[order], lb.ys[order]


def _step_lengths(walk: np.ndarray) -> np.ndarray:
    """|walk[k + 1] - walk[k]| of every tour edge k along one axis, computed in place of `walk` and returned.

    The last edge closes the cycle back to walk[0].  Each difference is
    written over the entry it has just read, so nothing else is allocated.
    """
    if len(walk):
        closing = walk[0] - walk[-1]
        np.subtract(walk[1:], walk[:-1], out=walk[:-1])
        walk[-1] = closing
        np.abs(walk, out=walk)
    return walk


def build_lb_tour(lb: LowerBoundInstance) -> Tour:
    """The hand-built tour, checked to be a Hamiltonian cycle of axis-parallel edges of length c(S)."""
    order = _walk_order(lb)
    _check_walk(lb, order)
    return Tour(order)


def _check_walk(lb: LowerBoundInstance, order: np.ndarray):
    """AssertionError unless `order` is a permutation whose edges are axis-parallel and add up to c(S).

    One axis at a time: the walk's x is gathered and differenced in place,
    and only its sum and where it moves are kept when its y is gathered.
    """
    seen = np.zeros(lb.n, dtype=bool)
    seen[order] = True
    if len(order) != lb.n or not seen.all():
        raise AssertionError("tour order is not a permutation of the vertices")
    dx = _step_lengths(lb.xs[order])
    length, moves = int(dx.sum()), dx != 0
    del dx
    dy = _step_lengths(lb.ys[order])
    length += int(dy.sum())
    moves &= dy != 0
    slanted = np.flatnonzero(moves)
    if len(slanted):
        k = int(slanted[0])
        raise AssertionError(f"tour edge {k} from vertex {order[k]} is not axis-parallel")
    want = layered_sizes(lb.p, lb.q).length
    if length != want:
        raise AssertionError(f"tour length {length} != closed form c(S) = {want}")


def lb_tour_length_exact(lb: LowerBoundInstance) -> int:
    """Exact 1-norm length of the hand-built tour (integer p only for exactness), one axis at a time."""
    order = _walk_order(lb)
    return sum(int(_step_lengths(coords[order]).sum()) for coords in (lb.xs, lb.ys))


def doubled_spanning_tree_tour(lb: LowerBoundInstance) -> tuple[int, int]:
    """Length of the explicit spanning tree and its doubled tour upper bound.

    The tree consists of the vertical connector of every non-top row vertex to
    the next layer (these segments absorb the connector-column vertices) plus
    the full top layer; its length is at most 7 * q^((p+1)q).  Every vertex
    is checked to lie on it, in blocks of `_BLOCK_CELLS` vertices: on the top
    layer, or in the band s_i <= y < s_{i+1} of some layer i < q at a
    multiple of that layer's row gap within a copy.
    A tree point at y = s_{i+1} on a band-i segment needs no second test: the
    gap of layer i + 1 divides that of layer i, or i + 1 is the top layer.
    """
    p, q = lb.p, lb.q
    w, offsets, gaps, _ = _layers(p, q)
    bands, band_gap = np.array(offsets, dtype=np.int64), np.array(gaps[:q], dtype=np.int64)
    for lo in range(0, lb.n, _BLOCK_CELLS):
        xs, ys = lb.xs[lo : lo + _BLOCK_CELLS], lb.ys[lo : lo + _BLOCK_CELLS]
        band = np.searchsorted(bands, ys, side="right") - 1
        in_band = (band >= 0) & (band < q)
        gap = band_gap[np.clip(band, 0, q - 1, out=band)]
        x_in_copy = np.where(xs >= 2 * w, xs - 2 * w, xs)
        on_column = in_band & (x_in_copy >= 0) & (x_in_copy <= w) & (x_in_copy % gap == 0)
        on_top = (ys == offsets[q]) & (xs >= 0) & (xs <= 3 * w)
        off_tree = np.flatnonzero(~(on_column | on_top))
        if len(off_tree):
            v = lo + int(off_tree[0])
            raise AssertionError(f"explicit spanning tree does not cover vertex {v} at "
                                 f"({int(lb.xs[v])}, {int(lb.ys[v])})")
    tree_len = layered_sizes(p, q).tree
    if tree_len > 7 * w:
        raise AssertionError(f"tree length {tree_len} exceeds 7*q^((p+1)q) = {7 * w}")
    return tree_len, 2 * tree_len


def estimate_inequality(a: int, b: int, k: int, p: int, q: int, s: int) -> bool:
    """The layer-gap estimate: left side to the p-th power exceeds the right side.

    Exact big-integer arithmetic for integer p, floating point otherwise.
    """
    if not (0 <= a <= k and 0 <= b <= k):
        raise ValueError("need 0 <= a, b <= k")
    if not 0 <= s < q:
        raise ValueError("need 0 <= s < q")
    e = (p + 1) * (q - s)
    if p == int(p):
        p = int(p)
        lhs = (a * q ** e) ** p + q ** (p * (e - 1))
        rhs = (a * q ** e + b * q ** (e - (p + 1))) ** p
        return lhs > rhs
    lhs = (a * float(q) ** e) ** p + float(q) ** (p * (e - 1))
    rhs = (a * float(q) ** e + b * float(q) ** (e - (p + 1))) ** p
    return lhs > rhs


def estimate_scan(k: int, p: int, q: int) -> bool:
    """True iff the estimate holds for every 0 <= a,b <= k and 0 <= s < q."""
    return all(
        estimate_inequality(a, b, k, p, q, s)
        for a in range(k + 1) for b in range(k + 1) for s in range(q)
    )


@dataclass
class ScanReport:
    n: int
    pairs_scanned: int
    two_optimal: bool
    witness: tuple | None   # ((a, b), (x, y)) edge pair with positive gain
    best_gain: float | int


def scan_2opt_optimality(inst: Instance, tour: Tour) -> ScanReport:
    """Exhaustive improving-2-move verdict over all non-adjacent edge pairs.

    Runs the 2-move engine of `tour` for the best gain less its threshold,
    which is exact (threshold 0) under the 1-norm, on integer and rational
    coordinates alike.
    An integer instance under p = 1 or p = 2 above one scan block examines
    only the pairs that its grid index finds (`tour._indexed_scan`); the
    verdict is the same, and `pairs_scanned` still counts every pair it
    decides.  The verdict is reported, not asserted: local optimality of
    the hand-built tour is only guaranteed for large q.  An instance whose
    distances need an n x n matrix is limited to n <= MATRIX_SCAN_MAX_N
    (`Instance._pair_dist`), checked before any distance is computed; the
    coordinate and index paths take O(n) memory at every n.
    """
    return _scan_2opt(inst, tour)[0]


def _scan_2opt(inst: Instance, tour: Tour) -> tuple[ScanReport, int]:
    """`scan_2opt_optimality`'s report and the number of pairs whose gain it computed."""
    n = inst.n
    best, examined = _best_2move(inst, tour)
    improving = best is not None and best.gain > 0
    witness = None
    if improving:
        # Ring position n is position 0 again; `tolist` gives Python ints, as JSON wants.
        a, b, c, d = tour.validate(inst)[[best.i, best.i + 1, best.j, best.j + 1]].tolist()
        witness = ((a, b), (c, d))
    report = ScanReport(
        n=n,
        pairs_scanned=max(0, n * (n - 3) // 2),  # every non-adjacent pair of the n edges
        two_optimal=not improving,
        witness=witness,
        best_gain=best.gain if best is not None else 0,
    )
    return report, examined


@dataclass
class ThreeDInstance:
    k: int
    points: list            # Point3 list, index blocks A then B then C then D
    tour_t: Tour
    tour_s: Tour

    def as_instance(self) -> Instance:
        return Instance(self.points, PNorm(2), name=f"I3d_k{self.k}")


def generate_3d_instance(k: int) -> ThreeDInstance:
    """The 3-D prism chain: 4k points with two hand-built optimal tours."""
    if k % 2 != 0 or k < 2:
        raise ValueError("k must be even and >= 2")
    a = [Point3(float(i), 0.0, 0.0) for i in range(1, k + 1)]
    b = [Point3(float(i), 1.0, 0.0) for i in range(1, k + 1)]
    c = [Point3(float(i), 0.5, SQRT3_HALF) for i in range(1, k + 1)]
    d = [Point3(float(i), 1.5, SQRT3_HALF) for i in range(1, k + 1)]
    points = a + b + c + d
    # The columns' vertex indices: A[i - 1] is A_i, and so on.
    A, B, C, D = (range(g * k, (g + 1) * k) for g in range(4))
    # T: along A, back along B to B2, along C from C2, back along D, then C1, B1.
    t = [*A, *B[:0:-1], *C[1:], *D[::-1], C[0], B[0]]
    # S: A1 B1, then column by column B A C (even columns) or C A B (odd
    # ones from 3), then back along D to D1, and C1.
    s = [A[0], B[0]]
    for i in range(1, k):
        s += (B[i], A[i], C[i]) if i % 2 else (C[i], A[i], B[i])
    s += [*D[::-1], C[0]]
    return ThreeDInstance(k=k, points=points, tour_t=Tour(tuple(t)), tour_s=Tour(tuple(s)))
