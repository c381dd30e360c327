"""Adversarial lower-bound families: the layered 2-D instances and the 3-D prism chain.

The 2-D family places exponentially spaced vertex rows on q+1 horizontal
layers (plus a shifted copy, a filled top layer, and vertical connector
columns) so that the hand-built tour T is locally optimal while a doubled
spanning tree certifies a far shorter optimum.  All coordinates are big
integers; everything here is exact for integer p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import PNorm, Point3, pt
from .tour import Instance, Tour, _best_2move

SQRT3_HALF = math.sqrt(3) / 2


def layer_offset(i: int, q: int, p: int) -> int:
    """y-coordinate of the i-th layer: sum of the inter-layer gaps below it."""
    if not 0 <= i <= q:
        raise ValueError(f"layer index {i} out of range 0..{q}")
    return sum(q ** ((p + 1) * (q - s) - 1) for s in range(i))


@dataclass
class LowerBoundInstance:
    k: int
    p: int
    q: int
    v1: list
    v2: list
    v3: list
    v4: list
    n: int = 0

    def __post_init__(self):
        self.n = len(self.v1) + len(self.v2) + len(self.v3) + len(self.v4)

    def all_points(self) -> list:
        return self.v1 + self.v2 + self.v3 + self.v4

    def as_instance(self) -> Instance:
        norm = PNorm(self.p)
        name = f"I_q{self.q}_p{self.p}"
        return Instance([pt(x, y) for x, y in self.all_points()], norm, name)


def _check_params(k: int, p: int, q: int):
    if q % 2 == 0 or q < 3:
        raise ValueError("q must be odd and >= 3")
    if p < 1:
        raise ValueError("p must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")


def generate_lb_instance(k: int, p: int, q: int) -> LowerBoundInstance:
    """The four vertex groups of the layered instance, exact integer coordinates."""
    _check_params(k, p, q)
    width = q ** ((p + 1) * q)
    s = [layer_offset(i, q, p) for i in range(q + 1)]

    v1, v2 = [], []
    for i in range(q + 1):
        gap = q ** ((p + 1) * (q - i))
        for j in range(q ** ((p + 1) * i) + 1):
            v1.append((j * gap, s[i]))
            v2.append((j * gap + 2 * width, s[i]))

    v3 = [(width + j, s[q]) for j in range(1, width)]

    v4 = []
    for i in range(q):
        xs = (0, 3 * width) if i % 2 == 0 else (width, 2 * width)
        for x in xs:
            for j in range(1, q ** ((p + 1) * (q - i) - 1)):
                v4.append((x, j + s[i]))

    inst = LowerBoundInstance(k=k, p=p, q=q, v1=v1, v2=v2, v3=v3, v4=v4)
    expected = (
        2 * sum(q ** ((p + 1) * i) + 1 for i in range(q + 1))
        + width - 1
        + 2 * sum(q ** ((p + 1) * (q - i) - 1) - 1 for i in range(q))
    )
    if inst.n != expected:
        raise AssertionError(f"point count {inst.n} != formula value {expected}")
    return inst


def lb_tour_edges(lb: LowerBoundInstance) -> list[tuple[tuple, tuple]]:
    """The five coordinate edge groups of the hand-built tour, concatenated."""
    p, q = lb.p, lb.q
    width = q ** ((p + 1) * q)
    s = [layer_offset(i, q, p) for i in range(q + 1)]
    edges = []
    # E1/E2: horizontal runs along each layer, original and shifted copy.
    for shift in (0, 2 * width):
        for i in range(q + 1):
            gap = q ** ((p + 1) * (q - i))
            for j in range(q ** ((p + 1) * i)):
                edges.append(((j * gap + shift, s[i]), ((j + 1) * gap + shift, s[i])))
    # E3: unit edges across the filled middle of the top layer.
    for j in range(width):
        edges.append(((width + j, s[q]), (width + j + 1, s[q])))
    # E4: unit edges up the vertical connector columns.
    for i in range(q):
        xs = (0, 3 * width) if i % 2 == 0 else (width, 2 * width)
        for x in xs:
            for j in range(q ** ((p + 1) * (q - i) - 1)):
                edges.append(((x, j + s[i]), (x, j + 1 + s[i])))
    # E5: the bottom bridge.
    edges.append(((width, 0), (2 * width, 0)))
    return edges


def _cycle_from_edges(n: int, edges) -> Tour:
    """The tour that walks the edges on vertices 0..n-1 from vertex 0.

    Checks that every vertex has degree 2 and that the walk is a single
    Hamiltonian cycle closing back at vertex 0.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v, nbrs in enumerate(adj):
        if len(nbrs) != 2:
            raise AssertionError(f"tour vertex {v} has degree {len(nbrs)}")
    order, prev, cur = [0], None, 0
    for _ in range(n - 1):
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        order.append(nxt)
        prev, cur = cur, nxt
    if len(set(order)) != n or order[-1] not in adj[0]:
        raise AssertionError("tour edges do not form a single Hamiltonian cycle")
    return Tour(tuple(order))


def build_lb_tour(lb: LowerBoundInstance) -> Tour:
    """Assemble the edge groups into a Hamiltonian cycle (degree-2 + connectivity checked)."""
    index = {c: i for i, c in enumerate(lb.all_points())}
    return _cycle_from_edges(lb.n, ((index[a], index[b]) for a, b in lb_tour_edges(lb)))


def lb_tour_length_exact(lb: LowerBoundInstance) -> int:
    """Exact 1-norm length of the hand-built tour (integer p only for exactness)."""
    total = 0
    for (ax, ay), (bx, by) in lb_tour_edges(lb):
        total += abs(ax - bx) + abs(ay - by)
    return total


def doubled_spanning_tree_tour(lb: LowerBoundInstance) -> tuple[int, int]:
    """Length of the explicit spanning tree and its doubled tour upper bound.

    The tree consists of the vertical connector of every non-top row vertex to
    the next layer (these segments absorb the connector-column vertices) plus
    the full top layer; its length is at most 7 * q^((p+1)q).
    """
    p, q = lb.p, lb.q
    width = q ** ((p + 1) * q)
    s = [layer_offset(i, q, p) for i in range(q + 1)]

    vertex_set = set(lb.all_points())
    covered = set()
    tree_len = 0
    # Vertical connectors from every layer-i row vertex (i < q) up to layer i+1.
    for i in range(q):
        gap_y = s[i + 1] - s[i]
        gap = q ** ((p + 1) * (q - i))
        for shift in (0, 2 * width):
            for j in range(q ** ((p + 1) * i) + 1):
                x = j * gap + shift
                tree_len += gap_y
                for y in range(s[i], s[i + 1] + 1):
                    if (x, y) in vertex_set:
                        covered.add((x, y))
    # The full top layer across both copies and the filled middle.
    tree_len += 3 * width
    for x in range(3 * width + 1):
        if (x, s[q]) in vertex_set:
            covered.add((x, s[q]))

    if covered != vertex_set:
        raise AssertionError("explicit spanning tree does not cover all vertices")
    formula = 3 * width + 2 * sum(
        q ** ((p + 1) * (q - i) - 1) * (q ** ((p + 1) * i) + 1) for i in range(q)
    )
    if tree_len != formula:
        raise AssertionError(f"tree length {tree_len} != closed form {formula}")
    if tree_len > 7 * width:
        raise AssertionError(f"tree length {tree_len} exceeds 7*q^((p+1)q) = {7 * width}")
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
    """Exhaustive improving-2-move scan over all non-adjacent edge pairs.

    Runs the 2-move engine of `tour` for the best gain less its threshold,
    which is exact (threshold 0) for integer coordinates under the 1-norm.
    The verdict is reported, not asserted: local optimality of the
    hand-built tour is only guaranteed for large q.
    """
    n = inst.n
    if n > 20000:
        raise ValueError("exhaustive pair scan limited to n <= 20000")
    tour.validate(inst)
    best = _best_2move(inst, tour)
    improving = best is not None and best.gain > 0
    witness = None
    if improving:
        o = tour.order
        witness = ((o[best.i], o[best.i + 1]), (o[best.j], o[(best.j + 1) % n]))
    return ScanReport(
        n=n,
        pairs_scanned=max(0, n * (n - 3) // 2),  # every non-adjacent pair of the n edges
        two_optimal=not improving,
        witness=witness,
        best_gain=best.gain if best is not None else 0,
    )


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
    A = lambda i: i - 1
    B = lambda i: k + i - 1
    C = lambda i: 2 * k + i - 1
    D = lambda i: 3 * k + i - 1

    t_edges = (
        [(A(i), A(i + 1)) for i in range(1, k)]
        + [(D(i), D(i + 1)) for i in range(1, k)]
        + [(B(i), B(i + 1)) for i in range(2, k)]
        + [(C(i), C(i + 1)) for i in range(2, k)]
        + [(A(1), B(1)), (B(1), C(1)), (C(1), D(1)), (B(2), C(2)), (A(k), B(k)), (C(k), D(k))]
    )
    # The consecutive C-pair edges complete S into a Hamiltonian cycle
    # (they appear in the drawn tour though not in the displayed edge union).
    s_edges = (
        [(C(1), D(1)), (C(k), D(k))]
        + [(D(i), D(i + 1)) for i in range(1, k)]
        + [(A(i), B(i)) for i in range(1, k + 1)]
        + [(A(i), C(i)) for i in range(1, k + 1)]
        + [(B(2 * i - 1), B(2 * i)) for i in range(1, k // 2 + 1)]
        + [(C(2 * i), C(2 * i + 1)) for i in range(1, k // 2)]
    )

    return ThreeDInstance(k=k, points=points, tour_t=_cycle_from_edges(4 * k, t_edges),
                          tour_s=_cycle_from_edges(4 * k, s_edges))
