"""Loop-built layered family, kept as the tests' oracle for the array builders.

These are the builders the numpy ones in `kopt_lab.lowerbound` replaced:
the four vertex groups as lists of coordinate tuples, the tour's edge
groups as coordinate pairs, the tour walked from its edge list by
`cycle_from_edges`, the exact length summed edge by edge, and the
spanning-tree cover checked by a set lookup per integer y.  The 3-D
family's two tours are walked from their edge lists the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from kopt_lab.lowerbound import _check_params, layer_offset
from kopt_lab.tour import Tour


def cycle_from_edges(n: int, edges) -> Tour:
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


def three_d_tours(k: int) -> tuple[Tour, Tour]:
    """T and S of the 3-D prism chain, walked from their edge lists (vertex blocks A, B, C, D of k)."""
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
    return cycle_from_edges(4 * k, t_edges), cycle_from_edges(4 * k, s_edges)


@dataclass
class ReferenceLayered:
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


def generate_lb_instance(k: int, p: int, q: int) -> ReferenceLayered:
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

    inst = ReferenceLayered(k=k, p=p, q=q, v1=v1, v2=v2, v3=v3, v4=v4)
    expected = (
        2 * sum(q ** ((p + 1) * i) + 1 for i in range(q + 1))
        + width - 1
        + 2 * sum(q ** ((p + 1) * (q - i) - 1) - 1 for i in range(q))
    )
    if inst.n != expected:
        raise AssertionError(f"point count {inst.n} != formula value {expected}")
    return inst


def lb_tour_edges(lb: ReferenceLayered) -> list[tuple[tuple, tuple]]:
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


def build_lb_tour(lb: ReferenceLayered) -> Tour:
    """Assemble the edge groups into a Hamiltonian cycle (degree-2 + connectivity checked)."""
    index = {c: i for i, c in enumerate(lb.all_points())}
    return cycle_from_edges(lb.n, ((index[a], index[b]) for a, b in lb_tour_edges(lb)))


def lb_tour_length_exact(lb: ReferenceLayered) -> int:
    """Exact 1-norm length of the hand-built tour (integer p only for exactness)."""
    total = 0
    for (ax, ay), (bx, by) in lb_tour_edges(lb):
        total += abs(ax - bx) + abs(ay - by)
    return total


def doubled_spanning_tree_tour(lb: ReferenceLayered) -> tuple[int, int]:
    """Length of the explicit spanning tree and its doubled tour upper bound."""
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
