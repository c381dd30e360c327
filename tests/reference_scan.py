"""Pure-Python references for the 2-move engine and the 3-optimality scan, kept as the tests' oracles.

`reference_first_2move` is the loop the vectorized engine replaced: the same
scan order, the same arithmetic (the 1-norm over the coordinates' ints or
Fractions for exact instances, `inst.dist` otherwise) and the same
threshold rule.  `reference_best_2move` is the brute-force maximum of gain
less threshold over the same pairs.
`reference_two_opt` is the pivot 2-Opt ran before it kept a position-ordered
state: a fresh scan of the current tour after every move.
`reference_find_improving_3move` is the 3-optimality loop the scan over
segment ends replaced: `inst.dist` on every edge and sliced, reversed copies
of the tour for every reconnection.
"""

import itertools

from kopt_lab.tour import DEFAULT_GAIN_EPS, Tour, TwoMove, _gain_threshold


def _dist_and_threshold(inst):
    if inst.exact:
        xs = [p.x for p in inst.points]
        ys = [p.y for p in inst.points]

        def d(u, v):
            return abs(xs[u] - xs[v]) + abs(ys[u] - ys[v])

        return d, lambda removed: 0
    return inst.dist, lambda removed: DEFAULT_GAIN_EPS * float(removed)


def _moves(inst, t):
    """(i, j, gain, threshold) for every non-adjacent edge pair, in (i, j) order."""
    d, threshold = _dist_and_threshold(inst)
    o = t.order
    n = len(o)
    for i in range(n - 1):
        a, b = o[i], o[i + 1]
        c_ab = d(a, b)
        j_hi = n if i > 0 else n - 1  # edges (i, j) must be non-adjacent in the cycle
        for j in range(i + 2, j_hi):
            x, y = o[j], o[(j + 1) % n]
            removed = c_ab + d(x, y)
            gain = removed - d(a, x) - d(b, y)
            yield i, j, gain, threshold(removed)


def reference_first_2move(inst, t):
    """First improving 2-move in lexicographic (i, j) order, if any."""
    for i, j, gain, threshold in _moves(inst, t):
        if gain > threshold:
            return TwoMove(i, j, gain)
    return None


def reference_best_2move(inst, t):
    """The pair of largest gain - threshold, first among ties; its gain is that margin."""
    best = None
    for i, j, gain, threshold in _moves(inst, t):
        margin = gain - threshold
        if best is None or margin > best.gain:
            best = TwoMove(i, j, margin)
    return best


def reference_two_opt(inst, start):
    """2-Opt by first improvement from (0, 0) on every scan: the final tour and the moves applied."""
    o, moves = start.order, []
    while (m := reference_first_2move(inst, Tour(o))) is not None:
        moves.append(m)
        o = o[: m.i + 1] + o[m.i + 1 : m.j + 1][::-1] + o[m.j + 1 :]
    return Tour(o), moves


def reference_find_improving_3move(inst, t):
    """First improving 3-move in (i, j, k, reconnection) order: ((i, j, k), new tour), or None."""
    o = t.order
    n = len(o)
    d = inst.dist

    def seg(lo, hi):  # inclusive cyclic slice
        if lo <= hi:
            return o[lo : hi + 1]
        return o[lo:] + o[: hi + 1]

    for i, j, k in itertools.combinations(range(n), 3):
        s1 = seg(i + 1, j)
        s2 = seg(j + 1, k)
        s3 = seg((k + 1) % n, i)
        removed = d(o[i], o[i + 1]) + d(o[j], o[j + 1]) + d(o[k], o[(k + 1) % n])
        eps = _gain_threshold(inst, removed)
        for xa, ya in ((s1, s2), (s2, s1)):
            for xr in (False, True):
                for yr in (False, True):
                    if (xa, xr, yr) == (s1, False, False):
                        continue  # identity reconnection
                    x = tuple(reversed(xa)) if xr else xa
                    y = tuple(reversed(ya)) if yr else ya
                    added = d(s3[-1], x[0]) + d(x[-1], y[0]) + d(y[-1], s3[0])
                    if removed - added > eps:
                        return (i, j, k), Tour(tuple(s3) + tuple(x) + tuple(y))
    return None
