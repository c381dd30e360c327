"""Pure-Python reference for the 2-move engine, kept as the tests' oracle.

`reference_first_2move` is the loop the vectorized engine replaced: the same
scan order, the same arithmetic (the 1-norm over the coordinates' ints or
Fractions for exact instances, `inst.dist` otherwise) and the same
threshold rule.  `reference_best_2move` is the brute-force maximum of gain
less threshold over the same pairs.
`reference_two_opt` is the pivot 2-Opt ran before it kept a position-ordered
state: a fresh scan of the current tour after every move.
"""

from kopt_lab.tour import DEFAULT_GAIN_EPS, Tour, TwoMove


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
