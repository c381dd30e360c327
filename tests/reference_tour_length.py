"""The per-edge fold of `inst.dist` that `tour.tour_length` was, kept as the tests' oracle.

`tour_length` still runs this fold for p other than 1 and 2, for p = 2 on
rational points or spans of 2^26 and more, and for 3-D instances; on the
other 2-D instances under p = 1 and p = 2 it reads `Instance._xy` and must
give the same value of the same type.  The edges are added one at a time,
left to right from position 0: `sum` would compensate a float sum from
Python 3.12 on.
"""

from kopt_lab.tour import Instance, Tour


def reference_tour_length(inst: Instance, t: Tour):
    t.validate(inst)
    o = t.order
    total = 0
    for i in range(len(o)):
        total = total + inst.dist(o[i], o[(i + 1) % len(o)])
    return total
