"""The per-edge fold of `inst.dist` that `tour.tour_length` was, kept as the tests' oracle.

`tour_length` still runs this fold for p other than 1 and 2, for p = 2 on
rational points or spans of 2^26 and more, and for 3-D instances; on the
other 2-D instances under p = 1 and p = 2 it reads `Instance._xy` and must
give the same value of the same type.
"""

from kopt_lab.tour import Instance, Tour


def reference_tour_length(inst: Instance, t: Tour):
    t.validate(inst)
    o = t.order
    return sum(inst.dist(o[i], o[(i + 1) % len(o)]) for i in range(len(o)))
