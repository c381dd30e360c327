"""The benchmark's workloads: seeded inputs, one operation, and its output check.

Every operation calls kopt_lab through module attributes (`tour.two_opt`,
not a name imported from `tour`), so that the tracer's wrappers see the
calls.  `inputs(seed, smoke)` yields the inputs of ops 0, 1, ... and runs
outside the timed interval; so do `check`, which raises CheckFailed, and
`digest_view`, which returns an op's deterministic output for the drift
digest.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import io
import itertools
import random

from kopt_lab import arborescence, harness, lowerbound, tour, tsplib
from kopt_lab.tour import Instance, Tour


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


# --- corpus: one `kopt-lab report` trial per op --------------------------------

CORPUS_CONFIG = harness.ExperimentConfig(seed=20240917, n_min=6, n_max=12, grid=1000, p=2)
SMOKE_CORPUS_CONFIG = dataclasses.replace(CORPUS_CONFIG, n_max=7)


@dataclasses.dataclass(frozen=True)
class CorpusInput:
    config: harness.ExperimentConfig
    trial: int


def _trial_rng(cfg: harness.ExperimentConfig, trial: int) -> random.Random:
    """The random stream harness.run_trial draws a trial's n, instance seed and start from."""
    return random.Random(cfg.seed * 1_000_003 + trial)


def corpus_inputs(seed: int, smoke: bool):
    """Trials of a seed-specific report, taken so that op k has n = n_min + k mod 7.

    Held-Karp's cost grows as 2^n; cycling through the sizes gives every run
    the size mix of a long report, so that runs on different seeds differ by
    their instances rather than by how many n = 12 trials they happened to draw.
    """
    cfg = SMOKE_CORPUS_CONFIG if smoke else CORPUS_CONFIG
    sizes = range(cfg.n_min, cfg.n_max + 1)
    pending = {n: collections.deque() for n in sizes}
    trials = itertools.count(seed * 1_000_000)
    for k in itertools.count():
        want = sizes[k % len(sizes)]
        while not pending[want]:
            trial = next(trials)
            pending[_trial_rng(cfg, trial).randint(cfg.n_min, cfg.n_max)].append(trial)
        yield CorpusInput(cfg, pending[want].popleft())


def corpus_op(inp: CorpusInput) -> dict:
    return harness.run_trial(inp.config, inp.trial)


def corpus_check(inp: CorpusInput, rec: dict):
    _require(rec["trial"] == inp.trial, "record is for another trial")
    _require(rec["certificate_passed"] and not rec["failures"],
             f"certificate failed: {rec['failures']}")
    # Rebuild the trial's instance and 2-Opt tour S as run_trial draws them.
    cfg = inp.config
    rng = _trial_rng(cfg, inp.trial)
    n = rng.randint(cfg.n_min, cfg.n_max)
    inst = harness.gen_random(n, cfg.grid, seed=rng.randrange(2**62), p=cfg.p,
                              name=f"trial{inp.trial}")
    s = tour.two_opt(inst, harness.random_tour(n, rng))
    c_s, c_t = rec["lengths"]["two_opt"], rec["lengths"]["exact"]
    _require(float(tour.tour_length(inst, s)) == c_s, "rebuilt S differs from the trial's")
    _require(c_s >= c_t * (1 - 1e-12), f"c(S)={c_s} below the optimum c(T)={c_t}")
    _require(lowerbound.scan_2opt_optimality(inst, s).two_optimal, "S is not 2-optimal")


def corpus_view(rec: dict) -> dict:
    return harness.strip_timing(rec)


# --- random30: two 2-Opt runs and a certificate on one n = 30 instance ------------

@dataclasses.dataclass(frozen=True)
class Random30Input:
    n: int
    grid: int
    gen_seed: int
    starts: tuple  # two start tours


def random30_inputs(seed: int, smoke: bool):
    n, grid = (10, 1000) if smoke else (30, 10**6)
    for k in itertools.count():
        rng = _rng("random30", seed, k)
        starts = []
        for _ in range(2):
            order = list(range(n))
            rng.shuffle(order)
            starts.append(Tour(tuple(order)))
        yield Random30Input(n, grid, rng.randrange(2**62), tuple(starts))


def random30_op(inp: Random30Input):
    inst = harness.gen_random(inp.n, inp.grid, seed=inp.gen_seed, p=2)
    a, b = (tour.two_opt(inst, start) for start in inp.starts)
    t, s = (a, b) if tour.tour_length(inst, a) <= tour.tour_length(inst, b) else (b, a)
    return inst, t, s, arborescence.certify_pair(inst, t, s)


def random30_check(inp: Random30Input, out):
    inst, t, s, cert = out
    _require(inst.n == inp.n, "wrong instance size")
    _require(cert.passed and not cert.failures, f"certificate failed: {cert.failures}")
    _require(cert.lengths["t"] <= cert.lengths["s"], "reference tour T is the longer one")
    for name, tr in (("T", t), ("S", s)):
        _require(lowerbound.scan_2opt_optimality(inst, tr).two_optimal, f"{name} is not 2-optimal")


def random30_view(out) -> dict:
    inst, t, s, cert = out
    return {"instance": inst.name, "t": t.order, "s": s.order,
            "certificate": dataclasses.asdict(cert)}


# --- layered: the adversarial family's verdicts, read-only on large inputs ------

# (p, q) -> figures of the (k = 2) layered family.  Closed forms with w = q^((p+1)q):
# tour length 2(q+1)w + 2w + 2*sum_i q^((p+1)(q-i)-1); the doubled spanning tree
# tour is twice the tree length 3w + 2*sum_i q^((p+1)(q-i)-1) * (q^((p+1)i) + 1).
LAYERED = {
    (1, 3): {"n": 2916, "length": 7836, "dst": (4191, 8382), "pairs": 4_247_154, "best_gain": -2},
    (2, 3): {"n": 74190, "length": 210456, "dst": (112041, 224082)},
}


@dataclasses.dataclass(frozen=True)
class LayeredInput:
    relabel: tuple   # new vertex label of each (1, 3) vertex
    shift: int       # rotation of the tour's start
    reverse: bool
    full: bool       # smoke runs skip the pure-Python verdict and the (2, 3) part


def layered_inputs(seed: int, smoke: bool):
    n = LAYERED[(1, 3)]["n"]
    for k in itertools.count():
        rng = _rng("layered", seed, k)
        relabel = list(range(n))
        rng.shuffle(relabel)
        yield LayeredInput(tuple(relabel), rng.randrange(n), rng.random() < 0.5, not smoke)


@dataclasses.dataclass
class LayeredOutput:
    sent: Instance
    sent_tour: Tour
    got: Instance
    got_tour: Tour
    tsplib_text: str
    scan: lowerbound.ScanReport
    python_optimal: bool | None
    length: int
    tour_length: object
    dst: tuple
    big: dict | None


def layered_op(inp: LayeredInput) -> LayeredOutput:
    lb = lowerbound.generate_lb_instance(2, 1, 3)
    hand = lowerbound.build_lb_tour(lb)
    inst = lb.as_instance()
    # The seed relabels the vertices and rotates and reverses the tour; no
    # verdict, length or pair count depends on either.
    points = [None] * inst.n
    for old, new in enumerate(inp.relabel):
        points[new] = inst.points[old]
    order = [inp.relabel[v] for v in hand.order]
    order = order[inp.shift:] + order[:inp.shift]
    if inp.reverse:
        order.reverse()
    sent, sent_tour = Instance(points, inst.norm, inst.name), Tour(tuple(order))

    inst_file, tour_file = io.StringIO(), io.StringIO()
    tsplib.write_instance(inst_file, sent)
    tsplib.write_tour(tour_file, sent_tour)
    got = tsplib.read_instance(io.StringIO(inst_file.getvalue()))
    got_tour = tsplib.read_tour(io.StringIO(tour_file.getvalue()))

    scan = lowerbound.scan_2opt_optimality(got, got_tour)
    python_optimal = tour.is_k_optimal(got, got_tour, 2).optimal if inp.full else None
    out = LayeredOutput(
        sent, sent_tour, got, got_tour, inst_file.getvalue() + tour_file.getvalue(), scan,
        python_optimal, lowerbound.lb_tour_length_exact(lb), tour.tour_length(got, got_tour),
        lowerbound.doubled_spanning_tree_tour(lb), None)
    if inp.full:
        big = lowerbound.generate_lb_instance(2, 2, 3)
        big_tour = lowerbound.build_lb_tour(big)
        out.big = {
            "n": big.n,
            "tour_n": len(set(big_tour.order)),
            "tour_length": tour.tour_length(big.as_instance(), big_tour),
            "length": lowerbound.lb_tour_length_exact(big),
            "dst": lowerbound.doubled_spanning_tree_tour(big),
        }
    return out


def layered_check(inp: LayeredInput, out: LayeredOutput):
    want = LAYERED[(1, 3)]
    _require(out.got.points == out.sent.points and out.got.norm == out.sent.norm,
             "TSPLIB round trip changed the instance")
    _require(out.got_tour == out.sent_tour, "TSPLIB round trip changed the tour")
    _require(out.scan.n == want["n"] and out.scan.pairs_scanned == want["pairs"],
             f"scanned {out.scan.pairs_scanned} pairs over n={out.scan.n}")
    _require(out.scan.two_optimal and out.scan.witness is None, "numpy scan found an improving move")
    _require(out.scan.best_gain == want["best_gain"], f"best gain {out.scan.best_gain}")
    if inp.full:
        _require(out.python_optimal is True, "the pure-Python engine disagrees with the numpy scan")
    _require(out.length == want["length"] and out.tour_length == want["length"],
             f"tour length {out.length} / {out.tour_length}")
    _require(tuple(out.dst) == want["dst"], f"doubled spanning tree {out.dst}")
    if inp.full:
        big, want = out.big, LAYERED[(2, 3)]
        _require(big["n"] == want["n"] and big["tour_n"] == want["n"], f"(2, 3) size {big['n']}")
        _require(big["length"] == want["length"] and big["tour_length"] == want["length"],
                 f"(2, 3) tour length {big['length']} / {big['tour_length']}")
        _require(tuple(big["dst"]) == want["dst"], f"(2, 3) doubled spanning tree {big['dst']}")


def layered_view(out: LayeredOutput) -> dict:
    return {
        "tsplib_sha256": hashlib.sha256(out.tsplib_text.encode()).hexdigest(),
        "scan": dataclasses.asdict(out.scan),
        "python_optimal": out.python_optimal,
        "length": out.length,
        "tour_length": str(out.tour_length),
        "dst": out.dst,
        "big": out.big,
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    op: object
    check: object
    digest_view: object
    per_run: int          # distinct inputs of a run, taken in turn, round after round
    ref_ops: int          # ops behind the output digest and the traced counts
    smoke_per_run: int
    smoke_ref_ops: int


# corpus takes 10 trials of each n in 6..12, so that its figures hardly depend
# on which trials a seed draws; random30 takes more instances than a run
# reaches, so that the median is over as many as possible; layered does the
# same work for every seed.
WORKLOADS = {w.name: w for w in (
    Workload("corpus", corpus_inputs, corpus_op, corpus_check, corpus_view, 70, 70, 4, 4),
    Workload("random30", random30_inputs, random30_op, random30_check, random30_view, 200, 3, 2, 2),
    Workload("layered", layered_inputs, layered_op, layered_check, layered_view, 1, 1, 1, 1),
)}
