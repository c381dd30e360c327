"""Seeded instance generation and the end-to-end certification experiment."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .arborescence import certify_pair
from .geometry import PNorm, Point
from .tour import EXACT_MAX_N, Instance, Tour, _check_exact_n, _check_planar, exact_opt, two_opt

SCHEMA = "kopt-lab/1"
GENERATOR = "python-random-mt19937"


class RejectionBudgetExceeded(RuntimeError):
    pass


def _on_common_line(cx: int, cy: int, xs: list, ys: list) -> bool:
    """Is (cx, cy) collinear with two of the points (xs[k], ys[k])?  O(len(xs)).

    Two points lie on one line through (cx, cy) iff their gcd-reduced,
    sign-normalized directions from it are equal.
    """
    seen = set()
    for x, y in zip(xs, ys):
        dx, dy = x - cx, y - cy
        g = math.gcd(dx, dy)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        direction = dx // g, dy // g
        if direction in seen:
            return True
        seen.add(direction)
    return False


def gen_random(n: int, grid: int, seed: int, p: float = 2, name: str = "",
               budget: int = 100000) -> Instance:
    """n distinct integer-grid points in general position (no collinear triple).

    Each candidate is tested in O(n) against the points placed so far, on
    plain ints, so generation is O(n^2) overall when few candidates are
    rejected.  The points are built once, at the end.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    if grid < n:
        raise ValueError("grid bound must be at least n")
    norm = PNorm(p)  # a bad p fails before any point is placed
    randrange = random.Random(seed).randrange
    xs, ys, placed = [], [], set()
    tries = 0
    while len(xs) < n:
        tries += 1
        if tries > budget:
            raise RejectionBudgetExceeded(f"could not place {n} points after {budget} tries")
        cx, cy = randrange(grid + 1), randrange(grid + 1)
        if (cx, cy) in placed or _on_common_line(cx, cy, xs, ys):
            continue
        placed.add((cx, cy))
        xs.append(cx)
        ys.append(cy)
    return Instance([Point(x, y) for x, y in zip(xs, ys)], norm, name or f"rand-n{n}-seed{seed}")


def random_tour(n: int, rng: random.Random) -> Tour:
    order = list(range(n))
    rng.shuffle(order)
    return Tour(tuple(order))


@dataclass
class ExperimentConfig:
    seed: int = 1
    n_min: int = 6
    n_max: int = 12
    grid: int = 1000
    p: float = 2
    trials: int = 10

    def __post_init__(self):
        # Checked up front: a bad range would otherwise fail every trial alike.
        if self.n_min < 3:
            raise ValueError(f"n_min must be at least 3, got {self.n_min}")
        if self.n_min > self.n_max:
            raise ValueError(f"n_min ({self.n_min}) must not exceed n_max ({self.n_max})")
        if self.n_max > EXACT_MAX_N:
            raise ValueError(f"n_max must be at most {EXACT_MAX_N} (Held-Karp), got {self.n_max}")
        if self.grid < self.n_max:
            raise ValueError(f"grid ({self.grid}) must be at least n_max ({self.n_max})")
        PNorm(self.p)  # the p-norm's own check: a finite p >= 1
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")


def certify_instance(inst: Instance, start: Tour) -> dict:
    """2-Opt from `start`, the exact optimum and the ratio certificate of the pair.

    Returns the record fields shared by `report` trials and `certify`.  An
    instance that Held-Karp or the simplicity test cannot take, n outside
    3..EXACT_MAX_N or not 2-D, raises their ValueError before 2-Opt runs.
    """
    _check_exact_n(inst.n)
    _check_planar(inst)
    t0 = time.perf_counter()
    s = two_opt(inst, start)
    t_opt, opt_len = exact_opt(inst)
    cert = certify_pair(inst, t_opt, s)
    elapsed = time.perf_counter() - t0
    return {
        "lengths": {"two_opt": cert.lengths["s"], "exact": float(opt_len)},
        "ratio": cert.ratio,
        "certified_bound": cert.bound,
        "nprime": cert.nprime,
        "crossings": cert.crossings,
        "partition_sizes": cert.part_sizes,
        "arborescences": cert.arb_stats,
        "certificate_passed": cert.passed,
        "failures": cert.failures,
        "timing": {"seconds": elapsed},
    }


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """gen -> 2-opt from a random start -> exact optimum -> certificate."""
    rng = random.Random(config.seed * 1_000_003 + trial)
    n = rng.randint(config.n_min, config.n_max)
    inst = gen_random(n, config.grid, seed=rng.randrange(2**62), p=config.p,
                      name=f"trial{trial}")
    return {
        "trial": trial,
        "instance": inst.name,
        "n": n,
        "p": config.p,
        "seed": config.seed,
        **certify_instance(inst, random_tour(n, rng)),
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """All trials plus an aggregate block; failed trials are recorded, not fatal."""
    records = []
    for trial in range(config.trials):
        try:
            records.append(run_trial(config, trial))
        except Exception as exc:  # noqa: BLE001 - trial isolation is the contract
            records.append({"trial": trial, "failed": True, "error": str(exc)})
    ok = [r for r in records if not r.get("failed")]
    report = {
        "schema": SCHEMA,
        "generator": GENERATOR,
        "config": {
            "seed": config.seed, "n_min": config.n_min, "n_max": config.n_max,
            "grid": config.grid, "p": config.p, "trials": config.trials,
        },
        "trials": records,
        "aggregate": {
            "completed": len(ok),
            "failed": len(records) - len(ok),
            # Nothing completed is nothing certified.
            "all_certificates_passed": bool(ok) and all(r["certificate_passed"] for r in ok),
            "max_ratio": max((r["ratio"] for r in ok), default=None),
            "mean_ratio": (sum(r["ratio"] for r in ok) / len(ok)) if ok else None,
        },
    }
    return report


def strip_timing(report):
    """Reports are deterministic up to wall-clock timing fields."""
    if isinstance(report, dict):
        return {k: strip_timing(v) for k, v in report.items() if k != "timing"}
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report
