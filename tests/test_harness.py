import hashlib
import json
import random

import pytest

from kopt_lab import harness
from kopt_lab.geometry import orientation, pt
from kopt_lab.harness import (
    ExperimentConfig,
    RejectionBudgetExceeded,
    certify_instance,
    gen_random,
    random_tour,
    run_experiment,
    run_trial,
    strip_timing,
)
from kopt_lab.tour import tour_length, two_opt


def reference_gen_points(n, grid, seed, budget=100000):
    """gen_random's points by the original O(k^2)-per-candidate orientation test."""
    rng = random.Random(seed)
    points = []
    tries = 0
    while len(points) < n:
        tries += 1
        if tries > budget:
            raise RejectionBudgetExceeded(f"could not place {n} points after {budget} tries")
        cand = pt(rng.randrange(grid + 1), rng.randrange(grid + 1))
        if cand in points:
            continue
        if any(
            orientation(points[i], points[j], cand) == 0
            for i in range(len(points)) for j in range(i + 1, len(points))
        ):
            continue
        points.append(cand)
    return points


def _outcome(gen, *args):
    try:
        return list(gen(*args))
    except RejectionBudgetExceeded as exc:
        return str(exc)


class TestGenRandom:
    def test_general_position(self):
        inst = gen_random(12, 50, seed=3)
        pts = inst.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for k in range(j + 1, len(pts)):
                    assert orientation(pts[i], pts[j], pts[k]) != 0

    def test_deterministic(self):
        a = gen_random(10, 1000, seed=77)
        b = gen_random(10, 1000, seed=77)
        assert a.points == b.points

    def test_seeds_differ(self):
        assert gen_random(10, 1000, seed=1).points != gen_random(10, 1000, seed=2).points

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(harness, "REJECTION_BUDGET", 3)
        with pytest.raises(RejectionBudgetExceeded, match="^could not place 5 points after 3 tries$"):
            gen_random(5, 10, seed=1)

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="n must be at least 0, got -1"):
            gen_random(-1, 1000, seed=1)

    def test_grid_below_n_is_refused(self):
        with pytest.raises(ValueError, match="grid bound must be at least n"):
            gen_random(5, 4, seed=1)

    def test_empty_instance(self):
        inst = gen_random(0, 1000, seed=1)
        assert inst.n == 0 and inst.name == "rand-n0-seed1"

    # Budgets near the median number of tries make about half the seeds of
    # the small grids run out; at (24, 24) about half the candidates are
    # rejected.
    @pytest.mark.parametrize("n,grid,budget,both_outcomes", [
        (8, 8, 11, True),
        (12, 20, 14, True),
        (20, 100, 21, True),
        (30, 10**6, 100000, False),
        (24, 24, 55, True),
    ])
    def test_matches_reference_generator(self, n, grid, budget, both_outcomes, monkeypatch):
        monkeypatch.setattr(harness, "REJECTION_BUDGET", budget)
        outcomes = set()
        for seed in range(40):
            want = _outcome(reference_gen_points, n, grid, seed, budget)
            got = _outcome(lambda *a: gen_random(*a).points, n, grid, seed)
            assert got == want, seed
            outcomes.add(type(want))
        assert outcomes == ({list, str} if both_outcomes else {list})

    def test_random_tour_is_permutation(self):
        t = random_tour(8, random.Random(5))
        assert sorted(t.order) == list(range(8))


class TestExperiment:
    def test_report_shape(self):
        report = run_experiment(ExperimentConfig(seed=9, trials=3))
        assert report["schema"] == "kopt-lab/1"
        assert report["generator"]
        assert len(report["trials"]) == 3
        agg = report["aggregate"]
        assert agg["completed"] == 3
        assert agg["max_ratio"] >= 1.0

    def test_deterministic_up_to_timing(self):
        cfg = ExperimentConfig(seed=4, trials=3)
        a = strip_timing(run_experiment(cfg))
        b = strip_timing(run_experiment(cfg))
        assert json.dumps(a, sort_keys=True, default=float) == json.dumps(
            b, sort_keys=True, default=float
        )

    def test_trials_emitted_in_index_order(self):
        report = run_experiment(ExperimentConfig(seed=4, trials=4))
        assert [t["trial"] for t in report["trials"]] == [0, 1, 2, 3]

    def test_single_trial_record(self):
        rec = run_trial(ExperimentConfig(seed=11, trials=1), 0)
        assert rec["certificate_passed"]
        assert rec["ratio"] >= 1.0 - 1e-12
        assert rec["ratio"] <= rec["certified_bound"]
        assert "timing" in rec

    def test_trial_record_is_header_plus_certify_instance(self):
        cfg = ExperimentConfig(seed=11, trials=1)
        rec = strip_timing(run_trial(cfg, 0))
        # Redraw the trial's instance and start as run_trial does.
        rng = random.Random(cfg.seed * 1_000_003)
        n = rng.randint(cfg.n_min, cfg.n_max)
        inst = gen_random(n, cfg.grid, seed=rng.randrange(2**62), p=cfg.p, name="trial0")
        start = random_tour(n, rng)
        shared = strip_timing(certify_instance(inst, start))
        assert rec == {"trial": 0, "instance": "trial0", "n": n, "p": cfg.p, "seed": cfg.seed,
                       **shared}
        assert shared["lengths"]["two_opt"] == float(tour_length(inst, two_opt(inst, start)))

    def test_no_completed_trial_is_not_a_pass(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise RejectionBudgetExceeded("could not place the points")
        monkeypatch.setattr(harness, "gen_random", exhausted)
        agg = run_experiment(ExperimentConfig(seed=3, trials=2))["aggregate"]
        assert agg["completed"] == 0 and agg["failed"] == 2
        assert agg["all_certificates_passed"] is False

    def test_mean_ratio_is_a_left_fold(self, monkeypatch):
        """The mean adds the ratios left to right; 3.12's `sum` would make it (1.0 + 2**-52) / 3."""
        ratios = [1.0, 1e-16, 1e-16]
        monkeypatch.setattr(harness, "run_trial",
                            lambda config, trial: {"trial": trial, "ratio": ratios[trial], "certificate_passed": True})
        agg = run_experiment(ExperimentConfig(seed=3, trials=3))["aggregate"]
        assert agg["mean_ratio"] == 1.0 / 3 and agg["max_ratio"] == 1.0

    def test_strip_timing_removes_all_timing(self):
        report = run_experiment(ExperimentConfig(seed=2, trials=2))
        stripped = strip_timing(report)
        assert "timing" not in json.dumps(stripped)


class TestSeededOutputs:
    """Seeded outputs pinned to the values of the pure-Python 2-move scan."""

    def test_experiment_digest(self):
        report = strip_timing(run_experiment(ExperimentConfig(seed=1, trials=20)))
        text = json.dumps(report, sort_keys=True, default=float)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "604fb16397eb348637959473e6bd780c8b460e26d8d95f404a86b3ef4ff11055")

    @pytest.mark.parametrize("seed,order", [
        (1, (26, 14, 3, 19, 24, 8, 20, 13, 9, 0, 16, 5, 11, 23, 4, 15, 12, 1, 22, 28,
             10, 27, 6, 7, 18, 17, 2, 25, 21, 29)),
        (2, (3, 12, 11, 15, 7, 8, 4, 9, 25, 28, 26, 29, 2, 27, 20, 17, 10, 1, 19, 18,
             6, 21, 22, 16, 24, 5, 0, 13, 14, 23)),
        (3, (26, 13, 18, 23, 2, 16, 6, 24, 19, 21, 15, 0, 8, 5, 9, 1, 22, 20, 14, 25,
             28, 17, 7, 10, 3, 12, 4, 29, 27, 11)),
    ])
    def test_two_opt_orders(self, seed, order):
        inst = gen_random(30, 10**6, seed=seed)
        assert two_opt(inst, random_tour(30, random.Random(seed))).order == order

    def test_gen_random_200_points(self):
        inst = gen_random(200, 10**6, seed=1)
        coords = repr([(int(p.x), int(p.y)) for p in inst.points])
        assert hashlib.sha256(coords.encode()).hexdigest() == (
            "9ea09963f99470e79ffa1d906948e795c82957ec6bea2c44aeade3d6c8056771")
