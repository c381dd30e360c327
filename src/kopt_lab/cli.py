"""Command-line front door.

Exit codes: 0 all asserted checks passed, 1 a certificate or assertion
failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import lowerbound, tsplib
from .harness import (SCHEMA, ExperimentConfig, certify_instance, gen_random, random_tour,
                      run_experiment)
from .tour import Instance, exact_opt, tour_length, two_opt

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _write_json(obj, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True, default=float)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _load_instance(path: str) -> Instance:
    with open(path) as f:
        return tsplib.read_instance(f)


def _save_instance(inst: Instance, out: str | None):
    if out:
        with open(out, "w") as f:
            tsplib.write_instance(f, inst)
    else:
        tsplib.write_instance(sys.stdout, inst)


def cmd_gen_random(args) -> int:
    inst = gen_random(args.n, args.grid, seed=args.seed, p=args.p)
    _save_instance(inst, args.out)
    return EXIT_OK


def cmd_gen_lb(args) -> int:
    lb = lowerbound.generate_lb_instance(args.k, args.p, args.q)
    _save_instance(lb.as_instance(), args.out)
    return EXIT_OK


def cmd_gen_3d(args) -> int:
    inst3 = lowerbound.generate_3d_instance(args.k)
    _save_instance(inst3.as_instance(), args.out)
    if args.tours_out:
        with open(args.tours_out, "w") as f:
            tsplib.write_tour(f, inst3.tour_t, inst3.tour_s, name=f"I3d_k{args.k}_T_S")
    return EXIT_OK


def cmd_solve_2opt(args) -> int:
    inst = _load_instance(args.instance)
    start = random_tour(inst.n, random.Random(args.seed))
    t = two_opt(inst, start)
    if args.out:
        with open(args.out, "w") as f:
            tsplib.write_tour(f, t, name=f"{inst.name}-2opt")
    print(f"length {float(tour_length(inst, t))}")
    return EXIT_OK


def cmd_solve_exact(args) -> int:
    inst = _load_instance(args.instance)
    t, length = exact_opt(inst)
    if args.out:
        with open(args.out, "w") as f:
            tsplib.write_tour(f, t, name=f"{inst.name}-opt")
    print(f"length {float(length)}")
    return EXIT_OK


def cmd_certify(args) -> int:
    inst = _load_instance(args.instance)
    rec = certify_instance(inst, random_tour(inst.n, random.Random(args.seed)))
    passed = rec.pop("certificate_passed")
    del rec["lengths"], rec["timing"]
    _write_json({"schema": SCHEMA, "instance": inst.name, "n": inst.n, "passed": passed, **rec},
                args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_scan_kopt(args) -> int:
    if args.k != 2:
        raise ValueError(f"scan-kopt decides 2-optimality only (--k 2), got --k {args.k}")
    if args.tour and not args.instance:
        raise ValueError("--instance is required with --tour")
    if args.instance:
        if not args.tour:
            raise ValueError("--tour is required with --instance")
        for flag in ("p", "q"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} chooses the layered family; it cannot be used with --instance")
        inst = _load_instance(args.instance)
        with open(args.tour) as f:
            tour = tsplib.read_tour(f)
    else:
        p = 1 if args.p is None else args.p
        q = 3 if args.q is None else args.q
        lb = lowerbound.generate_lb_instance(args.k, p, q)
        inst = lb.as_instance()
        tour = lowerbound.build_lb_tour(lb)
    t0 = time.perf_counter()
    rep, examined = lowerbound._scan_2opt(inst, tour)
    elapsed = time.perf_counter() - t0
    _write_json({
        "schema": SCHEMA,
        "instance": inst.name,
        "n": rep.n,
        "pairs_scanned": rep.pairs_scanned,
        "pairs_examined": examined,
        "two_optimal": rep.two_optimal,
        "witness": rep.witness,
        "best_gain": rep.best_gain,
        "timing": {"seconds": elapsed},
    }, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    config = ExperimentConfig(seed=args.seed, n_min=args.n_min, n_max=args.n_max,
                              grid=args.grid, p=args.p, trials=args.trials)
    report = run_experiment(config)
    _write_json(report, args.out)
    agg = report["aggregate"]
    ok = agg["failed"] == 0 and agg["all_certificates_passed"]
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kopt-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-random", help="random general-position instance")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--grid", type=int, default=1000)
    g.add_argument("--p", type=float, default=2)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen_random)

    g = sub.add_parser("gen-lb", help="layered adversarial lower-bound instance")
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--q", type=int, default=3)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen_lb)

    g = sub.add_parser("gen-3d", help="3-D prism-chain instance")
    g.add_argument("--k", type=int, default=8)
    g.add_argument("--out")
    g.add_argument("--tours-out")
    g.set_defaults(func=cmd_gen_3d)

    g = sub.add_parser("solve-2opt", help="run 2-Opt from a seeded random start")
    g.add_argument("instance")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out")
    g.set_defaults(func=cmd_solve_2opt)

    g = sub.add_parser("solve-exact", help="Held-Karp exact optimum (n <= 18)")
    g.add_argument("instance")
    g.add_argument("--out")
    g.set_defaults(func=cmd_solve_exact)

    g = sub.add_parser("certify", help="full ratio certificate for one instance")
    g.add_argument("instance")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out")
    g.set_defaults(func=cmd_certify)

    g = sub.add_parser("scan-kopt", help="exhaustive 2-move scan")
    g.add_argument("--instance")
    g.add_argument("--tour")
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--p", type=int, help="family p-norm (default 1); not with --instance")
    g.add_argument("--q", type=int, help="family q (default 3); not with --instance")
    g.add_argument("--out")
    g.set_defaults(func=cmd_scan_kopt)

    g = sub.add_parser("report", help="run the seeded certification experiment")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--trials", type=int, default=10)
    g.add_argument("--n-min", type=int, default=6)
    g.add_argument("--n-max", type=int, default=12)
    g.add_argument("--grid", type=int, default=1000)
    g.add_argument("--p", type=float, default=2)
    g.add_argument("--out")
    g.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
