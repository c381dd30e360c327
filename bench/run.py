"""kopt-lab benchmark: one seeded workload, one thread, a closed loop.

    python3 bench/run.py --workload {corpus,random30,layered} --seed N \
        --seconds S --trace {0,1} [--smoke]

A run draws a fixed number of inputs from the seed and runs them in turn,
round after round, until `--seconds` of op time have passed; each op starts
when the previous one has finished and been checked.  The first output of
each input gets the workload's check, and every repeat must give the same
output.  Input generation and checks run outside the timed interval.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with every time
at a fixed host speed.  The host is shared, and its speed changes by up to
2x for seconds to minutes at a time, even within one op.  So an interval
timer runs a small fixed Fraction kernel, none of it kopt_lab's, every
SAMPLE_EVERY_S of the run, inside the ops too, and each op is scaled by
REF_PROBE_S over the kernel's mean time while it ran (less the samples' own
time): the seconds it would have taken on the reference host at its
fastest.  Set-up probes are scaled by the samples nearest them.  The record
in bench/out/ keeps the raw wall times too.
  setup_s      median over fresh processes of process start -> imports,
               input seeding and one smoke-size warm-up op done and checked;
               the probes are spread over the run
  ops_per_s    the run's inputs per second, each input at the mean of its
               repeats
  op_p50_s     median over the run's inputs of each one's mean latency
  peak_rss_mb  peak resident memory of this process
--trace 1 reports the per-layer metrics.  It runs the ops of `--seconds / 3`
twice each, untraced and then with spans around every public function of
the layer modules (self times per op, the uncovered remainder, and the
tracing overhead from the pairs), and then the reference ops once more with
call counters.

The last stdout line is the JSON result; a fuller record, with the output
digest, every op time, the p95 latency when at least 200 ops ran, and the
run's stamp, is written to bench/out/, together with the spans of a traced
run.  Traced runs report raw seconds.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 9
# The probe kernel's best time on the reference host
# (2 vCPUs of a shared Sapphire Rapids Xeon, Python 3.11.7).
REF_PROBE_S = 0.00055
SAMPLE_EVERY_S = 0.02
NEAREST_SAMPLES = 8
# Claims tuned on other seeds are confirmed on this one.
HELD_OUT_SEED = 104729
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "random30", "layered"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the bench's own test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Runs ops of one workload and keeps their times, failures and digest inputs."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.w, self.seed, self.smoke = workload, seed, smoke
        self.ref_ops = workload.smoke_ref_ops if smoke else workload.ref_ops
        self.attempted = 0
        self.failed = 0
        self._first = {}  # (smoke, input index) -> digest view of its first output

    def inputs(self, smoke: bool) -> list:
        per_run = self.w.smoke_per_run if smoke else self.w.per_run
        return list(itertools.islice(self.w.inputs(self.seed, smoke), per_run))

    def run(self, budget_s: float = 0.0, count: int | None = None, recorders=(None,),
            smoke: bool | None = None, after_op=None) -> list[dict]:
        """Ops over the run's inputs in turn until `count` ops, or until `budget_s`
        of op time and the ref ops are done.

        Each op runs once under each recorder in turn (None runs the program
        unwrapped), so that the runs of a pair see the same state of the host;
        the budget counts the first recorder's op time.  `after_op(op_s)` runs
        after every op, outside the timed interval, with the op's time.
        """
        smoke = self.smoke if smoke is None else smoke
        inputs = self.inputs(smoke)
        results = [{"times": [], "starts": [], "inputs": [], "views": []} for _ in recorders]
        first = results[0]["times"]

        def more(k: int) -> bool:
            if count is not None:
                return k < count
            return sum(first) < budget_s or k < self.ref_ops

        k = 0
        while more(k):
            i = k % len(inputs)
            for recorder, res in zip(recorders, results):
                self._one(k, (smoke, i), inputs[i], recorder, res)
            k += 1
            if after_op:
                after_op(first[-1])
        for res in results:
            text = json.dumps(res.pop("views"), sort_keys=True, default=str)
            res["digest"] = hashlib.sha256(text.encode()).hexdigest()
        return results

    def _one(self, k: int, key, inp, recorder, res: dict):
        out, error = None, None
        scope = recorder.op(k) if recorder else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            try:
                out = self.w.op(inp)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                error = traceback.format_exc()
        res["times"].append(time.perf_counter() - t0)
        res["starts"].append(t0)
        res["inputs"].append(key[1])
        if error is None:
            try:
                view = self._check(key, inp, out)
                if k < self.ref_ops:
                    res["views"].append(view)
            except Exception:  # noqa: BLE001 - a failed check is counted, not fatal
                error = traceback.format_exc()
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"op {k} of {self.w.name} failed:\n{error}", file=sys.stderr)

    def _check(self, key, inp, out):
        """The workload's check on an input's first output; later ones must repeat it."""
        view = json.loads(json.dumps(self.w.digest_view(out), sort_keys=True, default=str))
        if key not in self._first:
            self.w.check(inp, out)
            self._first[key] = view
        elif view != self._first[key]:
            raise AssertionError(f"input {key[1]} gave another output than on its first run")
        return view


def probe_kernel():
    """A small fixed piece of exact Fraction arithmetic, like most of kopt_lab's
    work but none of its code, so that no change to the program moves it."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)


class HostSpeed:
    """Samples the host's speed during a run, to put timed intervals on a fixed speed.

    An interval timer runs the probe kernel every SAMPLE_EVERY_S, inside the
    ops too.  An interval is scaled by REF_PROBE_S over the kernel's mean time
    in the samples taken during it, or the NEAREST_SAMPLES nearest ones when
    it is short; the time the samples took in it is taken out first.
    """

    def __init__(self):
        self.starts, self.spans = [], []  # perf_counter at each sample's start; its seconds

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        self.starts.append(t0)
        self.spans.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` timed from `start`, less sampling, at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        inside = sum(self.spans[lo:hi])
        widen = max(0, (NEAREST_SAMPLES - (hi - lo) + 1) // 2)
        near = self.spans[max(0, lo - widen):hi + widen]
        return (seconds - inside) * REF_PROBE_S / statistics.fmean(near)


def setup_probe(args) -> int:
    """One set-up: imports, input seeding and a checked smoke-size warm-up op."""
    import workloads
    w = workloads.WORKLOADS[args.workload]
    loop = Loop(w, args.seed, args.smoke)
    loop.inputs(args.smoke)  # the timed ops' inputs
    loop.run(count=1, smoke=True)
    print(json.dumps({"ready": time.perf_counter(), "failed": loop.failed}))
    return 0 if loop.failed == 0 else 1


def setup_once(args) -> float:
    """Spawn -> ready of one fresh process (CLOCK_MONOTONIC is system-wide)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + ["--smoke"] * args.smoke
    spawn = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - spawn


def stamp(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kopt_lab" / "__init__.py").is_file():
        print(f"kopt_lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin numpy's thread pools before anything imports numpy.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    import workloads  # imports kopt_lab and numpy
    info = stamp(args)
    loop = Loop(workloads.WORKLOADS[args.workload], args.seed, args.smoke)
    record = {"stamp": info}
    correct = True

    if args.trace == 0:
        # A full-size warm-up op, so that lazy set-up and the first touch of
        # the op's memory are not timed.
        loop.run(count=1)
        host = HostSpeed()
        probes, spent = [], 0.0

        def probe_setup():
            with host.paused():  # no sampling in this process while the probe runs
                probes.append((time.perf_counter(), setup_once(args)))

        def after_op(op_s: float):
            nonlocal spent
            spent += op_s
            while len(probes) < SETUP_PROBES and spent >= len(probes) * args.seconds / SETUP_PROBES:
                probe_setup()

        with host.sampling():
            [res] = loop.run(budget_s=args.seconds, after_op=after_op)
            while len(probes) < SETUP_PROBES:
                probe_setup()
            time.sleep(NEAREST_SAMPLES * SAMPLE_EVERY_S)  # samples after the last interval
        scaled = [host.scale(t0, t) for t0, t in zip(res["starts"], res["times"])]
        setups = [host.scale(t0, t) for t0, t in probes]
        per_input = {}
        for i, t in zip(res["inputs"], scaled):
            per_input.setdefault(i, []).append(t)
        latency = [statistics.fmean(ts) for ts in per_input.values()]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latency) / sum(latency),
            "op_p50_s": statistics.median(latency),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        times = res["times"]
        record.update(ops=len(times), inputs=len(latency), digest=res["digest"],
                      op_wall_s=times, op_scaled_s=scaled, op_inputs=res["inputs"],
                      setup_scaled_s=setups, samples=len(host.spans),
                      sample_p50_s=statistics.median(host.spans),
                      wall_ops_per_s=len(times) / sum(times),
                      wall_op_p50_s=statistics.median(times))
        if len(scaled) >= 200:
            record["op_p95_s"] = {"value": statistics.quantiles(scaled, n=20)[-1],
                                  "samples": len(scaled)}
    else:
        loop.run(count=1, smoke=True)
        tracer, counter = tracing.SpanTracer(), tracing.CallCounter()
        plain, traced = loop.run(budget_s=args.seconds / 3, recorders=(None, tracer))
        n_ops = len(plain["times"])
        [counted] = loop.run(count=loop.ref_ops, recorders=(counter,))
        digests = {plain["digest"], traced["digest"], counted["digest"]}
        if len(digests) != 1:
            print(f"tracing changed the outputs: {sorted(digests)}", file=sys.stderr)
            correct = False
        metrics = layer_metrics(tracer, counter, n_ops)
        metrics["trace.overhead_ratio"] = sum(traced["times"]) / sum(plain["times"])
        record.update(ops=n_ops, ref_ops=loop.ref_ops, digest=plain["digest"],
                      calls=counter.calls)
        write_spans(args, tracer)

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = wanted["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    record["all_metrics"] = metrics
    result = {
        "correct": correct and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record.update(result=result, failed_frac=loop.failed / loop.attempted)
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"stamp": info, "digest": record["digest"], "ops": record["ops"]}))
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, counter, n_ops: int) -> dict:
    """Per-op self times from the spans, and counts over the reference ops."""
    out = {}
    self_s = tracer.self_times()
    for name, total in self_s.items():
        out[f"{name}.self_s"] = total / n_ops
    for fn, name in tracing.traced_functions(with_geometry=False).items():
        out.setdefault(f"{name}.self_s", 0.0)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + ".")) / n_ops
    wall = tracer.op_wall()
    out["op.traced_wall_s"] = wall / n_ops
    out["op.uncovered_s"] = self_s.get(tracing.OP, 0.0) / n_ops
    if abs(sum(self_s.values()) - wall) > 1e-6 * wall:
        raise RuntimeError("self times do not add up to the op wall time")
    for fn, name in tracing.traced_functions(with_geometry=True).items():
        out[f"{name}.calls"] = counter.calls.get(name, 0)
    out["tour.two_opt.moves"] = counter.nested.get(("tour.two_opt", "tour.apply_2move"), 0)
    out.update(counter.counts)
    return out


def write_spans(args, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans_{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl"
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    with path.open("w") as f:
        for op, name, start, end, parent in tracer.spans:
            f.write(json.dumps({"op": op, "name": name, "start": start - origin,
                                "end": end - origin, "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
