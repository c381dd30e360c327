"""The benchmark's own test: smoke-size runs of every workload, in both modes.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNIT = "count"


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_smoke(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_repeats_counts_and_digest(workload):
    runs = []
    for _ in range(2):
        result = result_of(run_bench(workload, 1))
        assert result["correct"] and result["failed"] == 0
        assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
        record = json.loads((BENCH / "out" / f"BENCH_{workload}-seed3-trace1-smoke.json").read_text())
        counts = {m["name"]: result["metrics"][m["name"]]["value"]
                  for m in SPEC["per_layer"] if m["unit"] == COUNT_UNIT}
        runs.append((counts, record["digest"]))
    assert runs[0] == runs[1]
    spans = (BENCH / "out" / f"spans_{workload}-seed3-smoke.jsonl").read_text().splitlines()
    assert {"op", "name", "start", "end", "parent"} == set(json.loads(spans[0]))


def test_layer_map_names_every_per_layer_metric_once():
    layers = json.loads((BENCH / "layers.json").read_text())
    named = [m for group in layers["predictions"] for m in group["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
