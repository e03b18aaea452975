"""Smoke and reproducibility tests for the benchmark itself.

    python3 -m pytest -q bench

Runs ``bench/run.py`` in subprocesses at tiny sizes (about a minute on a
2-core machine).  Kept out of the library's own test run.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().split("\n")
    return json.loads(report), json.loads(result)


def test_spec_matches_benchmark():
    sys.path.insert(0, str(BENCH))
    try:
        import run as bench_run
    finally:
        sys.path.remove(str(BENCH))
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert set(WORKLOADS) == {"scan", "zerodiag", "certify"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    report, result = run(workload, 1, 0.2, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    metrics = report["metrics"]
    assert metrics["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    assert metrics["op_p50_ms"]["unit"] == "ms" and metrics["op_p50_ms"]["value"] > 0
    assert ("op_p90_ms" in metrics) == (report["attempted"] >= 100)
    # gated timings are the wall-clock ones at the reference host speed
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["ops_per_s"] == pytest.approx(
        value["wall_ops_per_s"] * value["host_slowdown"])
    assert value["setup_s"] == pytest.approx(
        value["wall_setup_s"] / value["setup_host_slowdown"])
    assert report["machine"]["blas_threads"] and all(
        n == 1 for n in report["machine"]["blas_threads"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    """Same seed, same counts and digests (bitwise-reproducible search)."""
    (rep1, res1), (rep2, res2) = (run(workload, 7, 1, 1) for _ in range(2))
    assert res1["correct"] and res2["correct"]
    assert set(res1["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [k for k in res1["metrics"]
             if k.endswith(".calls_per_op") or k == "search.restarts_per_op"
             or k.startswith("io.bytes_")]
    assert {k: res1["metrics"][k] for k in exact} == {k: res2["metrics"][k] for k in exact}
    assert rep1["digests"] == rep2["digests"]
    share = rep1["layer_share"]
    if workload == "scan":
        assert rep1["digests"] and res1["metrics"]["search.restarts_per_op"]["value"] > 0
        assert share["search"] >= 0.95
    elif workload == "zerodiag":
        assert share["constructive"] >= 0.95
    else:
        assert share["channels"] + share["analysis"] + share["io"] + share["cli"] > 0.5


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
