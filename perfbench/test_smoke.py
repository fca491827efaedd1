"""Smoke test of the benchmark itself, one pass of each workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It takes a few minutes: every workload runs once untraced and once traced.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
FAIL_FREE = ("audit-table", "cli-files", "distance-search")
SMOKE_SEED = 7


def run_bench(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SMOKE_SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"(\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    return result, printed, lines


def check_metrics(result, printed, declared):
    names = [m["name"] for m in declared]
    assert list(result["metrics"]) == names
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert printed[m["name"]] == (pytest.approx(got["value"], rel=1e-5, abs=1e-9), m["unit"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, printed, lines = parse(run_bench(workload, 0))
    check_metrics(result, printed, BENCH["end_to_end"])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(line.startswith("environment = ") for line in lines)
    fail_line = next(line for line in lines if line.startswith("fail_ratio = "))
    if workload in FAIL_FREE:
        assert fail_line.startswith("fail_ratio = 0 ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    result, printed, _ = parse(run_bench(workload, 1))
    check_metrics(result, printed, BENCH["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 2)
    wall = metrics["trace.wall_s"]
    assert wall > 0
    assert self_times + metrics["trace.unaccounted_s"] == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert metrics["trace.unaccounted_s"] >= 0
    split = [k for k in metrics if k.startswith("linalg.eig.calls.d")]
    assert sum(metrics[k] for k in split) == metrics["linalg.eig.calls"]
    assert result["failed"] == 0
    if workload in FAIL_FREE:
        assert metrics["channels.verdict_mismatch"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
