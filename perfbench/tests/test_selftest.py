"""Self-test of the benchmark at tiny fidelity (under a minute).

Runs every workload once untraced and once traced and checks that each
metric BENCHMARK.json names is printed with its unit, that the output
checks pass, and that the runner refuses a directory without sources.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable if c == "python3" else c for c in BENCH["command"]]
    return subprocess.run(
        [*cmd, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--fidelity", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


# suite first: suite_jobs2 must then agree with its digests
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    else:
        assert result["metrics"]["bench.span_coverage"]["value"] >= 0.9


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("suite", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
