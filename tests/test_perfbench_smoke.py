"""Every benchmark workload runs briefly and reports correct, failure-free cases.

A change that makes a workload's checked cases wrong, or its run fail,
fails here before a full benchmark run is attempted, and so does one that
fails the benchmark's own tests under `perfbench/tests`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_workloads_are_found():
    assert WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_and_failure_free(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5"],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    assert result["attempted"] > 0, result


def test_benchmark_tests_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr
