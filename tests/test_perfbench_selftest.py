"""The benchmark's self-test (``perfbench/selftest.py``) runs every
workload on a tiny config and checks its metrics and output checks.
Running it here makes a change that breaks the harness, or makes an
output check fail, fail the test suite, not only the benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    reports = result.stdout.splitlines()
    assert [line.split(":")[0] for line in reports] == names
    assert all(": ok (" in line for line in reports)
