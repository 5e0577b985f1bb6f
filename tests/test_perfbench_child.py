"""The benchmark child (``perfbench/child.py``) reads the CLI's default
``--jobs`` from ``build_parser()`` when it records its environment.
Running it here makes a parser change that breaks that read fail the
test suite, not only the benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "src" / "holoris" / "data" / "default_config.json"


def test_child_setup_records_environment():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    request = {"mode": "setup", "env": True, "config": str(CONFIG)}
    result = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "child.py"), json.dumps(request)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["env"]["jobs"] == 1
    assert report["setup_s"] > 0
