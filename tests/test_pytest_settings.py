"""The suite's own pytest settings, which turn every warning into an
error: a failing property test must be reported as one failure, and the
tests after it must still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    # exit code 3 is pytest's internal error, which ends the session early
    assert result.returncode == 1, result.stdout + result.stderr
    assert "FAILED test_property.py::test_fails" in result.stdout
    assert "PASSED test_property.py::test_after" in result.stdout
