"""The repository's pytest configuration, run on a file of known failures."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_under_hypothesis(k):
    assert k < 10


def test_fails_plainly():
    assert False
'''


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # Every warning is an error, so one raised while hypothesis reports a
    # failure would abort the whole run after that test.
    (tmp_path / "test_two_failures.py").write_text(TWO_FAILURES, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two_failures.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "2 failed" in out
    assert "Falsifying example" in out
