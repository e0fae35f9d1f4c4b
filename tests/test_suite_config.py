"""The pytest configuration in pyproject.toml, run on a throwaway test
file: a failing Hypothesis test must fail alone, not end the session."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # reporting the failing example imports libcst, which warns; with every
    # warning an error that used to be an INTERNALERROR (exit 3) that
    # skipped the tests still to run
    path = tmp_path / "test_two.py"
    path.write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
    assert "1 failed, 1 passed" in out
