"""The suite's own pytest settings: a failing test must end as a failure, not crash the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """With ``filterwarnings = ["error"]``, hypothesis's failure report imports libcst, whose
    mypy_extensions import warns; unfiltered, that warning is an INTERNALERROR and the tests
    after the failing one never run."""
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
