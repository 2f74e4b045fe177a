"""The repository's pytest configuration."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import disq

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SCRATCH_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    # Hypothesis's failure report may import libcst, whose DeprecationWarning
    # the "error" filter would turn into an INTERNALERROR ending the session.
    # Running from tmp_path keeps .hypothesis/ out of the repository.
    (tmp_path / "test_scratch.py").write_text(SCRATCH_TESTS)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads"
)
@pytest.mark.skipif(
    any(name in os.environ for name in disq._BLAS_THREAD_VARS),
    reason="the caller chose OpenBLAS's thread count",
)
def test_tests_run_openblas_on_one_thread():
    # conftest.py imports disq before any test module imports numpy, so a
    # product large enough for OpenBLAS to split starts no worker thread.
    a = np.ones((2000, 2000))
    a @ a
    assert len(os.listdir("/proc/self/task")) == 1
