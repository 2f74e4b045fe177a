"""The repository's pytest configuration, checked by running pytest on a scratch file."""

import pathlib
import subprocess
import sys

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
