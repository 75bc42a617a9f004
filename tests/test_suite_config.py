"""The pytest configuration in pyproject.toml: warnings are errors, yet a
failing hypothesis test is reported and the tests after it still run; and
the numpy that pyproject.toml declares."""

import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_suite(tmp_path, source: str) -> str:
    """pytest's output on ``source`` as one test file under the repo's config."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_case.py").write_text(textwrap.dedent(source))
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "test_case.py"], cwd=tmp_path, capture_output=True, text=True,
                            timeout=120)
    return result.stdout + result.stderr


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    out = run_suite(tmp_path, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_runs_after_it():
            pass
    """)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_any_other_deprecation_warning_still_fails(tmp_path):
    out = run_suite(tmp_path, """
        import warnings

        def test_warns():
            warnings.warn("this is deprecated", DeprecationWarning)
    """)
    assert "1 failed" in out and "DeprecationWarning: this is deprecated" in out


def test_the_declared_numpy_has_matrix_transposes():
    # net.backward uses ndarray.mT, which numpy added in 2.0
    floor = re.search(r'"numpy>=([0-9.]+)"', PYPROJECT.read_text()).group(1)
    assert tuple(int(part) for part in floor.split(".")[:2]) >= (2, 0)
