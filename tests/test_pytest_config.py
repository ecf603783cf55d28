"""The repository's pytest settings themselves: a failing property test must be reported as a
failure, not abort the run."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # on a failure hypothesis imports libcst to write .hypothesis/patches; libcst's import warns with a
    # DeprecationWarning, which the settings turn into errors everywhere else
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
