"""The repository's pytest settings keep a failing property test readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # Under filterwarnings = ["error"], hypothesis' failure report imports a
    # module that raises a DeprecationWarning; unless the config ignores it,
    # the run ends in an INTERNALERROR before the example is printed.
    (tmp_path / "test_throwaway.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert run.returncode == 1
