"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(value):
    assert value < 10
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # Warnings are errors, and the failure report imports modules that
    # warn on import; the report must still reach the reader.
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
