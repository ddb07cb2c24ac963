"""The suite's own configuration reports failures instead of crashing on them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # Run under the repo's pytest settings, which turn warnings into errors.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    # Exit 1 is "tests failed"; 3 would be an internal error of the session.
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
