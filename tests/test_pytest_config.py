"""The repository's pytest configuration reports a failing hypothesis test as
a failure and goes on with the session."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import Phase, given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True, phases=[Phase.generate])
@given(st.just(0))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    # only the hypothesis plugin, to keep the run short
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
