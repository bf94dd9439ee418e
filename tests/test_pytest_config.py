"""The repository's pytest configuration reports a failing property test.

``filterwarnings`` turns deprecations into errors.  When a ``@given`` test
fails, hypothesis's pytest plugin imports libcst to report the example, and
that import raises a third-party ``DeprecationWarning``; unless the config
ignores that one message, the whole session stops with an INTERNALERROR and
no failure summary.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "test_failing.py").write_text(_FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out
