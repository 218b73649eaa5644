"""Suite-wide Hypothesis profile: every property test draws the same
examples on every run.  Per-test `@settings` still set their own example
counts and deadlines.

The `run_optimized` fixture runs a snippet under `python -O`, which strips
`assert` statements, so a test can show that an input check is a typed
error and not an assert.

Neither the suite nor that child writes bytecode caches into the source
tree, so a checkout stays as fresh after a test run as before it."""

import os
import subprocess
import sys

import pytest
from hypothesis import settings

sys.dont_write_bytecode = True

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def _run_optimized(code: str) -> None:
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONDONTWRITEBYTECODE="1"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr + done.stdout


@pytest.fixture
def run_optimized():
    return _run_optimized
