"""Suite-wide Hypothesis profile: every property test draws the same
examples on every run, and none has a deadline, so that no verdict depends
on how long an example took.  Per-test `@settings` set only their example
counts.

The `run_optimized` fixture runs a snippet under `python -O`, which strips
`assert` statements, so a test can show that an input check is a typed
error and not an assert.

The `tuple_exchange` fixture builds the two terms of an exchange relation
term by term on tuples, the reference for the packed kernel in `seeds`.

The `exact_quotient` fixture divides two nonzero Laurent polynomials with
`laurent.div_packed` on their `Operand` packings, for the tests that need
a quotient and not only a check by multiplication.

Neither the suite nor that child writes bytecode caches into the source
tree, so a checkout stays as fresh after a test run as before it."""

import os
import subprocess
import sys

import pytest
from hypothesis import settings

sys.dont_write_bytecode = True

import clusterkit.laurent as lp  # noqa: E402  (after the flag: no cache is written)

settings.register_profile("derandomized", derandomize=True, deadline=None)
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


def _tuple_exchange(b, cluster, k, plus, minus):
    # plus * prod x_j^[b_jk]+ and minus * prod x_j^[-b_jk]+, by lp.mul and lp.power
    for j, x in enumerate(cluster):
        e = b[j][k]
        if e > 0:
            plus = lp.mul(plus, lp.power(x, e))
        elif e < 0:
            minus = lp.mul(minus, lp.power(x, -e))
    return plus, minus


@pytest.fixture(scope="session")
def tuple_exchange():
    return _tuple_exchange


def _exact_quotient(f, g):
    fo, go = lp.Operand(f), lp.Operand(g)
    width = lp.lane_width(max(fo.degree, go.degree))
    quot = lp.div_packed(dict(fo.packed(width)), go.packed(width), len(fo.low), width)
    return lp.unpack(quot, lp.exp_sub(fo.low, go.low), width)


@pytest.fixture(scope="session")
def exact_quotient():
    return _exact_quotient
