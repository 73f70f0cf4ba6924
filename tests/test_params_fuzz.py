"""Fuzzed suite params through the command line.

Each draw is one ``glab suite run NAME --params JSON`` in a child process,
with its params drawn from the shape of the suite's DEFAULTS: huge,
negative and zero ints, NaN, +-Infinity and 1e300 where a number goes,
empty and ragged lists, and strings that name no algebra and no modulus.
Whatever the draw, the child ends with 0, 1 (a check failed), 2 (bad
input) or 3 (over the term budget), prints no traceback and does not run
past its timeout.  The child runs at a tenth of the default budget, with
its address space capped, so a draw that allocates past the budget fails
the test with a MemoryError rather than exhausting the machine.
"""
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from glab.suites import DEFAULTS, SUITE_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 10
CHILD_BYTES = 2 * 1024**3

NUMBERS = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([40, 10**6, 10**10, 10**30, -(10**30)]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 2.5]),
)
STRINGS = st.sampled_from([
    "", "sl0", "sl999", "gl1", "abelian:0", "sum:", "takiff:sl2:0", "nope",
    "t^", "t^-1", "t^1000000", "t^100000000000", "2*t^2", "t^2+t+", "0", "1/0",
    "t^2/0", "t^3+1e300",
])
SCALARS = st.one_of(NUMBERS, STRINGS, st.booleans(), st.none())


def like(default):
    """Values of the shape of a DEFAULTS entry, the entry itself among them."""
    if isinstance(default, bool):
        return st.one_of(st.just(default), SCALARS)
    if isinstance(default, int):
        return st.one_of(st.just(default), NUMBERS)
    if isinstance(default, str):
        return st.one_of(st.just(default), STRINGS)
    if isinstance(default, dict):
        values = like(next(iter(default.values()))) if default else NUMBERS
        keys = st.sampled_from(list(default) + ["-1", "x", "999"])
        return st.one_of(st.just(default), st.dictionaries(keys, values, max_size=2))
    ragged = st.lists(SCALARS, max_size=4)
    if len({type(x) for x in default}) > 1:
        # a record: each place shaped as the default's, or ragged
        return st.one_of(st.just(default), st.tuples(*map(like, default)).map(list), ragged)
    # a list: entries shaped as the default's first, mistyped or ragged
    entry = like(default[0]) if default else SCALARS
    return st.one_of(st.just(default),
                     st.lists(st.one_of(entry, SCALARS, ragged), max_size=3))


@st.composite
def suite_params(draw):
    name = draw(st.sampled_from(SUITE_NAMES))
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS[name])), min_size=1,
                         unique=True))
    return name, {k: draw(like(DEFAULTS[name][k])) for k in keys}


def run_cli(name, params):
    env = dict(os.environ, GLAB_BUDGET_TERMS="200000",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", "from glab.cli import main; main()", "suite", "run", name,
         "--params", json.dumps(params)],
        capture_output=True, text=True, timeout=TIMEOUT_S, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES)))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(suite_params())
def test_fuzzed_suite_params_exit_cleanly(case):
    name, params = case
    res = run_cli(name, params)
    assert res.returncode in (0, 1, 2, 3), (res.returncode, res.stderr[-2000:])
    assert "Traceback" not in res.stderr, res.stderr[-2000:]
