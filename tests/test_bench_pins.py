"""Every pinned answer of the benchmark, checked at seed 0.

bench/workloads.py is read as text and run in a fresh module, so nothing
is written under bench/.  Each operation of the four workloads runs once,
and its answer goes through the check the benchmark applies against
bench/pins.json.  A drifted answer fails here without a benchmark run.
"""
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    mod = types.ModuleType("bench_workloads")
    mod.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("name", ["suites", "pencil", "elimination", "products"])
def test_benchmark_answers_match_their_pins(name):
    ops = _workloads().build(name, 0)
    assert ops
    assert [label for label, run, check in ops if not check(run())] == []
