"""The checked-in benchmark summaries, BENCH_*.json at the repository root.

Each summarizes alternated parent/change runs of ``bench/run.py --save``:
per workload, the seed, the pair count, and the median and quartiles of
every end-to-end metric on each side, plus the host line.  This reads the
files only and runs no benchmark.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _defined():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


def test_there_is_a_benchmark_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_benchmark_record_names_what_the_benchmark_defines(path):
    record = json.loads(path.read_text())
    workloads, metrics = _defined()
    assert len(record["parent_commit"]) == 40
    assert record["host"]
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for name, entry in record["workloads"].items():
        assert isinstance(entry["seed"], int) and entry["pairs"] >= 1, name
        assert set(entry["metrics"]) == metrics, name
        for metric, sides in entry["metrics"].items():
            for side in ("parent", "change"):
                q1, median, q3 = (sides[side][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3, (name, metric, side)
        for side in ("parent", "change"):
            assert entry["metrics"]["ok_ratio"][side] == {"q1": 1, "median": 1, "q3": 1}
