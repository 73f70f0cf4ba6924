"""Self-tests of the benchmark: its pins, its tracer and its contract.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Takes about half a minute: two traced and one untraced worker run the
``products`` workload in subprocesses.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402
from worker import run_pass  # noqa: E402

REPEAT_WORKLOAD = "products"


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.LAYER_METRICS]
    from glab.suites import SUITE_NAMES

    assert metrics.SUITE_NAMES == SUITE_NAMES


def test_corrupted_pin_counts_as_failed_operation():
    pins = workloads.load_pins()
    label = "det-A"
    ops = [op for op in workloads.build("suites", 0, None, pins) if op[0] == label]
    assert run_pass(ops)["failed"] == []
    bad = copy.deepcopy(pins)
    digest = bad["suites"][label]["sha256"]["0"]
    bad["suites"][label]["sha256"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    ops = [op for op in workloads.build("suites", 0, None, bad) if op[0] == label]
    assert run_pass(ops)["failed"] == [label]


def test_from_import_alias_is_traced():
    from glab import liecore, pencilz, psring, suites
    from tracer import FUNCTIONS, Tracer, installed_wrappers

    originals = {(layer, name): getattr(__import__(f"glab.{layer}", fromlist=[name]), name)
                 for layer, name in FUNCTIONS}
    tracer = Tracer()
    tracer.install()
    try:
        assert installed_wrappers() > 0
        for mod in (suites, pencilz):
            for value in vars(mod).values():
                assert all(value is not fn for fn in originals.values())
        pen = pencilz.Pencil(liecore.builtin_algebra("sl2"),
                             liecore.parse_poly("t^2"), liecore.parse_poly("t^2+1"))
        pencilz.build_Z(pen)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == 0
    assert psring.poisson_bracket is originals[("psring", "poisson_bracket")]
    names = tracer._names
    build = names.index("pencilz.build_Z")
    bracket = names.index("psring.poisson_bracket")
    parents = {tracer.parent[i] for i in range(len(tracer.start))
               if tracer.name_of[i] == bracket}
    assert parents and all(tracer.name_of[p] == build for p in parents)


def test_sampler_rescales_pass_and_leaves_out_its_time():
    sampler = reference.Sampler()
    sampler.start(0.01)
    try:
        res = run_pass([("spin", lambda: sum(i for i in range(2_000_000)), lambda s: s > 0)],
                       sampler=sampler)
    finally:
        sampler.stop()
    assert len(res["ref_s"]) > 1 and sampler.spent > 0
    assert res["norm_s"] == reference.rescale(res["wall_s"], res["ref_s"])
    assert reference.rescale(3.0, [reference.NOMINAL_S * 2]) == 1.5


def _worker(mode: str) -> dict:
    return Runner(REPEAT_WORKLOAD, 0).worker(mode)


def test_counts_repeat_across_traced_runs():
    counted = [name for name, unit, _, _ in metrics.LAYER_METRICS
               if unit in ("count", "cells")]
    first, second = _worker("traced")["layer"], _worker("traced")["layer"]
    assert any(first[name] for name in counted)
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_untraced_run_installs_no_wrapper():
    res = _worker("timed")
    assert res["wrappers_installed"] == 0
    assert not res["tracer_loaded_while_timing"]
    assert all(not p["failed"] and p["ref_s"] and p["norm_s"] > 0 for p in res["passes"])
    assert res["setup_ref_s"]


def test_refuses_checkout_without_program():
    bare = os.path.join(ROOT, ".bench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "suites", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failed else 0)
