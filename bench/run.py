"""glab benchmark: one command runs a workload, checks it and prints metrics.

    python3 bench/run.py --workload suites --seed 0 --seconds 20 --trace 0

Run it from anywhere; it finds the program in ``src/`` next to ``bench/``.
Every run starts fresh worker processes (``worker.py``), one at a time, so
each pays for the import and the algebra construction as a CLI user does.
The load is a closed loop with one client: operations run in order.

``--trace 0`` measures the end-to-end metrics with tracing off:
  norm_wall_s  median, over as many passes as come closest to ``--seconds``,
               of one pass's wall time over the workload's operations,
               rescaled to a fixed host speed (``reference.py``);
  setup_s      median, over nine fresh processes, of the time from spawn
               until glab is imported and the workload's inputs are built,
               rescaled the same way;
  peak_rss_mb  peak resident memory of the timed worker;
  ok_ratio     operations that returned their pinned answer / attempted.
The plain wall times are printed on comment lines.  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics of
``metrics.LAYER_METRICS``.

Lines before the last describe the host and the run; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--save FILE`` also writes the full record (environment, per-operation
times, all worker output) as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from metrics import END_TO_END, LAYER_METRICS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "glab_commit": _git_commit(),
        "GLAB_BUDGET_TERMS": os.environ.get("GLAB_BUDGET_TERMS", "unset (2000000)"),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t_end = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env["PYTHONHASHSEED"] = "0"  # counts must repeat exactly

    def worker(self, mode: str, seconds: float = 0.0, spans: str | None = None) -> dict:
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--seconds", str(seconds)]
        if spans:
            cmd += ["--spans", spans]
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.t_end - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
        if err:
            sys.stderr.write(err)
        res = json.loads(out.strip().splitlines()[-1])
        res["setup_s"] = res["ready_at"] - t_spawn
        res["setup_norm_s"] = reference.rescale(res["setup_s"] - res["setup_spent_s"],
                                                res["setup_ref_s"])
        return res


def _passes(res: dict) -> tuple:
    attempted = res["ops"] * len(res["passes"])
    failed = sum(len(p["failed"]) for p in res["passes"])
    return attempted, failed


def _op_medians(res: dict) -> dict:
    labels = res["passes"][0]["op_s"]
    return {k: statistics.median(p["op_s"][k] for p in res["passes"]) for k in labels}


def _ref_samples(res: dict) -> list:
    return [x for p in res["passes"] for x in p["ref_s"]]


def run_timed(r: Runner, seconds: float) -> tuple:
    probes = [r.worker("setup") for _ in range(SETUP_PROBES)]
    main = r.worker("timed", seconds)
    attempted, failed = _passes(main)
    metrics = {
        "norm_wall_s": statistics.median(p["norm_s"] for p in main["passes"]),
        "setup_s": statistics.median(p["setup_norm_s"] for p in probes),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    record = {"setup_wall_s": [p["setup_s"] for p in probes],
              "setup_norm_s": [p["setup_norm_s"] for p in probes],
              "pass_wall_s": [p["wall_s"] for p in main["passes"]],
              "pass_norm_s": [p["norm_s"] for p in main["passes"]],
              "ref_s": _ref_samples(main),
              "passes": main["passes"],
              "op_median_s": _op_medians(main),
              "failed_ops": sorted({f for p in main["passes"] for f in p["failed"]}),
              "wrappers_installed": main["wrappers_installed"]}
    correct = failed == 0 and main["wrappers_installed"] == 0
    return metrics, attempted, failed, correct, record


def run_traced(r: Runner, spans: str | None) -> tuple:
    plain = r.worker("timed", 0.0)
    traced = r.worker("traced", spans=spans)
    attempted = failed = 0
    for res in (plain, traced):
        a, f = _passes(res)
        attempted, failed = attempted + a, failed + f
    metrics = dict(traced["layer"])
    metrics["trace.overhead_ratio"] = (traced["passes"][0]["norm_s"]
                                       / plain["passes"][0]["norm_s"])
    metrics["host.ref_s"] = statistics.mean(_ref_samples(plain))
    record = {"untraced_op_s": _op_medians(plain), "traced_op_s": _op_medians(traced),
              "ref_s": _ref_samples(plain),
              "failed_ops": sorted({f for res in (plain, traced)
                                    for p in res["passes"] for f in p["failed"]}),
              "wrappers_installed": plain["wrappers_installed"]}
    correct = failed == 0 and plain["wrappers_installed"] == 0
    return metrics, attempted, failed, correct, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w for w, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="with --trace 1: write the traced run's spans as JSON lines")
    ap.add_argument("--save", default=None, help="write the full run record as JSON")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "glab", "__init__.py")):
        print(f"error: no glab sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, attempted, failed, correct, record = run_traced(runner, args.spans)
        else:
            metrics, attempted, failed, correct, record = run_timed(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    refs = sorted(record["ref_s"])
    print(f"# host reference loop: mean={statistics.mean(refs) * 1e3:.3f} "
          f"min={refs[0] * 1e3:.3f} max={refs[-1] * 1e3:.3f} ms over {len(refs)} samples "
          f"(nominal {reference.NOMINAL_S * 1e3} ms)")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}")
    if not args.trace:
        for key in ("pass_wall_s", "pass_norm_s", "setup_wall_s", "setup_norm_s"):
            print(f"# {key}: " + " ".join(f"{w:.4f}" for w in record[key]))
    for label, secs in record.get("op_median_s", record.get("traced_op_s", {})).items():
        print(f"# op {label}: {secs:.4f} s")
    units = {n: u for n, u, *_ in (END_TO_END if not args.trace else LAYER_METRICS)}
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "env": env,
                       "attempted": attempted, "failed": failed, "correct": correct,
                       "metrics": metrics, "record": record}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
