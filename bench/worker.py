"""One benchmark worker process: set up a workload, run it, report JSON.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:
  setup   import glab and build the inputs, then stop (a set-up probe);
  timed   set up, then run as many whole passes over the operations as come
          closest to S seconds (at least one), with no tracing;
  traced  install the tracer, set up, run one pass.
In every mode the host reference loop is sampled (``reference.Sampler``).

``run.py`` starts it with ``src`` on PYTHONPATH.  The last line of standard
output is one JSON object; ``ready_at`` is ``time.perf_counter()`` when set
up ended, which the parent compares with its own clock reading at spawn.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import reference


def run_pass(ops, tracer=None, sampler=None) -> dict:
    """Run every operation once, in order; a raise or a wrong answer fails.

    An operation's time covers the call into glab, not the answer check,
    and leaves out the time spent in the ``reference.Sampler`` handler;
    ``wall_s`` is the sum of the operations' times and ``norm_s`` is
    ``wall_s`` rescaled by the samples taken during the pass.
    """
    sampler = sampler or reference.Sampler()  # not started: no samples, no handler time
    times, failures = {}, []
    first = len(sampler.samples)
    for op_id, (label, run, check) in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        spent, t0 = sampler.spent, time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - t0 - (sampler.spent - spent)

        try:
            out = run()
            times[label] = elapsed()
            ok = check(out)
        except Exception:  # a failed operation is counted, not fatal
            times.setdefault(label, elapsed())
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failures.append(label)
    wall, refs = sum(times.values()), sampler.since(first)
    return {"wall_s": wall, "norm_s": reference.rescale(wall, refs), "op_s": times,
            "ref_s": refs, "failed": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None, help="traced mode: write spans here")
    args = ap.parse_args(argv)

    sampler = reference.Sampler()
    sampler.start(reference.SETUP_INTERVAL_S)
    import workloads

    tracer = span = None
    if args.mode == "traced":
        import glab.suites  # noqa: F401  (loads every layer before wrapping)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    ops = workloads.build(args.workload, args.seed, span)
    ready_at = time.perf_counter()
    out = {"ready_at": ready_at, "passes": []}
    sampler.stop()
    out["setup_spent_s"], out["setup_ref_s"] = sampler.spent, sampler.since(0)
    if args.mode != "setup":
        sampler = reference.Sampler()
        sampler.start(reference.INTERVAL_S)
        while True:
            out["passes"].append(run_pass(ops, tracer, sampler))
            elapsed = time.perf_counter() - ready_at
            # stop at the pass count that comes closest to --seconds
            if tracer is not None or elapsed * (1 + 0.5 / len(out["passes"])) >= args.seconds:
                break
        sampler.stop()
    if args.mode == "timed":
        out["tracer_loaded_while_timing"] = "tracer" in sys.modules
        from tracer import installed_wrappers  # imported only after timing ends

        out["wrappers_installed"] = installed_wrappers()
    if tracer is not None:
        tracer.uninstall()
        out["layer"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    out["ops"] = len(ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
