"""One fresh benchmark process: set up a workload, run it, report as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --mode setup|run|once|trace [--smoke]

``setup`` stops where the first timed item would start; ``run`` repeats
passes until ``--seconds`` have elapsed, and at least MIN_PASSES times,
timing ``workloads.reference`` next to every item; ``once`` runs one
pass; ``trace`` runs one pass with every traced function wrapped.  The
last line of standard output is the JSON result.  ``run.py`` starts this
program; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# run.py takes each item's median over passes.  A `verify` pass (about
# 15 s) outlasts the measured time; three passes give each suite a median
# of three.
MIN_PASSES = 3


def run_passes(args, workload, new_pass, ready):
    """Run passes as --mode asks; the per-pass timings and failures."""
    passes, labels, seconds, refs, failures, failed = [], [], [], [], {}, 0
    deadline = ready + args.seconds
    while True:
        p = new_pass()
        t0 = time.perf_counter()
        workload.run_pass(p)
        p.end()
        passes.append(time.perf_counter() - t0)
        if passes[1:] and labels != [str(label) for label in p.labels]:
            raise SystemExit("passes timed different items")
        labels = [str(label) for label in p.labels]
        seconds.append(p.seconds)
        refs.append(p.refs)
        for label, reason in p.failures.items():
            failures.setdefault(str(label), reason)
        failed += len(p.failures)
        if args.mode != "run" or args.smoke or (
                len(passes) >= MIN_PASSES
                and time.perf_counter() >= deadline):
            break
    return {"passes": passes, "labels": labels, "seconds": seconds,
            "refs": refs,
            "failures": failures, "failed": failed,
            "attempted": sum(map(len, seconds)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "once", "trace"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import oddsym
    if not os.path.abspath(oddsym.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"oddsym was imported from {oddsym.__file__}, "
                         f"not from {SRC}")
    import sympy
    import workloads
    from tracer import Tracer

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    ready = time.perf_counter()
    result = {"ready": ready, "ref": workloads.reference(),
              "python": sys.version.split()[0], "sympy": sympy.__version__}
    try:
        if args.mode != "setup":
            result.update(run_passes(
                args, workload,
                lambda: workloads.Pass(tracer, args.mode == "run"), ready))
    finally:
        workload.close()
    if tracer is not None:
        layers, busy_by_item = tracer.summary()
        result["layers"] = layers
        result["sampling_by_item"] = {
            result["labels"][k]: busy for k, busy in busy_by_item.items()}
        out = os.path.join(ROOT, ".perfbench")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}.bin")
        tracer.write_spans(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
