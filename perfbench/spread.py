"""Repeat the benchmark and summarise it, for baselines and steadiness.

    python3 perfbench/spread.py quartiles --workload W [--seeds 10]
                                          [--out FILE]
    python3 perfbench/spread.py counts --workload W [--seed 0] [--out FILE]

``quartiles`` runs ``run.py --trace 0`` once per seed and reports, for each
end-to-end metric, the median, the quartiles (``statistics.quantiles`` with
n=4) and the quartile distance as a share of the median next to the
metric's bound.  ``counts`` runs ``run.py --trace 1`` twice at one seed and
checks that every count repeats exactly; it exits 1 if one does not.
Each run uses ``run_seconds`` from BENCHMARK.json.  ``--out`` saves the
runs, the summary and the machine notes as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

COUNT_SUFFIXES = (".calls", ".term_pairs", ".rational_share",
                  ".substitute_per_call")


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    notes = [line for line in lines if line.startswith("# machine: ")]
    result = json.loads(lines[-1])
    result["machine"] = json.loads(notes[0][len("# machine: "):])
    result["notes"] = [line for line in lines[:-1]
                       if line.startswith("# ") and line not in notes]
    return result


def quartiles(args):
    runs = []
    for seed in range(args.seeds):
        runs.append(bench(args.workload, seed, 0))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    summary = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": metric["bound"]}
        print(f"{name:14s} median={median:.5g} q1={q1:.5g} q3={q3:.5g} "
              f"spread={spread:.4f} bound={metric['bound']} "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return runs, summary, True


def counts(args):
    runs = [bench(args.workload, args.seed, 1) for _ in range(2)]
    first, second = (r["metrics"] for r in runs)
    summary = {name: first[name]["value"] for name in first
               if name.endswith(COUNT_SUFFIXES)}
    differ = [name for name in summary
              if first[name]["value"] != second[name]["value"]]
    for name in differ:
        print(f"DIFFERS {name}: {first[name]['value']} "
              f"!= {second[name]['value']}")
    print(f"{len(summary) - len(differ)} of {len(summary)} counts repeat "
          "exactly")
    return runs, summary, not differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("quartiles", "counts"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs, summary, ok = (quartiles if args.what == "quartiles"
                         else counts)(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "what": args.what,
                       "run_seconds": SPEC["run_seconds"],
                       "machine": runs[0]["machine"], "summary": summary,
                       "runs": runs}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
