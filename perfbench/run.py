"""The oddsym benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload verify|maps-n3|cli-rational
                             --seed N --seconds S --trace 0|1 [--smoke]

Every measurement runs in a fresh single-threaded Python process
(``worker.py``) that imports oddsym from ``src/`` of this checkout.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Set-up is
measured in SETUP_PROBES extra processes besides the measured one, each
scaled like the items below by a reference timed right after its set-up,
and the median is reported.  The measured process repeats passes over the
workload's items until ``--seconds`` have elapsed.  Every item time is
scaled to a fixed host speed by the reference computation timed around it
(see ``workloads.reference``), and each item's value is its median over
passes: wall time is the sum of those values, and the item percentiles are
taken over them.

``--trace 1`` prints the per-layer metrics: one untraced pass (per-suite
times, and the base of the tracing overhead) and one traced pass, each in
its own process.

``--smoke`` runs each workload at its smallest size; the smoke test uses it
to check that every metric is printed with its unit.

Human-readable notes come first; the last line of standard output is the
JSON result.  The exit code is 0 only when every item was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
TAIL = 90            # item_p90_ms: the 90th percentile of item latency
REF_S = 0.005        # the reference's time at the speed times are scaled to
DEADLINE_S = 175.0   # the whole run, every process included


def worker(args, mode, deadline):
    """Run one fresh worker process; return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode] + (["--smoke"] if args.smoke else [])
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # scaled like the items, by the reference timed right after set-up
    result["setup_s"] = (result["ready"] - spawned) * REF_S / result["ref"]
    return result


def unit(name):
    """Each metric's unit follows from its name."""
    for suffix, value in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                          ("share", "ratio"), ("_frac", "ratio"),
                          ("_per_call", "count/call")):
        if name.endswith(suffix):
            return value
    return "count"


def percentile(values, pct):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args, deadline):
    probes = 1 if args.smoke else SETUP_PROBES

    def setup_probes(count):
        return [worker(args, "setup", deadline)["setup_s"]
                for _ in range(count)]

    # probes on both sides of the measured run see more of the host's
    # slow and fast stretches
    setups = setup_probes(probes // 2)
    run = worker(args, "run", deadline)
    setups += [run["setup_s"]] + setup_probes(probes - probes // 2)
    # Every pass times the same items.  Item k of a pass is scaled by the
    # mean of the reference times just before and after it, so its value
    # reads as seconds on a host where the reference takes REF_S.
    scaled = [[2 * REF_S * t / (refs[k] + refs[k + 1])
               for k, t in enumerate(times)]
              for times, refs in zip(run["seconds"], run["refs"])]
    items = [statistics.median(col) for col in zip(*scaled)]
    tail, beyond = percentile(items, TAIL)
    refs = [r for pass_refs in run["refs"] for r in pass_refs]
    print(f"# {len(items)} items, each the median of {len(scaled)} passes; "
          f"{beyond} items beyond p{TAIL}; unscaled pass times: "
          + ", ".join(f"{s:.3f}" for s in run["passes"])
          + f"; reference {1000 * min(refs):.2f}-{1000 * max(refs):.2f} ms, "
          f"median {1000 * statistics.median(refs):.2f} ms; set-up samples: "
          + ", ".join(f"{s:.4f}" for s in setups))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(items),
        "item_p50_ms": 1000 * statistics.median(items),
        f"item_p{TAIL}_ms": 1000 * tail,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1 - run["failed"] / run["attempted"],
    }
    return [run], metrics


def per_layer(args, deadline, suites):
    once = worker(args, "once", deadline)
    traced = worker(args, "trace", deadline)
    metrics = dict(traced["layers"])
    wall = traced["passes"][0]
    metrics["sampling.share"] = metrics["sampling.busy_s"] / wall
    metrics["trace.overhead_frac"] = wall / once["passes"][0] - 1
    times = dict(zip(once["labels"], once["seconds"][0]))
    if args.workload == "verify" and not args.smoke:
        missing = set(suites) - set(times)
        if missing:
            raise SystemExit(f"suites not run: {', '.join(sorted(missing))}")
    for suite in suites:
        metrics[f"verify.{suite}_s"] = times.get(suite, 0.0) \
            if args.workload == "verify" else 0.0
    print(f"# spans written to {traced['spans_file']}")
    by_item = traced["sampling_by_item"]
    if by_item:
        traced_times = dict(zip(traced["labels"], traced["seconds"][0]))
        print("# sampling share by item: " + ", ".join(
            f"{label}={busy / traced_times[label]:.3f}"
            for label, busy in by_item.items()))
    return [once, traced], metrics


def machine_notes(result, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": result["python"], "sympy": result["sympy"],
            "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "seed": seed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "maps-n3", "cli-rational"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "oddsym", "__init__.py")):
        raise SystemExit("no oddsym sources under src/ in this checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    suites = [m["name"][len("verify."):-len("_s")] for m in spec["per_layer"]
              if m["name"].startswith("verify.")]

    if args.trace:
        results, metrics = per_layer(args, deadline, suites)
    else:
        results, metrics = end_to_end(args, deadline)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit(name) for name in metrics}
    if got != want:
        raise SystemExit("metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(got.items()) ^ set(want.items()))))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("# machine: " + json.dumps(machine_notes(results[0], args.seed)))
    for r in results:
        for label, reason in list(r["failures"].items())[:10]:
            print(f"# FAILED {label}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
