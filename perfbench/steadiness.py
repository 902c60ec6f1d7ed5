#!/usr/bin/env python3
"""Runs each workload N times on one commit and reports how steady each
metric is.

    python3 perfbench/steadiness.py --workloads build,refresh,serve \
        --runs 10 --first-seed 1 [--seconds S] [--trace 0]

Run i uses seed first_seed + i. For every metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)), the interquartile
range as a share of the median (iqr/med), (max - min) / median
(range/med) and, for end-to-end metrics, iqr/med as a share of the
metric's bound in BENCHMARK.json (of/bound; the bound holds while this
stays below 1). It also prints the failed share of operations and
checks that each run reports exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(lines[-1])


def summarize(workload, results, trace):
    with open(SPEC) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    for r in results:
        if set(r["metrics"]) != set(bounds):
            print("metrics differ from BENCHMARK.json: missing %s, extra %s" %
                  (sorted(set(bounds) - set(r["metrics"])),
                   sorted(set(r["metrics"]) - set(bounds))))
            break
    print("\n== %s: %d runs" % (workload, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print("correct in every run: %s; failed share(s): %s" %
          (correct, ", ".join("%.6g" % s for s in shares)))
    print("%-40s %14s %14s %14s %8s %9s %8s" %
          ("metric", "median", "q1", "q3", "iqr/med", "range/med",
           "of/bound"))
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        scale = abs(median) if median else 1.0
        bound = bounds.get(name)
        print("%-40s %14.6g %14.6g %14.6g %8.4f %9.4f %8s" %
              ("%s [%s]" % (name, unit), median, q1, q3, (q3 - q1) / scale,
               (max(values) - min(values)) / scale,
               "%.2f" % ((q3 - q1) / scale / bound) if bound else "-"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="build,refresh,serve")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    with open(SPEC) as f:
        run_seconds = json.load(f)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, args.seconds, args.trace))
            metrics = results[-1]["metrics"]
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in sorted(metrics.items())
                if not k.startswith(("root_", "placement", "topic_",
                                     "description_")))), flush=True)
        summarize(workload, results, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
