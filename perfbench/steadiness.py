"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--first-seed 1] [--out perfbench/steadiness.json]

Runs perfbench/run.py once for each of RUNS seeds and each workload of
BENCHMARK.json and of UNLISTED (trace off, its run_seconds).  Reports per
metric the median and the spread (q3 - q1) / median of the runs' values,
with quartiles from statistics.quantiles(values, n=4), next to the metric's
bound; and per workload the operations attempted and failed.  The record carries the
machine descriptor, so that later changes can tell a result inside this
spread (unresolved) from an unchanged one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import machine  # noqa: E402

RUNS = 10
# Run and recorded too, though not in BENCHMARK.json: a program defect makes
# it fail checks on every run, and the record keeps the count.
UNLISTED = ("free-cyclic",)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
              "workloads": {}}
    worst = 0.0
    listed = [w["name"] for w in bench["workloads"]]
    for name in listed + list(UNLISTED):
        values, counts = {}, {"attempted": 0, "failed": 0, "runs_failing": 0}
        for seed in record["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counts["attempted"] += result["attempted"]
            counts["failed"] += result["failed"]
            counts["runs_failing"] += proc.returncode != 0
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[metric], "values": vals}
            print(f"{name:10s} {metric:12s} median {med:10.5f} spread {spread:6.3f} "
                  f"bound {bounds[metric]}")
            if name in listed:
                worst = max(worst, spread / bounds[metric])
        record["workloads"][name] = dict(counts, listed=name in listed, metrics=rows)
        print(f"{name:10s} operations failed: {counts['failed']} of {counts['attempted']}, "
              f"in {counts['runs_failing']} of {RUNS} runs")
    print(f"largest spread / bound of a listed workload: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
