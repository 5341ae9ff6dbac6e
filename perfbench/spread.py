"""Run the benchmark over several seeds and report medians and spreads.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --seeds 1-10 [WORKLOAD ...]

Each (workload, seed) pair is one ``run.py`` process with BENCHMARK.json's
``run_seconds``, run one after the other.  For every end-to-end metric the
table gives the median and the quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json, and the same for the uncalibrated medians ``raw_setup_s``
and ``raw_wall_s`` from each run's summary line, which have no bound;
``failed_ratio`` is summed over all runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {}
        attempted = failed = 0
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary = json.loads(lines[1])["summary"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = dict(result["metrics"])
            # the uncalibrated figures, to compare their spread
            metrics["raw_setup_s"] = {"value": summary["raw_setup_s"],
                                      "unit": "s"}
            metrics["raw_wall_s"] = {
                "value": statistics.median(summary["raw_pass_wall_s"]),
                "unit": "s"}
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
            print("  %s seed %d: %s failed_ratio=%.6g ratio" % (
                workload, seed, " ".join(
                    "%s=%.6g %s" % (k, v["value"], v["unit"])
                    for k, v in sorted(metrics.items())),
                result["failed"] / result["attempted"]), flush=True)
        print("%s: %d runs, failed_ratio=%.6g ratio (%d/%d)"
              % (workload, len(args.seeds), failed / attempted, failed,
                 attempted))
        for name in sorted(values):
            column = values[name]
            print("  %-12s median=%.6g %s spread=%.4f bound=%s"
                  % (name, statistics.median(column),
                     units.get(name, "s"),
                     spread(column) if len(column) > 1 else 0.0,
                     bounds.get(name, "-")),
                  flush=True)


if __name__ == "__main__":
    main()
