"""Write ``reference.json``: the seed-0 outputs the gate compares against.

Run once, from the root of a checkout at the commit the references should
come from:

    python3 perfbench/make_reference.py

It runs one untraced pass of each workload at seed 0 and keeps what the
gate needs: the scan grid with its G values, the check names of every
verify call and the numbers of every query.  Every operation must pass on
its own terms (certified scan, all checks PASS, exit status 0) or nothing
is written.
"""

import json
import os
import sys
import time

import run
from gate import numbers
from workloads import WORKLOADS, operations


def reference_entry(workload, argv, op):
    """What the gate keeps of one seed-0 operation; exits if it failed."""
    if op["raised"] or op["code"] != 0:
        sys.exit("%s failed at the reference commit: %r"
                 % (" ".join(argv), op))
    if workload == "scan":
        rows = [[float(v) for v in row.split(",")]
                for row in op["out"].strip().splitlines()[1:]]
        if not all(g - tail > 0.0 for _, _, g, tail in rows):
            sys.exit("the reference scan is not certified positive")
        return {"points": [row[:3] for row in rows]}
    if argv[0] == "verify":
        lines = [line for line in op["out"].splitlines()
                 if line.startswith(("PASS ", "FAIL "))]
        if any(line.startswith("FAIL ") for line in lines):
            sys.exit("a reference check failed: %s" % op["out"])
        return {"checks": [line.split()[1] for line in lines]}
    return {"numbers": numbers(argv, op["out"])}


def main():
    deadline = time.perf_counter() + 3600.0
    entries = []
    for workload in WORKLOADS:
        ops = operations(workload, 0)
        report = run.run_child({"ops": ops, "trace": False}, deadline)
        for argv, op in zip(ops, report["ops"]):
            entry = reference_entry(workload, argv, op)
            entry["argv"] = argv
            entries.append(entry)
        print("%s: %.1f s" % (workload, report["raw_wall_s"]),
              file=sys.stderr)
    out = {"commit": run.git_commit(), "src_sha256": run.source_digest(),
           "ops": entries}
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
