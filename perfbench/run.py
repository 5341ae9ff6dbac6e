"""momentforge benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan --seed 0 --seconds 55 --trace 0

Each pass starts one fresh interpreter (``child.py``) that imports the CLI
from ``src/`` and runs the workload's operations through
``momentforge.cli.main`` in-process; children run one at a time, pinned
with the run to one CPU, and their set-up and pass times are rescaled to
a reference speed by samples taken on that CPU (``calibrate.py``).  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a traced pass.  The last line
of stdout is the result object; the lines before it give the machine and
version metadata and a readable summary that includes ``failed_ratio``.
Exit status is 0 when a result was printed, 2 when the checkout holds no
momentforge sources or reference, 1 when a child could not be run.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import gate  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

#: set-up probes per run on top of the one set-up sample each pass gives
SETUP_PROBES = 5
#: the CPUs this process may use before it pins itself
USABLE_CPUS = os.sched_getaffinity(0)
#: the CPU the run is pinned to: the last one this process may use
BENCH_CPU = max(USABLE_CPUS)
#: a run stops starting passes once this much wall time has gone
RUN_LIMIT_S = 170.0
#: children inherit these so that numpy never starts a thread pool
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
CLI_COMMANDS = ("verify", "moments", "table", "mellin", "atoms",
                "hermite-scan")
VERIFY_SUITES = ("hankel", "bernstein-rep", "qseries", "semigroup")


class BenchError(Exception):
    """A child could not be started or did not produce a report."""


def _per_layer():
    """(metric name, unit) of every per-layer metric, in report order."""
    def calls_self(prefix, *names):
        out = []
        for name in names:
            out += [("%s.%s.calls" % (prefix, name), "count"),
                    ("%s.%s.self_s" % (prefix, name), "s")]
        return out

    metrics = calls_self("hermite", "generating_G") + [
        ("hermite.terms_summed", "count"),
        ("hermite.mp_fallback.calls", "count"),
        ("hermite.mp_fallback.s", "s"),
        ("hermite.f64_sum.s", "s"),
        ("hermite.fallback_ratio", "ratio"),
    ]
    metrics += calls_self("measures", "from_pairs") + [
        ("measures.atoms_in", "count"),
        ("measures.atoms_out", "count"),
        ("measures.merge_keep_ratio", "ratio"),
    ]
    metrics += [("measures.%s.self_s" % name, "s")
                for name in ("product_convolve", "additive_convolve",
                             "pushforward", "moment", "mellin")]
    metrics += [("measures.moment.calls", "count")]
    metrics += calls_self("qseries", "tau_c") + [
        ("qseries.tau_c.atoms_kept", "count"),
        ("qseries.mu_c.tiny_atoms", "count"),
        ("qseries.mu_c.useful_atom_ratio", "ratio"),
    ]
    metrics += calls_self("qseries", "hp_coefficients", "sigma_abgamma")
    metrics += [("qseries.hp_coefficients.terms", "count")]
    metrics += calls_self("quadrature", "integrate") + [
        ("quadrature.integrand_points", "count"),
        ("quadrature.integrand_batches", "count"),
    ]
    metrics += calls_self("bernstein", "log_moment_via_rep", "psi",
                          "sigma_of")
    metrics += calls_self("hankel", "stieltjes_check", "carleman_diagnostic")
    metrics += calls_self("semigroups", "gamma_mellin", "beta_mellin",
                          "vc_mellin")
    metrics += calls_self("catalog", "resolve") + [
        ("catalog.moments.calls", "count")]
    metrics += [("cli.%s.s" % name, "s") for name in CLI_COMMANDS]
    metrics += [("verify.%s.s" % name, "s") for name in VERIFY_SUITES]
    metrics += [("trace.overhead_s", "s")]
    return tuple(metrics)


PER_LAYER = _per_layer()


# ------------------------------------------------------------------ children

def child_env():
    env = dict(os.environ)
    # a stray budget would change how much quadrature work a pass does
    env.pop("MOMENTFORGE_QUAD_BUDGET", None)
    for name in THREAD_CAPS:
        env[name] = "1"
    return env


def run_child(spec, deadline):
    """Start one child, time it to its ``ready`` line, wait for its report.
    The report gains ``setup_s`` and, for a pass, ``wall_s`` rescaled to
    the reference speed (calibrate.py), and their raw values."""
    argv = [sys.executable, "-I", os.path.join(HERE, "child.py"), ROOT,
            json.dumps(spec)]
    start = time.perf_counter()
    # unbuffered, so that reading the ready line leaves the report behind
    # for communicate()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0)
    try:
        first = proc.stdout.readline().decode()
        setup = time.perf_counter() - start
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass did not finish within the run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError("child exited with %s: %s" % (
            proc.returncode, (first + err.decode()).strip()[-2000:]))
    report = json.loads(out)
    # the sampler's own work is taken out of the time it sampled
    report["raw_setup_s"] = setup - report.pop("setup_busy_s")
    report["setup_s"] = calibrate.rescale(report["raw_setup_s"],
                                          report.pop("setup_chunks"))
    if spec["ops"] is not None:
        report["raw_wall_s"] = report["wall_s"] - report.pop("busy_s")
        report["wall_s"] = calibrate.rescale(report["raw_wall_s"],
                                             report.pop("chunks"))
    return report


# ------------------------------------------------------------------ metrics

def layer_values(report):
    """Per-layer values of one traced pass; None marks an absent metric."""
    layers = report["layers"]
    counts = report["counts"]
    missing = set(report["missing"])

    def span(name, column):
        if name in missing:
            return None
        return layers.get(name, [0, 0.0, 0.0])[column]

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    values = {}
    for metric, _ in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            values[metric] = span(head, 0)
        elif tail == "self_s":
            values[metric] = span(head, 2)
        elif tail == "s" and metric.startswith(("cli.", "verify.")):
            values[metric] = span(head, 1)
        else:
            values[metric] = counts.get(metric, 0)
    values["hermite.mp_fallback.calls"] = span("hermite._sum_mp", 0)
    values["hermite.mp_fallback.s"] = span("hermite._sum_mp", 1)
    values["hermite.f64_sum.s"] = span("hermite._sum_float", 1)
    values["hermite.fallback_ratio"] = ratio(
        values["hermite.mp_fallback.calls"],
        values["hermite.generating_G.calls"])
    values["measures.merge_keep_ratio"] = ratio(
        counts.get("measures.atoms_out", 0), counts.get("measures.atoms_in", 0))
    mu_atoms = counts.get("qseries.mu_c.atoms", 0)
    values["qseries.mu_c.useful_atom_ratio"] = ratio(
        mu_atoms - counts.get("qseries.mu_c.tiny_atoms", 0), mu_atoms)
    return values


def traced_metrics(untraced, traced):
    """Per-layer metrics: times are medians over the traced passes, counts
    must repeat exactly.  ``untraced[i]`` ran just before ``traced[i]``.
    Returns (metrics, problems)."""
    per_pass = [layer_values(r) for r in traced]
    problems = []
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        column = [v[name] for v in per_pass]
        if column[0] is None:
            continue
        if unit == "s":
            value = statistics.median(column)
        else:
            value = column[0]
            if any(v != value for v in column):
                problems.append("%s differs between traced passes: %r"
                                % (name, column))
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t["wall_s"] - u["wall_s"]
                                   for u, t in zip(untraced, traced)),
        "unit": "s"}
    return metrics, problems


# ----------------------------------------------------------------- metadata

def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(USABLE_CPUS),
            "bench_cpu": BENCH_CPU,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"),
            "git_commit": git_commit(), "src_sha256": source_digest()}


# --------------------------------------------------------------------- run

def load_reference():
    """{argv tuple: reference entry} over the seed-0 operations."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        return {tuple(entry["argv"]): entry
                for entry in json.load(fh)["ops"]}


def measure(args):
    ops = operations(args.workload, args.seed)
    reference = load_reference()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    # the run and its children stay on one CPU: each vCPU of the VM has
    # slow periods of its own, and a child's sampler thread must time the
    # CPU its main thread runs on
    os.sched_setaffinity(0, {BENCH_CPU})
    # the first import in a fresh checkout also compiles bytecode: untimed
    run_child({"ops": None}, deadline)
    # each probe and each pass gives one set-up sample
    children = [run_child({"ops": None}, deadline)
                for _ in range(SETUP_PROBES)]
    budget = time.perf_counter() + args.seconds

    def run_pass(trace):
        report = run_child({"ops": ops, "trace": trace}, deadline)
        children.append(report)
        return report

    def room_for(durations):
        # start another pass only if it should end inside --seconds
        now = time.perf_counter()
        return now + statistics.median(durations) <= budget and \
            now < deadline

    # each step is one untraced pass, followed with --trace 1 by a traced
    # one, so that the two passes of a pair see the same machine conditions
    reports, traced, durations = [], [], []
    while len(reports) < 2 or room_for(durations):
        t0 = time.perf_counter()
        reports.append(run_pass(False))
        if args.trace:
            traced.append(run_pass(True))
        durations.append(time.perf_counter() - t0)

    passes = [gate.pass_units(args.workload, ops, r["ops"], reference)
              for r in reports + traced]
    attempted, failed, reasons = gate.failed_units(passes)
    problems = []
    if args.trace:
        metrics, problems = traced_metrics(reports, traced)
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in children),
            "wall_s": statistics.median(r["wall_s"] for r in reports),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in reports),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(reports) + len(traced),
        "pass_wall_s": [r["wall_s"] for r in reports + traced],
        "raw_pass_wall_s": [r["raw_wall_s"] for r in reports + traced],
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in children),
        "setup_samples": len(children),
        "failed_ratio": {"value": failed / attempted, "unit": "ratio",
                         "failed": failed, "attempted": attempted},
        "failures": reasons[:20],
        "problems": problems,
    }
    if args.trace:
        summary["absent"] = sorted(name for name, _ in PER_LAYER
                                   if name not in metrics)
        summary["spans"] = [r["spans"] for r in traced]
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    cli = os.path.join(ROOT, "src", "momentforge", "cli.py")
    ref = os.path.join(HERE, "reference.json")
    for path in (cli, ref):
        if not os.path.isfile(path):
            print("perfbench: %s is missing; run from the root of a "
                  "momentforge checkout" % os.path.relpath(path, ROOT),
                  file=sys.stderr)
            return 2
    try:
        summary, result = measure(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"meta": metadata()}, sort_keys=True))
    print(json.dumps({"summary": summary}, sort_keys=True))
    line = "%s seed=%d:" % (args.workload, args.seed)
    for name, value in sorted(result["metrics"].items()):
        if not args.trace:
            line += " %s=%.6g %s" % (name, value["value"], value["unit"])
    line += " failed_ratio=%.6g ratio (%d/%d)" % (
        summary["failed_ratio"]["value"], result["failed"],
        result["attempted"])
    print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
