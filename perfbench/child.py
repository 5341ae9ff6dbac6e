"""One benchmark pass in a fresh interpreter.

Usage: python -I child.py ROOT SPEC_JSON

ROOT is the checkout whose ``src/`` holds momentforge.  SPEC_JSON is
``{"ops": [[argv...], ...], "trace": bool}``, or ``{"ops": null}`` for a
set-up probe that only imports the CLI.  The child writes ``ready`` on
stdout as soon as ``import momentforge.cli`` has finished (the parent
times set-up up to that line), then runs each operation in-process
through ``momentforge.cli.main`` and writes one JSON object with the
outputs, exit codes and timings.  A ``calibrate.Sampler`` thread samples
the CPU's speed during the import and again while the operations run;
the report gives the samples and the time the sampler itself took.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_op(argv, runner):
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = runner(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
        except Exception as exc:  # reported as a failed operation
            code = None
            raised = "%s: %s" % (type(exc).__name__, exc)
    seconds = time.perf_counter() - start
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "raised": raised, "s": seconds}


def main():
    root, spec = sys.argv[1], json.loads(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, here)
    sys.path.insert(0, src)
    import calibrate
    sampler = calibrate.Sampler()
    sampler.start()
    import momentforge.cli as cli  # set-up ends when this returns
    sampler.finish()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    report = {"setup_chunks": sampler.chunks, "setup_busy_s": sampler.busy_s}
    if spec["ops"] is None:
        json.dump(report, sys.stdout)
        return 0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("momentforge was imported from %s, not from %s"
                         % (cli.__file__, src))
    tracer = None
    runner = cli.main
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

        def runner(argv):
            return tracer.call("cli." + argv[0], cli.main, (argv,), {})

    results = []
    sampler = calibrate.Sampler()
    start = time.perf_counter()
    sampler.start()
    for op_id, argv in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = op_id
        results.append(run_op(argv, runner))
    sampler.finish()
    wall = time.perf_counter() - start
    report.update({
        "ops": results,
        "wall_s": wall,
        "chunks": sampler.chunks,
        "busy_s": sampler.busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["counts"] = tracer.counts
        report["missing"] = tracer.missing
        report["spans"] = len(tracer.spans)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
