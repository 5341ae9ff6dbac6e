"""Batch command-line front-end.

Subcommands: verify, moments, mellin, atoms, hermite-scan, table.  Each
command returns its text and its exit code, and :func:`main` alone writes
the text, to ``--out`` or stdout.  All output is deterministic; CSV uses
'.' decimals with 17 significant digits.  Exit codes: 0 success, 1
verification failure, 2 usage error.
"""

import argparse
import cmath
import functools
import json
import math
import sys

from . import verify
from .catalog import resolve
from .errors import (BudgetError, DomainError, MomentForgeError,
                     PreconditionError, UnsupportedError)
from .hermite import positivity_scan
from .measures import AtomicMeasure


def _fmt(x):
    return "%.17g" % x


def _csv(header, rows):
    """CSV text: ``header``, then one line per row, each number by _fmt
    (for an integer, the same text as %d)."""
    lines = [header]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


#: the most points a scan grid may hold: a scan's peak memory grows by
#: about 660 bytes a point (27 MB for a 201 x 201 grid), so this keeps it
#: under a gigabyte
MAX_SCAN_POINTS = 10 ** 6


def _count(lo, hi, step):
    """The number of points of the grid lo, lo + step, ..., hi."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError("grid bounds and step must be finite")
    if step <= 0:
        raise DomainError("step must be positive")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise DomainError("grid [%g, %g] step %g has too many points to "
                          "count" % (lo, hi, step))
    count = round(span) + 1
    if count < 1:
        raise DomainError("empty grid: [%g, %g] step %g" % (lo, hi, step))
    return count


def _grid(lo, hi, step):
    count = _count(lo, hi, step)
    if count == 1:
        # rounding to 12 decimals would turn a point such as 1e-300 into 0
        return [lo]
    return [round(lo + i * step, 12) for i in range(count)]


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise DomainError("parameter %r is not key=value" % item)
        key, _, value = item.partition("=")
        if key in params:
            raise DomainError("parameter %r is given twice" % key)
        try:
            params[key] = float(value)
        except ValueError:
            raise DomainError("parameter %r is not numeric" % item)
        if not math.isfinite(params[key]):
            raise DomainError("parameter %r is not finite" % item)
    return params


def build_parser():
    parser = argparse.ArgumentParser(
        prog="momentforge",
        description="Moment sequences, product convolution semigroups, "
                    "q-series measures and Hermite positivity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(verify.SUITE_NAMES) + ["all"])
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")

    for name in ("moments", "table"):
        p = sub.add_parser(name)
        p.add_argument("object_id")
        p.add_argument("--n-max", type=int, default=10)
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="extra catalog parameters (e.g. alpha=1)")
        p.add_argument("--output", choices=("csv", "json"), default="csv")

    p = sub.add_parser("mellin")
    p.add_argument("object_id")
    p.add_argument("--z", required=True,
                   help="evaluation point, real or complex (e.g. 2+1j)")
    p.add_argument("--output", choices=("csv", "json"), default="csv")

    p = sub.add_parser("atoms")
    p.add_argument("object_id")
    p.add_argument("--output", choices=("csv", "json"), default="json")

    p = sub.add_parser("hermite-scan")
    p.add_argument("--tmin", type=float, default=-0.95)
    p.add_argument("--tmax", type=float, default=0.95)
    p.add_argument("--tstep", type=float, default=0.05)
    p.add_argument("--xmin", type=float, default=-10.0)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--xstep", type=float, default=0.25)
    p.add_argument("--tol", type=float, default=1e-10)
    # main alone reads --out; it is the last option of every subcommand
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def _cmd_verify(args):
    results = verify.run_suite(args.suite, tol=args.tol)
    return (verify.render_report(results),
            0 if verify.all_passed(results) else 1)


def _cmd_moments(args):
    obj = resolve(args.object_id, _parse_params(args.param))
    values = obj.moments(args.n_max)
    if args.output == "json":
        text = json.dumps({"object": args.object_id,
                           "moments": values}) + "\n"
    else:
        text = _csv("n,value", enumerate(values))
    return text, 0


def _cmd_table(args):
    obj = resolve(args.object_id, _parse_params(args.param))
    values = obj.moments(args.n_max)
    rows = []
    for n, v in enumerate(values):
        row = {"n": n, "moment": v}
        if obj.mellin_fn is not None:
            mval = obj.mellin(n)
            row["mellin"] = complex(mval).real
            row["residual"] = abs(complex(mval).real - v)
        rows.append(row)
    if args.output == "json":
        text = json.dumps({"object": args.object_id, "rows": rows}) + "\n"
    else:
        text = _csv(",".join(rows[0]), (r.values() for r in rows))
    return text, 0


def _cmd_mellin(args):
    obj = resolve(args.object_id)
    try:
        z = complex(args.z)
    except ValueError:
        raise DomainError("cannot parse z = %r" % args.z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite, got z = %s" % args.z)
    value = complex(obj.mellin(z))
    if args.output == "json":
        text = json.dumps({"object": args.object_id, "z": args.z,
                           "value": [value.real, value.imag]}) + "\n"
    elif value.imag == 0.0:
        text = _fmt(value.real) + "\n"
    else:
        text = "%s,%s\n" % (_fmt(value.real), _fmt(value.imag))
    return text, 0


def _cmd_atoms(args):
    obj = resolve(args.object_id)
    m = obj.measure()
    if args.output == "json":
        text = json.dumps(m.to_json_dict() if isinstance(m, AtomicMeasure)
                          else obj.density_json()) + "\n"
    else:
        if not isinstance(m, AtomicMeasure):
            raise UnsupportedError(
                "%s is a density; use --output json" % args.object_id)
        zero = [(0, m.zero_mass)] if m.zero_mass > 0 else []
        text = _csv("location,weight", zero + list(m.atoms))
    return text, 0


def _cmd_hermite_scan(args):
    axes = ((args.tmin, args.tmax, args.tstep),
            (args.xmin, args.xmax, args.xstep))
    if math.prod(_count(*axis) for axis in axes) > MAX_SCAN_POINTS:
        raise DomainError("the scan grid has more than %d points"
                          % MAX_SCAN_POINTS)
    report = positivity_scan(*(_grid(*axis) for axis in axes), tol=args.tol)
    lines = ["t,x,G,tail_bound"]
    # t, x, value and tail_bound are a GenFunValue's first four fields
    lines.extend("%.17g,%.17g,%.17g,%.17g" % g[:4] for g in report.points)
    return "\n".join(lines) + "\n", 0 if report.all_positive else 1


_DISPATCH = {
    "verify": _cmd_verify,
    "moments": _cmd_moments,
    "table": _cmd_table,
    "mellin": _cmd_mellin,
    "atoms": _cmd_atoms,
    "hermite-scan": _cmd_hermite_scan,
}


@functools.cache
def _parser():
    """The parser of main, built on first use and kept for the process:
    parse_args leaves it as it was."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        text, code = _DISPATCH[args.command](args)
    except (DomainError, PreconditionError, UnsupportedError,
            BudgetError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MomentForgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
