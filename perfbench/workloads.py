"""Workload definitions: the CLI argument lists one pass runs.

An operation is one ``momentforge.cli.main(argv)`` call.  ``scan`` is the
default ``hermite-scan`` grid; ``catalog`` runs the four verification
suites that exercise lattice measures and quadrature, then a fixed list
of catalog queries.  Seed 0 gives the reference inputs; other seeds move
the scan grid and the query parameters by small amounts, through the
CLI's own arguments, so that the work per pass stays close to seed 0
while the program never sees the same numbers twice.  The verification
suites have fixed inputs and ignore the seed.
"""

import random

WORKLOADS = ("scan", "catalog")

#: the suites behind the lattice-measure write path (tau_c, mu_c,
#: convolution, atom merge) and behind adaptive quadrature
SUITES = (["verify", "qseries"], ["verify", "semigroup"],
          ["verify", "bernstein-rep"], ["verify", "hankel"])

#: default ``hermite-scan`` grid: 39 t values by 81 x values, tol 1e-10
SCAN_T = (-0.95, 0.95, 38)
SCAN_X = (-10.0, 10.0, 80)
SCAN_TOL = 1e-10

#: single Hermite points: the first two take the multiprecision fallback,
#: the last two stay in binary64
HERMITE_POINTS = ((-0.95, 10.0), (-0.9, 7.5), (0.5, 0.0), (0.9, -3.0))


def _num(x):
    """Shortest text for a shifted parameter (6 decimals, no exponent)."""
    return ("%.6f" % x).rstrip("0").rstrip(".")


def _scan_ops(rng):
    (t0, t1, nt), (x0, x1, nx) = SCAN_T, SCAN_X
    if rng is None:
        return [["hermite-scan"]]
    # contract both grids from each end by a seeded amount, so every point
    # stays inside the seed-0 ranges and the grid keeps its shape
    dt = rng.uniform(0.0, 0.002)
    dx = rng.uniform(0.0, 0.02)
    t0, t1, x0, x1 = t0 + dt, t1 - dt, x0 + dx, x1 - dx
    return [["hermite-scan",
             "--tmin=%r" % t0, "--tmax=%r" % t1,
             "--tstep=%r" % ((t1 - t0) / nt),
             "--xmin=%r" % x0, "--xmax=%r" % x1,
             "--xstep=%r" % ((x1 - x0) / nx)]]


def _queries(rng):
    def p(value, width):
        return value if rng is None else value + rng.uniform(-width, width)

    def ident(head, *params):
        return ":".join([head] + [_num(v) for v in params])

    a, b, q = p(0.5, 0.01), p(0.25, 0.01), p(0.5, 0.01)
    qbeta = ident("qbeta", a, b, q, p(1.0, 0.05))
    qbeta25 = ident("qbeta", a, b, q, p(2.5, 0.05))
    sigmaq = ident("sigmaq", a, b, q)
    ops = [
        ["moments", ident("hp", p(0.5, 0.01), p(0.5, 0.01)),
         "--n-max", "200"],
        ["moments", sigmaq, "--n-max", "40"],
        ["atoms", qbeta],
        ["atoms", qbeta25, "--output", "csv"],
        ["atoms", ident("nu", p(0.5, 0.01), p(0.5, 0.01))],
        ["atoms", sigmaq],
    ]
    families = [qbeta, ident("gamma", p(1.0, 0.05), p(2.0, 0.05)),
                ident("vclognormal", p(0.5, 0.01), p(1.0, 0.05))]
    for obj in families:
        ops.append(["moments", obj])
        ops.append(["mellin", obj, "--z", "2+1j"])
    ops.append(["table", families[0]])
    ops.append(["table", families[1], "--output", "json"])
    ops.append(["table", families[2]])
    # Bernstein ids have moments but no Mellin evaluator
    ratio = ident("ratio", p(1.0, 0.05), p(2.0, 0.05))
    ops.append(["moments", ratio])
    ops.append(["table", ratio])
    for t, x in HERMITE_POINTS:
        t, x = _num(p(t, 0.002)), _num(p(x, 0.02))
        ops.append(["hermite-scan", "--tmin=" + t, "--tmax=" + t,
                    "--xmin=" + x, "--xmax=" + x])
    return ops


def operations(workload, seed):
    """The list of CLI argument lists that one pass of ``workload`` runs."""
    rng = None if seed == 0 else random.Random("%s:%d" % (workload, seed))
    if workload == "scan":
        return _scan_ops(rng)
    if workload == "catalog":
        return [list(argv) for argv in SUITES] + _queries(rng)
    raise ValueError("unknown workload %r" % workload)
