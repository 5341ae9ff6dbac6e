"""Correctness gate: split each pass into checked units and judge them.

A unit is what ``failed_ratio`` counts:

* ``hermite-scan`` grids: one unit per grid point.  It fails unless
  ``G - tail_bound > 0`` (certified positive) and, against a reference,
  ``|G - G_ref| <= SCAN_TOL + G_ULPS * eps * |G_ref|``: the scan tolerance
  plus binary64 rounding of the printed value, which reaches 1e21.
* ``verify`` suites: one unit per check.  It fails on FAIL, when the suite
  raised, or when the list of check names differs from the reference.
* every other query: one unit per CLI call.  It fails on a nonzero exit
  or, against a reference, when its numbers differ.

Any unit whose output bytes differ between two passes of one run also
fails (``failed_units`` compares every pass with the first).
"""

import json
import math

from workloads import SCAN_T, SCAN_TOL, SCAN_X

#: relative tolerance on query numbers; far above binary64 roundoff and
#: far below any error the catalog's own checks would accept
RTOL = 1e-9
#: rounding allowance on G, in units of 2**-52 relative
G_ULPS = 4
#: moments of a dumped atomic measure compared by the gate
MEASURE_MOMENTS = 8

#: every seed's scan grid has the seed-0 shape, 39 t values by 81 x
SCAN_POINTS = (SCAN_T[2] + 1) * (SCAN_X[2] + 1)


class Unit:
    """One checked output: ``why`` is empty when it passed."""

    __slots__ = ("key", "data", "why")

    def __init__(self, key, data, why=""):
        self.key, self.data, self.why = key, data, why


def _failed_call(op):
    if op["raised"] is not None:
        return op["raised"]
    if op["code"] not in (0, 1):
        return "exit %r: %s" % (op["code"], op["err"].strip())
    return None


# ------------------------------------------------------------ number parsing

def _csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _measure_numbers(atoms, zero_mass):
    numbers = {"mass": math.fsum([zero_mass] + [w for _, w in atoms])}
    for k in range(1, MEASURE_MOMENTS + 1):
        numbers["moment%d" % k] = math.fsum(w * loc ** k for loc, w in atoms)
    return numbers


def numbers(argv, text):
    """The numbers a query prints, by name, for comparison with a
    reference.  A measure is compared by its mass and moments, not atom by
    atom, so a carrier that drops negligible atoms still passes."""
    command = argv[0]
    if "--output" in argv:
        as_json = argv[argv.index("--output") + 1] == "json"
    else:
        as_json = command == "atoms"
    if command == "atoms":
        if as_json:
            data = json.loads(text)
            return _measure_numbers([tuple(a) for a in data["atoms"]],
                                    data["zero_mass"])
        _, rows = _csv_rows(text)
        atoms = [(float(loc), float(w)) for loc, w in rows]
        zero = math.fsum(w for loc, w in atoms if loc == 0.0)
        return _measure_numbers([a for a in atoms if a[0] != 0.0], zero)
    if command == "mellin":
        if as_json:
            re_, im = json.loads(text)["value"]
        else:
            parts = [float(v) for v in text.strip().split(",")]
            re_, im = parts[0], (parts[1] if len(parts) > 1 else 0.0)
        return {"re": re_, "im": im}
    if command == "hermite-scan":
        header, rows = _csv_rows(text)
        return {"G%d" % i: float(row[2]) for i, row in enumerate(rows)}
    if as_json:
        data = json.loads(text)
        if command == "moments":
            return {"value%d" % n: v for n, v in enumerate(data["moments"])}
        return {"%s%d" % (k, row["n"]): v for row in data["rows"]
                for k, v in row.items() if k != "n"}
    header, rows = _csv_rows(text)
    return {"%s%s" % (name, row[0]): float(v) for row in rows
            for name, v in zip(header[1:], row[1:])}


def g_close(value, ref):
    return abs(value - ref) <= SCAN_TOL + G_ULPS * 2.0 ** -52 * abs(ref)


def _close(key, value, ref, ref_numbers):
    if math.isnan(value) or math.isnan(ref):
        return False
    if key.startswith("G"):
        return g_close(value, ref)
    if key.startswith("residual"):
        # a residual is a difference of two moments: scale by the moment
        scale = max(1.0, abs(ref_numbers["moment" + key[len("residual"):]]))
        return abs(value - ref) <= RTOL * scale
    return abs(value - ref) <= RTOL * max(abs(value), abs(ref))


def compare_numbers(got, ref):
    """Empty string when ``got`` matches ``ref``, else the first mismatch."""
    if sorted(got) != sorted(ref):
        return "printed fields differ from the reference"
    for key in sorted(ref):
        if not _close(key, got[key], ref[key], ref):
            return "%s = %r, reference %r" % (key, got[key], ref[key])
    return ""


# --------------------------------------------------------------- unit split

def scan_units(op, ref_points):
    """One unit per grid point; ``ref_points`` is ``[[t, x, G], ...]`` or
    None (a seed without reference)."""
    expected = len(ref_points) if ref_points is not None else SCAN_POINTS
    problem = _failed_call(op)
    rows = [] if problem else op["out"].strip().splitlines()[1:]
    units = []
    for i in range(max(expected, len(rows))):
        if i >= len(rows):
            units.append(Unit("point%d" % i, None,
                              problem or "point missing from the output"))
            continue
        line = rows[i]
        try:
            t, x, g, tail = (float(v) for v in line.split(","))
        except ValueError:
            units.append(Unit("point%d" % i, line, "unparsable row"))
            continue
        why = ""
        if not g - tail > 0.0:
            why = "not certified positive at (%r, %r)" % (t, x)
        elif ref_points is not None:
            if i >= len(ref_points):
                why = "point beyond the reference grid"
            else:
                rt, rx, rg = ref_points[i]
                if (t, x) != (rt, rx):
                    why = "grid point (%r, %r), reference (%r, %r)" % (
                        t, x, rt, rx)
                elif not g_close(g, rg):
                    why = "G(%r, %r) = %r, reference %r" % (t, x, g, rg)
        units.append(Unit("point%d" % i, line, why))
    return units


def verify_units(op, ref_names):
    problem = _failed_call(op)
    lines = [] if problem else [
        line for line in op["out"].splitlines()
        if line.startswith(("PASS ", "FAIL "))]
    names = [line.split()[1] for line in lines]
    if not problem and ref_names is not None and names != ref_names:
        problem = "check names differ from the reference"
    if problem:
        return [Unit(name, None, problem)
                for name in (ref_names or ["suite"])]
    return [Unit(name, line, "" if line.startswith("PASS ") else line)
            for name, line in zip(names, lines)]


def query_units(op, argv, ref_numbers):
    problem = _failed_call(op)
    if not problem and op["code"] != 0:
        problem = "exit %r" % op["code"]
    if not problem and ref_numbers is not None:
        try:
            problem = compare_numbers(numbers(argv, op["out"]), ref_numbers)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = "unparsable output: %s" % exc
    data = None if op["raised"] else "%r\n%s%s" % (op["code"], op["out"],
                                                  op["err"])
    return [Unit(" ".join(argv), data, problem)]


def pass_units(workload, ops, results, reference):
    """Split one pass into units.  ``reference`` maps an operation's argv
    tuple to its entry in ``reference.json``; an operation whose argv is
    not there (a seed other than 0 moved its inputs) is checked without
    one."""
    units = []
    for argv, op in zip(ops, results):
        ref = reference.get(tuple(argv), {})
        if workload == "scan":
            units += scan_units(op, ref.get("points"))
        elif argv[0] == "verify":
            units += verify_units(op, ref.get("checks"))
        else:
            units += query_units(op, argv, ref.get("numbers"))
    return units


def failed_units(passes):
    """(attempted, failed, reasons) over all passes of one run; a unit
    also fails when its bytes differ from the first pass."""
    attempted = failed = 0
    reasons = []
    first = passes[0]
    for p, units in enumerate(passes):
        if len(units) != len(first):
            reasons.append("pass %d has %d units, the first %d"
                           % (p, len(units), len(first)))
        for i, unit in enumerate(units):
            attempted += 1
            why = unit.why
            if not why and p > 0 and (i >= len(first)
                                      or unit.data != first[i].data):
                why = "output differs between passes"
            if why:
                failed += 1
                reasons.append("%s: %s" % (unit.key, why))
    return attempted, failed, reasons
