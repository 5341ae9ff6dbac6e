import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import momentforge
from momentforge import (DomainError, generating_G, hermite, hermite_H,
                         hermite_h, positivity_scan)
from momentforge.errors import BudgetError, RangeError
from momentforge.hermite import (_add_up, _backward_batch, _backward_point,
                                 _coefficients, _column_bound, _float_column,
                                 _float_row, _fixed_point_scale, _prefix,
                                 _sum_float, _sum_mp, _terms_needed)

U = 2.0 ** -53
DEFAULT_T = [round(-0.95 + 0.05 * i, 12) for i in range(39)]
DEFAULT_X = [round(-10.0 + 0.25 * i, 12) for i in range(81)]


def test_H_base_cases():
    assert hermite_H(0, 3.7) == 1.0
    assert hermite_H(1, 0.5) == 1.0
    assert hermite_H(2, 1.0) == 2.0


def test_H_known_values():
    # H_3(x) = 8x^3 - 12x
    for x in (-1.0, 0.3, 2.0):
        assert hermite_H(3, x) == pytest.approx(8 * x ** 3 - 12 * x)


def test_H_overflow_raises():
    with pytest.raises(RangeError):
        hermite_H(400, 30.0)


def test_exponential_generating_function():
    total = sum(hermite_H(k, 1.0) * 0.3 ** k / math.factorial(k)
                for k in range(31))
    assert total == pytest.approx(math.exp(0.51), abs=1e-10)


def test_h_normalization():
    assert hermite_h(0, 2.0) == 1.0
    assert hermite_h(1, 1.0) == pytest.approx(math.sqrt(2.0))


def test_h_matches_H_scaled():
    for n in range(8):
        for x in (-2.0, 0.5, 3.0):
            scale = math.sqrt(2.0 ** n * math.factorial(n))
            assert hermite_h(n, x) == pytest.approx(hermite_H(n, x) / scale,
                                                    rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [5, 20, 100, 200])
def test_szasz_bound(n):
    for x in np.arange(-6.0, 6.01, 0.5):
        assert abs(hermite_h(n, float(x))) <= math.exp(0.5 * x * x)


def test_szasz_specific():
    assert abs(hermite_h(20, 3.0)) <= math.exp(4.5)


def test_h_past_where_the_szasz_bound_overflows():
    # e^{x^2/2} overflows binary64 here; the check must not
    x = 40.0
    H5 = 32 * x ** 5 - 160 * x ** 3 + 120 * x
    assert hermite_h(5, x) == pytest.approx(H5 / math.sqrt(2 ** 5 * 120),
                                            rel=1e-13)


def test_h_overflow_raises():
    with pytest.raises(RangeError):
        hermite_h(800, 40.0)
    with pytest.raises(RangeError):
        hermite_h(3, 1e200)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("f", [hermite_H, hermite_h])
def test_hermite_rejects_non_finite_x(f, x):
    with pytest.raises(DomainError):
        f(3, x)


def test_orthonormality_gauss_hermite():
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for n in range(9):
        for m in range(n, 9):
            total = inv_sqrt_pi * sum(
                w * hermite_h(n, float(x)) * hermite_h(m, float(x))
                for x, w in zip(nodes, weights))
            assert total == pytest.approx(1.0 if n == m else 0.0,
                                          abs=1e-8)


def test_G_at_t_zero():
    g = generating_G(0.0, 5.0)
    assert g.value == 1.0
    assert g.tail_bound == 0.0


def test_G_direct_oracle():
    g = generating_G(0.5, 0.0, tol=1e-12)
    oracle = sum(hermite_h(2 * k, 0.0) * 0.5 ** (2 * k) for k in range(100))
    assert g.value == pytest.approx(oracle, abs=1e-11)


def test_G_tail_bound_formula():
    g = generating_G(0.5, 1.0, tol=1e-10)
    N = g.terms_used - 1
    expected = math.exp(0.5) * 0.5 ** (N + 1) / 0.5
    assert g.tail_bound == pytest.approx(expected, rel=1e-12)
    assert g.tail_bound <= 1e-10


def test_G_positive_at_hard_points():
    assert generating_G(0.9, -5.0).value > 0
    assert generating_G(-0.9, 8.0).value > 0
    g = generating_G(0.95, -10.0)
    assert g.value - g.tail_bound > 0


def test_G_large_x_uses_high_precision():
    # binary64 summation alone loses ~20 digits here; the certified value
    # must still be small and positive
    g = generating_G(0.95, -10.0)
    assert g.value == pytest.approx(0.0272191, abs=1e-6)


def test_G_domain():
    with pytest.raises(DomainError):
        generating_G(1.0, 0.0)
    with pytest.raises(DomainError):
        generating_G(-1.2, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_G_rejects_non_finite_x(x):
    with pytest.raises(DomainError):
        generating_G(0.5, x)


def test_G_budget_when_the_tail_overflows():
    # e^{x^2/2} is inf: no finite number of terms reaches the tolerance
    with pytest.raises(BudgetError):
        generating_G(0.5, 1e200)


def test_G_budget():
    # needs 36,841,344 terms, past the budget of 200000
    with pytest.raises(BudgetError):
        generating_G(0.999999, 0.0, tol=1e-10)


def test_scan_trivial_grid():
    report = positivity_scan([0.0], [0.0])
    assert report.all_positive
    assert report.points[0].value == 1.0


def test_scan_small_grid():
    report = positivity_scan([-0.9, -0.5, 0.0, 0.5, 0.9],
                             [-8.0, -1.0, 0.0, 1.0, 8.0], tol=1e-10)
    assert report.all_positive
    assert report.min_certified > 0
    assert len(report.points) == 25


def test_scan_single_hard_point():
    report = positivity_scan([-0.9], [8.0], tol=1e-10)
    assert report.all_positive


def _close_to_reference(g, bits):
    """|value - partial sum| <= roundoff_bound, against the fixed-point sum
    at ``bits``, which is rounded to binary64 and carries its own bound."""
    ref, ref_bound = _sum_mp(g.t, g.x, g.terms_used - 1, bits)
    assert ref_bound < 1e-30
    return abs(g.value - ref) <= g.roundoff_bound + ref_bound + U * abs(ref)


@pytest.mark.parametrize("t, x", [(0.95, -10.0), (-0.95, 10.0),
                                  (-0.95, -4.0), (0.9, 9.5)])
def test_G_within_roundoff_bound_of_finer_fixed_point(t, x):
    # these points need at most 650 bits; the reference has 128 more
    assert _close_to_reference(generating_G(t, x), 650 + 128)


def test_G_binary64_path_within_roundoff_bound():
    tol = 1e-10
    points = []
    for t in DEFAULT_T[::2]:
        for x in DEFAULT_X[::2]:
            if t == 0.0:
                continue
            n = _terms_needed(t, x, tol)
            if U * _sum_float(t, x, n)[1] <= 0.25 * tol:
                points.append((t, x))
    points = points[::len(points) // 200][:200]
    assert len(points) == 200
    for t, x in points:
        assert _close_to_reference(generating_G(t, x, tol=tol), 800)


def test_G_roundoff_bound_on_hard_grid():
    tol = 1e-10
    for t in (-0.95, -0.9, 0.5, 0.9, 0.95):
        for x in (-10.0, -9.5, -4.0, 9.5, 10.0):
            g = generating_G(t, x, tol=tol)
            assert g.roundoff_bound <= 0.25 * tol + U * abs(g.value)
            assert g.certified_lower == (g.value - g.tail_bound
                                         - g.roundoff_bound)


def test_G_without_mpmath():
    code = ("import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from momentforge import generating_G\n"
            "g = generating_G(0.95, -10.0)\n"
            "print(repr(g.value), g.certified_lower > 0)\n")
    src = os.path.dirname(os.path.dirname(momentforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.split()
    assert float(out[0]) == pytest.approx(0.0272191, abs=1e-6)
    assert out[1] == "True"


@given(st.integers(65, 1200), st.integers(0, 2000))
@settings(max_examples=100, deadline=None)
def test_coefficients_equal_the_direct_isqrt(bits, k):
    # floor(floor(z) / 2^m) = floor(z / 2^m), and isqrt(floor(y)) is
    # floor(sqrt(y)): a table entry at any larger scale, shifted, is exact;
    # the backward loop starts at k = n - 1 with (alpha_k, beta_{k+1})
    alpha, beta = next(_coefficients(bits, k + 1))
    assert alpha == math.isqrt((2 << 2 * bits) // (k + 1))
    assert beta == math.isqrt(((k + 1) << 2 * bits) // (k + 2))


def test_sum_mp_does_not_depend_on_the_table_history():
    n = _terms_needed(0.95, -10.0, 1e-10)
    _sum_mp(0.99, 10.0, 7725, 800)
    assert hermite._table[0] > 650
    warm = _sum_mp(0.95, -10.0, n, 650)
    code = ("from momentforge.hermite import _sum_mp\n"
            "print(repr(_sum_mp(0.95, -10.0, %d, 650)))\n" % n)
    src = os.path.dirname(os.path.dirname(momentforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, env=env).stdout
    assert repr(warm) == fresh.strip()


def test_coefficient_table_stays_within_its_cap():
    _coefficients(700, 1500)
    kept = hermite._table
    # the grown table would pass the cap: built alone, not retained
    bits = 4096
    n = hermite._TABLE_CAP // bits + 1
    coefficients = list(_coefficients(bits, n))
    assert len(coefficients) == n
    alpha, beta = coefficients[0]
    assert alpha == math.isqrt((2 << 2 * bits) // n)
    assert beta == math.isqrt((n << 2 * bits) // (n + 1))
    assert hermite._table is kept
    assert hermite._table[0] * len(hermite._table[1]) <= hermite._TABLE_CAP


def _reference_sum_float(t, x, n_terms):
    """The per-point binary64 loop that the grid pass replaced."""
    total = 1.0
    sqrt2_x = math.sqrt(2.0) * x
    prev, curr = 1.0, sqrt2_x
    tk = t
    at = abs(t)
    ax = abs(sqrt2_x)
    err_prev, err = 0.0, 7.0 * abs(curr)
    tk_err = 0.0
    gain = 0.0
    for k in range(1, n_terms + 1):
        term = curr * tk
        total += term
        gain += (abs(term) + abs(curr) * tk_err
                 + err * (abs(tk) + U * tk_err) + abs(total))
        root = math.sqrt(k + 1.0)
        a = ax / root
        b = math.sqrt(k / (k + 1.0))
        err_prev, err = err, (a * err + b * err_prev
                              + 7.0 * (a * abs(curr) + b * abs(prev)))
        prev, curr = curr, (sqrt2_x * curr - math.sqrt(k) * prev) / root
        tk *= t
        tk_err = abs(tk) + at * tk_err
    if not (gain < math.inf and abs(tk) >= 2.0 ** -900
            and (x == 0.0 or abs(x) >= 2.0 ** -900)):
        return total, math.inf
    return total, gain * (1.0 + 32.0 * (n_terms + 1) * U)


def test_x_and_minus_x_share_one_column_bound():
    # the grid computes one column per |x|, as far as its longest point
    # reads it; every point reads the bound of its own x bit for bit
    for x in DEFAULT_X:
        n = max(_terms_needed(t, x, 1e-10) for t in DEFAULT_T if t != 0.0)
        m, sigma = _column_bound(_float_column(x, n), x)
        shared, shared_sigma = _column_bound(_float_column(abs(x), n + 9),
                                             abs(x))
        assert sigma == shared_sigma
        assert m.tobytes() == shared[:n].tobytes(), x


@pytest.mark.parametrize("t, x, n", [(0.5, 1.0, 0), (0.5, 1.0, 1),
                                     (-0.3, 2.0, 7), (0.9, 40.0, 30)])
def test_sum_float_matches_the_per_point_loop(t, x, n):
    assert _sum_float(t, x, n) == _reference_sum_float(t, x, n)


def _spy_on_backward_passes(monkeypatch):
    """Counts of the scalar and batched backward passes run from here."""
    calls = {"scalar": 0, "batched": 0}
    scalar, batched = hermite._backward_point, hermite._backward_batch

    def counted_scalar(*args):
        calls["scalar"] += 1
        return scalar(*args)

    def counted_batched(*args):
        calls["batched"] += 1
        return batched(*args)

    monkeypatch.setattr(hermite, "_backward_point", counted_scalar)
    monkeypatch.setattr(hermite, "_backward_batch", counted_batched)
    return calls


#: a grid whose binary64 fallback points take the batched backward pass
BATCH_T = [-0.7, -0.6, -0.5, 0.5, 0.6, 0.7]
BATCH_X = [round(-10.0 + 0.25 * i, 12) for i in range(81)]


def test_scan_points_equal_generating_G(monkeypatch):
    tol = 1e-10
    ts = [-0.95, -0.5, 0.0, 0.3, 0.9]
    xs = [-10.0, -2.5, 0.0, 1.5, 7.5]
    exact = [_backward(t, x, tol)[1][1] > 0.25 * tol
             for t in ts if t != 0.0 for x in xs]
    assert any(exact) and not all(exact)
    points = positivity_scan(ts, xs, tol=tol).points
    assert points == tuple(generating_G(t, x, tol=tol)
                           for t in ts for x in xs)
    for t, x in [(-0.95, 10.0), (0.9, -3.0), (0.0, 4.0)]:
        assert positivity_scan([t], [x]).points == (generating_G(t, x),)
    # a grid large enough for the batched backward pass gives the same
    # points as the scalar pass of generating_G
    calls = _spy_on_backward_passes(monkeypatch)
    points = positivity_scan(BATCH_T, BATCH_X, tol=tol).points
    assert calls == {"scalar": 0, "batched": 1}
    assert points == tuple(generating_G(t, x, tol=tol)
                           for t in BATCH_T for x in BATCH_X)
    assert calls["batched"] == 1 and calls["scalar"] > 100


def test_the_batched_pass_only_where_its_steps_outweigh_its_overhead(
        monkeypatch):
    # one point, or a few, take the scalar pass; the default grid's 1539
    # canonical points, against a largest count of 1483, the batched one
    calls = _spy_on_backward_passes(monkeypatch)
    generating_G(0.95, -10.0)
    positivity_scan([-0.9], [7.5])
    assert calls == {"scalar": 2, "batched": 0}
    positivity_scan(DEFAULT_T, DEFAULT_X)
    assert calls == {"scalar": 2, "batched": 1}


def _fields_or_error(t, x):
    """The fields generating_G(t, x) shares with its mirror point, or the
    kind of error it raises."""
    try:
        g = generating_G(t, x)
    except RangeError:
        return "RangeError"
    return repr((g.value, g.tail_bound, g.roundoff_bound, g.terms_used))


@settings(max_examples=10, deadline=None)
@given(st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True)
       .filter(lambda t: t != 0.0), st.floats(-40.0, 40.0))
@example(-0.95, 10.0)
@example(0.95, -10.0)
@example(-0.9, 7.5)
def test_G_at_minus_t_minus_x_equals_G_at_t_x_bit_for_bit(t, x):
    # h_k(-x) = (-1)^k h_k(x); every step reads only |t|, x^2, x t and
    # t^2, so the two points are summed alike, the fixed-point ones too
    assert _fields_or_error(t, x) == _fields_or_error(-t, -x)


def test_the_default_grid_sums_each_mirror_pair_once(monkeypatch):
    sums = []
    sum_mp = hermite._sum_mp

    def counted(t, x, *args):
        sums.append((t, x))
        return sum_mp(t, x, *args)

    monkeypatch.setattr(hermite, "_sum_mp", counted)
    points = {(g.t, g.x): g for g in positivity_scan(DEFAULT_T,
                                                     DEFAULT_X).points}
    # 1008 points of the 3078 with t != 0 take the fixed-point path, in
    # 504 mirror pairs
    assert len(sums) == len(set(sums)) == 504
    for (t, x), g in points.items():
        mirror = points[-t, -x]
        assert (mirror.value, mirror.tail_bound, mirror.roundoff_bound,
                mirror.terms_used) == (g.value, g.tail_bound,
                                       g.roundoff_bound, g.terms_used)


@pytest.mark.parametrize("ts, xs", [
    # some points have their mirror on the grid, fixed-point ones among
    # them (test_scan_points_equal_generating_G has a grid with none)
    ([-0.9, -0.5, 0.5, 0.9, 0.95], [-7.5, -2.5, 2.5, 7.5, 10.0]),
    # x = 0.0 and -0.0 share their canonical points, and keep their signs
    ([-0.5, 0.5], [-0.0, 0.0, 1.0])])
def test_scan_points_equal_their_own_generating_G(ts, xs):
    points = positivity_scan(ts, xs).points
    assert repr(points) == repr(tuple(generating_G(t, x)
                                      for t in ts for x in xs))


def test_a_mirror_pair_past_binary64_names_its_first_point():
    # the pair is summed once, at its first point in column order
    with pytest.raises(RangeError, match=r"^G\(-0\.7, -47\) overflows"):
        positivity_scan([-0.7, 0.7], [-47.0, 47.0])
    with pytest.raises(RangeError, match=r"^G\(0\.7, 47\) overflows"):
        positivity_scan([0.7, -0.7], [47.0, -47.0])


def _batch_input(ts, xs, tol):
    """(bounds, points) of _backward_batch for the points (t, x), t != 0,
    each x column's bound laid out whole in bounds, and the
    _backward_point arguments of each."""
    counts = {(t, x): _terms_needed(t, x, tol)
              for t in ts if t != 0.0 for x in xs}
    rows = {t: _float_row(t, max(counts[t, x] for x in xs))
            for t in ts if t != 0.0}
    bounds, points, scalar = [], [], []
    start = 0
    for x in xs:
        column = _float_column(x, max(counts[t, x] for t in rows))
        capped = _column_bound(column, x)
        for t, row in rows.items():
            n = counts[t, x]
            points.append((start, capped[1], row, t, x, n))
            scalar.append((capped, row, t, x, n))
        bounds.append(capped[0])
        start += len(capped[0])
    return np.concatenate(bounds), points, scalar


@pytest.mark.parametrize("ts, xs, tol, counts", [
    # every point of the default grid: (points, fixed-point points)
    (DEFAULT_T, DEFAULT_X, 1e-10, (3078, 1008)),
    # an x = 0 column, and x = 1e-300, where |x t| >= 2^-900 fails
    ([-0.95, -0.5, 0.3, 0.9], [0.0, 1e-300, -4.0], 1e-10, None),
    # W overflows at (-0.9, 41): no steps to resume from
    ([-0.9, 0.5], [41.0, 6.0], 1e100, None)])
def test_the_batched_pass_equals_the_scalar_pass(ts, xs, tol, counts):
    # value, bound, estimate, and the scale, start (K, W~_{K+1}, W~_{K+2})
    # and prefix bound of every point whose bound passes tol/4, bit for
    # bit, against _backward_point and _prefix at each point alone
    bounds, points, scalar = _batch_input(ts, xs, tol)
    batched = list(_backward_batch(bounds, points, tol))
    expected = [hermite._backward_scalar(*point, tol) for point in scalar]
    # repr tells -0.0 from 0.0
    assert repr(batched) == repr(expected)
    cuts = [record[3] for record in expected]
    if counts is not None:
        assert (len(points), sum(map(bool, cuts))) == counts
        assert all(cut[1] is not None for cut in cuts if cut)
    else:
        assert any(cut and cut[1] is None for cut in cuts)
    if tol == 1e100:
        at_41 = [record for (_, _, _, t, x, _), record
                 in zip(points, expected) if (t, x) == (-0.9, 41.0)]
        assert at_41[0][1] == math.inf and at_41[0][3][1] is None


def test_the_backward_bound_meets_tol_wherever_the_forward_one_did():
    # the grid sends every point to the backward pass: on the default grid
    # each point whose forward gain S met u S <= tol/4 meets tol/4 under
    # the backward bound too, and the two sums agree within the sum of
    # their bounds
    tol = 1e-10
    bounds, points, _ = _batch_input(DEFAULT_T, DEFAULT_X, tol)
    forward = 0
    for (_, _, _, t, x, n), (value, bound, _, cut) in zip(
            points, _backward_batch(bounds, points, tol)):
        total, gain = _sum_float(t, x, n)
        if U * gain <= 0.25 * tol:
            forward += 1
            assert cut is None and bound <= 0.25 * tol, (t, x)
            assert abs(total - value) <= U * gain + bound, (t, x)
    assert forward == 1638


@pytest.mark.parametrize("t, x", [(0.5, 0.0), (0.9, -3.0)])
def test_a_one_point_grid_takes_the_scalar_pass(monkeypatch, t, x):
    # points that the forward sum used to keep in binary64: alone, they
    # take _backward_scalar, whose record is the batched one bit for bit
    records = []
    scalar = hermite._backward_scalar

    def kept(*args):
        records.append(scalar(*args))
        return records[-1]

    monkeypatch.setattr(hermite, "_backward_scalar", kept)
    g = generating_G(t, x)
    bounds, points, _ = _batch_input([t], [x], 1e-10)
    batched = list(_backward_batch(bounds, points, 1e-10))
    assert repr(records) == repr(batched)
    value, bound, _, cut = records[0]
    assert cut is None and (g.value, g.roundoff_bound) == (value, bound)


def _backward(t, x, tol=1e-10):
    """The term count and the _backward_point of (t, x), as the grid
    pass computes them."""
    n = _terms_needed(t, x, tol)
    column, row = _float_column(x, n), _float_row(t, n)
    return n, _backward_point(_column_bound(column, x), row, t, x, n)


def _scale_used(t, x, tol=1e-10):
    return _fixed_point_scale(_backward(t, x, tol)[1][3], tol)


@pytest.mark.parametrize("t, x", [(0.5, 40.0), (0.3, 37.0), (0.9, 30.0),
                                  (0.5, 1e-300)])
def test_exact_path_within_roundoff_bound_past_binary64(t, x):
    # e^{x^2/2} overflows binary64 at the first three, and |x| is below
    # the binary64 path's range at the last: the gain is inf at all four
    n = _terms_needed(t, x, 1e-10)
    assert _sum_float(t, x, n)[1] == math.inf
    assert _close_to_reference(generating_G(t, x), _scale_used(t, x) + 128)


def test_fixed_point_scale_is_the_least_that_meets_tol():
    tol = 1e-10
    for t, x in [(0.95, -10.0), (-0.7, 6.0), (0.5, 40.0), (0.3, 37.0)]:
        n, (_, _, weights, estimate, _) = _backward(t, x, tol)
        bits = _fixed_point_scale(estimate, tol)
        assert _sum_mp(t, x, n, bits, weights)[1] <= tol / 8
        if bits > 65:
            assert _sum_mp(t, x, n, bits - 1, weights)[1] > tol / 8
        assert _sum_mp(t, x, n, bits) == _sum_mp(t, x, n, bits, weights)


@given(st.floats(0.0, 1e300), st.floats(0.0, 1e300))
@settings(max_examples=200, deadline=None)
def test_add_up_rounds_up(a, b):
    s = _add_up(a, b)
    exact = Fraction(a) + Fraction(b)
    assert Fraction(s) >= exact
    assert s == a + b or s == math.nextafter(a + b, math.inf)
    assert _add_up(b, a) == s


def _forward_fixed_point(t, x, n, bits):
    """sum_{k<=n} h_k(x) t^k by the forward recurrence on Python ints at
    scale 2^bits, with isqrt coefficients: an oracle independent of the
    backward recurrence, accurate to far below 1e-30 at the bits used."""
    xt = Fraction(x) * Fraction(t)
    t2 = Fraction(t) ** 2
    prev, curr = 0, 1 << bits
    total = curr
    for k in range(n):
        alpha = math.isqrt((2 << 2 * bits) // (k + 1))
        beta = math.isqrt((k << 2 * bits) // (k + 1))
        prev, curr = curr, (curr * alpha * xt.numerator
                            // (xt.denominator << bits)
                            - prev * beta * t2.numerator
                            // (t2.denominator << bits))
        total += curr
    return total / (1 << bits)


@pytest.mark.parametrize("t, x", [(0.95, -10.0), (-0.95, -10.0),
                                  (0.5, 3.0), (-0.7, 6.0)])
def test_sum_mp_agrees_with_the_forward_recurrence(t, x):
    n = _terms_needed(t, x, 1e-10)
    value, bound = _sum_mp(t, x, n, 1200)
    assert bound < 1e-200
    assert value == pytest.approx(_forward_fixed_point(t, x, n, 1200),
                                  rel=4 * U, abs=1e-30)


#: a 14 x 21 subsample of the default grid, its corners among it
SUB_T = sorted(set(DEFAULT_T[::3]) | {DEFAULT_T[0], DEFAULT_T[-1]})
SUB_X = sorted(set(DEFAULT_X[::4]) | {DEFAULT_X[0], DEFAULT_X[-1]})


def _subsample_candidates(tol):
    """The points of the subsample whose forward binary64 sum misses
    tol/4, where the terms cancel most, decided by the reference loop,
    not by the code under test."""
    return {(t, x) for t in SUB_T if t != 0.0 for x in SUB_X
            if U * _reference_sum_float(
                t, x, _terms_needed(t, x, tol))[1] > 0.25 * tol}


def test_exact_path_candidates_within_roundoff_bound():
    # every candidate of the subsample, the four corners among them,
    # against _sum_mp 128 bits above the scale the point's estimate asks
    # for
    tol = 1e-10
    ts, xs = SUB_T, SUB_X
    candidates = _subsample_candidates(tol)
    corners = {(t, x) for t in (ts[0], ts[-1]) for x in (xs[0], xs[-1])}
    assert corners <= candidates and len(candidates) > 100
    checked = 0
    for g in positivity_scan(ts, xs, tol=tol).points:
        if (g.t, g.x) in candidates:
            assert _close_to_reference(g, _scale_used(g.t, g.x) + 128), g
            checked += 1
    assert checked == len(candidates)


@pytest.mark.parametrize("t, x", [(0.4, 6.0), (0.3, 8.25), (0.7, 3.75),
                                  (0.75, -5.25), (0.45, -10.0)])
def test_roundoff_bound_within_16x_of_the_actual_error(t, x):
    # the first three stay in binary64 on the backward recurrence, the
    # last two take the fixed-point path at 65 bits; a bound that
    # lost a term would fall below the error somewhere near here
    g = generating_G(t, x)
    assert _close_to_reference(g, 200)
    ref, ref_bound = _sum_mp(t, x, g.terms_used - 1, 200)
    least_error = abs(g.value - ref) - ref_bound - U * abs(ref)
    assert 0.0 < g.roundoff_bound <= 16.0 * least_error


def test_a_value_past_binary64_at_too_low_a_scale_sums_again(monkeypatch):
    # at 65 bits the fixed-point error alone passes binary64 at (-0.5, 62),
    # where G is about 0.0068; the pass is repeated, not refused
    expected = generating_G(-0.5, 62.0)
    runs = []
    scale = hermite._fixed_point_scale
    sum_mp = hermite._sum_mp

    def too_low_once(bound, tol):
        return scale(bound, tol) if runs else 65

    def counted(t, x, n_terms, bits, *args):
        runs.append(sum_mp(t, x, n_terms, bits, *args))
        return runs[-1]

    monkeypatch.setattr(hermite, "_fixed_point_scale", too_low_once)
    monkeypatch.setattr(hermite, "_sum_mp", counted)
    assert generating_G(-0.5, 62.0) == expected
    assert runs[0] == (-math.inf, math.inf)
    # a value past binary64 at a scale whose bound meets tol/8 is refused
    with pytest.raises(RangeError):
        generating_G(0.5, 62.0)


def test_a_missed_estimate_sums_again_at_the_scale_the_bound_asks(
        monkeypatch):
    # an estimate 2^8 too low picks too few bits; the bound read off that
    # run names the scale of the second
    expected = generating_G(0.95, -10.0)
    bits = _scale_used(0.95, -10.0)
    scales = []
    sum_mp = hermite._sum_mp

    def counted(t, x, n_terms, bits, *args):
        scales.append(bits)
        return sum_mp(t, x, n_terms, bits, *args)

    monkeypatch.setattr(hermite, "_sum_mp", counted)
    monkeypatch.setattr(hermite, "_MARGIN", 2.0 ** -8)
    assert generating_G(0.95, -10.0) == expected
    assert scales == [bits - 8, bits]


@pytest.mark.parametrize("t, x, n, bits, expected", [
    (0.95, -10.0, 1483, 112, (0.02721913245762291, 8.784369510610672e-12)),
    (-0.7, 6.0, 119, 80, (0.07222310782304207, 1.133882533778052e-18)),
    (0.45, -10.0, 93, 65, (0.06719659477621738, 7.780145381193257e-12)),
    (0.3, 37.0, 588, 900, (1.0038215665883938e+50, 1.885864471077253e-218))])
def test_a_start_at_the_top_is_the_whole_loop_bit_for_bit(t, x, n, bits,
                                                         expected):
    # W_N = 1 and W_{N+1} = 0 are exact: no handoff error; the expected
    # pairs are those of the whole loop before it could resume
    assert _sum_mp(t, x, n, bits) == expected
    assert _sum_mp(t, x, n, bits, None, (n - 1, 1.0, 0.0)) == expected


def test_binary64_prefix_within_a_quarter_of_the_estimate():
    # every exact-path point of the subsample: the binary64 steps kept
    # cost at most a quarter of the fixed-point error expected at the
    # point's scale, and the value stays within its bound
    tol = 1e-10
    candidates = _subsample_candidates(tol)
    resumed = exact = 0
    for g in positivity_scan(SUB_T, SUB_X, tol=tol).points:
        if (g.t, g.x) not in candidates:
            continue
        n, (_, bound, weights, estimate, steps) = _backward(g.t, g.x, tol)
        if bound <= 0.25 * tol:
            continue
        exact += 1
        bits = _fixed_point_scale(estimate, tol)
        start, prefix = _prefix(steps, weights[1], estimate, bits, tol)
        s, e = estimate
        assert prefix <= 0.25 * min(math.ldexp(s, e - bits), tol / 8), g
        if start is not None:
            resumed += 1
            assert 0 <= start[0] < n - 1 and prefix > 0.0
        assert _close_to_reference(g, 200), g
        assert g.roundoff_bound <= 5 * tol / 32 + U * abs(g.value), g
    assert exact > 50 and resumed > 0.9 * exact


@pytest.mark.parametrize("t, x", [(0.95, -10.0), (-0.9, 7.5), (0.5, 3.0),
                                  (0.45, -10.0)])
def test_sum_mp_bounds_the_distance_to_the_exact_continuation(t, x):
    # from any binary64 start, _sum_mp's bound covers its distance to the
    # exact recurrence from that start, here taken as _sum_mp 500 bits
    # finer: the prefix start of the point at its scale, and at 65 bits a
    # start at K = 0 whose W~_1 is below one unit and whose W~_2 all but
    # cancels the 1 of step 0, so that the handoff error dominates a value
    # near 0
    n, (_, _, weights, estimate, steps) = _backward(t, x)
    bits = _fixed_point_scale(estimate, 1e-10)
    start, _ = _prefix(steps, weights[1], estimate, bits, 1e-10)
    assert start is not None
    handoff = (0, math.ldexp(1.0 - 2.0 ** -20, -65), math.sqrt(2.0) / (t * t))
    for begin, scale in ((start, bits), (handoff, 65)):
        value, bound = _sum_mp(t, x, n, scale, weights, begin)
        ref, ref_bound = _sum_mp(t, x, n, scale + 500, weights, begin)
        assert ref_bound < 1e-150
        assert abs(value - ref) <= bound + ref_bound + U * abs(ref), begin


def test_the_roundoff_bound_covers_the_binary64_prefix(monkeypatch):
    # with the fixed-point steps run 400 bits finer, the error left is
    # nearly all the binary64 prefix's, which the reported bound covers
    sum_mp = hermite._sum_mp
    starts = []

    def finer(t, x, n_terms, bits, weights=None, start=None):
        starts.append(start)
        return sum_mp(t, x, n_terms, bits + 400, weights, start)

    monkeypatch.setattr(hermite, "_sum_mp", finer)
    for t, x in [(0.95, -10.0), (-0.95, -4.0), (0.9, 9.5), (0.45, -10.0),
                 (0.75, -5.25), (-0.6, 8.0)]:
        g = generating_G(t, x)
        assert starts[-1] is not None, (t, x)
        assert _close_to_reference(g, 800), g


def test_a_point_whose_binary64_w_overflows_takes_the_whole_loop(
        monkeypatch):
    # at tol = 1e100 the proviso of the binary64 pass holds at (-0.9, 41),
    # but its W overflows: every fixed-point pass starts at k = N - 1
    tol = 1e100
    n, (_, bound, _, _, steps) = _backward(-0.9, 41.0, tol)
    assert abs(_float_row(-0.9, n)[0][n]) >= 2.0 ** -900
    assert bound == math.inf and steps is None
    sum_mp = hermite._sum_mp
    starts = []

    def counted(t, x, n_terms, bits, weights=None, start=None):
        starts.append(start)
        return sum_mp(t, x, n_terms, bits, weights, start)

    monkeypatch.setattr(hermite, "_sum_mp", counted)
    g = generating_G(-0.9, 41.0, tol=tol)
    assert starts and starts == [None] * len(starts)
    assert g.roundoff_bound <= 5 * tol / 32 + U * abs(g.value)
