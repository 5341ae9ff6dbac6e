"""Orthonormal Hermite polynomials, the Szasz bound |h_n(x)| <= e^{x^2/2},
and certified positivity of the generating function

    G(t, x) = sum_{k>=0} h_k(x) t^k,   |t| < 1.

The partial sum carries the explicit tail majorant
e^{x^2/2} |t|^{N+1}/(1-|t|) and a proven bound on its own roundoff, so
every scan value comes with a certified lower bound.

A scan runs in two phases over its grid (_evaluate_grid), and
generating_G is a 1 x 1 grid.

1. Every point with t != 0 is summed by the backward (Clenshaw)
   recurrence

       w_k = 1 + x t a_k w_{k+1} - t^2 b_{k+1} w_{k+2},  w_0 = s_N,

   in binary64, whose error is its local errors weighted by the terms
   h_k(x) t^k themselves (_backward_point), so it does not grow with the
   recurrence.  The weights bound |h_k(x)| by the binary64 values h~_k
   and their error majorant E_k (see _sum_float), computed once per |x|
   (_float_column), and |t^k| by the powers of |t| and their errors,
   once per |t| (_float_row).  Where the points' term counts add up to more
   than _BATCH_RATIO times the largest, one pass runs all of them as
   array steps, largest N first (_backward_batch); otherwise each point
   runs alone.  Both give the same results bit for bit.
2. That bound meets tol/4 at many points; the rest are summed by the
   same recurrence in fixed point on Python ints (_sum_mp), at a scale
   2^B estimated from the binary64 pass and proven afterwards from the
   integers the loop computed.  The fixed-point loop resumes from the
   binary64 pass (_exact_point): the steps from k = N - 1 down whose
   binary64 errors add up to at most a quarter of the fixed-point error
   expected keep their binary64 values, and the integers run only the
   steps below.

Each point runs as its canonical point (|t|, sgn(t) x), once for all the
points that share it, as G(-t, -x) = G(t, x) holds bit for bit here too.
Its term count is fixed once, at its first point in row order.
The default scan grid's 3078 points with t != 0 are 1539 canonical
points: 1035 end in phase 1, and the 504 of phase 2 run 64,629 integer
steps of their 136,979.
"""

import math
import sys
from bisect import bisect_left
from itertools import repeat
from math import isqrt
from operator import rshift
from typing import NamedTuple, Tuple

import numpy as np

from .errors import BudgetError, DomainError, InconsistencyError, RangeError
from .measures import _in_order

#: the most terms one G value may sum; a point that needs more is a
#: BudgetError
_MAX_TERMS = 200000
#: unit roundoff of binary64
_U = 2.0 ** -53
#: roundings per recurrence step in the binary64 majorant (see _sum_float)
_C = 7.0
#: relative margin of the fixed-point estimate (see _backward_point)
_MARGIN = 1.0 + 2.0 ** -20
#: magnitudes below this leave the binary64 path (see _backward_point)
_TINY = 2.0 ** -900
#: smallest normal binary64; the backward-recurrence bounds floor their
#: values here so that no rounding in them underflows (see _weights)
_FLOOR = sys.float_info.min
#: the retained coefficient table of _sum_mp holds at most this many
#: scale bits times terms (a little over 2 MiB of alpha_k and beta_k)
_TABLE_CAP = 1 << 23
#: the batched backward pass keeps its state every this many steps
#: (see _backward_batch)
_CHECKPOINT = 64
#: a grid takes the batched backward pass when its points' term counts
#: add up to more than this many times the largest (see _evaluate_grid):
#: on random subsets of the default scan grid's 1539 canonical points,
#: the batched pass costs as much as the scalar one where that ratio is
#: 43 to 50 (one CPU, Python 3.11, warm, best of 3)
_BATCH_RATIO = 48
#: (P, alpha_k, beta_k) for k below the table length, from
#: _coefficient_table; replaced whole, never mutated
_table = (0, (), ())


class GenFunValue(NamedTuple):
    """A certified partial sum of G(t, x).

    ``tail_bound`` is e^{x^2/2} |t|^{N+1}/(1-|t|) for N = terms_used - 1,
    the Szasz majorant of the dropped terms, and ``roundoff_bound`` bounds
    the distance between ``value`` and the exact partial sum.  The true
    G(t, x) lies within tail_bound + roundoff_bound of ``value``.
    """

    t: float
    x: float
    value: float
    tail_bound: float
    terms_used: int
    roundoff_bound: float = 0.0

    @property
    def certified_lower(self):
        return self.value - self.tail_bound - self.roundoff_bound


class ScanReport(NamedTuple):
    """Grid report of positivity_scan: the least certified lower bound
    and every point."""

    min_certified: float
    points: Tuple[GenFunValue, ...]

    @property
    def all_positive(self):
        return self.min_certified > 0.0


def _require_finite(x, name):
    if not math.isfinite(x):
        raise DomainError("%s needs a finite x, got x = %g" % (name, x))


def hermite_H(n, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence
    H_{n+1} = 2x H_n - 2n H_{n-1}, H_0 = 1, H_1 = 2x."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    _require_finite(x, "hermite_H")
    prev, curr = 1.0, 2.0 * x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, curr = curr, 2.0 * x * curr - 2.0 * k * prev
        if math.isinf(curr):
            raise RangeError(
                "H_%d overflows binary64 at x = %g; use the normalized "
                "hermite_h instead" % (k + 1, x))
    return curr


def hermite_h(n, x):
    """Orthonormal Hermite value h_n(x) = H_n(x)/sqrt(2^n n!), computed by
    the normalized recurrence of :func:`_float_column`

        h_{n+1} = (sqrt(2) x h_n - sqrt(n) h_{n-1}) / sqrt(n+1),

    which stays bounded by e^{x^2/2} for all n (Szasz inequality).  The
    bound is checked in the log domain, since e^{x^2/2} itself overflows
    binary64 for |x| > 37.7; there a value past binary64 is a RangeError."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    _require_finite(x, "hermite_h")
    curr = float(_float_column(x, n)[0][n - 1]) if n else 1.0
    log_bound = 0.5 * x * x
    if not math.isfinite(curr) and log_bound > math.log(sys.float_info.max):
        raise RangeError("h_%d(%g) overflows binary64" % (n, x))
    if curr != 0.0 and not math.log(abs(curr)) <= log_bound + 1e-10:
        raise InconsistencyError(
            "computed |h_%d(%g)| = %g violates the e^{x^2/2} bound; "
            "the recurrence has lost too much precision" % (n, x, curr))
    return curr


def _terms_needed(t, x, tol):
    """n = ceil(L) for L = (log tol + log(1-|t|) - x^2/2) / log|t| (at least
    1; 0 at t = 0), which is, up to the rounding of L, the smallest n with
    e^{x^2/2} |t|^n/(1-|t|) <= tol: terms 0..n-1 already meet tol.

    generating_G sums terms 0..n, one more than that, so its reported tail
    e^{x^2/2} |t|^{n+1}/(1-|t|) is at most |t| tol.  The count is kept
    because dropping that term moves G by up to 4.9e-11 on the default
    scan grid (at (0.05, 2.75) and (-0.05, -2.75)), half of the 1e-10
    that the scan's outputs are checked to, so the scan output would
    change.
    """
    at = abs(t)
    if at == 0.0:
        return 0
    log_target = math.log(tol) + math.log1p(-at) - 0.5 * x * x
    n_plus_1 = max(1.0, log_target / math.log(at))
    if not n_plus_1 < math.inf:
        raise BudgetError("the term count for tol = %g at x = %g "
                          "overflows binary64" % (tol, x))
    return int(math.ceil(n_plus_1))


def _float_column(x, n_terms):
    """The x-only half of _sum_float: h~_k, |h~_k| and E_k for
    k = 1..n_terms, at index k - 1 of three float64 arrays.  This is the
    one run of the h_k recurrence; hermite_h reads its h~_n."""
    sqrt2_x = math.sqrt(2.0) * x
    ax = abs(sqrt2_x)
    prev, curr = 1.0, sqrt2_x
    err_prev, err = 0.0, _C * abs(curr)
    h = np.empty(n_terms)
    errors = np.empty(n_terms)
    if n_terms:
        h[0], errors[0] = curr, err
    # the step coefficients, rounded as the scalar expressions would be
    ks = np.arange(1.0, n_terms)
    roots = np.sqrt(ks + 1.0)
    for k, a, b, root_k, root in zip(
            range(1, n_terms), memoryview(ax / roots),
            memoryview(np.sqrt(ks / (ks + 1.0))), memoryview(np.sqrt(ks)),
            memoryview(roots)):
        err_prev, err = err, (a * err + b * err_prev
                              + _C * (a * abs(curr) + b * abs(prev)))
        prev, curr = curr, (sqrt2_x * curr - root_k * prev) / root
        h[k], errors[k] = curr, err
    return h, np.abs(h), errors


def _float_row(t, n_terms):
    """The t-only half of _sum_float: t~_k for k = 1..n_terms + 1, and g_k
    and |t~_k| + u g_k for k = 1..n_terms, at index k - 1."""
    at = abs(t)
    tk, tk_err = t, 0.0
    powers = np.empty(n_terms + 1)
    g = np.empty(n_terms)
    for k in range(n_terms):
        powers[k], g[k] = tk, tk_err
        tk *= t
        tk_err = abs(tk) + at * tk_err
    powers[n_terms] = tk
    return powers, g, np.abs(powers[:n_terms]) + _U * g


def _sum_float(t, x, n_terms):
    """The partial sum s_N = sum_{k<=N} h_k(x) t^k (N = n_terms) in
    binary64, and a gain S with |s_N - returned sum| <= u S, u = 2^-53.

    Round to nearest obeys both fl(a op b) = (a op b)(1 + d) and
    fl(a op b) = (a op b)/(1 + d'), |d|, |d'| <= u, for +, -, *, / and sqrt
    while nothing underflows (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2.2); by the second form an operation errs by at
    most u times its computed result.  Tildes mark computed values.

    * Recurrence.  h~_{k+1} is
      fl(fl(fl(fl(sqrt 2) x) h~_k) - fl(fl(sqrt k) h~_{k-1})) / fl(sqrt(k+1)):
      the h~_k branch meets six roundings and the h~_{k-1} branch five, so
      by Higham's Lemma 3.1 it differs from the exact step
      (sqrt 2 x h~_k - sqrt k h~_{k-1}) / sqrt(k+1) by at most
      gamma_6 (A_k |h~_k| + B_k |h~_{k-1}|), gamma_6 = 6u/(1 - 6u) < 7u,
      where A_k = sqrt 2 |x| / sqrt(k+1) and B_k = sqrt(k/(k+1)).  The exact
      step carries earlier errors with the same coefficients, so
      |h~_k - h_k| <= u E_k for the majorant
          E_{k+1} = A_k E_k + B_k E_{k-1} + c (A_k |h~_k| + B_k |h~_{k-1}|),
      c = 7, E_0 = 0 and E_1 = c |h~_1| (h~_1 meets two roundings).  The
      coefficients enter with absolute values, so E_k also bounds the
      growth that the three-term recurrence gives each local error.
    * Powers.  t~_{k+1} = fl(t~_k t) and t~_1 = t give |t~_k - t^k| <= u g_k
      with g_1 = 0, g_{k+1} = |t~_{k+1}| + |t| g_k.
    * Terms and sums.  As |t|^k <= |t~_k| + u g_k, the term errs by
      |fl(h~_k t~_k) - h_k t^k| <= u (|term~_k| + |h~_k| g_k
      + E_k (|t~_k| + u g_k)), and the k'th addition by u |s~_k|, so
          S = sum_{k=1}^{N} |term~_k| + |h~_k| g_k + E_k (|t~_k| + u g_k)
              + |s~_k|.
    * S itself is evaluated in binary64 from nonnegative quantities along
      chains of at most 10N + 5 roundings (8 per step for E_k, 2 for g_k,
      then the additions), each of which can lower it by a factor 1 - u;
      the returned S is padded by 1 + 32 (N + 1) u, which covers them and
      its own rounding for N <= _MAX_TERMS.

    h~_k and E_k come from _float_column, t~_k and g_k from _float_row;
    the terms, the sums s~_k and the summands of S are formed elementwise
    and each added in order with a cumulative sum.  Every operation is the
    one above on the same operands, so the sum does not depend on the
    bound.  S is inf when it overflows, and when |t^(N+1)| or a nonzero
    |x| is below 2^-900, so that the terms and the first values of the
    recurrence stay clear of the underflow range.

    The scan does not call this sum: its binary64 path is the backward
    recurrence (_backward_point), whose bound is the sharper one.  It
    reads E_k through _column_bound, and this forward sum stays as the
    reference that its bound is compared with.
    """
    h, abs_h, err = _float_column(x, n_terms)
    tk, tk_err, tk_pad = _float_row(t, n_terms)
    n = n_terms
    with np.errstate(over="ignore", invalid="ignore"):
        # sums[k] = s~_k = fl(s~_{k-1} + term~_k), added in order
        sums = np.empty(n + 1)
        sums[0] = 1.0
        terms = np.multiply(h, tk[:n], out=sums[1:])
        gain = np.abs(terms)
        np.cumsum(sums, out=sums)
        # the summands of S, in the order of operations above
        gain += abs_h * tk_err
        gain += err * tk_pad
        gain += np.abs(sums[1:])
        gain = _in_order(gain)
    total = float(sums[n])
    if not (gain < math.inf and abs(tk[n]) >= _TINY
            and (x == 0.0 or abs(x) >= _TINY)):
        return total, math.inf
    return total, gain * (1.0 + 32.0 * (n + 1) * _U)


def _column_bound(column, x):
    """(m, sigma) with |h_k(x)| <= m[k-1] 2^sigma and m[k-1] <= 1 for
    k = 1..n, from the arrays of an x column n long.

    sigma = ceil(x^2/(2 ln 2)) + 1 is an integer with e^{x^2/2} 2^-sigma
    <= 1, so the Szasz bound caps m at 1.  Below the cap m[k-1] is
    (|h~_k| + u E_k) 2^-sigma: by _sum_float's analysis |h_k| <=
    |h~_k| + u E_k, which follows |h_k| where that is far below e^{x^2/2}.
    Where 0 < |x| < 2^-900, outside that analysis, m is the Szasz bound
    alone.
    """
    _, abs_h, err = column
    sigma = math.ceil(0.5 * x * x / math.log(2.0)) + 1
    if not (x == 0.0 or abs(x) >= _TINY):
        return np.ones(len(abs_h)), sigma
    with np.errstate(over="ignore", invalid="ignore"):
        m = err * _U
        m += abs_h
        np.fmin(np.ldexp(m, -sigma, out=m), 1.0, out=m)
    return m, sigma


def _weights(capped, row, n_terms):
    """(omega, sigma) with |h_k(x) t^k| <= omega[N-1-k] 2^sigma for k < N
    (N = n_terms), in the order of the backward loop, from the
    _column_bound of the point's x column and its t row (each at least
    N - 1 long): the weights of the local errors of the backward
    recurrence (see _backward_point).

    The weight of k = 0 is 2^-sigma (h_0 t^0 = 1), and that of k >= 1 is
    m[k-1] times the larger of |t~_k| + u g_k and 2^-1021.  While t~_k is
    normal the first bounds |t|^k.  Past the first subnormal power t~_j,
    |t|^k <= |t|^j < 2^-1022 (1 + (j + 1) 2^-52) < 2^-1021, since
    t~_j = fl(t~_(j-1) t) errs by at most 2^-1075 there.  Every weight is
    floored at 2^-1022, which keeps it a bound where a value underflows.
    A weight is built from nonnegative operands along a chain of at most
    10 k + 6 roundings (8 per step for E_k, 2 per step for g_k), each
    lowering it by at most a factor 1 - u; the sums that read the weights
    are padded for that.
    """
    m, sigma = capped
    pad = row[2]
    n = n_terms
    omega = np.empty(n)
    if n > 1:
        later = omega[:n - 1]
        np.maximum(pad[n - 2::-1], 2.0 * _FLOOR, out=later)
        later *= m[n - 2::-1]
    omega[n - 1:] = math.ldexp(1.0, -min(sigma, 1074))
    np.maximum(omega, _FLOOR, out=omega)
    return omega, sigma


def _backward_point(capped, row, t, x, n_terms):
    """The partial sum s_N (N = n_terms) by the backward recurrence in
    binary64, from the _column_bound of the point's x column and its t
    row (capped at least N - 1 long, row at least N + 1): (value, bound,
    weights, estimate, steps), with |s_N - value| <= bound, the _weights
    of the point, an estimate (s, e) of the error of _sum_mp, s 2^(e - B)
    at scale 2^B, for _fixed_point_scale, and the steps that _exact_point
    resumes from: the weighted local error bounds
    omega_k (1 + |p_k| + |q_k|) for k = N-1..0 and the array of
    W_{N+1-j}, or None where the proviso below fails or W overflows.

    u_k = h_k t^k obeys u_{k+1} = x t a_k u_k - t^2 b_k u_{k-1}, u_0 = 1,
    a_k = sqrt(2/(k+1)), b_k = sqrt(k/(k+1)).  Let W_{N+1} = W_{N+2} = 0
    and, for k = N..0,
        W_k = 1 + x t a_k W_{k+1} - t^2 b_{k+1} W_{k+2} + r_k,
    where r_k is whatever local error the computation of W_k makes.
    Multiplying row k by u_k and summing over k, the coefficient of W_m
    is u_m - x t a_{m-1} u_{m-1} + t^2 b_{m-1} u_{m-2}, which the forward
    recurrence makes 0 for m >= 1 and u_0 = 1 for m = 0, so
        W_0 = s_N + sum_{k<=N} u_k r_k.
    With every r_k = 0, W_k is the sensitivity w_k of s_N to a change in
    u_k (Clenshaw's algorithm; Barrio, J. Comput. Appl. Math. 138 (2002)).
    The local errors enter weighted by the terms u_k, which are bounded,
    and not by the growth of the recurrence; r_N = 0 as W_N = 1 exactly.
    So |W_0 - s_N| <= sum_{k<N} |r_k| omega_k 2^sigma for the _weights.

    Here W_k = fl(fl(1 + fl(c_k W_{k+1})) - fl(d_k W_{k+2})) with
    c_k = fl(fl(x t) fl(sqrt(fl(2/(k+1))))) and
    d_k = fl(fl(t t) fl(sqrt(fl((k+1)/(k+2))))).  Both products meet five
    roundings before the additions, the c_k branch seven in all, the d_k
    branch six and the constant two, so by Higham's Lemma 3.3
        |r_k| <= gamma_7 (1 + |x t a_k W_{k+1}| + |t^2 b_{k+1} W_{k+2}|)
              <= gamma_7/(1 - gamma_5) (1 + |p_k| + |q_k|)
    for the computed products p_k, q_k, and gamma_7/(1 - gamma_5) < 7.01u.
    That holds while nothing underflows.  A product may (W can be
    small), adding at most 2^-1075, which the 1 absorbs into
    |r_k| <= 8u (1 + |p_k| + |q_k|).  The coefficients may not, so the
    bound is inf, which hands the point to _sum_mp, unless x = 0 or
    |x t| >= 2^-900, and |t~_(N+1)| >= 2^-900 (whence t^2 >= 2^-900).  It
    is inf where W overflows too.  The bound adds nonnegative values in
    order from k = N - 1 down: the term of step k meets the 10 k + 6
    roundings of omega_k and three more, then N - 1 additions if it is
    the first and k + 1 otherwise, so no chain is longer than 11 N - 2
    roundings and, as S in _sum_float, the bound is padded by
    1 + 32 (N + 1) u.  The estimate's three sums run in the same order.

    The estimate reads |Y_k| 2^-B in _sum_mp's local error as |W_k|, as
    Y_k is about 2^B w_k, with a margin of 2^-20 over the padding and the
    difference between the two sums.  Where W overflows it keeps only the
    1 of each local error, and _sum_mp's own bound then corrects the
    scale.
    """
    n = n_terms
    weights = omega, sigma = _weights(capped, row, n)
    xt, tt = x * t, t * t
    # k + 1 for k = N-1..0, then |c_k| and d_k (fl(|a| b) = |fl(a b)|)
    up = np.arange(float(n), 0.0, -1.0)
    down = up / (up + 1.0)
    np.divide(2.0, up, out=up)
    np.sqrt(up, out=up)
    up *= abs(xt)
    np.sqrt(down, out=down)
    down *= tt
    # w[j] = W_{N+1-j}
    w = [0.0, 1.0]
    keep = w.append
    curr, prev = 1.0, 0.0
    for c, d in zip((up if xt >= 0.0 else -up).tolist(), down.tolist()):
        curr, prev = 1.0 + c * curr - d * prev, curr
        keep(curr)
    signed = np.fromiter(w, float, n + 2)
    w = np.abs(signed)
    with np.errstate(over="ignore", invalid="ignore"):
        # |W_{k+1}| and |W_{k+2}| for k = N-1..0
        above, far = w[1:n + 1], w[:n]
        # products and sums, not a BLAS dot, which the scan would page in
        # for these alone
        head = _in_order(omega)
        near, far_sum = _in_order(above * omega), _in_order(far * omega)
        # the loop's own products, rounded as it rounded them
        up *= above
        down *= far
        up += down
        up += 1.0
        # omega_k (1 + |p_k| + |q_k|), the weighted local error of step k
        up *= omega
        sums = _in_order(up), head, near, far_sum
    proven, bound, estimate = _backward_bounds(sums, row, t, x, n, sigma)
    return curr, bound, weights, estimate, (up, signed) if proven else None


def _backward_bounds(sums, row, t, x, n_terms, sigma):
    """(proven, bound, estimate) of _backward_point from its four sums
    over k = N-1..0, each added in order: of the weighted local error
    bounds omega_k (1 + |p_k| + |q_k|), of omega_k, of |W~_{k+1}| omega_k
    and of |W~_{k+2}| omega_k.  proven is whether the proviso holds and
    the first sum, padded, is finite."""
    local, head, near, far = sums
    xt = x * t
    estimate = (head + abs(xt) * near + t * t * far) * _MARGIN
    total = local * (1.0 + 32.0 * (n_terms + 1) * _U)
    proven = (abs(row[0][n_terms]) >= _TINY
              and (x == 0.0 or abs(xt) >= _TINY) and total < math.inf)
    bound = math.inf
    if proven:
        try:
            # 8u = 2^-50; one ulp up covers a rounding below the normal range
            bound = math.nextafter(math.ldexp(total, sigma - 50), math.inf)
        except OverflowError:
            pass
    return proven, bound, (estimate if estimate < math.inf else head, sigma)


def _fixed_point_scale(bound, tol):
    """The least B >= 65 with s 2^(e - B) <= tol/8 for bound = (s, e): an
    error of s 2^e in units of 2^-B.

    tol/8 rather than tol/4 leaves room under tol/4 + 2^-53 |value| for
    the rounding of the reported roundoff bound."""
    s, e = bound
    limit = 0.125 * tol
    bits = max(65, e + math.frexp(s)[1] - math.frexp(limit)[1] + 1)
    # s < 2^frexp(s) and limit >= 2^(frexp(limit) - 1) make that bits
    # enough; ldexp is exact while its result is normal, so each step
    # down is tested exactly
    while bits > 65 and math.ldexp(s, e - bits + 1) <= limit:
        bits -= 1
    return bits


def _coefficient_table(scale, n_terms):
    """For k < n_terms: alpha_k = floor(2^scale sqrt(2/(k+1))) and
    beta_k = floor(2^scale sqrt(k/(k+1))), as a (scale, alpha, beta)
    table."""
    two_scale = 2 * scale
    alpha = [isqrt((2 << two_scale) // (k + 1)) for k in range(n_terms)]
    beta = [isqrt((k << two_scale) // (k + 1)) for k in range(n_terms)]
    return scale, alpha, beta


def _coefficients(bits, n_terms):
    """(alpha_k, beta_{k+1}) at scale 2^bits for k = n_terms - 1 down to
    0, the order of _sum_mp's loop, shifted lazily from the module table,
    which grows by half in scale or length when a request exceeds it.  A
    request whose grown table would pass _TABLE_CAP scale bits times
    terms builds its own coefficients and does not retain them."""
    global _table
    table = _table
    scale, size = table[0], len(table[1])
    needed = n_terms + 1
    if bits > scale or needed > size:
        scale = scale if bits <= scale else max(bits, scale + scale // 2)
        size = size if needed <= size else max(needed, size + size // 2)
        if scale * size <= _TABLE_CAP:
            # a concurrent caller may replace it too; both tables are exact
            table = _table = _coefficient_table(scale, size)
        else:
            table = _coefficient_table(bits, needed)
    scale, alpha, beta = table
    shift = scale - bits
    return zip(map(rshift, alpha[:n_terms][::-1], repeat(shift)),
               map(rshift, beta[1:needed][::-1], repeat(shift)))


def _sum_mp(t, x, n_terms, bits, weights=None, start=None):
    """The partial sum s_N = sum_{k<=N} h_k(x) t^k (N = n_terms) by the
    backward recurrence in fixed point with scale 2^bits on Python ints:
    that sum rounded to binary64 (+-inf past binary64), and a bound on the
    error before that rounding (inf where it overflows).  The rounding
    adds at most 2^-53 |value|.  ``weights`` is the point's _weights,
    computed here if not given.  ``start`` = (K, W~_{K+1}, W~_{K+2})
    resumes the recurrence at k = K from those binary64 values of
    _backward_point.  The default, (N - 1, 1, 0), is exact (W_N = 1,
    W_{N+1} = 0) and runs the whole loop.

    x and t are taken exactly (binary64 values are dyadic rationals).
    With Y_{N+1} = Y_{N+2} = 0, for k = N..0
        Y_k = 2^bits + floor(Y_{k+1} alpha_k x t / 2^bits)
                     - floor(Y_{k+2} beta_{k+1} t^2 / 2^bits),
    where alpha_k = isqrt((2 << 2 bits) // (k+1)) and
    beta_k = isqrt((k << 2 bits) // (k+1)).  Since isqrt(floor(y)) =
    floor(sqrt(y)), they are floor(2^bits a_k) and floor(2^bits b_k),
    within one unit below 2^bits a_k and 2^bits b_k.  The two floors
    together miss the real quotients by less than one unit, so Y_k / 2^bits
    is the W_k of _backward_point with a local error, in units of 2^-bits,
    of less than
        1 + |x t| |Y_{k+1}| / 2^bits + t^2 |Y_{k+2}| / 2^bits,
    and Y_0 / 2^bits - s_N = 2^-bits sum_{k<N} u_k r_k with |u_k| <=
    omega_k 2^sigma.  The bound reads the |Y_k| after the loop, so it is
    proven for the integers this call computed; the scale itself comes
    from an estimate (_backward_point), and a caller whose bound misses
    its target sums again at a larger scale.

    With a start, Y_{K+1} = floor(W~_{K+1} 2^bits) and Y_{K+2} =
    floor(W~_{K+2} 2^bits), exactly (W~ is dyadic), and the loop runs
    k = K..0.  Take Z_k = W~_k for k > K + 2 and Z_k = Y_k 2^-bits for
    k <= K + 2.  _backward_point's identity W_0 = s_N + sum_k u_k r_k
    holds for any sequence, with r_k its local errors: the fixed-point
    ones for k <= K; the binary64 ones for k > K + 2; and for k = K + 2
    and K + 1 the binary64 ones plus d_{K+2} and
    d_{K+1} - x t a_{K+1} d_{K+2}, where d_k = Y_k 2^-bits - W~_k lies in
    (-2^-bits, 0].  By the forward recurrence u_{K+2} - x t a_{K+1}
    u_{K+1} = -t^2 b_{K+1} u_K, so those extra terms add
        u_{K+1} d_{K+1} - t^2 b_{K+1} u_K d_{K+2},
    the handoff error, below 2^(sigma - bits) (omega_{K+1} + t^2 omega_K)
    as b_{K+1} < 1, and 0 at K = N - 1.  The bound returned is the
    fixed-point one over k <= K plus the handoff error; the binary64
    errors of k > K are _exact_point's prefix.

    The bound 2^(sigma - bits) (sum_{k<=K} omega_k (1 + |x t| |Y_{k+1}|
    2^-bits + t^2 |Y_{k+2}| 2^-bits) + omega_{K+1} + t^2 omega_K) runs in
    binary64 in units of 2^lambda, for the least integer lambda >= 0 that
    keeps every |Y_k| 2^-bits as read below 2^lambda, so that no term
    exceeds 1 + |x t| + t^2.  |Y_k| is read as the float nearest to it,
    or past binary64 as the float nearest to (|Y_k| >> s) + 1 times 2^s,
    each at most a factor 1 - u below it.
    Each scaled |Y_k|, |x t|, t^2 and 2^-lambda is floored at 2^-1022,
    which keeps it a bound; a product that still underflows loses at most
    2^-1075, and 2^-1022 added to the sum covers all 3 N + 2 of them.  The
    rest is built from nonnegative values along chains of at most
    11 N + 17 roundings, so the sum is padded by 1 + 32 (N + 1) u, as S is
    in _sum_float.

    The coefficients come from one table at the largest scale P seen so
    far (_coefficients).  Since floor(floor(z) / 2^m) = floor(z / 2^m),
    the table entry floor(2^P a_k) >> (P - bits) equals alpha_k bit for
    bit; likewise for beta_k.  The result therefore does not depend on
    which calls came before.  The retained table holds at most _TABLE_CAP
    scale bits times terms; a larger request builds its own coefficients
    and drops them.
    """
    if bits < 65:
        raise DomainError("the fixed-point sum needs at least 65 bits")
    n = n_terms
    if weights is None:
        weights = _weights(_column_bound(_float_column(x, n), x),
                           _float_row(t, n), n)
    # x t and t^2 are dyadic: divide by their denominators with a shift
    x_num, x_den = x.as_integer_ratio()
    t_num, t_den = t.as_integer_ratio()
    xt_num, xt_shift = x_num * t_num, bits + (x_den * t_den).bit_length() - 1
    t2_num, t2_shift = t_num * t_num, bits + 2 * t_den.bit_length() - 2
    one = 1 << bits
    # W_N = 1 and W_{N+1} = 0 start the whole loop exactly
    top, above, far = (n - 1, 1.0, 0.0) if start is None else start
    # m steps, k = m-1..0; ys[j] = Y_{m+1-j}
    m = top + 1
    curr, prev = [(num << bits) // den for num, den in
                  (above.as_integer_ratio(), far.as_integer_ratio())]
    ys = [prev, curr]
    keep = ys.append
    for alpha, beta in _coefficients(bits, m):
        curr, prev = (one + (curr * alpha * xt_num >> xt_shift)
                      - (prev * beta * t2_num >> t2_shift)), curr
        keep(curr)
    try:
        value = curr / one
    except OverflowError:
        value = -math.inf if curr < 0 else math.inf
    omega, sigma = weights
    # |Y_k| <= mags[m+1-k] 2^shift / (1 - u): int to float rounds to nearest
    try:
        shift = 0
        mags = np.fromiter(map(float, ys), float, m + 2)
    except OverflowError:
        shift = max(map(int.bit_length, ys)) - 1000
        mags = np.fromiter([float((abs(y) >> shift) + 1) for y in ys],
                           float, m + 2)
    np.abs(mags, out=mags)
    lam = max(0, math.frexp(mags[:-1].max())[1] + shift - bits)
    powers = np.ldexp(mags, shift - bits - lam)
    np.maximum(powers, _FLOOR, out=powers)
    lower = omega[n - m:]
    near, far = powers[1:m + 1] * lower, powers[:m] * lower
    unit = max(math.ldexp(1.0, -lam), _FLOOR)
    t2 = max(t * t, _FLOOR)
    total = (unit * float(lower.sum())
             + max(abs(x * t), _FLOOR) * float(near.sum())
             + t2 * float(far.sum()) + _FLOOR)
    if m < n:
        # the handoff error
        total += unit * (omega[n - m - 1] + t2 * omega[n - m])
    total *= 1.0 + 32.0 * (n + 1) * _U
    try:
        bound = math.ldexp(total, sigma + lam - bits)
    except OverflowError:
        return value, math.inf
    # ldexp rounds only below the normal range; one ulp up makes it a bound
    return value, math.nextafter(bound, math.inf)


def _add_up(a, b):
    """a + b rounded up, for binary64 a, b >= 0: with big >= small, the
    rounding error of s = big + small is small - (s - big), exactly
    (Fast2Sum), so s is an upper bound iff s - big >= small."""
    big, small = (a, b) if a >= b else (b, a)
    s = big + small
    return s if s - big >= small else math.nextafter(s, math.inf)


def _prefix_cap(sigma, estimate, bits, tol):
    """The cap of _prefix in units of 2^(sigma - 50): a quarter of the
    smaller of tol/8 and s 2^(e - bits) for the estimate (s, e)."""
    s, e = estimate
    # ldexp is exact in the normal range, and only tol near the top of
    # binary64 can overflow it
    try:
        tol_cap = math.ldexp(tol, 45 - sigma)
    except OverflowError:
        tol_cap = math.inf
    return min(math.ldexp(s, e - sigma + 48 - bits), tol_cap)


def _prefix(steps, sigma, estimate, bits, tol):
    """(start, bound) for the longest run of binary64 steps k = N-1..K+1
    of _backward_point (``steps``) whose error bound is at most a quarter
    of the smaller of tol/8 and s 2^(e - bits), the fixed-point error that
    the estimate (s, e) expects at scale 2^bits: the start
    (K, W~_{K+1}, W~_{K+2}) of _sum_mp, and that bound.  (None, 0.0)
    where no step fits or the steps are None.

    By _backward_point's analysis those steps contribute at most
    2^(sigma - 50) sum_{k>K} omega_k (1 + |p_k| + |q_k|) to the error.
    The sums run in order from k = N - 1 down, cover at most N - 1 steps
    (K >= 0), and are padded by 1 + 32 (N + 1) u, as that bound is.
    """
    if steps is None:
        return None, 0.0
    contributions, signed = steps
    n = len(contributions)
    cap = _prefix_cap(sigma, estimate, bits, tol)
    if not cap >= _FLOOR:
        return None, 0.0
    # a Python loop that stops at K, where numpy would page in more of
    # itself for these sums alone
    pad = 1.0 + 32.0 * (n + 1) * _U
    j, total = 0, 0.0
    for c in memoryview(contributions)[:n - 1]:
        if not (total + c) * pad <= cap:
            break
        j, total = j + 1, total + c
    if not j:
        return None, 0.0
    bound = math.nextafter(math.ldexp(total * pad, sigma - 50), math.inf)
    return (n - 1 - j, float(signed[j + 1]), float(signed[j])), bound


def _backward_scalar(capped, row, t, x, n_terms, tol):
    """_backward_point at one point, as the grid keeps it: (value, bound,
    estimate, cut).  cut is None where the bound meets tol/4, and
    otherwise (B, start, prefix): the scale _fixed_point_scale takes from
    the estimate, and the _prefix of the point's steps at that scale.
    The steps are dropped here, so that one point's arrays are held at a
    time."""
    value, bound, (_, sigma), estimate, steps = _backward_point(
        capped, row, t, x, n_terms)
    if bound <= 0.25 * tol:
        return value, bound, estimate, None
    bits = _fixed_point_scale(estimate, tol)
    return (value, bound, estimate,
            (bits,) + _prefix(steps, sigma, estimate, bits, tol))


def _backward_batch(bounds, points, tol):
    """Yield the _backward_scalar record of each of ``points``, in order,
    bit for bit, from one binary64 pass over all of them.  A point is
    (start, sigma, row, t, x, n_terms), and the _column_bound of its
    column is (bounds[start:], sigma): ``bounds`` holds the bounds of the
    columns the points use, each as far as its points read it.

    The points are sorted by N, largest first, so the points that run
    step k, those with N > k, are always the first ones.  k runs from the
    largest N - 1 down to 0, and each step is a few numpy operations over
    those points, each the elementwise operation _backward_point does on
    the same operands, in its order; the four sums of _backward_bounds
    are added in order, step by step.  omega_k is the product of m[k-1],
    gathered from ``bounds``, and max(|t~_k| + u g_k, 2^-1021), gathered
    from a copy of each row's as far as its largest N reads it, floored
    at 2^-1022: the _weights of every point.

    Every _CHECKPOINT steps the pass keeps, for the points running, the
    running sum of the local error bounds and W~_{k+1}, W~_{k+2}.  That
    sum is the one _prefix adds, in the same order, and it only grows.
    So once its estimate gives a point whose bound passes tol/4 its scale
    and cap, _prefix's cut lies within _CHECKPOINT steps below the lowest
    checkpoint still within the cap (or below the point's first step),
    and those steps are replayed for all such points at once.

    The pass runs when the first record is asked for and keeps, besides
    ``bounds``, the rows' copy, the checkpoints and a few values per
    point; each record is built as it is yielded.  Sorting and counting
    are left to Python: numpy's would page in code the scan uses nowhere
    else, which counts in its peak memory.
    """
    count = len(points)
    order = sorted(range(count), key=lambda p: -points[p][5])
    ns = [points[p][5] for p in order]
    # omega_k = max(bounds[index[0] + k] pads[index[1] + k], 2^-1022)
    # for k >= 1
    index = np.empty((2, count), dtype=np.intp)
    starts, fills, size = {}, [], 0
    for s, p in enumerate(order):
        start, _, row, _, _, n = points[p]
        begin = starts.get(id(row))
        if begin is None:
            # a row's first point has its largest N
            begin = starts[id(row)] = size
            fills.append((begin, row[2][:n - 1]))
            size += n - 1
        index[:, s] = start - 1, begin - 1
    pads = np.empty(size)
    for begin, pad in fills:
        np.maximum(pad, 2.0 * _FLOOR, out=pads[begin:begin + len(pad)])
    del fills
    omega_0 = np.maximum([math.ldexp(1.0, -min(points[p][1], 1074))
                          for p in order], _FLOOR)
    # x t and t^2 of each point
    xt = np.array([[points[p][4] * points[p][3] for p in order],
                   [points[p][3] * points[p][3] for p in order]])
    top = ns[0]
    # the step coefficients sqrt(2/(k+1)) and sqrt((k+1)/(k+2)), rounded
    # as _backward_point rounds them
    up = np.arange(1.0, top + 1.0)
    coefficients = np.empty((top, 2, 1))
    coefficients[:, 0, 0] = np.sqrt(2.0 / up)
    coefficients[:, 1, 0] = np.sqrt(up / (up + 1.0))
    # W~_{k+1} and W~_{k+2} before step k; W_N = 1 and W_{N+1} = 0
    w = np.zeros((2, count))
    w[0] = 1.0
    sums = np.zeros((4, count))
    # 1 + |p_k| + |q_k|, 1, |W~_{k+1}| and |W~_{k+2}|, to be times omega_k
    terms = np.ones((4, count))
    pqs, mags_, products = (np.empty((2, count)), np.empty((2, count)),
                            np.empty((4, count)))
    saved = []
    a = width = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(top - 1, -1, -1):
            while a < count and ns[a] > k:
                a += 1
            if a != width:
                # views of the a points running, rebuilt as a grows
                width = a
                now, term, total = w[:, :a], terms[:, :a], sums[:, :a]
                high, low = now
                local, sizes = term[0], term[2:]
                pair, cols, rws = xt[:, :a], index[0, :a], index[1, :a]
                pq, mags, product = pqs[:, :a], mags_[:, :a], products[:, :a]
                p, q = pq
            if not k % _CHECKPOINT and k:
                saved.append((k, np.vstack((total[0], now))))
            if k:
                omega = bounds.take(cols + k)
                omega *= pads.take(rws + k)
                np.maximum(omega, _FLOOR, out=omega)
            else:
                omega = omega_0
            # p_k = c_k W~_{k+1} and q_k = d_k W~_{k+2}
            np.multiply(coefficients[k], pair, out=pq)
            pq *= now
            np.abs(now, out=sizes)
            np.abs(pq, out=mags)
            np.add(mags[0], mags[1], out=local)
            local += 1.0
            total += np.multiply(term, omega, out=product)
            np.copyto(low, high)
            p += 1.0
            np.subtract(p, q, out=high)
    del terms, coefficients, pqs, mags_, products
    bound, scale = np.empty(count), np.empty(count)
    bits = np.zeros(count, dtype=np.intp)
    # position, cap and padding of each point whose cut is replayed
    at, caps, padding = [], [], []
    for s, p in enumerate(order):
        _, sigma, row, t, x, n = points[p]
        proven, b, estimate = _backward_bounds(
            sums[:, s].tolist(), row, t, x, n, sigma)
        bound[s], scale[s] = b, estimate[0]
        if not b <= 0.25 * tol:
            bits[s] = scale_bits = _fixed_point_scale(estimate, tol)
            cap = _prefix_cap(sigma, estimate, scale_bits, tol)
            if proven and cap >= _FLOOR:
                at.append(s)
                caps.append(cap)
                padding.append(1.0 + 32.0 * (n + 1) * _U)
    del sums
    # k, the running sum, W~_{k+1} and W~_{k+2} before step k, from the
    # lowest checkpoint within the cap, or from the point's first step
    k = np.array([ns[s] - 1.0 for s in at])
    state = np.zeros((3, len(at)))
    state[1] = 1.0
    caps, padding = np.array(caps), np.array(padding)
    where = np.array(at, dtype=np.intp)
    open_ = np.ones(len(at), dtype=bool)
    for checkpoint, kept in reversed(saved):
        # the replayed points among those the checkpoint holds
        inside = np.flatnonzero(open_[:bisect_left(at, kept.shape[1])])
        held = kept[:, where[inside]]
        within = held[0] * padding[inside] <= caps[inside]
        inside = inside[within]
        k[inside] = checkpoint
        state[:, inside] = held[:, within]
        open_[inside] = False
    del saved, at, ns
    # step each point on until the step that would pass its cap, K = k,
    # or to k = 0
    live = np.arange(len(where))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            live = live[k[live] > 0.0]
            if not live.size:
                break
            step = k[live]
            place = index[:, where[live]] + step.astype(np.intp)
            omega = bounds.take(place[0])
            omega *= pads.take(place[1])
            np.maximum(omega, _FLOOR, out=omega)
            up = step + 1.0
            pq = np.sqrt(np.vstack((2.0 / up, up / (up + 1.0))))
            pq *= xt[:, where[live]]
            pq *= state[1:, live]
            mags = np.abs(pq)
            total = state[0, live] + ((mags[0] + mags[1]) + 1.0) * omega
            go = total * padding[live] <= caps[live]
            live, pq = live[go], pq[:, go]
            state[2, live] = state[1, live]
            state[1, live] = pq[0] + 1.0 - pq[1]
            state[0, live] = total[go]
            k[live] -= 1.0
    del pads, index, xt
    # the replayed point at each position, or -1, and each point's position
    replayed = np.full(count, -1, dtype=np.intp)
    replayed[where] = np.arange(len(where))
    position = np.empty(count, dtype=np.intp)
    position[order] = np.arange(count)
    del order
    for (_, sigma, _, _, _, n), s in zip(points, position.tolist()):
        value, b = float(w[0, s]), float(bound[s])
        cut = None
        if not b <= 0.25 * tol:
            cut = int(bits[s]), None, 0.0
            e = int(replayed[s])
            if e >= 0 and float(k[e]) < n - 1:
                total, above, far = state[:, e].tolist()
                prefix = math.nextafter(
                    math.ldexp(total * float(padding[e]), sigma - 50),
                    math.inf)
                cut = cut[0], (int(k[e]), above, far), prefix
        yield value, b, (float(scale[s]), sigma), cut


def _exact_point(t, x, n_terms, weights, cut, tol):
    """(value, roundoff) of the backward recurrence that keeps the
    binary64 steps of _backward_point while their error is small and runs
    the rest in fixed point (_sum_mp), from the cut (B, start, prefix) of
    the point's _backward_scalar record.

    The scale 2^B is the one _fixed_point_scale takes from the estimate
    (s, e) of _backward_point.  The binary64 prefix is the longest run of
    steps k = N-1..K+1 whose bound is at most a quarter of s 2^(e - B),
    the fixed-point error that estimate expects, and of tol/8 (_prefix);
    without one, K = N - 1 and _sum_mp runs its whole loop.  _sum_mp
    resumes at k = K from the binary64 W~_{K+1}, W~_{K+2} and bounds its
    own error and the handoff.  By _backward_point's identity, which holds
    whatever arithmetic each step uses, the error of the value is the sum
    of the prefix's binary64 errors, the handoff error and the
    fixed-point errors of k <= K, so the roundoff reported is the sum of
    the two bounds and the rounding to binary64.

    Should _sum_mp's bound still pass tol/8, the point is summed again,
    from the same K, at the scale that bound asks for, at least one bit
    more (an inf bound asks for 1 - log2(tol/8) more).  The loop ends:
    once the |Y_k| 2^-bits of _sum_mp settle near |w_k|, the bound
    halves with each bit.  The roundoff is then at most tol/8 + tol/32
    + 2^-53 |value|, up to the upward rounding of those sums.  A value
    past binary64 is a RangeError only from a pass whose bound met tol/8;
    at a lower scale it may be the error alone."""
    bits, start, prefix = cut
    value, bound = _sum_mp(t, x, n_terms, bits, weights, start)
    while not bound <= 0.125 * tol:
        bits = max(bits + 1, _fixed_point_scale((bound, bits), tol))
        value, bound = _sum_mp(t, x, n_terms, bits, weights, start)
    if math.isinf(value):
        raise RangeError("G(%g, %g) overflows binary64" % (t, x))
    # the rounding to binary64 adds at most 2^-53 |value|
    return value, _add_up(_add_up(bound, prefix), _U * abs(value))


def _tail_bound(t, x, n_top):
    """e^{x^2/2} |t|^(N+1)/(1-|t|) for N = n_top."""
    at = abs(t)
    return math.exp(0.5 * x * x + (n_top + 1) * math.log(at)
                    - math.log1p(-at))


def _canonical_key(t, x):
    """(|t|, sgn(t) x), the canonical point of (t, x) and (-t, -x), t != 0;
    0.0 and -0.0 give equal keys."""
    return abs(t), x if t > 0.0 else -x


def _evaluate_grid(t_grid, x_grid, tol):
    """The GenFunValue of every point of the grid t_grid x x_grid, as one
    tuple in row order.

    Every point with t != 0 is summed as its canonical point
    (|t|, sgn(t) x), once for all the points that share it: each step
    below reads only |t|, x^2, x t and t^2, which (t, x) and (-t, -x)
    share, so G(-t, -x) = G(t, x) bit for bit.  One map, keyed by
    canonical point, carries each through two passes over the grid:

    * The row pass checks |t| < 1 for each row, then a finite x at each
      point, and fixes the term count N of each canonical point at its
      first point in row order.  The points that share it share N, so a
      BudgetError names the first point over budget in row order.  A
      point with t = 0 has G = 1 and takes no count.  Each |t| takes
      _float_row once, to its largest N (the backward pass reads only
      |t~_k| + u g_k and |t~_(N+1)|), and each |x| takes _float_column
      once, to its largest N - 1, and keeps only its _column_bound: x and
      -x share it, since |h~_k| and E_k depend on |x| alone (the
      recurrence is odd in x, bit for bit).
    * The column pass takes each count out of the map at its canonical
      point's first point in column order, which leaves the map empty.
      That point runs, with its own t and x, which a RangeError names.

    Then two phases over the canonical points, in that order:

    1. Every point takes the backward recurrence in binary64: in one
       batched pass (_backward_batch) where their term counts add up to
       more than _BATCH_RATIO times the largest, one point at a time
       (_backward_scalar) otherwise.  Both give the same records.
    2. Where that bound passes tol/4, the point is summed in fixed point
       (_exact_point).

    The map then takes the value, bounds and term count of each canonical
    point, and every grid point reads its own from it, with its own t and
    x; a point with t = 0 gets G = 1 from one term.  The rows' arrays and
    the column bounds are held throughout.
    """
    ts = [float(t) for t in t_grid]
    xs = [float(x) for x in x_grid]
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be a finite positive number")
    # N of each canonical point
    canonical = {}
    # the largest N of each |t| != 0, and how far each |x| reads its
    # column bound: N - 1 for its largest N
    tops, reads = {}, {}
    for t in ts:
        if not abs(t) < 1.0:
            raise DomainError("generating_G needs |t| < 1, got t = %g" % t)
        for x in xs:
            _require_finite(x, "generating_G")
            key = _canonical_key(t, x)
            if t == 0.0 or key in canonical:
                continue
            n_top = canonical[key] = _terms_needed(t, x, tol)
            if n_top > _MAX_TERMS:
                raise BudgetError(
                    "reaching tol = %g at (t, x) = (%g, %g) needs %d "
                    "terms, budget is %d" % (tol, t, x, n_top, _MAX_TERMS))
            tops[abs(t)] = max(tops.get(abs(t), 0), n_top)
            reads[abs(x)] = max(reads.get(abs(x), 0), n_top - 1)
    rows = {at: _float_row(at, n_top) for at, n_top in tops.items()}
    # the column bounds one after another, and (start, sigma) of each
    bounds = np.empty(sum(reads.values()))
    kept, size = {}, 0
    for ax, read in reads.items():
        m, sigma = _column_bound(_float_column(ax, read), ax)
        bounds[size:size + read] = m
        kept[ax] = size, sigma
        size += read
    # (start, sigma, row, t, x, n_top) of each canonical point, at its
    # first point in column order
    points = []
    for x in xs:
        for t in ts:
            n_top = canonical.pop(_canonical_key(t, x), None)
            if n_top is not None:
                points.append(kept[abs(x)] + (rows[abs(t)], t, x, n_top))
    steps = [point[5] for point in points]
    if sum(steps) > _BATCH_RATIO * max(steps, default=0):
        records = _backward_batch(bounds, points, tol)
    else:
        records = (_backward_scalar((bounds[start:], sigma), row, t, x, n,
                                    tol)
                   for start, sigma, row, t, x, n in points)
    for (start, sigma, row, t, x, n_top), (value, roundoff, _, cut) \
            in zip(points, records):
        if cut is not None:
            weights = _weights((bounds[start:], sigma), row, n_top)
            value, roundoff = _exact_point(t, x, n_top, weights, cut, tol)
        canonical[_canonical_key(t, x)] = (
            value, _tail_bound(t, x, n_top), n_top + 1, roundoff)
    return tuple(GenFunValue(t, x, *canonical[_canonical_key(t, x)])
                 if t != 0.0 else GenFunValue(t, x, 1.0, 0.0, 1)
                 for t in ts for x in xs)


def generating_G(t, x, tol=1e-10):
    """Certified evaluation of G(t, x) = sum h_k(x) t^k for |t| < 1.

    The number of terms is fixed in advance from the Szasz tail majorant.
    The sum runs by the backward recurrence in binary64 (_backward_point,
    one point alone), and where its bound exceeds tol/4, in fixed point by
    _sum_mp, at a scale whose proven bound is at most tol/8.  The bound of
    the path taken is ``roundoff_bound``.  This is the 1 x 1 grid of
    positivity_scan.
    """
    return _evaluate_grid([t], [x], tol)[0]


def positivity_scan(t_grid, x_grid, tol=1e-10):
    """Evaluate G with certified bounds on a grid; all_positive is true iff
    certified_lower = value - tail_bound - roundoff_bound > 0 at every
    grid point.  ``points`` is the tuple of _evaluate_grid, one
    GenFunValue per grid point in row order (t outer, x inner), each
    mirror pair counted and summed once."""
    points = _evaluate_grid(t_grid, x_grid, tol)
    if not points:
        raise DomainError("empty scan grid")
    return ScanReport(min(g.certified_lower for g in points), points)
