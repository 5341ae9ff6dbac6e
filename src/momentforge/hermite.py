"""Orthonormal Hermite polynomials, the Szasz bound |h_n(x)| <= e^{x^2/2},
and certified positivity of the generating function

    G(t, x) = sum_{k>=0} h_k(x) t^k,   |t| < 1.

The partial sum carries the explicit tail majorant
e^{x^2/2} |t|^{N+1}/(1-|t|) and a proven bound on its own roundoff, so
every scan value comes with a certified lower bound.

A scan is one pass over its grid (_evaluate_grid), and generating_G is a
1 x 1 grid.  Summation runs in binary64 with a running error bound: the
values h~_k and their error majorant E_k depend on x only and are
computed once per x column, the powers t~_k and their errors g_k once
per t row, and each point then takes elementwise products and sequential
cumulative sums of those arrays (_sum_float).  Points where that bound
exceeds a quarter of the tolerance are summed again exactly in fixed
point on Python ints (_sum_mp), at a scale 2^B chosen before the integer
loop from a binary64 majorant of the fixed-point error
(_fixed_point_majorant).
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import rshift
from typing import Tuple

import numpy as np

from .errors import BudgetError, DomainError, InconsistencyError, RangeError

_MAX_TERMS = 200000
#: unit roundoff of binary64
_U = 2.0 ** -53
#: roundings per recurrence step in the binary64 majorant (see _sum_float)
_C = 7.0
#: magnitudes below this leave the binary64 path (see _sum_float)
_TINY = 2.0 ** -900
#: smallest normal binary64; the fixed-point majorant floors its values
#: here so that no rounding in it underflows (see _fixed_point_majorant)
_FLOOR = sys.float_info.min
#: the fixed-point majorant rescales by 2^-_RESCALE_BITS above this
_RESCALE_BITS = 600
_BIG = 2.0 ** _RESCALE_BITS
#: the retained coefficient table of _sum_mp holds at most this many
#: scale bits times terms (a little over 2 MiB of alpha_k and beta_k)
_TABLE_CAP = 1 << 23
#: (P, alpha_k, beta_k) for k below the table length, from
#: _coefficient_table; replaced whole, never mutated
_table = (0, (), ())


@dataclass(frozen=True)
class HermiteEval:
    """A joint evaluation of H_n and the orthonormal h_n at one point."""

    n: int
    x: float
    H: float
    h: float


@dataclass(frozen=True, slots=True)
class GenFunValue:
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


@dataclass(frozen=True)
class ScanReport:
    """Grid report of positivity_scan."""

    all_positive: bool
    min_value: float
    min_certified: float
    argmin: Tuple[float, float]
    points: Tuple[GenFunValue, ...]

    def to_json_dict(self):
        return {"all_positive": self.all_positive,
                "min_value": self.min_value,
                "min_certified": self.min_certified,
                "argmin": list(self.argmin),
                "n_points": len(self.points)}


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
    the normalized recurrence

        h_{n+1} = (sqrt(2) x h_n - sqrt(n) h_{n-1}) / sqrt(n+1),

    which stays bounded by e^{x^2/2} for all n (Szasz inequality).  The
    bound is checked in the log domain, since e^{x^2/2} itself overflows
    binary64 for |x| > 37.7; there a value past binary64 is a RangeError."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    _require_finite(x, "hermite_h")
    prev, curr = 1.0, math.sqrt(2.0) * x
    if n == 0:
        curr = prev
    else:
        for k in range(1, n):
            prev, curr = curr, ((math.sqrt(2.0) * x * curr
                                 - math.sqrt(k) * prev)
                                / math.sqrt(k + 1.0))
    log_bound = 0.5 * x * x
    if not math.isfinite(curr) and log_bound > math.log(sys.float_info.max):
        raise RangeError("h_%d(%g) overflows binary64" % (n, x))
    if curr != 0.0 and not math.log(abs(curr)) <= log_bound + 1e-10:
        raise InconsistencyError(
            "computed |h_%d(%g)| = %g violates the e^{x^2/2} bound; "
            "the recurrence has lost too much precision" % (n, x, curr))
    return curr


def hermite_eval(n, x):
    """Both normalizations at once; H is reconstructed from h in log
    domain and overflows to a range error exactly when hermite_H would."""
    h = hermite_h(n, x)
    if h == 0.0:
        return HermiteEval(n, x, 0.0, 0.0)
    log_scale = 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
    log_H = math.log(abs(h)) + log_scale
    if log_H > math.log(sys.float_info.max):
        raise RangeError(
            "H_%d(%g) overflows binary64; the orthonormal value is %g"
            % (n, x, h))
    return HermiteEval(n, x, math.copysign(math.exp(log_H), h), h)


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
    k = 1..n_terms, at index k - 1 of three float64 arrays."""
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


def _float_point(column, row, x, n_terms):
    """_sum_float at one point from the arrays of its x column and t row
    (each at least n_terms long); see _sum_float."""
    h, abs_h, err = column
    tk, tk_err, tk_pad = row
    n = n_terms
    with np.errstate(over="ignore", invalid="ignore"):
        # sums[k] = s~_k = fl(s~_{k-1} + term~_k), added in order
        sums = np.empty(n + 1)
        sums[0] = 1.0
        terms = np.multiply(h[:n], tk[:n], out=sums[1:])
        gain = np.abs(terms)
        np.cumsum(sums, out=sums)
        # the summands of S, each in _sum_float's order of operations
        gain += abs_h[:n] * tk_err[:n]
        gain += err[:n] * tk_pad[:n]
        gain += np.abs(sums[1:])
        # cumsum adds in order where np.sum would add pairwise
        gain = float(np.cumsum(gain)[-1]) if n else 0.0
    total = float(sums[n])
    if not (gain < math.inf and abs(tk[n]) >= _TINY
            and (x == 0.0 or abs(x) >= _TINY)):
        return total, math.inf
    return total, gain * (1.0 + 32.0 * (n + 1) * _U)


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

    h~_k and E_k come from _float_column, t~_k and g_k from _float_row,
    and _float_point forms the terms, the sums s~_k and the summands of S
    elementwise and adds each in order with a cumulative sum, so a grid
    computes each column and row once.  Every operation is the one above
    on the same operands, so the sum and S do not depend on how the grid
    shares them, and the sum does not depend on the bound.  S is inf,
    which hands the point to the exact path, when it overflows, and when
    |t^(N+1)| or a nonzero |x| is below 2^-900, so that the terms and the
    first values of the recurrence stay clear of the underflow range.
    """
    return _float_point(_float_column(x, n_terms), _float_row(t, n_terms),
                        x, n_terms)


def _fixed_point_majorant(t, x, n_terms):
    """(s, e) with sum_{k=1}^{N} D_k <= s 2^e (N = n_terms), for the bound
    D_k on the error of U_k in units of 2^-B in _sum_mp, at any B >= 65;
    see _majorant_point."""
    return _majorant_point(_float_column(x, n_terms), _float_row(t, n_terms),
                           t, x, n_terms)


def _majorant_point(column, row, t, x, n_terms):
    """_fixed_point_majorant from the arrays of the point's x column and t
    row (each at least n_terms long).

    The step of _sum_mp misses the exact step from the computed U_k,
    U_{k-1} by less than 1 + |x t| |U_k| / 2^B + t^2 |U_{k-1}| / 2^B in
    units of 2^-B (see there).  With |U_k| <= 2^B M_k |t|^k + D_k, where
    M_k bounds |h_k(x)|, that injection is at most
        1 + (|x| M_k + M_{k-1}) |t|^{k+1} + 2^-B (|x t| D_k + t^2 D_{k-1}),
    so with D_0 = 0, M_{-1} = 0 and a_k, b_k as in _sum_mp,
        D_{k+1} = |x t| (a_k + 2^-65) D_k + t^2 (b_k + 2^-65) D_{k-1}
                  + 1 + (|x| M_k + M_{k-1}) |t|^{k+1},
    which does not depend on B.  M_0 = 1, and for k >= 1 M_k is the
    smaller of the Szasz bound e^{x^2/2} and |h~_k| + u E_k from the
    binary64 column (by _sum_float's analysis, under its proviso that
    nothing underflows), which follows |h_k| where that is far below
    e^{x^2/2}.  Where 0 < |x| < 2^-900, outside that analysis, M_k is the
    Szasz bound alone.

    D runs in binary64 in units of 2^sigma, from the integer
    sigma = c >= x^2/(2 ln 2), so that e^{x^2/2} 2^-c <= 1 caps M; sigma
    grows by 600 whenever D passes 2^600, by exact rescalings.  Where a
    unit 2^-sigma, a power of |t|, a rescaled D_{k-1} or injection, the
    coefficients |x|, |x t|, t^2 or a scaled M_k would fall below 2^-1022
    (2^-900 for the coefficients), a larger value replaces it, which keeps
    every quantity a bound; a product that still underflows enters a sum
    that holds the unit 2^-1022 or more, and loses at most u of it.  Every
    value is then built from nonnegative operands by +, *, /, sqrt and
    min, each rounding lowering it by at most a factor 1 - u, along chains
    of at most 10 N + 6 roundings (8 per step for E_k, one per step for
    the powers of |t|, then the additions), so the sum is padded by
    1 + 32 (N + 1) u, as S is in _sum_float.
    """
    n = n_terms
    _, abs_h, err = column
    at = abs(t)
    ax = max(abs(x), _TINY)
    sigma = math.ceil(0.5 * x * x / math.log(2.0)) + 1
    unit = math.ldexp(1.0, -min(sigma, 1022))
    # bound[k + 1] = M_k 2^-sigma for k = -1..n-1
    # (in place, to keep the temporaries down)
    bound = np.empty(n + 2)
    bound[:2] = 0.0, unit
    later = bound[2:n + 1]
    if x == 0.0 or abs(x) >= _TINY:
        m = len(later)
        np.multiply(err[:m], _U, out=later)
        later += abs_h[:m]
        np.fmin(np.ldexp(later, -sigma, out=later), 1.0, out=later)
    else:
        later[:] = 1.0
    np.maximum(later, _FLOOR, out=later)
    inject = np.abs(row[0][:n])
    np.maximum(inject, _FLOOR, out=inject)
    inject *= bound[1:n + 1] * ax + bound[:n]
    inject += unit
    # k + 1 for k = 0..n-1, then a_k + 2^-65 and b_k + 2^-65
    grow = np.arange(1.0, n + 1.0)
    carry = grow - 1.0
    carry /= grow
    np.divide(2.0, grow, out=grow)
    for coefficient, factor in ((grow, max(ax * at, _TINY)),
                                (carry, max(at * at, _TINY))):
        np.sqrt(coefficient, out=coefficient)
        coefficient += 2.0 ** -65
        coefficient *= factor
    d_prev = d = total = 0.0
    # the loop reads inject through the view, so a rescaling of the whole
    # array applies to the injections still to come
    for a, b, c in zip(memoryview(grow), memoryview(carry),
                       memoryview(inject)):
        d_prev, d = d, a * d + b * d_prev + c
        total += d
        if d > _BIG:
            sigma += _RESCALE_BITS
            d, total = d / _BIG, total / _BIG
            d_prev = max(d_prev / _BIG, _FLOOR)
            unit = math.ldexp(1.0, -min(sigma, 1022))
            np.maximum(inject / _BIG, unit, out=inject)
    return total * (1.0 + 32.0 * (n + 1) * _U), sigma


def _fixed_point_scale(majorant, tol):
    """The least B >= 65 with s 2^(e - B) <= tol/8 for majorant (s, e).

    tol/8 rather than tol/4 leaves room under tol/4 + 2^-53 |value| for
    the rounding of the reported roundoff bound."""
    s, e = majorant
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
    """(alpha_k, beta_k) at scale 2^bits for k < n_terms, shifted lazily
    from the module table, which grows by half in scale or length when a
    request exceeds it.  A request whose grown table would pass
    _TABLE_CAP scale bits times terms is built alone and not retained."""
    global _table
    table = _table
    scale, size = table[0], len(table[1])
    if bits > scale or n_terms > size:
        scale = scale if bits <= scale else max(bits, scale + scale // 2)
        size = size if n_terms <= size else max(n_terms, size + size // 2)
        if scale * size <= _TABLE_CAP:
            # a concurrent caller may replace it too; both tables are exact
            table = _table = _coefficient_table(scale, size)
        else:
            table = _coefficient_table(bits, n_terms)
    scale, alpha, beta = table
    shift = scale - bits
    # the repeats end the zip after n_terms entries
    return zip(map(rshift, alpha, repeat(shift, n_terms)),
               map(rshift, beta, repeat(shift, n_terms)))


def _sum_mp(t, x, n_terms, bits, majorant=None):
    """The partial sum s_N = sum_{k<=N} h_k(x) t^k (N = n_terms) in fixed
    point with scale 2^bits on Python ints: that sum rounded to binary64,
    and a bound on the error before that rounding (inf where it
    overflows).  The rounding adds at most 2^-53 |value|.  ``majorant``
    is _fixed_point_majorant(t, x, n_terms), computed here if not given.

    x and t are taken exactly (binary64 values are dyadic rationals), and
    t is folded into the recurrence: u_k = h_k t^k obeys
        u_{k+1} = x t a_k u_k - t^2 b_k u_{k-1},  u_0 = 1, u_{-1} = 0,
    with a_k = sqrt(2/(k+1)), b_k = sqrt(k/(k+1)).  U_k ~ 2^bits u_k is
        U_{k+1} = floor(U_k alpha_k x t / 2^bits)
                  - floor(U_{k-1} beta_k t^2 / 2^bits),
    where alpha_k = isqrt((2 << 2 bits) // (k+1)) and
    beta_k = isqrt((k << 2 bits) // (k+1)).  Since isqrt(floor(y)) =
    floor(sqrt(y)), they are floor(2^bits a_k) and floor(2^bits b_k),
    within one unit below 2^bits a_k and 2^bits b_k.  The two floors
    together miss the real quotients by less than one unit, so in units
    of 2^-bits the step misses the exact step from the computed U_k,
    U_{k-1} by less than
        1 + |x t| |U_k| / 2^bits + t^2 |U_{k-1}| / 2^bits,
    and |U_k - 2^bits u_k| <= D_k for the majorant of
    _fixed_point_majorant, which bounds sum_k D_k ahead of the loop.  The
    integer sum of the U_k is exact, so its error is at most
    sum_k D_k / 2^bits.

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
    if majorant is None:
        majorant = _fixed_point_majorant(t, x, n_terms)
    xt = Fraction(x) * Fraction(t)
    t2 = Fraction(t) ** 2
    # both are dyadic: divide by the denominator with a shift
    xt_num, xt_shift = xt.numerator, bits + xt.denominator.bit_length() - 1
    t2_num, t2_shift = t2.numerator, bits + t2.denominator.bit_length() - 1
    prev, curr = 0, 1 << bits
    total = curr
    for alpha, beta in _coefficients(bits, n_terms):
        prev, curr = curr, ((curr * alpha * xt_num >> xt_shift)
                            - (prev * beta * t2_num >> t2_shift))
        total += curr
    try:
        value = total / (1 << bits)
    except OverflowError:
        raise RangeError("G(%g, %g) overflows binary64" % (t, x))
    s, e = majorant
    try:
        bound = math.ldexp(s, e - bits)
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


def _evaluate_grid(t_grid, x_grid, tol, max_terms):
    """GenFunValue rows, one per t, over the grid t_grid x x_grid.

    The term count of every point is fixed first, in row order.  Then
    each x column takes _float_column once, to its largest count, and
    each point with t != 0 combines it with its row's _float_row.  Points
    whose binary64 bound passes tol/4 go to _sum_mp, at the scale that
    _fixed_point_scale takes from the point's _majorant_point, which
    reads the same column and row.  Only one column's arrays are held at
    a time.
    """
    ts = [float(t) for t in t_grid]
    xs = [float(x) for x in x_grid]
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be a finite positive number")
    counts = []
    for t in ts:
        if not abs(t) < 1.0:
            raise DomainError("generating_G needs |t| < 1, got t = %g" % t)
        row = []
        for x in xs:
            _require_finite(x, "generating_G")
            n_top = _terms_needed(t, x, tol)
            if n_top > max_terms:
                raise BudgetError(
                    "reaching tol = %g at (t, x) = (%g, %g) needs %d "
                    "terms, budget is %d" % (tol, t, x, n_top, max_terms))
            row.append(n_top)
        counts.append(row)
    rows = [_float_row(t, max(row, default=0)) for t, row in zip(ts, counts)]
    grid = [[None] * len(xs) for _ in ts]
    for j, x in enumerate(xs):
        column = _float_column(
            x, max((row[j] for row in counts), default=0))
        for i, t in enumerate(ts):
            if t == 0.0:
                grid[i][j] = GenFunValue(t, x, 1.0, 0.0, 1)
                continue
            n_top = counts[i][j]
            at = abs(t)
            tail = math.exp(0.5 * x * x + (n_top + 1) * math.log(at)
                            - math.log1p(-at))
            value, gain = _float_point(column, rows[i], x, n_top)
            roundoff = _U * gain
            if not roundoff <= 0.25 * tol:
                majorant = _majorant_point(column, rows[i], t, x, n_top)
                bits = _fixed_point_scale(majorant, tol)
                value, bound = _sum_mp(t, x, n_top, bits, majorant)
                # the rounding to binary64 adds at most 2^-53 |value|
                roundoff = _add_up(bound, _U * abs(value))
            grid[i][j] = GenFunValue(t, x, value, tail, n_top + 1, roundoff)
    return grid


def generating_G(t, x, tol=1e-10, max_terms=_MAX_TERMS):
    """Certified evaluation of G(t, x) = sum h_k(x) t^k for |t| < 1.

    The number of terms is fixed in advance from the Szasz tail majorant.
    The sum runs in binary64 with the running bound of _sum_float; where
    that bound exceeds tol/4 it is redone in fixed point by _sum_mp, at
    the least scale whose majorant bound is at most tol/8 (see
    _fixed_point_scale).  The bound of the path taken is
    ``roundoff_bound``.  This is the 1 x 1 grid of
    positivity_scan.
    """
    return _evaluate_grid([t], [x], tol, max_terms)[0][0]


def positivity_scan(t_grid, x_grid, tol=1e-10):
    """Evaluate G with certified bounds on a grid; all_positive is true iff
    certified_lower = value - tail_bound - roundoff_bound > 0 at every
    grid point."""
    points = tuple(g for row in _evaluate_grid(t_grid, x_grid, tol,
                                               _MAX_TERMS)
                   for g in row)
    if not points:
        raise DomainError("empty scan grid")
    min_value = math.inf
    min_cert = math.inf
    argmin = None
    for g in points:
        if g.value < min_value:
            min_value = g.value
            argmin = (g.t, g.x)
        min_cert = min(min_cert, g.certified_lower)
    return ScanReport(all_positive=min_cert > 0.0,
                      min_value=min_value,
                      min_certified=min_cert,
                      argmin=argmin,
                      points=points)
