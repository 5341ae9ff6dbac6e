"""Orthonormal Hermite polynomials, the Szasz bound |h_n(x)| <= e^{x^2/2},
and certified positivity of the generating function

    G(t, x) = sum_{k>=0} h_k(x) t^k,   |t| < 1.

The partial sum carries the explicit tail majorant
e^{x^2/2} |t|^{N+1}/(1-|t|) and a proven bound on its own roundoff, so
every scan value comes with a certified lower bound.  Summation runs in
binary64 with a running error bound (_sum_float); points where that bound
exceeds a quarter of the tolerance are summed again exactly in fixed point
on Python ints, at a scale chosen from that path's own bound (_sum_mp).
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import rshift
from typing import Tuple

from .errors import BudgetError, DomainError, InconsistencyError, RangeError

_MAX_TERMS = 200000
#: unit roundoff of binary64
_U = 2.0 ** -53
#: roundings per recurrence step in the binary64 majorant (see _sum_float)
_C = 7.0
#: magnitudes below this leave the binary64 path (see _sum_float)
_TINY = 2.0 ** -900
#: the retained coefficient table of _sum_mp holds at most this many
#: scale bits times terms (a little over 2 MiB of alpha_k and beta_k)
_TABLE_CAP = 1 << 23
#: (P, alpha_k, beta_k, alpha64_k, beta64_k) for k below the table length,
#: from _coefficient_table; replaced whole, never mutated
_table = (0, (), (), (), ())


@dataclass(frozen=True)
class HermiteEval:
    """A joint evaluation of H_n and the orthonormal h_n at one point."""

    n: int
    x: float
    H: float
    h: float


@dataclass(frozen=True)
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


def hermite_H(n, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence
    H_{n+1} = 2x H_n - 2n H_{n-1}, H_0 = 1, H_1 = 2x."""
    if n < 0:
        raise DomainError("n must be nonnegative")
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

    which stays bounded by e^{x^2/2} for all n (Szasz inequality)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    prev, curr = 1.0, math.sqrt(2.0) * x
    if n == 0:
        curr = prev
    else:
        for k in range(1, n):
            prev, curr = curr, ((math.sqrt(2.0) * x * curr
                                 - math.sqrt(k) * prev)
                                / math.sqrt(k + 1.0))
    if abs(curr) > math.exp(0.5 * x * x) * (1.0 + 1e-10):
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
    """Smallest N with e^{x^2/2} |t|^{N+1}/(1-|t|) <= tol; terms 0..N."""
    at = abs(t)
    if at == 0.0:
        return 0
    log_target = math.log(tol) + math.log1p(-at) - 0.5 * x * x
    n_plus_1 = max(1.0, log_target / math.log(at))
    if not n_plus_1 < math.inf:
        raise BudgetError("the term count for tol = %g at x = %g "
                          "overflows binary64" % (tol, x))
    return int(math.ceil(n_plus_1))


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

    The recurrence and the summation order are those of the plain sum, so
    the returned sum does not depend on the bound.  S is inf, which hands
    the point to the exact path, when it overflows, and when |t^N| or a
    nonzero |x| is below 2^-900, so that the terms and the first values of
    the recurrence stay clear of the underflow range.
    """
    total = 1.0
    sqrt2_x = math.sqrt(2.0) * x
    prev, curr = 1.0, sqrt2_x
    tk = t
    at = abs(t)
    ax = abs(sqrt2_x)
    err_prev, err = 0.0, _C * abs(curr)
    tk_err = 0.0
    gain = 0.0
    for k in range(1, n_terms + 1):
        term = curr * tk
        total += term
        gain += (abs(term) + abs(curr) * tk_err
                 + err * (abs(tk) + _U * tk_err) + abs(total))
        root = math.sqrt(k + 1.0)
        a = ax / root
        b = math.sqrt(k / (k + 1.0))
        err_prev, err = err, (a * err + b * err_prev
                              + _C * (a * abs(curr) + b * abs(prev)))
        prev, curr = curr, (sqrt2_x * curr - math.sqrt(k) * prev) / root
        tk *= t
        tk_err = abs(tk) + at * tk_err
    if not (gain < math.inf and abs(tk) >= _TINY
            and (x == 0.0 or abs(x) >= _TINY)):
        return total, math.inf
    return total, gain * (1.0 + 32.0 * (n_terms + 1) * _U)


def _coefficient_table(scale, n_terms):
    """For k < n_terms: alpha_k = floor(2^scale sqrt(2/(k+1))) and
    beta_k = floor(2^scale sqrt(k/(k+1))), and the 64-bit majorant
    coefficients floor(2^64 sqrt(2/(k+1))) + 2, floor(2^64 sqrt(k/(k+1))) + 2
    (scale >= 65), as a (scale, alpha, beta, alpha64, beta64) table."""
    two_scale = 2 * scale
    alpha = [isqrt((2 << two_scale) // (k + 1)) for k in range(n_terms)]
    beta = [isqrt((k << two_scale) // (k + 1)) for k in range(n_terms)]
    top = scale - 64
    return (scale, alpha, beta, [(a >> top) + 2 for a in alpha],
            [(b >> top) + 2 for b in beta])


def _coefficients(bits, n_terms):
    """(alpha_k, beta_k, alpha64_k, beta64_k) at scale 2^bits for
    k < n_terms, shifted lazily from the module table, which grows
    by half in scale or length when a request exceeds it.  A request
    whose grown table would pass _TABLE_CAP scale bits times terms is
    built alone and not retained."""
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
    scale, alpha, beta, alpha64, beta64 = table
    shift = scale - bits
    # the repeats end the zip after n_terms entries
    return zip(map(rshift, alpha, repeat(shift, n_terms)),
               map(rshift, beta, repeat(shift, n_terms)), alpha64, beta64)


def _sum_mp(t, x, n_terms, bits):
    """The partial sum s_N = sum_{k<=N} h_k(x) t^k (N = n_terms) in fixed
    point with scale 2^bits on Python ints: the value, that sum rounded
    to binary64, and a bound on the error before that rounding (inf where
    it overflows).  The rounding adds at most 2^-53 |value|.

    x and t are taken exactly (binary64 values are dyadic rationals), and
    t is folded into the recurrence: u_k = h_k t^k obeys
        u_{k+1} = x t a_k u_k - t^2 b_k u_{k-1},  u_0 = 1, u_{-1} = 0,
    with a_k = sqrt(2/(k+1)), b_k = sqrt(k/(k+1)).  U_k ~ 2^bits u_k is
        U_{k+1} = floor(U_k alpha_k x t / 2^bits)
                  - floor(U_{k-1} beta_k t^2 / 2^bits),
    where alpha_k = isqrt((2 << 2 bits) // (k+1)) and
    beta_k = isqrt((k << 2 bits) // (k+1)) lie within 2 units below
    2^bits a_k and 2^bits b_k (isqrt(floor(y)) > sqrt(y) - 2 for y >= 1).
    The two floors together miss the real quotients by less than one unit,
    so in units of 2^-bits the step misses the exact step from the
    computed U_k, U_{k-1} by less than
        1 + 2 |x t| |U_k| / 2^bits + 2 t^2 |U_{k-1}| / 2^bits,
    and, with D_0 = 0, |U_k - 2^bits u_k| <= D_k for the majorant
        D_{k+1} = |x t| a_k D_k + t^2 b_k D_{k-1} + (that injection).
    D is run alongside in integers rounded up, with a_k and b_k bounded
    above by (alpha_k >> (bits - 64)) + 2 and (beta_k >> (bits - 64)) + 2
    over 2^64 (bits >= 65).  The integer sum of the U_k is exact, so its
    error is at most sum_k D_k / 2^bits.

    The coefficients come from one table at the largest scale P seen so
    far (_coefficients).  Since isqrt(floor(y)) = floor(sqrt(y)), alpha_k
    is floor(2^bits a_k), and since floor(floor(z) / 2^m) = floor(z / 2^m),
    the table entry floor(2^P a_k) >> (P - bits) equals it bit for bit;
    likewise for beta_k, and (alpha_k >> (bits - 64)) + 2 is
    floor(2^64 a_k) + 2 at every scale.  The result therefore does not
    depend on which calls came before.  The retained table holds at most
    _TABLE_CAP scale bits times terms; a larger request builds its own
    coefficients and drops them.
    """
    if bits < 65:
        raise DomainError("the fixed-point sum needs at least 65 bits")
    xt = Fraction(x) * Fraction(t)
    t2 = Fraction(t) ** 2
    # both are dyadic: divide by the denominator with a shift
    xt_num, xt_shift = xt.numerator, xt.denominator.bit_length() - 1
    t2_num, t2_shift = t2.numerator, t2.denominator.bit_length() - 1
    axt_num = abs(xt_num)
    prev, curr = 0, 1 << bits
    total = curr
    err_prev = err = err_sum = 0
    for alpha, beta, alpha64, beta64 in _coefficients(bits, n_terms):
        nxt = ((curr * alpha * xt_num >> (bits + xt_shift))
               - (prev * beta * t2_num >> (bits + t2_shift)))
        # -(-n >> s) is n / 2^s rounded up
        err_prev, err = err, (
            1
            - (-err * alpha64 * axt_num >> (64 + xt_shift))
            - (-err_prev * beta64 * t2_num >> (64 + t2_shift))
            - (-abs(curr) * axt_num >> (bits + xt_shift - 1))
            - (-abs(prev) * t2_num >> (bits + t2_shift - 1)))
        err_sum += err
        prev, curr = curr, nxt
        total += curr
    try:
        value = total / (1 << bits)
    except OverflowError:
        raise RangeError("G(%g, %g) overflows binary64" % (t, x))
    try:
        bound = err_sum / (1 << bits)
    except OverflowError:
        return value, math.inf
    # the division rounds to nearest; one ulp up makes it a bound
    return value, math.nextafter(bound, math.inf)


def generating_G(t, x, tol=1e-10, max_terms=_MAX_TERMS):
    """Certified evaluation of G(t, x) = sum h_k(x) t^k for |t| < 1.

    The number of terms is fixed in advance from the Szasz tail majorant.
    The sum runs in binary64 with the running bound of _sum_float; where
    that bound exceeds tol/4 it is redone in fixed point by _sum_mp, at a
    scale raised until that path's own bound is at most tol/4.  The bound
    of the path taken is ``roundoff_bound``.
    """
    t = float(t)
    x = float(x)
    if not abs(t) < 1.0:
        raise DomainError("generating_G needs |t| < 1, got t = %g" % t)
    if not math.isfinite(x):
        raise DomainError("generating_G needs a finite x, got x = %g" % x)
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be a finite positive number")
    n_top = _terms_needed(t, x, tol)
    if n_top > max_terms:
        raise BudgetError(
            "reaching tol = %g at (t, x) = (%g, %g) needs %d terms, "
            "budget is %d" % (tol, t, x, n_top, max_terms))
    at = abs(t)
    if at == 0.0:
        return GenFunValue(t, x, 1.0, 0.0, 1)
    tail = math.exp(0.5 * x * x + (n_top + 1) * math.log(at)
                    - math.log1p(-at))
    value, gain = _sum_float(t, x, n_top)
    roundoff = _U * gain
    if not roundoff <= 0.25 * tol:
        # the fixed-point bound has come out at about half the binary64
        # one, so the gain predicts the scale; a gain past the binary64
        # range needs more than 1024 bits
        log_gain = math.log2(gain) if gain < math.inf else 1024.0
        bits = max(65, math.ceil(log_gain + 2.0 - math.log2(tol)))
        while True:
            value, bound = _sum_mp(t, x, n_top, bits)
            if bound <= 0.25 * tol:
                break
            # the bound scales as 2^-bits; double where it overflowed
            bits += (bits if bound == math.inf else math.ceil(
                math.log2(bound) + 2.0 - math.log2(tol)) + 1)
        # the rounding to binary64 adds at most 2^-53 |value|; one ulp up
        # covers the rounding of this sum
        roundoff = math.nextafter(bound + _U * abs(value), math.inf)
    return GenFunValue(t, x, value, tail, n_top + 1, roundoff)


def positivity_scan(t_grid, x_grid, tol=1e-10):
    """Evaluate G with certified bounds on a grid; all_positive is true iff
    certified_lower = value - tail_bound - roundoff_bound > 0 at every
    grid point."""
    points = []
    min_value = math.inf
    min_cert = math.inf
    argmin = None
    for t in t_grid:
        for x in x_grid:
            g = generating_G(t, x, tol=tol)
            points.append(g)
            if g.value < min_value:
                min_value = g.value
                argmin = (g.t, g.x)
            min_cert = min(min_cert, g.certified_lower)
    if not points:
        raise DomainError("empty scan grid")
    return ScanReport(all_positive=min_cert > 0.0,
                      min_value=min_value,
                      min_certified=min_cert,
                      argmin=argmin,
                      points=tuple(points))
