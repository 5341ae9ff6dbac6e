"""q-series machinery: q-Pochhammer symbols, the q-Beta measure and its
product convolution semigroup, compound-Poisson lattice measures, and the
power-series measures of the T-transformed q-sequences.

All infinite objects are truncated by :func:`measures.geometric_cut`
against geometric tail majorants and carry the resulting bound in
``truncation_error``; for :func:`sigma_abgamma` that value is evaluated in
binary64 with no allowance for rounding, so it is an estimate of the bound.
tau_c and mu_c at one (a, b, q) share the c-free part of their Cauchy
bound and their weight recurrence, each cut at its own N.  tau_c and nu_a
lie on the lattice n h, h = log(1/q), and mu_c, the exp-neg image of
tau_c's lattice, on e^{-n h}; each records the index n of its atoms, which
the convolutions add.  mu_abq is built as mu_c is, on the same lattice,
so the two convolve.  sigma_abgamma, whose atoms gamma q^k lie on no
e^{-n h}, is built from ascending pairs.
"""

import cmath
import functools
import math
import sys
from collections import namedtuple
from typing import NamedTuple, Tuple

import numpy as np

from .errors import BudgetError, DomainError, RangeError
from .measures import (AtomicMeasure, MomentSequence, _orders,
                       geometric_cut, pushforward)
from .semigroups import _checked_make, _mellin_exp

DEFAULT_TOL = 1e-14


class QParams(namedtuple("QParams", "a b q")):
    """Parameter triple (a, b, q) with 0 < q < 1.

    Operations on the q-Beta family additionally require 0 <= b < a < 1.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a, b, q):
        if not 0 < q < 1:
            raise DomainError("q must lie in (0, 1)")
        if not 0 <= a < 1 or not 0 <= b < 1:
            raise DomainError("a and b must lie in [0, 1)")
        return super().__new__(cls, a, b, q)

    def require_ordered(self):
        if not self.b < self.a:
            raise DomainError("this operation needs 0 <= b < a < 1")


class PowerSeries(NamedTuple):
    """Truncated power series with coefficients c_0..c_K, valid |z| < 1."""

    coefficients: Tuple[float, ...]


def _factor_count(z_abs, q):
    """The factors k < n that (z; q)_inf keeps at |z| = z_abs: n - 1 is
    the geometric cut of sum_{k>N} |z| q^k = |z| q^{N+1}/(1 - q) at
    DEFAULT_TOL.  A smaller |z| meets DEFAULT_TOL with the same factors."""
    return geometric_cut(math.log(z_abs / (1.0 - q)), math.log(q),
                         DEFAULT_TOL)[0] + 1


def qpoch(z, q, n=math.inf):
    """The q-shifted factorial (z; q)_n = prod_{k<n} (1 - z q^k), for n a
    nonnegative integer or inf; any other n is a :class:`DomainError`.

    For n = inf the product keeps the factors k <= N, where N is the
    geometric cut of sum_{k>N} |z| q^k = |z| q^{N+1}/(1 - q) at
    DEFAULT_TOL; the remaining factors differ from 1 by a geometrically
    small amount.  Accepts complex z; for the infinite product |z| < 1/q
    is required so the truncation bound applies.  For |z| < 1 no factor
    is 0, and a product that underflows to 0 is a :class:`RangeError`.
    """
    if not 0 < q < 1:
        raise DomainError("q must lie in (0, 1)")
    if n == math.inf:
        if abs(z) == 0:
            return 1.0
        n = _factor_count(abs(z), q)
    elif not (n >= 0 and n == int(n)):
        raise DomainError("n must be a nonnegative integer or inf")
    n = int(n)
    value = math.prod((1.0 - z * q ** k for k in range(n)), start=1.0)
    if value == 0 and abs(z) < 1:
        raise RangeError("(z; q)_n at z = %s, q = %s underflows binary64"
                         % (z, q))
    return value


def _exp_neg_image(lattice, tol):
    """The :func:`measures.pushforward` of ``lattice``, an arithmetic
    lattice k log(1/q), onto {q^k}.  Atoms whose location q^k underflows
    to 0 join the tail that the cut bounds by tol in truncation_error,
    which is then at most 2 tol; a :class:`BudgetError` when their mass
    alone exceeds tol."""
    mu = pushforward(lattice)
    lost = mu.truncation_error - lattice.truncation_error
    if lost > tol:
        raise BudgetError(
            "the atoms whose location q^k underflows to 0 carry mass %.3g, "
            "above tol = %g" % (lost, tol))
    return mu


def mu_abq(p, tol=DEFAULT_TOL):
    """The q-Beta probability on {q^k}: atoms at q^k with weight
    ((a;q)_inf/(b;q)_inf) ((b/a;q)_k/(q;q)_k) a^k, for 0 <= b < a < 1.

    Truncated where the geometric tail majorant drops below tol.  Built
    as :func:`mu_c` is, on its lattice: the weights on k log(1/q), w_0 as
    the mass at 0, mapped by :func:`_exp_neg_image`, so atoms whose
    location q^k underflows to 0 join truncation_error, which is then at
    most 2 tol, and their mass alone above tol is a :class:`BudgetError`.
    """
    p.require_ordered()
    a, b, q = p.a, p.b, p.q
    prefactor = qpoch(a, q) / qpoch(b, q)
    # (b/a;q)_k <= 1 and (q;q)_k >= (q;q)_inf give the majorant
    # w_k <= prefactor a^k / (q;q)_inf
    N, tail = geometric_cut(
        math.log(prefactor / ((1.0 - a) * qpoch(q, q))), math.log(a), tol)
    k = np.arange(N + 1)
    qk = q ** k
    ratio_poch = np.cumprod(np.append(1.0, 1.0 - (b / a) * qk[:-1]))
    q_poch = np.cumprod(np.append(1.0, 1.0 - qk[1:]))
    weights = prefactor * ratio_poch / q_poch * a ** k
    return _exp_neg_image(AtomicMeasure.on_lattice(
        (math.log(1.0 / q),), k[1:], weights[1:], zero_mass=weights[0],
        truncation_error=tail), tol)


def qbinomial_check(a, z, q):
    """Residual of the q-binomial identity
    sum_k (z;q)_k/(q;q)_k x^k = (zx;q)_inf / (x;q)_inf at x = a q^n.

    Returns the maximum absolute residual over n <= 6 with the series
    cut after k = 80.
    """
    worst = 0.0
    for n in range(7):
        x = a * q ** n
        series = 0.0
        z_poch = 1.0
        q_poch = 1.0
        x_pow = 1.0
        for k in range(81):
            series += z_poch / q_poch * x_pow
            z_poch *= 1.0 - z * q ** k
            q_poch *= 1.0 - q ** (k + 1)
            x_pow *= x
        closed = qpoch(z * x, q) / qpoch(x, q)
        worst = max(worst, abs(series - closed))
    return worst


def nu_a(a, q, tol=DEFAULT_TOL):
    """The finite measure sum_k a^k/(k(1-q^k)) delta_{k log(1/q)}, k >= 1.

    Its Laplace transform is -log (a q^s; q)_inf; the total mass equals
    -log (a; q)_inf.
    """
    if not 0 <= a < 1:
        raise DomainError("nu_a needs 0 <= a < 1")
    if not 0 < q < 1:
        raise DomainError("q must lie in (0, 1)")
    # a^k/(k(1-q^k)) <= a^k/(k(1-q)), so the terms past k = n+1 sum to at
    # most a^{n+2}/((n+2)(1-q)(1-a)).  No (C, rho) pair has that 1/(n+2),
    # but with 1/2 in its place the geometric cut is an n where it holds,
    # and the first such n is at or below that one; at a = 0 every term is 0
    top = geometric_cut(math.log(0.5 * a / ((1.0 - q) * (1.0 - a))),
                        math.log(a), tol)[0] if a > 0 else 0
    n = np.arange(top + 1)
    tails = a ** (n + 2) / ((n + 2) * (1.0 - q) * (1.0 - a))
    N = int(np.argmax(tails <= tol))
    k = n[:N + 1] + 1
    return AtomicMeasure.on_lattice((math.log(1.0 / q),), k,
                                    a ** k / (k * (1.0 - q ** k)),
                                    truncation_error=tails[N])


def _exp_series(jl, c0=1.0):
    """Taylor coefficients c_0..c_M of c0 exp(sum_m L_m z^m), given
    jl = (m L_m for m = 1..M), by the power-series recurrence
    n c_n = sum_{j<=n} j L_j c_{n-j} (Knuth, TAOCP vol. 2, 4.7).  c_n does
    not depend on M."""
    # c_n sits at rev[M - n], so that c_{n-1}, ..., c_0 are the contiguous
    # slice that np.dot pairs with jl[:n]
    M = len(jl)
    rev = np.zeros(M + 1)
    rev[M] = c0
    for n in range(1, M + 1):
        rev[M - n] = float(jl[:n].dot(rev[M - n + 1:])) / n
    return rev[::-1].copy()


def _radii(lo, hi):
    """Twelve fixed radii in (lo, hi), closing in on hi geometrically; the
    Cauchy bounds below take the best of them."""
    return np.array([lo + (hi - lo) * (1.0 - 0.5 ** j) for j in range(1, 13)])


@functools.lru_cache(maxsize=64)
def _tau_head(p):
    """The parts of tau_c's Cauchy bound that do not depend on c, shared by
    every c at one (a, b, q): (log (a;q)_inf - log (b;q)_inf,
    log (br;q)_inf - log (ar;q)_inf, log(1 - 1/r), -log r) over the
    radii r of :func:`_radii`, the arrays read-only.  Equal QParams, as
    with b = 0.0 and b = -0.0, give the same head."""
    a, b, q = p.a, p.b, p.q
    log_ab = math.log(qpoch(a, q)) - math.log(qpoch(b, q))
    radii = _radii(1.0, 1.0 / a)
    # log (z;q)_inf at z = b r and a r for all radii at once, each with the
    # factors that qpoch keeps for the largest z, a r_12
    qk = q ** np.arange(_factor_count(a * radii[-1], q))
    log_poch = np.log1p(-np.multiply.outer(qk, np.append(b * radii,
                                                         a * radii)))
    log_br, log_ar = np.split(log_poch.sum(axis=0), 2)
    head = (log_br - log_ar, np.log1p(-1.0 / radii), -np.log(radii))
    for array in head:
        array.flags.writeable = False
    return (log_ab,) + head


def _require_qbeta(p, c):
    """Refuse (p, c) outside the q-Beta semigroup: 0 <= b < a < 1 and
    0 < c < inf."""
    p.require_ordered()
    if not 0 < c < math.inf:
        raise DomainError("c must be positive and finite")


def _tau_lattice(p, c, order):
    """:func:`tau_c` cut where its tail bound amplified by
    ((N+1) log(1/q))^order meets DEFAULT_TOL.  Every weight is w_0 times a
    factor, so a w_0 below binary64's normal range is a RangeError."""
    _require_qbeta(p, c)
    a, b, q = p.a, p.b, p.q
    log1q = math.log(1.0 / q)
    log_ab, log_ba_r, log_1m_1r, log_rho = _tau_head(p)
    log_w0 = c * log_ab
    w0 = math.exp(log_w0)
    if w0 < sys.float_info.min:
        raise RangeError("w_0 = ((a;q)_inf/(b;q)_inf)^c = exp(%.6g) at "
                         "c = %s underflows binary64" % (log_w0, c))
    # log of F(r) / (1 - 1/r), the Cauchy bound before the factor r^{-N-1}
    log_head = log_w0 + c * log_ba_r - log_1m_1r
    N, tail = geometric_cut(log_head, log_rho, DEFAULT_TOL)
    # an amplification (order > 0) grows with N, so cutting again at the
    # tol it leaves at the last N climbs from this N, which is below, to
    # the first N that meets it
    last = None if order else N
    while N != last:
        last = N
        N, tail = geometric_cut(
            log_head, log_rho,
            DEFAULT_TOL / max(1.0, (N + 1) * log1q) ** order)
    j = np.arange(1, N + 1)
    w = _exp_series(c * (a ** j - b ** j) / (1.0 - q ** j), w0)
    return AtomicMeasure.on_lattice((log1q,), j, w[1:], zero_mass=w[0],
                                    truncation_error=tail)


def tau_c(p, c):
    """The lattice probability tau(a,b;q)_c: the convolution exponential
    ((a;q)_inf/(b;q)_inf)^c sum_k c^k (nu_a - nu_b)^{*k} / k!.

    Its weight w_n at n log(1/q) is the n'th Taylor coefficient of
    F(z) = ((a;q)_inf (bz;q)_inf / ((b;q)_inf (az;q)_inf))^c, computed by
    n w_n = c sum_{j<=n} (a^j - b^j)/(1 - q^j) w_{n-j} from
    w_0 = ((a;q)_inf/(b;q)_inf)^c.  The lattice is cut at the first N whose
    Cauchy bound sum_{n>N} w_n <= F(r) r^{-N-1} / (1 - 1/r), 1 < r < 1/a,
    stays below DEFAULT_TOL after amplifying by ((N+1) log(1/q))^8 for
    moments up to order 8: the atoms sit at the growing locations
    n log(1/q).  The unamplified bound is the truncation_error.  A w_0
    below the normal range of binary64 is a :class:`RangeError`.
    """
    return _tau_lattice(p, c, 8)


def mu_c(p, c):
    """The q-Beta semigroup member mu(a,b;q)_c: pushforward of tau_c under
    x -> e^{-x}; concentrated on {q^k} with moments ((a;q)_n/(b;q)_n)^c.

    The :func:`measures.pushforward` of the lattice of :func:`tau_c` (its
    head and weight recurrence, not a built tau_c) cut at its own N: the
    first whose Cauchy bound on the dropped mass meets DEFAULT_TOL,
    unamplified, as for :func:`mu_abq`.  The atoms sit at q^n <= 1, so the
    dropped atoms add at most their mass to any moment of order >= 0, and
    tau_c's amplification would only add atoms.

    The shorter cut leaves a heavier tail where x^z grows as x -> 0, so the
    error that :func:`measures.mellin` reports at Re z < 0, an estimate
    there and not a bound, misses more of it than it would at tau_c's
    cut.  :func:`mellin_qbeta` is the closed form.

    It lies on the lattice of :func:`mu_abq`, and :func:`_exp_neg_image`
    rules on the atoms whose image underflows for both, here at
    DEFAULT_TOL.  A w_0 below the normal range of binary64 is a
    :class:`RangeError`.
    """
    return _exp_neg_image(_tau_lattice(p, c, 0), DEFAULT_TOL)


def qbeta_moment_sequence(p, c=1.0):
    """The moment sequence ((a;q)_n/(b;q)_n)^c in closed form."""
    _require_qbeta(p, c)
    a, b, q = p.a, p.b, p.q
    return MomentSequence.from_log_steps(
        lambda k: math.log1p(-a * q ** k) - math.log1p(-b * q ** k), c)


def mellin_qbeta(p, c, z):
    """Closed-form Mellin transform of mu(a,b;q)_c:
    ((b q^z;q)_inf/(b;q)_inf / ((a q^z;q)_inf/(a;q)_inf))^c,
    valid on the strip Re z > log a / log q ... i.e. a q^{Re z} < 1."""
    _require_qbeta(p, c)
    a, b, q = p.a, p.b, p.q
    z = complex(z)
    if a * q ** z.real >= 1.0:
        raise DomainError(
            "Re z = %g outside the strip Re z > %g"
            % (z.real, math.log(a) / math.log(q)))
    qz = cmath.exp(z * math.log(q))
    ratio = (qpoch(complex(b) * qz, q) / qpoch(b, q)) \
        / (qpoch(complex(a) * qz, q) / qpoch(a, q))
    return _mellin_exp(c * cmath.log(ratio), z)


def _hp_log_terms(p_, q, M, z=1.0):
    """m L_m z^m for m = 1..M, where log h_p(z; q) = sum_m L_m z^m with
    L_m = (1 - p^m) q^m / (m (1 - q^m)^2).  Every term is nonnegative."""
    m = np.arange(1, M + 1, dtype=float)
    # in place, so that z as a column of radii makes one array of terms
    terms = (q * z) ** m
    terms *= 1.0 - p_ ** m
    terms /= (1.0 - q ** m) ** 2
    return terms


def hp_coefficients(p_, q, K):
    """Taylor coefficients c_0..c_K of
    h_p(z; q) = prod_{k>=1} ((1 - p z q^k)/(1 - z q^k))^k.

    Exponentiates log h_p = sum_m L_m z^m by the power-series recurrence
    n c_n = sum_{j<=n} j L_j c_{n-j} (Knuth, TAOCP vol. 2, 4.7).  Every
    term is nonnegative, so the coefficients are too, and c_n does not
    depend on K, which must be a nonnegative integer.
    """
    if not 0 <= p_ < 1:
        raise DomainError("p must lie in [0, 1)")
    if not 0 < q < 1:
        raise DomainError("q must lie in (0, 1)")
    K = int(_orders(K, "K"))
    with np.errstate(over="ignore", invalid="ignore"):
        c = _exp_series(_hp_log_terms(p_, q, K))
    finite = np.isfinite(c)
    if not finite.all():
        raise RangeError("h_p coefficient c_%d overflows binary64"
                         % np.argmin(finite))
    return PowerSeries(tuple(float(ck) for ck in c))


def sigma_abgamma(p, K=None):
    """The probability sigma_{a,b,gamma}: atoms at gamma q^k with weights
    c_k(b/a, q) a^k / h_{b/a}(a; q), for k <= K.

    With gamma = (b;q)_inf/(a;q)_inf its moments are the T-transform
    products prod_{k<=n} (b;q)_k/(a;q)_k.  The weights past K are
    bounded by Cauchy's estimate c_k <= h_p(r)/r^k for a < r < 1/q,
    with r the best of a fixed set of radii.  K = None takes the smallest
    K whose bound, divided by a lower bound on h_p(a), is at most
    DEFAULT_TOL; ids whose cut :func:`measures.geometric_cut` refuses, or
    whose weights overflow, are refused.  ``truncation_error`` is that
    bound divided by the sum of the kept weights, both evaluated in
    binary64 with no allowance for their rounding: an estimate of the
    dropped mass, not a proven bound.  A K given must be a nonnegative
    integer.
    """
    p.require_ordered()
    if K is not None:
        K = int(_orders(K, "K"))
    a, b, q = p.a, p.b, p.q
    gamma = qpoch(b, q) / qpoch(a, q)
    # sum_{k>K} c_k a^k <= h_p(r) (a/r)^{K+1} / (1 - a/r) for every radius
    # a < r < 1/q; taken in logs because h_p(r) overflows near 1/q.  One
    # row of M log-series terms per radius and a last row at a; past M,
    # L_m r^m <= (qr)^m / (m (1-q)^2).  That rest and log1p stay scalar:
    # numpy's array pow and log1p can move the last bit
    radii = _radii(a, 1.0 / q)
    M = 2000
    terms = _hp_log_terms(b / a, q, M, np.append(radii, a)[:, None])
    terms /= np.arange(1, M + 1)
    log_series = terms.sum(axis=1)
    log_head = np.array([
        log_hp + x ** (M + 1) / ((M + 1) * (1.0 - q) ** 2 * (1.0 - x))
        - math.log1p(-a / r)
        for log_hp, r, x in zip(log_series, radii, q * radii)])
    log_ratio = np.log(a / radii)
    if K is None:
        # the bound is divided by the kept weights, which come close to
        # h_p(a): every term of its log series is nonnegative, so M of
        # them, less a margin for rounding, bound log h_p(a) from below
        log_norm = float(log_series[-1]) * (1.0 - 1e-12)
        if log_norm > math.log(sys.float_info.max):
            raise DomainError("sigma_abgamma weights overflow")
        K, _ = geometric_cut(log_head - log_norm, log_ratio, DEFAULT_TOL)
    # c_k a^k directly, as the coefficients of h_p(a z): c_k alone overflows
    weights = _exp_series(_hp_log_terms(b / a, q, K, a))
    norm = float(weights.sum())
    if not math.isfinite(norm):
        raise DomainError("sigma_abgamma weights overflow")
    log_tail = float(np.min(log_head + (K + 1) * log_ratio)) - math.log(norm)
    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    locations = gamma * q ** np.arange(K + 1)
    # reversed, as from_pairs takes locations in ascending order
    return AtomicMeasure.from_pairs(
        np.column_stack((locations, weights / norm))[::-1],
        truncation_error=tail)
