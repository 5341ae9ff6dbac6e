"""q-series machinery: q-Pochhammer symbols, the q-Beta measure and its
product convolution semigroup, compound-Poisson lattice measures, and the
power-series measures of the T-transformed q-sequences.

All infinite objects are truncated against geometric tail majorants and
carry the resulting bound in ``truncation_error``.  Lattice measures live
on multiples of log(1/q), so additive convolution is an exact discrete
convolution of weight arrays.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError
from .measures import AtomicMeasure, pushforward

DEFAULT_TOL = 1e-14


@dataclass(frozen=True)
class QParams:
    """Parameter triple (a, b, q) with 0 < q < 1.

    Operations on the q-Beta family additionally require 0 <= b < a < 1.
    """

    a: float
    b: float
    q: float

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise DomainError("q must lie in (0, 1)")
        if not 0 <= self.a < 1 or not 0 <= self.b < 1:
            raise DomainError("a and b must lie in [0, 1)")

    def require_ordered(self):
        if not self.b < self.a:
            raise DomainError("this operation needs 0 <= b < a < 1")


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with coefficients c_0..c_K, valid |z| < 1."""

    coefficients: Tuple[float, ...]

    def __call__(self, z):
        return sum(c * z ** k for k, c in enumerate(self.coefficients))

    @property
    def degree(self):
        return len(self.coefficients) - 1


def qpoch(z, q, n=math.inf, tol=DEFAULT_TOL):
    """The q-shifted factorial (z; q)_n = prod_{k<n} (1 - z q^k).

    For n = inf the product is truncated once |z| q^k < tol (1 - q); the
    remaining factors differ from 1 by a geometrically small amount.
    Accepts complex z; for the infinite product |z| < 1/q is required so
    the truncation bound applies.
    """
    if not 0 < q < 1:
        raise DomainError("q must lie in (0, 1)")
    if n != math.inf:
        n = int(n)
        if n < 0:
            raise DomainError("n must be nonnegative or inf")
        result = 1.0 + 0.0j if isinstance(z, complex) else 1.0
        for k in range(n):
            result *= 1.0 - z * q ** k
        return result
    if abs(z) == 0:
        return 1.0
    result = 1.0 + 0.0j if isinstance(z, complex) else 1.0
    k = 0
    term = z
    while abs(term) >= tol * (1.0 - q):
        result *= 1.0 - term
        term *= q
        k += 1
        if k > 100000:
            raise DomainError("q-Pochhammer truncation did not converge")
    return result


def mu_abq(p, tol=DEFAULT_TOL):
    """The q-Beta probability on {q^k}: atoms at q^k with weight
    ((a;q)_inf/(b;q)_inf) ((b/a;q)_k/(q;q)_k) a^k, for 0 <= b < a < 1.

    Truncated where the geometric tail majorant drops below tol.
    """
    p.require_ordered()
    a, b, q = p.a, p.b, p.q
    prefactor = qpoch(a, q) / qpoch(b, q)
    qq_inf = qpoch(q, q)
    pairs = []
    ratio_poch = 1.0  # (b/a; q)_k
    q_poch = 1.0      # (q; q)_k
    a_pow = 1.0
    k = 0
    while True:
        pairs.append((q ** k, prefactor * ratio_poch / q_poch * a_pow))
        # (b/a;q)_k <= 1 and (q;q)_k >= (q;q)_inf give a geometric majorant
        tail = prefactor * a_pow * a / ((1.0 - a) * qq_inf)
        if tail < tol:
            break
        ratio_poch *= 1.0 - (b / a) * q ** k
        q_poch *= 1.0 - q ** (k + 1)
        a_pow *= a
        k += 1
        if k > 100000:
            raise DomainError("mu_abq truncation did not converge")
    return AtomicMeasure.from_pairs(pairs, truncation_error=tail)


def qbinomial_check(a, z, q, N=6, K=80):
    """Residual of the q-binomial identity
    sum_k (z;q)_k/(q;q)_k x^k = (zx;q)_inf / (x;q)_inf at x = a q^n.

    Returns the maximum absolute residual over n <= N with the series
    truncated at K terms.
    """
    worst = 0.0
    for n in range(N + 1):
        x = a * q ** n
        series = 0.0
        z_poch = 1.0
        q_poch = 1.0
        x_pow = 1.0
        for k in range(K + 1):
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
    if a == 0:
        return AtomicMeasure((), truncation_error=0.0)
    log1q = math.log(1.0 / q)
    pairs = []
    k = 1
    while True:
        pairs.append((k * log1q, a ** k / (k * (1.0 - q ** k))))
        tail = a ** (k + 1) / ((k + 1) * (1.0 - q) * (1.0 - a))
        if tail < tol:
            break
        k += 1
        if k > 100000:
            raise DomainError("nu_a truncation did not converge")
    return AtomicMeasure.from_pairs(pairs, truncation_error=tail)


def _exp_series(jl, c0=1.0):
    """Taylor coefficients c_0..c_M of c0 exp(sum_m L_m z^m), given
    jl = (m L_m for m = 1..M), by the power-series recurrence
    n c_n = sum_{j<=n} j L_j c_{n-j} (Knuth, TAOCP vol. 2, 4.7).  c_n does
    not depend on M."""
    c = np.zeros(len(jl) + 1)
    c[0] = c0
    for n in range(1, len(c)):
        c[n] = np.dot(jl[:n], c[n - 1::-1]) / n
    return c


def _radii(lo, hi):
    """Twelve fixed radii in (lo, hi), closing in on hi geometrically; the
    Cauchy bounds below take the best of them."""
    return np.array([lo + (hi - lo) * (1.0 - 0.5 ** j) for j in range(1, 13)])


def tau_c(p, c, tol=DEFAULT_TOL):
    """The lattice probability tau(a,b;q)_c: the convolution exponential
    ((a;q)_inf/(b;q)_inf)^c sum_k c^k (nu_a - nu_b)^{*k} / k!.

    Its weight w_n at n log(1/q) is the n'th Taylor coefficient of
    F(z) = ((a;q)_inf (bz;q)_inf / ((b;q)_inf (az;q)_inf))^c, computed by
    n w_n = c sum_{j<=n} (a^j - b^j)/(1 - q^j) w_{n-j} from
    w_0 = ((a;q)_inf/(b;q)_inf)^c.  The lattice is cut at the first N whose
    Cauchy bound sum_{n>N} w_n <= F(r) r^{-N-1} / (1 - 1/r), 1 < r < 1/a,
    stays below tol after amplifying by ((N+1) log(1/q))^8 for moments up
    to order 8; the unamplified bound is the truncation_error.
    """
    p.require_ordered()
    if c <= 0:
        raise DomainError("c must be positive")
    a, b, q = p.a, p.b, p.q
    log1q = math.log(1.0 / q)
    log_w0 = c * (math.log(qpoch(a, q)) - math.log(qpoch(b, q)))
    radii = _radii(1.0, 1.0 / a)
    # log of F(r) / (1 - 1/r), the Cauchy bound before the factor r^{-N-1}
    log_head = np.array([
        log_w0 + c * (math.log(qpoch(b * r, q)) - math.log(qpoch(a * r, q)))
        - math.log1p(-1.0 / r) for r in radii])
    log_r = np.log(radii)
    N = 0
    while True:
        log_tail = float(np.min(log_head - (N + 1) * log_r))
        if log_tail + 8.0 * math.log(max(1.0, (N + 1) * log1q)) \
                <= math.log(tol):
            break
        N += 1
        if N > 100000:
            raise DomainError("tau_c truncation did not converge")
    j = np.arange(1, N + 1)
    w = _exp_series(c * (a ** j - b ** j) / (1.0 - q ** j), math.exp(log_w0))
    pairs = [(n * log1q, wn) for n, wn in enumerate(w[1:], 1)]
    return AtomicMeasure.from_pairs(pairs, zero_mass=w[0],
                                    truncation_error=math.exp(log_tail))


def mu_c(p, c, tol=DEFAULT_TOL):
    """The q-Beta semigroup member mu(a,b;q)_c: pushforward of tau_c under
    x -> e^{-x}; concentrated on {q^k} with moments ((a;q)_n/(b;q)_n)^c."""
    tau = tau_c(p, c, tol=tol)
    return pushforward(tau, "exp-neg", 1.0)


def qbeta_moment_sequence(p, c=1.0):
    """The moment sequence ((a;q)_n/(b;q)_n)^c in closed form."""
    from .measures import MomentSequence
    p.require_ordered()
    if c <= 0:
        raise DomainError("c must be positive")
    a, b, q = p.a, p.b, p.q

    def log_fn(n):
        total = 0.0
        for k in range(n):
            total += math.log1p(-a * q ** k) - math.log1p(-b * q ** k)
        return c * total

    return MomentSequence(log_fn=log_fn, normalized=True)


def mellin_qbeta(p, c, z, tol=DEFAULT_TOL):
    """Closed-form Mellin transform of mu(a,b;q)_c:
    ((b q^z;q)_inf/(b;q)_inf / ((a q^z;q)_inf/(a;q)_inf))^c,
    valid on the strip Re z > log a / log q ... i.e. a q^{Re z} < 1."""
    p.require_ordered()
    if c <= 0:
        raise DomainError("c must be positive")
    a, b, q = p.a, p.b, p.q
    z = complex(z)
    if a * q ** z.real >= 1.0:
        raise DomainError(
            "Re z = %g outside the strip Re z > %g"
            % (z.real, math.log(a) / math.log(q)))
    qz = cmath.exp(z * math.log(q))
    ratio = (qpoch(complex(b) * qz, q, tol=tol) / qpoch(b, q, tol=tol)) \
        / (qpoch(complex(a) * qz, q, tol=tol) / qpoch(a, q, tol=tol))
    value = cmath.exp(c * cmath.log(ratio))
    if z.imag == 0:
        return complex(value.real, 0.0)
    return value


def _hp_log_terms(p_, q, M, z=1.0):
    """m L_m z^m for m = 1..M, where log h_p(z; q) = sum_m L_m z^m with
    L_m = (1 - p^m) q^m / (m (1 - q^m)^2).  Every term is nonnegative."""
    m = np.arange(1, M + 1, dtype=float)
    return (1.0 - p_ ** m) * (q * z) ** m / (1.0 - q ** m) ** 2


def hp_coefficients(p_, q, K):
    """Taylor coefficients c_0..c_K of
    h_p(z; q) = prod_{k>=1} ((1 - p z q^k)/(1 - z q^k))^k.

    Exponentiates log h_p = sum_m L_m z^m by the power-series recurrence
    n c_n = sum_{j<=n} j L_j c_{n-j} (Knuth, TAOCP vol. 2, 4.7).  Every
    term is nonnegative, so the coefficients are too, and c_n does not
    depend on K.
    """
    if not 0 <= p_ < 1:
        raise DomainError("p must lie in [0, 1)")
    if not 0 < q < 1:
        raise DomainError("q must lie in (0, 1)")
    if K < 0:
        raise DomainError("K must be nonnegative")
    c = _exp_series(_hp_log_terms(p_, q, K))
    return PowerSeries(tuple(float(ck) for ck in c))


def _log_hp_upper(p_, q, r):
    """An upper bound on log h_p(r; q) for 0 < r < 1/q: M = 2000 terms of
    the log series plus the rest, bounded by
    L_m r^m <= (qr)^m / (m (1-q)^2)."""
    M = 2000
    head = float(np.sum(_hp_log_terms(p_, q, M, r) / np.arange(1, M + 1)))
    x = q * r
    return head + x ** (M + 1) / ((M + 1) * (1.0 - q) ** 2 * (1.0 - x))


def sigma_abgamma(p, gamma=None, K=None):
    """The probability sigma_{a,b,gamma}: atoms at gamma q^k with weights
    c_k(b/a, q) a^k / h_{b/a}(a; q), for k <= K.

    With gamma = (b;q)_inf/(a;q)_inf (the default) its moments are the
    T-transform products prod_{k<=n} (b;q)_k/(a;q)_k.  The weights past K
    are bounded by Cauchy's estimate c_k <= h_p(r)/r^k for a < r < 1/q,
    with r the best of a fixed set of radii.  K = None takes the smallest
    K whose bound is at most DEFAULT_TOL; ids that need more than 100000
    weights, or whose weights overflow, are refused.
    """
    p.require_ordered()
    a, b, q = p.a, p.b, p.q
    if gamma is None:
        gamma = qpoch(b, q) / qpoch(a, q)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    # sum_{k>K} c_k a^k <= h_p(r) (a/r)^{K+1} / (1 - a/r) for every radius
    # a < r < 1/q; taken in logs because h_p(r) overflows near 1/q
    radii = _radii(a, 1.0 / q)
    log_head = np.array([_log_hp_upper(b / a, q, r) - math.log1p(-a / r)
                         for r in radii])
    log_ratio = np.log(radii / a)
    if K is None:
        # the weights sum to at least c_0 = 1, so the unnormalized bound
        # suffices
        K = max(0, math.ceil(float(np.min(
            (log_head - math.log(DEFAULT_TOL)) / log_ratio))) - 1)
        if K > 100000:
            raise DomainError("sigma_abgamma: no K <= 100000 bounds the tail"
                              " by %g" % DEFAULT_TOL)
    # c_k a^k directly, as the coefficients of h_p(a z): c_k alone overflows
    weights = _exp_series(_hp_log_terms(b / a, q, K, a))
    norm = float(weights.sum())
    if not math.isfinite(norm):
        raise DomainError("sigma_abgamma weights overflow")
    log_tail = float(np.min(log_head - (K + 1) * log_ratio)) - math.log(norm)
    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    pairs = [(gamma * q ** k, w / norm)
             for k, w in enumerate(weights) if w != 0.0]
    return AtomicMeasure.from_pairs(pairs, truncation_error=tail)
