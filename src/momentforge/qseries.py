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


def _levy_weights(p, tol):
    """Lattice weights (index k >= 1) of nu_a - nu_b, plus dropped tail."""
    a, b, q = p.a, p.b, p.q
    weights = [0.0]
    k = 1
    while True:
        weights.append((a ** k - b ** k) / (k * (1.0 - q ** k)))
        tail = a ** (k + 1) / ((k + 1) * (1.0 - q) * (1.0 - a))
        if tail < tol:
            return np.array(weights), tail
        k += 1
        if k > 100000:
            raise DomainError("Levy weight truncation did not converge")


def tau_c(p, c, tol=DEFAULT_TOL, k_exp=None):
    """The lattice probability tau(a,b;q)_c: the convolution exponential
    ((a;q)_inf/(b;q)_inf)^c sum_k c^k (nu_a - nu_b)^{*k} / k!.

    Weight arrays are convolved on the common lattice log(1/q); the series
    is cut at k_exp terms (chosen automatically when omitted) with the
    remainder bounded by (c m)^{k_exp+1}/(k_exp+1)! e^{c m} for m the Levy
    mass.  Dropped lattice mass is computed exactly against e^{c m}.
    """
    p.require_ordered()
    if c <= 0:
        raise DomainError("c must be positive")
    log1q = math.log(1.0 / p.q)
    user_k_exp = k_exp
    # moments of order up to 8 amplify the truncated tail by location^8, so
    # the internal tolerance is tightened until the amplified bound fits
    tol_eff = tol
    for _ in range(12):
        lam, levy_tail = _levy_weights(p, tol_eff)
        mass = float(lam.sum())
        locs8 = (np.arange(len(lam)) * log1q) ** 8
        # 8th-moment radius of the normalized Levy weights; convolution
        # order j has radius at most j times this (Minkowski)
        lam_r = (float(lam @ locs8) / mass) ** 0.125
        k_exp = user_k_exp
        if k_exp is None:
            k_exp = 1
            while True:
                log_rem = ((k_exp + 1) * math.log(max(c * mass, 1e-300))
                           - math.lgamma(k_exp + 2) + c * mass
                           + 8.0 * math.log(max(1.0, (k_exp + 1) * lam_r)))
                if log_rem < math.log(max(0.25 * tol, 1e-300)):
                    break
                k_exp += 1
                if k_exp > 10000:
                    raise DomainError("k_exp selection did not converge")
        if k_exp < 1:
            raise DomainError("k_exp must be >= 1")
        series_rem = math.exp(
            min(700.0, (k_exp + 1) * math.log(max(c * mass, 1e-300))
                - math.lgamma(k_exp + 2) + c * mass))
        ser_amp = max(1.0, (k_exp + 1) * lam_r) ** 8
        # the convolution powers are held on their full lattice support, so
        # the only dropped mass comes from the exponential-series cut and
        # the Levy-weight cut
        cap = k_exp * (len(lam) - 1) + 1
        acc = np.zeros(cap)
        acc[0] = 1.0
        power = np.zeros(cap)
        power[0] = 1.0
        factor = 1.0
        for j in range(1, k_exp + 1):
            power = np.convolve(power, lam)[:cap]
            factor *= c / j
            acc = acc + factor * power
        # dropped Levy mass sits just past the cut; moments up to order 8
        # amplify it by (cut location + measure radius)^8 at most
        m8 = (float(acc @ (np.arange(cap) * log1q) ** 8)
              / float(acc.sum())) ** 0.125
        amp_levy = max(1.0, len(lam) * log1q + m8) ** 8
        err_amp = c * levy_tail * amp_levy + series_rem * ser_amp
        if err_amp < tol or tol_eff <= 1e-250:
            break
        tol_eff = max(min(tol_eff * 1e-2, 0.1 * tol / (max(c, 1.0)
                                                       * amp_levy)),
                      1e-250)
    dropped = max(math.exp(c * mass) - float(acc.sum()) - series_rem, 0.0)
    # ((a;q)_inf/(b;q)_inf)^c = e^{-c m} for the full Levy mass m; the
    # series uses the truncated mass, so the mass deficit c*levy_tail
    # joins the error bound
    prefactor = (qpoch(p.a, p.q) / qpoch(p.b, p.q)) ** c
    pairs = [(k * log1q, prefactor * w)
             for k, w in enumerate(acc) if k > 0 and w != 0.0]
    zero = prefactor * acc[0]
    err = prefactor * (max(dropped, 0.0) + series_rem) + c * levy_tail
    return AtomicMeasure.from_pairs(pairs, zero_mass=zero,
                                    truncation_error=err)


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
    jl = _hp_log_terms(p_, q, K)
    c = np.zeros(K + 1)
    c[0] = 1.0
    for n in range(1, K + 1):
        c[n] = np.dot(jl[:n], c[n - 1::-1]) / n
    return PowerSeries(tuple(float(ck) for ck in c))


def _log_hp_upper(p_, q, r):
    """An upper bound on log h_p(r; q) for 0 < r < 1/q: M = 2000 terms of
    the log series plus the rest, bounded by
    L_m r^m <= (qr)^m / (m (1-q)^2)."""
    M = 2000
    head = float(np.sum(_hp_log_terms(p_, q, M, r) / np.arange(1, M + 1)))
    x = q * r
    return head + x ** (M + 1) / ((M + 1) * (1.0 - q) ** 2 * (1.0 - x))


def sigma_abgamma(p, gamma=None, K=200):
    """The probability sigma_{a,b,gamma}: atoms at gamma q^k with weights
    c_k(b/a, q) a^k / h_{b/a}(a; q).

    With gamma = (b;q)_inf/(a;q)_inf (the default) its moments are the
    T-transform products prod_{k<=n} (b;q)_k/(a;q)_k.  The weights past K
    are bounded by Cauchy's estimate c_k <= h_p(r)/r^k for a < r < 1/q,
    with r the best of a fixed set of radii.
    """
    p.require_ordered()
    a, b, q = p.a, p.b, p.q
    if gamma is None:
        gamma = qpoch(b, q) / qpoch(a, q)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    series = hp_coefficients(b / a, q, K)
    weights = np.array(series.coefficients) * a ** np.arange(K + 1)
    norm = float(weights.sum())
    # sum_{k>K} c_k a^k <= h_p(r) (a/r)^{K+1} / (1 - a/r) for every radius
    # a < r < 1/q; taken in logs because h_p(r) overflows near 1/q
    radii = [a + (1.0 / q - a) * (1.0 - 0.5 ** j) for j in range(1, 13)]
    log_tail = min(_log_hp_upper(b / a, q, r) + (K + 1) * math.log(a / r)
                   - math.log1p(-a / r) for r in radii) - math.log(norm)
    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    pairs = [(gamma * q ** k, w / norm)
             for k, w in enumerate(weights) if w != 0.0]
    return AtomicMeasure.from_pairs(pairs, truncation_error=tail)
