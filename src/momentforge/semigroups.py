"""Closed-form product convolution semigroups: Gamma, Beta and the
q-log-normal family, plus the T-transform on Hausdorff moment sequences.

Fractional powers (c != 1) are exposed only through moments and Mellin
transforms; densities exist in closed form for c = 1 only.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, RangeError, UnsupportedError
from .measures import DensityMeasure, MomentSequence

#: B_{2k} / (2k (2k - 1)) for k = 1..8, the Stirling series of log Gamma
#: (DLMF 5.11.1)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0,
             -3617.0 / 122400.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(z):
    """S(z) = log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2, as eight
    terms of the Stirling series; for Re z >= 15 the first omitted term is
    below 2e-21."""
    w = 1.0 / (z * z)
    series = 0j
    for coeff in reversed(_STIRLING):
        series = series * w + coeff
    return series / z


def _loggamma(z):
    """log Gamma(z) for Re z > 0, on the branch continuous from the
    positive real axis (the analytic continuation of math.lgamma).

    Shifts z by Gamma(z) = Gamma(z + 1)/z until Re z >= 15, then adds
    the Stirling tail :func:`_stirling_tail`.  Every log(z + k) is
    principal and Re(z + k) > 0, so the sum stays on that branch, which
    matters when the result is scaled by a non-integer power before it is
    exponentiated.
    """
    z = complex(z)
    shift = 0j
    while z.real < 15.0:
        shift += cmath.log(z)
        z += 1.0
    return ((z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + _stirling_tail(z)
            - shift)


def _log_gamma_ratio(a, z):
    """log(Gamma(a + z)/Gamma(a)) for real a > 0 and Re(a + z) > 0, on the
    branch of :func:`_loggamma`.

    Where a >= 15, Re(a + z) >= 15 and |z| <= a/2, it is
    (a - 1/2) log(1 + z/a) + z log(a + z) - z + S(a + z) - S(a), with the
    real part of log(1 + u) as log1p(2 Re u + |u|^2)/2: the difference of
    the two log-gammas, each of size a log a, would lose a ratio's digits
    to rounding there.  Elsewhere it is that difference: past |z| = a/2,
    2 Re u + |u|^2 itself cancels as u nears -1.
    """
    w = a + z
    if a < 15.0 or w.real < 15.0 or abs(z) > 0.5 * a:
        return _loggamma(w) - _loggamma(a)
    u = z / a
    log1p_u = complex(0.5 * math.log1p(2.0 * u.real + abs(u) ** 2),
                      math.atan2(u.imag, 1.0 + u.real))
    return ((a - 0.5) * log1p_u + z * cmath.log(w) - z
            + _stirling_tail(w) - _stirling_tail(a))


def _mellin_exp(exponent, z):
    """exp(exponent), a Mellin value at z: real when z is, and a
    RangeError when it leaves binary64, above or below, or when the
    exponent already has (log-gamma overflows before exp does, to inf or,
    from inf - inf, nan).
    """
    try:
        value = cmath.exp(exponent) if cmath.isfinite(exponent) else None
    except OverflowError:
        value = None
    if value is None:
        raise RangeError("Mellin transform at z = %s overflows binary64"
                         % z)
    if value == 0:
        raise RangeError("Mellin transform at z = %s underflows binary64"
                         % z)
    if z.imag == 0:
        return complex(value.real, 0.0)
    return value


#: the ``_make`` of a named tuple whose ``__new__`` checks its fields:
#: the named tuple's own, behind ``_replace``, skips ``__new__``
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class GammaFamily(namedtuple("GammaFamily", "a c")):
    """Product convolution powers of the Gamma distribution with shape a."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a, c=1.0):
        if not (0 < a < math.inf and 0 < c < math.inf):
            raise DomainError("GammaFamily needs a and c positive and finite")
        return super().__new__(cls, a, c)


class BetaFamily(namedtuple("BetaFamily", "a b c")):
    """Product convolution powers of the Beta-type law with moments
    (a)_n/(b)_n, 0 < a < b."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a, b, c=1.0):
        if not 0 < a < b < math.inf:
            raise DomainError("BetaFamily needs 0 < a < b < inf")
        if not 0 < c < math.inf:
            raise DomainError("BetaFamily needs c positive and finite")
        return super().__new__(cls, a, b, c)


class LogNormalQFamily(namedtuple("LogNormalQFamily", "q c")):
    """The log-normal semigroup with moments q^{-c n(n+1)/2}."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, q, c=1.0):
        if not 0 < q < 1:
            raise DomainError("LogNormalQFamily needs 0 < q < 1")
        if not 0 < c < math.inf:
            raise DomainError("LogNormalQFamily needs c positive and finite")
        return super().__new__(cls, q, c)


def gamma_density(fam):
    """Density x^{a-1} e^{-x} / Gamma(a) on (0, inf); c = 1 only."""
    if fam.c != 1.0:
        raise UnsupportedError(
            "no closed-form density for gamma powers with c != 1")
    a = fam.a
    log_norm = math.lgamma(a)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.exp((a - 1.0) * np.log(x) - x - log_norm)

    return DensityMeasure(density, (0.0, math.inf), strip_min_re=-a)


def gamma_mellin(fam, z):
    """(Gamma(a+z)/Gamma(a))^c, for Re z > -a."""
    z = complex(z)
    if z.real <= -fam.a:
        raise DomainError("gamma Mellin transform needs Re z > -a")
    return _mellin_exp(fam.c * _log_gamma_ratio(fam.a, z), z)


def beta_density(fam):
    """Density x^{a-1}(1-x)^{b-a-1}/B(a, b-a) on (0, 1); c = 1 only."""
    if fam.c != 1.0:
        raise UnsupportedError(
            "no closed-form density for beta powers with c != 1")
    a, b = fam.a, fam.b
    log_norm = math.lgamma(a) + math.lgamma(b - a) - math.lgamma(b)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.exp((a - 1.0) * np.log(x)
                      + (b - a - 1.0) * np.log1p(-x) - log_norm)

    return DensityMeasure(density, (0.0, 1.0), strip_min_re=-a)


def beta_mellin(fam, z):
    """((Gamma(a+z)/Gamma(a)) / (Gamma(b+z)/Gamma(b)))^c, Re z > -a."""
    z = complex(z)
    if z.real <= -fam.a:
        raise DomainError("beta Mellin transform needs Re z > -a")
    a, b = fam.a, fam.b
    if b < 15.0:
        # a < b < 15, where both ratios are plain log-gamma differences:
        # one chain of the four keeps the last bit of every value there
        exponent = _loggamma(a + z) - _loggamma(a) - _loggamma(b + z) \
            + _loggamma(b)
    else:
        exponent = _log_gamma_ratio(a, z) - _log_gamma_ratio(b, z)
    return _mellin_exp(fam.c * exponent, z)


def vc_density(fam):
    """The density with Mellin transform q^{-c z(z+1)/2}:

    v_c(x) = q^{c/8} / sqrt(2 pi log(1/q^c)) x^{-1/2}
             exp(-(log x)^2 / (2 log(1/q^c))), x > 0.
    """
    L = fam.c * math.log(1.0 / fam.q)
    norm = fam.q ** (fam.c / 8.0) / math.sqrt(2.0 * math.pi * L)

    def density(x):
        x = np.asarray(x, dtype=float)
        logx = np.log(x)
        return norm * np.exp(-0.5 * logx - logx * logx / (2.0 * L))

    return DensityMeasure(density, (0.0, math.inf))


def vc_mellin(fam, z):
    """q^{-c z(z+1)/2}, entire in z."""
    z = complex(z)
    return _mellin_exp(0.5 * fam.c * z * (z + 1.0) * math.log(1.0 / fam.q),
                       z)


def t_transform(a):
    """Map a normalized nonvanishing Hausdorff sequence (a_n) to
    s_n = 1/(a_1 ... a_n); log-domain accumulation."""
    if a(0) != 1.0:
        raise DomainError("input sequence must be normalized (a_0 = 1)")

    def step(k):
        value = a(k + 1)
        if value <= 0:
            raise DomainError("a_%d = %g must be positive" % (k + 1, value))
        return -math.log(value)

    return MomentSequence.from_log_steps(step)
