"""Bernstein-function catalog and the product-moment machinery built on it.

Each catalog entry carries its closed form and, where available, a factory
for the analytic measure kappa with f'/f as Laplace transform.  A
constructor checks its own parameters only; the closed forms are checked
against kappa by the ``rep:`` and ``psi:`` verify checks.  From kappa the
module derives the measure sigma on (0, 1), the log-moment representation
log s_n = n log f(alpha) + integral of (x^n - 1 - n(x-1)) d sigma, and the
exponent psi with psi(n) = -log s_n.  :func:`psi`, :func:`lk_log_moment` and
:func:`log_moment_via_rep` each return a ``measures.MellinValue``: the value
with the error estimate of its one integral.
"""

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, PreconditionError, UnsupportedError
from .measures import (AtomicMeasure, DensityMeasure, MomentSequence,
                       _mellin_value, _orders, geometric_cut, integral,
                       pushforward)

#: the tolerance of the integrals over kappa and sigma behind :func:`psi`
#: and :func:`lk_log_moment`
REP_TOL = 1e-11


class BernsteinFunction(NamedTuple):
    """A catalog Bernstein function: its closed form, and where the catalog
    has one, a factory for its kappa."""

    catalog_id: str
    closed_form: Callable
    kappa_factory: Optional[Callable] = None  # () -> measure

    def __call__(self, s):
        return self.closed_form(s)


class LevyKhinchinRep(NamedTuple):
    """Symbols (a, b, sigma) of the log-moment representation
    log s_n = a n + b n^2 + integral (x^n - 1 - n(x-1)) d sigma."""

    a: float
    b: float
    sigma: Optional[object]  # AtomicMeasure | DensityMeasure | None


# ---------------------------------------------------------------------------
# catalog constructors

def affine(a):
    """f(s) = a + s with 0 < a < inf; kappa has density e^{-a x}."""
    if not 0 < a < math.inf:
        raise DomainError("affine catalog entry needs a positive and finite "
                          "(use linear() for a = 0)")
    return BernsteinFunction(
        "affine:%g" % a, lambda s: a + s,
        lambda: DensityMeasure(lambda x: np.exp(-a * x), (0.0, math.inf)))


def linear():
    """f(s) = s; kappa is Lebesgue measure on (0, inf)."""
    return BernsteinFunction(
        "linear", lambda s: s,
        lambda: DensityMeasure(
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            (0.0, math.inf)))


def ratio(a, b):
    """f(s) = (a + s)/(b + s), 0 < a < b < inf; kappa density e^{-ax} -
    e^{-bx}."""
    if not 0 < a < b < math.inf:
        raise DomainError("ratio catalog entry needs 0 < a < b < inf")
    return BernsteinFunction(
        "ratio:%g:%g" % (a, b), lambda s: (a + s) / (b + s),
        lambda: DensityMeasure(
            lambda x: np.exp(-a * x) - np.exp(-b * x), (0.0, math.inf)))


def mobius():
    """f(s) = s/(s + 1); kappa density 1 - e^{-x}."""
    return BernsteinFunction(
        "mobius", lambda s: s / (s + 1.0),
        lambda: DensityMeasure(lambda x: -np.expm1(-x), (0.0, math.inf)))


def qratio(a, b, q, tol=1e-14):
    """f(s) = (1 - a q^s)/(1 - b q^s), 0 <= b < a < 1, 0 < q < 1.

    kappa is atomic on the arithmetic lattice k log(1/q), with weight
    (a^k - b^k) log(1/q) at k log(1/q).  It is cut where the bound on the
    mass past the cut is at most ``tol``.
    """
    if not (0 <= b < a < 1):
        raise DomainError("qratio needs 0 <= b < a < 1")
    if not 0 < q < 1:
        raise DomainError("qratio needs 0 < q < 1")
    log1q = math.log(1.0 / q)

    def closed(s):
        return (1.0 - a * q ** s) / (1.0 - b * q ** s)

    def kappa_factory():
        # a^k - b^k <= a^k: the terms past k = N+1 sum to at most
        # log(1/q) a^{N+2} / (1 - a)
        N, tail = geometric_cut(math.log(log1q * a / (1.0 - a)), math.log(a),
                                tol)
        k = np.arange(1, N + 2)
        return AtomicMeasure.on_lattice((log1q,), k, (a ** k - b ** k) * log1q,
                                        truncation_error=tail)

    return BernsteinFunction("qratio:%g:%g:%g" % (a, b, q), closed,
                             kappa_factory)


def powertower():
    """f(s) = s (1 + 1/s)^{s+1}, closed form only; no analytic kappa.

    With alpha = beta = 1 the product moments telescope to (n+1)^{n+1}.
    """

    def closed(s):
        if s == 0:
            return 1.0
        return s * math.exp((s + 1.0) * math.log1p(1.0 / s))

    return BernsteinFunction("powertower", closed)


# ---------------------------------------------------------------------------
# operations

def kappa_of(f):
    """The measure with f'/f as Laplace transform, for catalog entries."""
    if f.kappa_factory is None:
        raise UnsupportedError(
            "%s has no analytic kappa in the catalog" % f.catalog_id)
    return f.kappa_factory()


def _log_start(f, alpha):
    """log f(alpha), the first factor of the moment product at alpha; a
    PreconditionError where f(alpha) is not positive."""
    start = f(alpha)
    if start <= 0:
        raise PreconditionError(
            "%s: f(alpha)=%g must be positive" % (f.catalog_id, start))
    return math.log(start)


def _require_alpha_beta(alpha, beta):
    if not (0 <= alpha < math.inf and 0 < beta < math.inf):
        raise DomainError("need finite alpha >= 0 and beta > 0")


def power_moments(f, alpha, beta):
    """The moment sequence s_n = f(alpha) f(alpha+beta) ... f(alpha+(n-1)beta).

    Accumulated in log domain.
    """
    _require_alpha_beta(alpha, beta)
    _log_start(f, alpha)
    return MomentSequence.from_log_steps(
        lambda k: math.log(f(alpha + k * beta)))


def _stable_centered_power(u, n):
    """x^n - 1 - n(x - 1) without cancellation near x = 1, by the recurrence
    c_1 = 0, c_{k+1} = x c_k + k (x - 1)^2, whose terms are all nonnegative
    for x > 0.

    ``n`` is an order or a sequence of K orders; one pass of the recurrence
    gives them all, as an array shaped like ``u`` or with K columns."""
    u = np.asarray(u, dtype=float)
    d2 = (u - 1.0) ** 2
    c = [np.zeros_like(u)] * 2
    for k in range(1, int(np.max(n))):
        c.append(u * c[-1] + k * d2)
    if np.ndim(n) == 0:
        return c[n]
    return np.stack([c[k] for k in n], axis=-1)


def sigma_of(f, alpha, beta):
    """The measure sigma on (0, 1): image of e^{-alpha x} d kappa(x) /
    (x (1 - e^{-beta x})) under x -> e^{-beta x}.

    For atomic kappa, on an arithmetic lattice as qratio's is, the
    exp-neg pushforward of kappa reweighted atom by atom; else a density.
    The atoms kappa drops lie past its last index, as qratio's do, and the
    factor e^{-alpha x}/(x (1 - e^{-beta x})) decreases in x.  So sigma's
    ``truncation_error`` is kappa's times that factor at the first dropped
    lattice point, raised by a relative 1e-12 for its rounding, and bounds
    the mass sigma drops.
    """
    _require_alpha_beta(alpha, beta)
    if alpha == 0 and f(0.0) <= 0:
        raise PreconditionError(
            "alpha = 0 requires f(0) > 0 for sigma to be integrable")
    kappa = kappa_of(f)
    if isinstance(kappa, AtomicMeasure):
        x = kappa.locations()
        x_0 = (int(kappa.index[-1]) + 1) * kappa.lattice[0]
        factor = math.exp(-alpha * x_0) / (x_0 * -math.expm1(-beta * x_0))
        return pushforward(AtomicMeasure.on_lattice(
            kappa.lattice, kappa.index,
            kappa.weights() * np.exp(-alpha * x) / (x * -np.expm1(-beta * x)),
            truncation_error=kappa.truncation_error * factor * (1.0 + 1e-12)),
            beta)

    dens_kappa = kappa.density

    def sigma_density(u):
        u = np.asarray(u, dtype=float)
        x = -np.log(u) / beta
        return (dens_kappa(x) * np.exp((alpha / beta - 1.0) * np.log(u))
                / (-np.log(u) * (1.0 - u)))

    return DensityMeasure(sigma_density, (0.0, 1.0))


def log_moment_via_rep(f, alpha, beta, n):
    """log s_n computed from the sigma-representation:
    n log f(alpha) + integral of (x^n - 1 - n(x-1)) d sigma.

    ``n`` may be a sequence of orders; they share one integral and give
    arrays.  Returns a MellinValue, as :func:`lk_log_moment` does."""
    return lk_log_moment(lk_rep_of(f, alpha, beta), n)


def psi(f, alpha, beta, z):
    """The Mellin exponent: psi(n) = -log s_n, defined for finite z with
    Re z >= 0.

    psi(z) = -z log f(alpha) + integral of
    ((1 - e^{-z beta x}) - z (1 - e^{-beta x})) e^{-alpha x}
    / (x (1 - e^{-beta x})) d kappa(x).

    Returns a MellinValue with the error estimate of the integral.  ``z``
    may be a sequence; its values share one integral and give arrays.  A
    real z stays real, so its integral is too.
    """
    _require_alpha_beta(alpha, beta)
    z = np.asarray(z)
    z = z.astype(complex if np.iscomplexobj(z) else float)
    if not (np.isfinite(z).all() and (z.real >= 0).all()):
        raise DomainError("psi requires a finite z with Re z >= 0")
    kappa = kappa_of(f)
    head = -z * _log_start(f, alpha)
    A = (z - z * z) / 2.0
    B = (z ** 3 - z) / 6.0
    C = -(z ** 4 - z) / 24.0

    def core(x):
        # ((1-e^{-z w}) - z(1-e^{-w})) / (x (1-e^{-w})), w = beta x,
        # with a series patch below w = 1e-4 (removable point at 0), times
        # e^{-alpha x}; one column per z when z is a sequence
        x = np.asarray(x, dtype=float).reshape((-1,) + (1,) * z.ndim)
        w = beta * x
        small = w <= 1e-4
        ws = np.where(small, 1.0, w)  # placeholder to avoid 0/0
        num = -np.expm1(-z * ws) + z * np.expm1(-ws)
        den = (ws / beta) * -np.expm1(-ws)
        direct = num / den
        series = beta * (A + (B + A / 2.0) * w
                         + (C + B / 2.0 + A / 12.0) * w * w)
        return np.where(small, series, direct) * np.exp(-alpha * x)

    r = integral(kappa, core, REP_TOL)
    return _mellin_value(head + r.value, r.abs_error)


def lk_rep_of(f, alpha, beta):
    """The (a, b, sigma) symbols of the log-moment representation for the
    moment product of f at (alpha, beta): a = log f(alpha), b = 0."""
    _require_alpha_beta(alpha, beta)
    return LevyKhinchinRep(_log_start(f, alpha), 0.0,
                           sigma_of(f, alpha, beta))


def lk_log_moment(rep, n):
    """log s_n from a Levy-Khinchin-type representation (a, b, sigma), as a
    MellinValue with the error estimate of the integral over sigma (0
    without one).

    ``n`` may be a sequence of orders; they share one integral and give
    arrays.  Each must be a nonnegative integer, by :func:`measures.moment`'s
    rule, else a DomainError."""
    orders = _orders(n)
    log_s = rep.a * orders + rep.b * orders * orders
    if rep.sigma is None or not orders.any():
        return _mellin_value(log_s, 0.0)
    ks = orders.astype(int)
    r = integral(rep.sigma, lambda u: _stable_centered_power(u, ks), REP_TOL)
    return _mellin_value(log_s + r.value, r.abs_error)
