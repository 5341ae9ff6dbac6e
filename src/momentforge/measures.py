"""Measures on the positive half-line and their moment/Mellin operations.

Two carriers are provided: :class:`AtomicMeasure` for finite weighted sums
of point masses (with an optional mass at zero and a recorded bound on
discarded tail mass), and :class:`DensityMeasure` for nonnegative densities
on an interval or a half-line.  Every way to build an atomic measure checks
its input, whose locations must ascend; the measure stores its locations
and weights once, as read-only float64 arrays, and derives its ``atoms``
pairs from them when they are read.  A measure built :meth:`on a lattice
<AtomicMeasure.on_lattice>` also records the lattice and each atom's index;
on the geometric lattice it alone moves the weight of an atom whose
location underflows to 0 into ``truncation_error``.
:func:`integral` is the one place that chooses between a sum over the
atoms and quadrature over the density's support.  It returns a
:class:`MellinValue`, the value with its absolute error estimate, and so
do :func:`moment` (of one order, or of a sequence of orders in one call),
:func:`mellin` and :meth:`AtomicMeasure.laplace`, which go through it; so
do ``bernstein.psi`` and ``bernstein.lk_log_moment``.  The catalog's
moment and Mellin evaluators still pass on the value alone.
Product and additive convolution convolve the weights of two measures on
one lattice by index; the exp-neg pushforward maps the arithmetic lattice
to the geometric one.

All values are immutable after construction and every operation is pure.
"""

import math
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, RangeError
from .quadrature import integrate

#: the most terms a truncated lattice series may keep
_MAX_TERMS = 100000


def geometric_cut(log_head, log_ratio, tol):
    """(N, bound) for a series whose terms past index N sum to at most
    C rho^{N+1}, given log C and log rho < 0 (scalars, or arrays of
    alternative (C, rho) pairs).

    N >= 0 is the smallest index at which the best pair's bound is at
    most ``tol``; the bound is the best pair's value there.  Each C is
    raised by a relative 1e-12, which covers the rounding of the logs
    while they stay below 10^3 in magnitude.  Raises
    :class:`DomainError` when that takes more than _MAX_TERMS terms.

    Two Python floats, with log rho < 0, take the same operations in plain
    floats, which round as numpy's do.
    """
    if type(log_head) is float and type(log_ratio) is float \
            and log_ratio < 0:
        least = float
    else:
        log_head = np.asarray(log_head, dtype=float)
        least = np.min
    log_head = log_head + 1e-12
    steps = least((log_head - math.log(tol)) / -log_ratio)
    if not steps <= _MAX_TERMS:
        raise DomainError("the lattice needs more than %d terms to bound "
                          "its tail by %g" % (_MAX_TERMS, tol))
    N = max(0, math.ceil(steps) - 1)
    return N, math.exp(least(log_head + (N + 1) * log_ratio))


def _in_order(values):
    """The sum of ``values`` added in order, as a float: cumsum adds in
    order where np.sum adds pairwise (and Python's sum, from 3.12,
    compensates)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


class MellinValue(NamedTuple):
    """A value together with its absolute error estimate, as every
    integral against a measure returns it; both are arrays, one entry per
    order or argument, when the evaluator was given a sequence."""

    value: complex
    abs_error: float = 0.0


class AtomicMeasure:
    """Finite weighted point-mass list on (0, inf) plus optional mass at 0.

    Built from an (n, 2) array-like of (location, weight) pairs, or by
    :meth:`on_lattice`, which also sets ``lattice`` and ``index`` (else
    None).  Every way in checks that values are finite, locations > 0 and
    ascending (strictly, or by lattice index) and weights >= 0, drops zero
    weights, and raises :class:`DomainError` on bad input.  The locations
    and weights are stored once as read-only float64 arrays, from which
    ``atoms`` builds its pairs when read.  Assigning an attribute raises.

    ``truncation_error`` bounds the total mass discarded when an infinite
    atomic measure was truncated; it is carried through all operations.
    """

    __slots__ = ("_loc", "_wt", "lattice", "index", "zero_mass",
                 "truncation_error")

    #: an atomic measure integrates x^z for every z (no strip edge)
    strip_min_re = None

    def __init__(self, atoms, zero_mass=0.0, truncation_error=0.0):
        try:
            loc, wt = np.asarray(atoms, dtype=float).reshape(len(atoms), 2).T
        except (TypeError, ValueError):
            raise DomainError("atoms must be n (location, weight) pairs") \
                from None
        self._fill(loc, wt, zero_mass, truncation_error, None, None)

    @classmethod
    def on_lattice(cls, lattice, index, weights, zero_mass=0.0,
                   truncation_error=0.0):
        """``weights`` at integer ``index`` >= 0: at index * h, ascending, on
        the arithmetic ``lattice`` (h,), at exp(-beta * (index * h)),
        descending, on the geometric one (h, beta); h and beta must be
        positive and finite.  On the geometric lattice an index whose
        location underflows to 0 is dropped and its weight joins
        ``truncation_error``, these weights added in ascending index
        order.  Two indices may share a subnormal location."""
        if not all(0 < v < math.inf for v in lattice):
            raise DomainError("lattice h and beta must be positive and finite")
        index = np.asarray(index, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        # the location order: index ascends on n h, descends on e^{-beta n h}
        step = (index[1:] - index[:-1] if len(lattice) == 1
                else index[:-1] - index[1:])
        if not ((index >= 0).all() and (step > 0).all()):
            raise DomainError("lattice index must be >= 0, in location order")
        x = index * lattice[0]
        if len(lattice) > 1:
            # the indices whose location underflows to 0, the largest, lead
            x = np.exp(-lattice[1] * x)
            kept = x > 0.0
            lost = weights[~kept][::-1]
            if not (lost >= 0).all():
                raise DomainError("lattice weights must be >= 0")
            truncation_error = truncation_error + _in_order(lost)
            x, index, weights = x[kept], index[kept], weights[kept]
        m = object.__new__(cls)
        m._fill(x, weights, zero_mass, truncation_error, tuple(lattice),
                index)
        return m

    def _fill(self, loc, wt, zero_mass, truncation_error, lattice, index):
        if not (0 <= zero_mass < math.inf and truncation_error >= 0):
            raise DomainError("zero_mass and truncation_error must be >= 0")
        kept = wt != 0.0
        if not (np.isfinite(loc).all() and np.isfinite(wt).all()
                and (loc[kept] > 0).all() and (wt[kept] > 0).all()):
            raise DomainError("atoms must be finite, locations > 0, "
                              "weights >= 0")
        loc, wt = loc[kept], wt[kept]
        if index is not None:
            index = index[kept]
            index.flags.writeable = False
        elif not (loc[1:] > loc[:-1]).all():
            raise DomainError("atom locations must be strictly ascending")
        loc.flags.writeable = wt.flags.writeable = False
        for name, value in (("_loc", loc), ("_wt", wt), ("lattice", lattice),
                            ("index", index), ("zero_mass", float(zero_mass)),
                            ("truncation_error", float(truncation_error))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError("an AtomicMeasure is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return ((self.atoms, self.zero_mass, self.truncation_error)
                == (other.atoms, other.zero_mass, other.truncation_error))

    @property
    def atoms(self):
        """The (location, weight) pairs, in ascending location."""
        return tuple(zip(self._loc.tolist(), self._wt.tolist()))

    @staticmethod
    def from_pairs(pairs, zero_mass=0.0, truncation_error=0.0):
        """Atoms from an (n, 2) array-like of (location, weight) pairs."""
        return AtomicMeasure(pairs, zero_mass, truncation_error)

    def locations(self):
        return self._loc

    def weights(self):
        return self._wt

    @property
    def total_mass(self):
        return self.zero_mass + _in_order(self._wt)

    def laplace(self, s):
        """The Laplace transform zero_mass + sum w_k exp(-s * loc_k) at s,
        with the error estimate of :func:`integral`, as a MellinValue.

        ``s`` may be a sequence; its values share one :func:`integral`
        call and give arrays."""
        s = np.asarray(s, dtype=float)
        # the transpose keeps each s's atoms contiguous in integral's sum
        r = integral(self, lambda x: np.exp(-np.multiply.outer(s, x)).T)
        return _mellin_value(self.zero_mass + r.value, r.abs_error)

    def to_json_dict(self):
        return {
            "atoms": np.column_stack((self._loc, self._wt)).tolist(),
            "zero_mass": self.zero_mass,
            "trunc_err": self.truncation_error,
        }


class DensityMeasure(NamedTuple):
    """Nonnegative density on ``support``, a finite interval (a, b) or a
    half-line (a, inf); the support alone picks the quadrature rule.

    ``strip_min_re`` records the left edge of the Mellin integrability
    strip when known (e.g. -a for the Gamma density).  A catalog density
    is named by its id (``catalog.CatalogObject.density_json``).
    """

    density: Callable
    support: Tuple[float, float]
    strip_min_re: Optional[float] = None

    #: a density puts no mass at 0
    zero_mass = 0.0


def integral(m, g, tol=1e-12):
    """The integral of g over (0, inf) against m, as a MellinValue of the
    value and its error estimate.

    ``g`` maps an array of m points to an array of m values, or to an
    (m, K) array of K components; the value and the error then have one
    entry per component.  This is the only place that chooses between a
    sum over atoms and quadrature.

    For an atomic measure the value is the sum of w_k g(loc_k); the atom at
    0 is left out, and callers that need it add ``zero_mass``.  The error
    is the estimate truncation_error * |g(max(1, largest location))|.  It
    bounds the dropped part when those atoms lie below the largest kept
    location and |g| does not decrease, as for x^n (n >= 0) against
    ``mu_abq``, ``mu_c`` and ``sigma_abgamma``, whose dropped atoms sit at
    q^k -> 0.  For ``tau_c``, ``nu_a`` and the ``qratio`` kappa the dropped
    atoms lie beyond the largest kept location, where a growing |g| is
    larger, so there it is not a bound.  A sum that leaves binary64 (inf,
    or nan from inf - inf or inf * 0) is a :class:`RangeError`.

    For a density it integrates g * density over the support by
    :func:`quadrature.integrate`, tanh-sinh on a finite interval and
    exp-sinh on the half-line, and the error is the level-difference
    estimate of each component.  It raises :class:`QuadratureError` where
    the rule does not converge, as where x or g * density leaves binary64
    before the terms are negligible.
    """
    if isinstance(m, AtomicMeasure):
        loc = m.locations()
        # one call of g: the atoms, then the point the estimate reads; the
        # transposes weight each component of an (m, K) value
        with np.errstate(over="ignore", invalid="ignore"):
            vals = g(np.append(loc, max([1.0, *loc[-1:]])))
            value = np.sum(m.weights() * vals[:-1].T, axis=-1)
        if not np.isfinite(value).all():
            raise RangeError("a sum over atoms leaves binary64")
        return MellinValue(value, m.truncation_error * np.abs(vals[-1]))

    def f(x):
        return (g(x).T * m.density(x)).T

    lo, hi = m.support
    return MellinValue(*integrate(f, lo, hi, tol=tol))


def _mellin_value(value, abs_error):
    """A MellinValue of ``value`` and ``abs_error``: a 0-d value gives two
    Python scalars, an array value an error broadcast to its shape."""
    if np.ndim(value):
        return MellinValue(value, np.broadcast_to(abs_error, np.shape(value)))
    return MellinValue(np.asarray(value).item(), float(abs_error))


def _orders(n, name="moment order"):
    """``n`` as a float array: one order or a sequence of them, each a
    nonnegative integer, else a :class:`DomainError` that calls it
    ``name``."""
    ks = np.asarray(n, dtype=float)
    if ks.ndim > 1 or not all(k >= 0 and k.is_integer() for k in ks.flat):
        raise DomainError("%s must be a nonnegative integer" % name)
    return ks


def moment(m, n, tol=1e-12):
    """n'th moment of a measure, with its error estimate, as a MellinValue.

    ``n`` may be a sequence of orders: they share one :func:`integral`
    call, and the value and the error are then arrays with one entry per
    order.  The error is the one :func:`integral` reports.
    """
    orders = _orders(n)
    ks = np.atleast_1d(orders).tolist()

    def powers(x):
        # x ** k one order at a time, as numpy squares exactly at k = 2
        # where an array of exponents calls pow; the transpose keeps each
        # order's atoms contiguous, so that integral adds them in the order
        # it would for that order alone
        table = np.array([x ** k for k in ks]).T
        return table.reshape(x.shape + orders.shape)

    try:
        r = integral(m, powers, tol)
    except RangeError:
        raise RangeError("a moment of order up to %d leaves binary64"
                         % max(ks)) from None
    return _mellin_value(
        np.where(orders == 0, r.value + m.zero_mass, r.value), r.abs_error)


def mellin(m, z):
    """Mellin transform integral x^z dm as a MellinValue.

    Agrees with :func:`moment` at nonnegative integers within the combined
    error estimates.
    """
    z = complex(z)
    if m.zero_mass > 0 and z != 0 and z.real <= 0:
        raise DomainError("x^z is singular at the atom at 0 for Re z <= 0")
    if m.strip_min_re is not None and z.real <= m.strip_min_re:
        raise DomainError(
            "Re z = %g outside integrability strip (> %g)"
            % (z.real, m.strip_min_re))

    def weight(x):
        if z == 0:
            return np.ones_like(x)
        return np.exp(z * np.log(x))

    try:
        r = integral(m, weight)
    except RangeError:
        raise RangeError("Mellin transform at z = %s leaves binary64"
                         % z) from None
    value = r.value + m.zero_mass if z == 0 else r.value
    return MellinValue(complex(value), r.abs_error)


def _dropped_mass(m1, m2):
    """The most mass a convolution of m1 and m2 misses: each input's
    dropped mass times the other's whole mass, kept or dropped."""
    return (m1.truncation_error * (m2.total_mass + m2.truncation_error)
            + m2.truncation_error * m1.total_mass)


def _by_index(m1, m2, arity, name):
    """The weights of m1 and m2 by index on the one lattice they share, a
    key of ``arity`` entries (else a :class:`DomainError`), with an
    arithmetic lattice's mass at 0 at index 0."""
    if not (isinstance(m1, AtomicMeasure) and isinstance(m2, AtomicMeasure)
            and m1.lattice is not None and m1.lattice == m2.lattice
            and len(m1.lattice) == arity):
        raise DomainError("%s requires two atomic measures on one %s lattice"
                          % (name, ("arithmetic", "geometric")[arity - 1]))
    for m in (m1, m2):
        dense = np.zeros(1 + int(m.index.max(initial=0)))
        dense[0] = m.zero_mass if arity == 1 else 0.0
        dense[m.index] = m.weights()
        yield dense


def product_convolve(m1, m2):
    """Product convolution of two atomic measures on one geometric lattice
    exp(-beta n h): locations multiply, so indices add, and the weights
    convolve by index.  The n'th moment of the result is the product of
    the inputs' n'th moments.
    """
    w = np.convolve(*_by_index(m1, m2, 2, "product_convolve"))[::-1]
    zero = (m1.zero_mass * m2.total_mass + m2.zero_mass * m1.total_mass
            - m1.zero_mass * m2.zero_mass)
    return AtomicMeasure.on_lattice(m1.lattice, np.arange(len(w))[::-1], w,
                                    zero_mass=zero,
                                    truncation_error=_dropped_mass(m1, m2))


def additive_convolve(m1, m2):
    """Ordinary (additive) convolution of two atomic measures on one
    arithmetic lattice n h: locations add, so indices add, and the weights
    convolve by index, the mass at 0 at index 0.
    """
    w = np.convolve(*_by_index(m1, m2, 1, "additive_convolve"))
    return AtomicMeasure.on_lattice(m1.lattice, np.arange(1, len(w)), w[1:],
                                    zero_mass=m1.zero_mass * m2.zero_mass,
                                    truncation_error=_dropped_mass(m1, m2))


def pushforward(m, beta=1.0):
    """Image of an atomic measure on the arithmetic lattice (h,) under
    x -> exp(-beta x), 0 < beta < inf: the same weights at the same
    indices of the geometric lattice (h, beta), the mass at 0 at index 0,
    location 1.  Mass whose image underflows to 0 joins
    ``truncation_error``, as :meth:`AtomicMeasure.on_lattice` rules.  Any
    other measure is a :class:`DomainError`.
    """
    if not (isinstance(m, AtomicMeasure) and m.lattice is not None
            and len(m.lattice) == 1):
        raise DomainError("pushforward needs an atomic measure on an "
                          "arithmetic lattice")
    return AtomicMeasure.on_lattice(
        m.lattice + (beta,), np.append(0, m.index)[::-1],
        np.append(m.zero_mass, m.weights())[::-1],
        truncation_error=m.truncation_error)


def _read(fn, n):
    """float(fn(n)), a :class:`DomainError` where that is nan."""
    value = float(fn(n))
    if math.isnan(value):
        raise DomainError("moment s_%d is nan, not finite and nonnegative" % n)
    return value


class MomentSequence:
    """Indexed access to a positive moment sequence, log-capable.

    Values are generated either from ``log_fn`` (preferred, overflow-safe)
    or from ``fn``; the sequence holds nothing else.  It is the one place
    that refuses a moment value: a nan from either is a
    :class:`DomainError`, in :meth:`__call__` and :meth:`log` alike.  The
    degenerate Stieltjes sequence c*delta_{0n} is supported through
    :meth:`dirac_zero`.
    """

    def __init__(self, fn=None, log_fn=None):
        if fn is None and log_fn is None:
            raise DomainError("need fn or log_fn")
        self._fn = fn
        self._log_fn = log_fn

    @staticmethod
    def from_log_steps(step, scale=1.0):
        """The sequence with s_0 = 1 and log s_n = scale sum_{k<n} step(k).

        The sum runs in the order of k, as far as the largest n asked for
        so far, so s_n does not depend on the order of the calls."""
        partial = [0.0]

        def log_fn(n):
            while len(partial) <= n:
                partial.append(partial[-1] + step(len(partial) - 1))
            return scale * partial[n]

        return MomentSequence(log_fn=log_fn)

    @staticmethod
    def dirac_zero(c=1.0):
        """The degenerate sequence (c, 0, 0, ...), moments of c*delta_0."""
        return MomentSequence(fn=lambda n: c if n == 0 else 0.0)

    def __call__(self, n):
        """s_n; a :class:`RangeError` when it leaves binary64, above or,
        from a finite log, below: ``fn`` gives +-inf or the log is past
        709.78.  A log of -inf is s_n = 0."""
        if self._fn is not None:
            value = _read(self._fn, n)
            if abs(value) == math.inf:
                raise RangeError("moment s_%d overflows binary64" % n)
            return value
        log_sn = self.log(n)
        try:
            # math.exp(inf) is inf, where exp(710) raises OverflowError
            value = math.exp(min(log_sn, 710.0))
        except OverflowError:
            raise RangeError("moment s_%d overflows binary64" % n) from None
        if value == 0.0 and log_sn > -math.inf:
            raise RangeError("moment s_%d underflows binary64" % n)
        return value

    def log(self, n):
        """log s_n: -inf where s_n = 0, +inf where ``fn`` gives inf, a
        DomainError where s_n < 0.  Unlike :meth:`__call__` it reads a
        moment past binary64 from ``log_fn``, so a reader of logs needs no
        other value."""
        if self._log_fn is not None:
            return _read(self._log_fn, n)
        value = _read(self._fn, n)
        if value < 0:
            raise DomainError("log of nonpositive moment s_%d" % n)
        return math.log(value) if value else -math.inf

    def values(self, n_max):
        return [self(n) for n in range(n_max + 1)]
