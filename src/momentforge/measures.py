"""Measures on the positive half-line and their moment/Mellin operations.

Two carriers are provided: :class:`AtomicMeasure` for finite weighted sums
of point masses (with an optional mass at zero and a recorded bound on
discarded tail mass), and :class:`DensityMeasure` for nonnegative densities
with a quadrature recipe.  Moments, Mellin transforms, product convolution
and the three pushforward maps operate on these carriers and always report
an absolute error alongside the value.

All values are immutable after construction and every operation is pure.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .quadrature import integrate, integrate_exp_decay, integrate_log_sub

#: relative tolerance under which two atom locations are merged; exact
#: powers of one q collide bit-exactly, this only has to absorb roundoff
MERGE_RTOL = 1e-12


@dataclass(frozen=True)
class MellinValue:
    """A transform value together with an absolute error bound."""

    value: complex
    abs_error: float = 0.0

    @property
    def real(self):
        return self.value.real


def _merged(pairs):
    pairs = sorted((float(loc), float(wt)) for loc, wt in pairs if wt != 0.0)
    out = []
    for loc, wt in pairs:
        if wt < 0:
            raise DomainError("atom weight must be nonnegative, got %g" % wt)
        if loc <= 0:
            raise DomainError("atom location must be positive, got %g" % loc)
        if out and abs(loc - out[-1][0]) <= MERGE_RTOL * max(loc, out[-1][0]):
            out[-1][1] += wt
        else:
            out.append([loc, wt])
    return tuple((loc, wt) for loc, wt in out)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted point-mass list on (0, inf) plus optional mass at 0.

    ``truncation_error`` bounds the total mass discarded when an infinite
    atomic measure was truncated; it is carried through all operations.
    """

    atoms: Tuple[Tuple[float, float], ...]
    zero_mass: float = 0.0
    truncation_error: float = 0.0

    @staticmethod
    def from_pairs(pairs, zero_mass=0.0, truncation_error=0.0):
        if zero_mass < 0 or truncation_error < 0:
            raise DomainError("zero_mass and truncation_error must be >= 0")
        return AtomicMeasure(_merged(pairs), float(zero_mass),
                             float(truncation_error))

    @staticmethod
    def dirac(loc, weight=1.0):
        if loc == 0:
            return AtomicMeasure((), zero_mass=weight)
        return AtomicMeasure.from_pairs([(loc, weight)])

    def locations(self):
        return np.array([loc for loc, _ in self.atoms])

    def weights(self):
        return np.array([wt for _, wt in self.atoms])

    @property
    def total_mass(self):
        return self.zero_mass + sum(wt for _, wt in self.atoms)

    def max_location(self):
        return self.atoms[-1][0] if self.atoms else 0.0

    def laplace(self, s):
        """sum w_k exp(-s * loc_k), the Laplace transform at s."""
        if not self.atoms:
            return self.zero_mass
        locs, wts = self.locations(), self.weights()
        return self.zero_mass + float(np.sum(wts * np.exp(-s * locs)))

    def to_json_dict(self):
        return {
            "atoms": [[loc, wt] for loc, wt in self.atoms],
            "zero_mass": self.zero_mass,
            "trunc_err": self.truncation_error,
        }

    @staticmethod
    def from_json_dict(data):
        return AtomicMeasure.from_pairs(
            data["atoms"],
            zero_mass=data.get("zero_mass", 0.0),
            truncation_error=data.get("trunc_err", 0.0),
        )


@dataclass(frozen=True)
class DensityMeasure:
    """Nonnegative density on an interval with a quadrature recipe.

    ``quadrature_hint`` is one of ``finite-interval``, ``exponential-decay``
    or ``log-substitution``.  ``strip_min_re`` records the left edge of the
    Mellin integrability strip when known (e.g. -a for the Gamma density).
    ``catalog_id``/``params`` identify catalog entries for serialization.
    """

    density: Callable
    support: Tuple[float, float]
    quadrature_hint: str
    strip_min_re: Optional[float] = None
    catalog_id: Optional[str] = None
    params: Optional[tuple] = None

    def to_json_dict(self):
        if self.catalog_id is None:
            raise DomainError("only catalog densities are serializable")
        return {"density": self.catalog_id, "params": dict(self.params or ())}


def _density_integral(m, weight, tol):
    lo, hi = m.support
    hint = m.quadrature_hint

    def f(x):
        return weight(x) * m.density(x)

    if hint == "finite-interval":
        return integrate(f, lo, hi, tol=tol)
    if hint == "exponential-decay":
        return integrate_exp_decay(f, tol=tol)
    if hint == "log-substitution":
        return integrate_log_sub(f, tol=tol)
    raise DomainError("unknown quadrature hint %r" % hint)


def moment(m, n, tol=1e-12):
    """n'th moment of a measure, with its error, as a MellinValue.

    For an atomic measure the error is the estimate truncation_error *
    max(1, max location)^n: the dropped mass lies beyond the largest kept
    location, so this is not a bound.
    """
    if n < 0 or n != int(n):
        raise DomainError("moment order must be a nonnegative integer")
    n = int(n)
    if isinstance(m, AtomicMeasure):
        if not m.atoms:
            value = m.zero_mass if n == 0 else 0.0
            return MellinValue(value, m.truncation_error)
        locs, wts = m.locations(), m.weights()
        value = float(np.sum(wts * locs ** n))
        if n == 0:
            value += m.zero_mass
        err = m.truncation_error * max(1.0, m.max_location()) ** n
        return MellinValue(value, err)
    value, err = _density_integral(m, lambda x: x ** float(n), tol)
    return MellinValue(float(value), err)


def mellin(m, z, tol=1e-12):
    """Mellin transform integral x^z dm as a MellinValue.

    Agrees with :func:`moment` at nonnegative integers within the combined
    error bounds.
    """
    z = complex(z)
    if isinstance(m, AtomicMeasure):
        if m.zero_mass > 0 and z != 0 and z.real <= 0:
            raise DomainError("x^z is singular at the atom at 0 for Re z <= 0")
        total = m.zero_mass if z == 0 else 0.0
        for loc, wt in m.atoms:
            total += wt * cmath.exp(z * math.log(loc))
        err = m.truncation_error * max(1.0, m.max_location()) ** z.real
        return MellinValue(total, err)
    if m.strip_min_re is not None and z.real <= m.strip_min_re:
        raise DomainError(
            "Re z = %g outside integrability strip (> %g)"
            % (z.real, m.strip_min_re))

    def weight(x):
        if z == 0:
            return np.ones_like(x)
        return np.exp(z * np.log(x))

    value, err = _density_integral(m, weight, tol)
    return MellinValue(complex(value), err)


def product_convolve(m1, m2):
    """Product convolution of two finite atomic measures.

    Atoms appear at all pairwise products of locations with multiplied
    weights; the n'th moment of the result is the product of the inputs'
    n'th moments.
    """
    if not isinstance(m1, AtomicMeasure) or not isinstance(m2, AtomicMeasure):
        raise DomainError("product_convolve requires atomic measures")
    pairs = []
    if m1.atoms and m2.atoms:
        l1, w1 = m1.locations(), m1.weights()
        l2, w2 = m2.locations(), m2.weights()
        locs = np.outer(l1, l2).ravel()
        wts = np.outer(w1, w2).ravel()
        pairs = list(zip(locs, wts))
    zero = (m1.zero_mass * m2.total_mass + m2.zero_mass * m1.total_mass
            - m1.zero_mass * m2.zero_mass)
    trunc = (m1.truncation_error * (m2.total_mass + m2.truncation_error)
             + m2.truncation_error * m1.total_mass)
    return AtomicMeasure.from_pairs(pairs, zero_mass=zero,
                                    truncation_error=trunc)


def additive_convolve(m1, m2):
    """Ordinary (additive) convolution of two finite atomic measures.

    Locations add, weights multiply; the mass at 0 is the identity
    component. Used for lattice measures, where sums collide exactly.
    """
    if not isinstance(m1, AtomicMeasure) or not isinstance(m2, AtomicMeasure):
        raise DomainError("additive_convolve requires atomic measures")
    pairs = []
    if m1.atoms and m2.atoms:
        l1, w1 = m1.locations(), m1.weights()
        l2, w2 = m2.locations(), m2.weights()
        pairs = list(zip(np.add.outer(l1, l2).ravel(),
                         np.outer(w1, w2).ravel()))
    if m1.zero_mass:
        pairs.extend((loc, m1.zero_mass * wt) for loc, wt in m2.atoms)
    if m2.zero_mass:
        pairs.extend((loc, m2.zero_mass * wt) for loc, wt in m1.atoms)
    trunc = (m1.truncation_error * (m2.total_mass + m2.truncation_error)
             + m2.truncation_error * m1.total_mass)
    return AtomicMeasure.from_pairs(pairs,
                                    zero_mass=m1.zero_mass * m2.zero_mass,
                                    truncation_error=trunc)


def pushforward(m, mapping, param=None):
    """Image of an atomic measure under one of three maps.

    ``mapping`` is ``exp-neg`` (x -> exp(-beta x), param beta > 0),
    ``neg-log`` (x -> -log x, all locations must stay positive after the
    map only in the sense that locations are > 0 beforehand), or ``scale``
    (x -> gamma x, param gamma > 0).  Weights are preserved.
    """
    if not isinstance(m, AtomicMeasure):
        raise DomainError("pushforward is defined for atomic measures")
    if mapping == "exp-neg":
        beta = 1.0 if param is None else float(param)
        if beta <= 0:
            raise DomainError("beta must be positive")
        pairs = []
        underflow = 0.0
        for loc, wt in m.atoms:
            image = math.exp(-beta * loc)
            if image == 0.0:
                # image locations lie in (0, 1], so mass whose location
                # underflows contributes at most its weight to any moment
                underflow += wt
            else:
                pairs.append((image, wt))
        # the atom at 0 maps to exp(0) = 1
        if m.zero_mass > 0:
            pairs.append((1.0, m.zero_mass))
        return AtomicMeasure.from_pairs(
            pairs, truncation_error=m.truncation_error + underflow)
    if mapping == "neg-log":
        if m.zero_mass > 0:
            raise DomainError("-log is undefined at location 0")
        pairs = []
        zero = 0.0
        for loc, wt in m.atoms:
            if loc >= 1.0 and math.log(loc) == 0.0:
                zero += wt
            elif loc > 1.0:
                raise DomainError(
                    "-log maps location %g outside (0, inf)" % loc)
            else:
                pairs.append((-math.log(loc), wt))
        return AtomicMeasure.from_pairs(
            pairs, zero_mass=zero, truncation_error=m.truncation_error)
    if mapping == "scale":
        gamma = float(param)
        if gamma <= 0:
            raise DomainError("gamma must be positive")
        return AtomicMeasure.from_pairs(
            [(gamma * loc, wt) for loc, wt in m.atoms],
            zero_mass=m.zero_mass, truncation_error=m.truncation_error)
    raise DomainError("unknown pushforward map %r" % mapping)


class MomentSequence:
    """Indexed access to a positive moment sequence, cached, log-capable.

    Values are generated either from ``log_fn`` (preferred, overflow-safe)
    or from ``fn``.  The degenerate Stieltjes sequence c*delta_{0n} is
    supported through :meth:`dirac_zero`.
    """

    def __init__(self, fn=None, log_fn=None, normalized=True):
        if fn is None and log_fn is None:
            raise DomainError("need fn or log_fn")
        self._fn = fn
        self._log_fn = log_fn
        self.normalized = normalized
        self._cache = {}
        self._log_cache = {}

    @staticmethod
    def from_values(values):
        values = [float(v) for v in values]

        def fn(n):
            if n >= len(values):
                raise DomainError("sequence defined only up to n=%d"
                                  % (len(values) - 1))
            return values[n]

        return MomentSequence(fn=fn, normalized=(values[0] == 1.0))

    @staticmethod
    def dirac_zero(c=1.0):
        """The degenerate sequence (c, 0, 0, ...), moments of c*delta_0."""
        return MomentSequence(fn=lambda n: c if n == 0 else 0.0,
                              normalized=(c == 1.0))

    def __call__(self, n):
        if n not in self._cache:
            if self._fn is not None:
                self._cache[n] = float(self._fn(n))
            else:
                self._cache[n] = math.exp(self.log(n))
        return self._cache[n]

    def log(self, n):
        if n not in self._log_cache:
            if self._log_fn is not None:
                self._log_cache[n] = float(self._log_fn(n))
            else:
                value = self(n)
                if value <= 0:
                    raise DomainError("log of nonpositive moment s_%d" % n)
                self._log_cache[n] = math.log(value)
        return self._log_cache[n]

    def values(self, n_max):
        return [self(n) for n in range(n_max + 1)]
