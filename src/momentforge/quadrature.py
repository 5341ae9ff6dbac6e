"""Nested double-exponential quadrature with a level-difference error
estimate.

:func:`integrate` is the one entry point and returns ``(value, error)``.
A finite interval [a, b] takes the tanh-sinh rule and a half-line
(a, inf) the exp-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974; error
theory in Tanaka, Sugihara, Murota & Mori, Numer. Math. 111, 2009): the
trapezoidal rule with step h in t after the substitution

* x = (a + b)/2 + (b - a)/2 tanh(pi/2 sinh t) on [a, b], each node taken
  as its distance from the nearer end, so that the nodes reach within
  about 1e-300 of a finite end;
* x = a + exp(pi/2 sinh t) on (a, inf), whose nodes reach within about
  1e-303 of a.

Level 0 takes the step 1/2 on the window where the nodes stay in
binary64; each later level halves the step and evaluates only its new
nodes.  The error is the difference of the last two levels: an
estimate, not a bound.

Integrands map a 1-D numpy array of m points to an array of shape (m,),
or to an (m, K) array whose K columns are integrated together on the same
nodes; values may be complex.  The value and the error estimate then have
one entry per component.
"""

import math
from functools import partial

import numpy as np

from .errors import QuadratureError

#: the step in t of level 0; level j takes _H0 / 2**j
_H0 = 0.5
#: the last level before :class:`QuadratureError`
_LEVELS = 8
#: node indices count steps of the last level
_SCALE = 2 ** _LEVELS / _H0
#: a term below _EPS max(1, |I|) does not change the sum I in binary64
_EPS = 2.0 ** -53


def _tanh_sinh(a, b, t):
    """Nodes and Jacobians dx/dt of tanh-sinh on [a, b]; each node is
    computed as its distance from the nearer end."""
    s = 0.5 * math.pi * np.sinh(np.abs(t))
    e = np.exp(-2.0 * s)  # 1 - tanh(s) = 2e / (1 + e)
    dist = (b - a) * e / (1.0 + e)
    return (np.where(t < 0, a + dist, b - dist),
            math.pi * (b - a) * np.cosh(t) * e / (1.0 + e) ** 2)


def _exp_sinh(a, t):
    """Nodes and Jacobians dx/dt of exp-sinh on (a, inf)."""
    y = np.exp(0.5 * math.pi * np.sinh(t))
    return a + y, 0.5 * math.pi * np.cosh(t) * y


def _terms(f, a, b, rule, t):
    """w f(x) at the nodes of ``t`` from one call of ``f``; NaN where x
    rounds onto an end of the interval, which ``f`` never sees."""
    x, w = rule(t)
    inside = (a < x) & (x < b)
    with np.errstate(all="ignore"):
        values = (f(x[inside]).T * w[inside]).T
    terms = np.full((len(t),) + values.shape[1:], np.nan, values.dtype)
    terms[inside] = values
    return terms


def integrate(f, a, b, tol=1e-12):
    """Integrate ``f`` over ``[a, b]``, or over ``(a, inf)`` when ``b`` is
    infinite, by a nested double-exponential rule.

    Level 0 takes every node of step 1/2 in the window where the nodes
    stay in binary64.  On each side of t = 0, no term is counted at or
    past a node where x rounds onto an end of the interval or ``f(x)``
    times the weight is not finite (x or the integrand left binary64).
    After level 0 the window is trimmed, on each side, to one step past
    the outermost term that changes the sum of its component in
    binary64.  Each later level halves the step and calls ``f`` once, on
    its new nodes in the window.  Stops when two levels agree within the
    target ``tol * max(1, |I|)`` of every component and the outermost
    counted terms on both sides are below it; the error is the difference
    of the last two levels, an estimate that leaves out rounding and the
    terms past the window.  Raises :class:`QuadratureError`, carrying the
    values reached and that difference plus the outermost terms, when
    level 8 (step 1/512) has not converged: so when the integrand
    oscillates too fast for that step, or when a wall cuts the window
    where the terms are not yet negligible.
    """
    if b == math.inf:
        # the exp-sinh weight stays below 2^1022 up to t = 6.79
        rule, top = partial(_exp_sinh, a), 6.79
    else:
        # at t = 6.1 a tanh-sinh node is 1e-304 (b - a) from its end
        rule, top = partial(_tanh_sinh, a, b), 6.1
    top = int(top * _SCALE)
    step = 2 ** _LEVELS
    lo, hi = -top, top
    idx = np.arange(-(top // step), top // step + 1) * step
    terms = _terms(f, a, b, rule, idx / _SCALE)
    for level in range(_LEVELS + 1):
        if level:
            step //= 2
            new = np.arange(lo + (step - lo) % (2 * step), hi + 1, 2 * step)
            idx = np.append(idx, new)
            terms = np.concatenate((terms, _terms(f, a, b, rule,
                                                  new / _SCALE)))
        # the walls: no term at or past the innermost bad node of a side
        bad = ~np.isfinite(terms.reshape(len(idx), -1)).all(axis=1)
        hi = min(hi, np.min(idx[bad & (idx >= 0)], initial=hi + 1) - 1)
        lo = max(lo, np.max(idx[bad & (idx < 0)], initial=lo - 1) + 1)
        keep = (lo <= idx) & (idx <= hi)
        idx, terms = idx[keep], terms[keep]
        total = terms.sum(axis=0) * (step / _SCALE)
        target = tol * np.maximum(1.0, np.abs(total))
        if not level:
            # later levels stay within one step of the outermost terms
            # that change the sum in binary64
            big = np.abs(terms) > _EPS * np.maximum(1.0, np.abs(total))
            big = big.reshape(len(idx), -1).any(axis=1)
            hi = min(hi, np.max(idx[big], initial=0) + step)
            lo = max(lo, np.min(idx[big], initial=0) - step)
        else:
            err = np.abs(total - previous)
            outer = np.abs(terms[idx.argmin()]) + np.abs(terms[idx.argmax()])
            if (np.maximum(err, outer) <= target).all():
                return total, err
        previous = total
    raise QuadratureError(
        "quadrature did not converge by level %d (residual %.3g)"
        % (_LEVELS, np.max(err + outer)),
        value=total,
        residual=err + outer,
    )
