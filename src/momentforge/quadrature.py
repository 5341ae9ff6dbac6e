"""Adaptive Gauss-Kronrod G10/K21 quadrature with error estimates.

Every integral returns a pair ``(value, error)``.  Each panel takes the
Gauss-Kronrod G10/K21 pair; the error is the estimate |K21 - G10|, not a
bound.  Three entry points cover the integrand classes used by the
measure catalog:

* :func:`integrate` -- finite interval, adaptive bisection;
* :func:`integrate_exp_decay` -- ``(0, inf)`` with exponentially decaying
  integrand, handled by the substitution ``x = -log(u)``;
* :func:`integrate_log_sub` -- ``(0, inf)`` with a heavy-tailed integrand
  that is well-behaved in ``u = log(x)``; the window in ``u`` is expanded
  until the boundary strips are negligible.

Integrands map a 1-D numpy array of m points to an array of shape (m,),
or to an (m, K) array whose K columns are integrated together over the
same panels; values may be complex.  The value and the error estimate
then have one entry per component.
The subdivision budget defaults to 2**14 panels.
"""

import heapq

import numpy as np

from .errors import QuadratureError

DEFAULT_PANEL_BUDGET = 2 ** 14


# Gauss-Kronrod G10/K21 pair (QUADPACK qk21, Piessens et al. 1983): the
# nonnegative half of the 21 Kronrod nodes on [-1, 1], their weights, and
# the weights of the 10-point Gauss rule, whose nodes are the Kronrod
# nodes of odd index.
_XK_HALF = (0.995657163025808080735527280689003,
            0.973906528517171720077964012084452,
            0.930157491355708226001207180059508,
            0.865063366688984510732096688423493,
            0.780817726586416897063717578345042,
            0.679409568299024406234327365114874,
            0.562757134668604683339000099272694,
            0.433395394129247190799265943165784,
            0.294392862701460198131126603103866,
            0.148874338981631210884826001129720,
            0.0)
_WK_HALF = (0.011694638867371874278064396062192,
            0.032558162307964727478818972459390,
            0.054755896574351996031381300244580,
            0.075039674810919952767043140916190,
            0.093125454583697605535065465083366,
            0.109387158802297641899210590325805,
            0.123491976262065851077958109831074,
            0.134709217311473325928054001771707,
            0.142775938577060080797094273138717,
            0.147739104901338491374841515972068,
            0.149445554002916905664936468389821)
_WG_HALF = (0.066671344308688137593568809893332,
            0.149451349150580593145776339657697,
            0.219086362515982043995534934228163,
            0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)

#: the 21 Kronrod nodes, from +1 down to -1
_KRONROD_NODES = np.array(_XK_HALF + tuple(-x for x in _XK_HALF[-2::-1]))
#: column 0: K21 weights; column 1: G10 weights (zero off the Gauss nodes)
_RULE_WEIGHTS = np.zeros((21, 2))
_RULE_WEIGHTS[:, 0] = _WK_HALF + _WK_HALF[-2::-1]
_RULE_WEIGHTS[1:20:2, 1] = _WG_HALF + _WG_HALF[::-1]


def _panels(f, edges):
    """K21 values and estimates |K21 - G10| of the panels between
    consecutive ``edges``, from one call of ``f`` on all their nodes.

    Each has shape (panels,) for an (m,) integrand and (panels, K) for an
    (m, K) one."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _KRONROD_NODES).ravel()
    fx = f(x)
    # one row of 21 node values per panel and component, all against the
    # rule in one product; the transposes scale each panel by its half
    rows = fx.reshape((len(mid), 21) + fx.shape[1:]).swapaxes(1, -1)
    rules = (rows.reshape(-1, 21) @ _RULE_WEIGHTS).reshape(
        rows.shape[:-1] + (2,))
    rules = (rules.T * half).T
    return rules[..., 0], np.abs(rules[..., 0] - rules[..., 1])


def integrate(f, a, b, tol=1e-12, budget=DEFAULT_PANEL_BUDGET):
    """Integrate ``f`` over ``[a, b]`` by adaptive panel bisection.

    Each panel takes the Gauss-Kronrod G10/K21 pair: its value is K21 and
    its error is the estimate |K21 - G10|, not a bound.  The panel whose
    worst component has the largest estimate is split in two, and both
    halves go to ``f`` as one array of 42 nodes.  Stops when every
    component's summed error estimate is below ``tol * max(1, |I|)`` of
    its own value.  Raises :class:`QuadratureError`, carrying the values
    and estimates reached, when the panel budget is exhausted.
    """
    (value,), (err,) = _panels(f, (a, b))
    heap = [(-err.max(), a, b, value, err)]
    total, total_err = value, err
    panels = 1
    while True:
        if (total_err <= tol * np.maximum(1.0, abs(total))).all():
            return total, total_err
        if panels >= budget:
            raise QuadratureError(
                "quadrature budget of %d panels exhausted (residual %.3g)"
                % (budget, total_err.max()),
                value=total,
                residual=total_err,
            )
        _, lo, hi, val0, err0 = heapq.heappop(heap)
        total = total - val0
        total_err = total_err - err0
        mid = 0.5 * (lo + hi)
        values, errs = _panels(f, (lo, mid, hi))
        for left, right, val, e in zip((lo, mid), (mid, hi), values, errs):
            heapq.heappush(heap, (-e.max(), left, right, val, e))
            total = total + val
            total_err = total_err + e
        panels += 1


def integrate_exp_decay(f, tol=1e-12, budget=DEFAULT_PANEL_BUDGET):
    """Integrate ``f`` over ``(0, inf)`` assuming exponential decay.

    Uses the substitution ``x = -log(u)`` mapping the half-line onto
    ``(0, 1)``; the decay factor in ``f`` cancels the Jacobian blow-up.
    """

    def g(u):
        # the transposes divide each component of an (m, K) value by u
        return (f(-np.log(u)).T / u).T

    return integrate(g, 0.0, 1.0, tol=tol, budget=budget)


def integrate_log_sub(f, tol=1e-12, budget=DEFAULT_PANEL_BUDGET):
    """Integrate ``f`` over ``(0, inf)`` via ``u = log(x)``.

    The window in ``u`` starts at ``[-8, 8]`` and grows one strip of width
    8 at a time in each direction until two consecutive strips contribute
    below tolerance in every component, or 60 strips were added.  Suits
    log-normal-type tails whose mass may sit far from ``u = 0``.
    """

    def g(u):
        x = np.exp(u)
        return (f(x).T * x).T

    total, total_err = integrate(g, -8.0, 8.0, tol=tol, budget=budget)
    for direction in (+1, -1):
        quiet = 0
        for j in range(1, 61):
            lo, hi = sorted((8.0 * direction * j, 8.0 * direction * (j + 1)))
            part, err = integrate(g, lo, hi, tol=tol, budget=budget)
            total = total + part
            total_err = total_err + err
            if np.all(np.abs(part) <= tol * np.maximum(1.0, np.abs(total))):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
    return total, total_err
