"""String-id resolution for everything addressable from the CLI.

Ids follow a colon-separated convention, e.g. ``ratio:1:2`` or
``qbeta:0.5:0.25:0.5:1``.  Bernstein-function ids produce moment products
for a chosen (alpha, beta); family and measure ids expose moments, Mellin
values and (where available) a dumpable measure.  Every id is one row of
``TABLE``, and a density's JSON follows from the id and that row.
"""

import math
from typing import Callable, NamedTuple, Optional

from . import bernstein, qseries, semigroups
from .errors import DomainError, UnsupportedError
from .measures import mellin as measure_mellin, moment


class CatalogObject(NamedTuple):
    """A resolved catalog entry with whatever evaluators it supports."""

    object_id: str
    #: n_max -> the moments of orders 0..n_max, as a list of floats
    moments_fn: Optional[Callable] = None
    mellin_fn: Optional[Callable] = None
    measure_factory: Optional[Callable] = None
    #: what a density's JSON name puts before the id's head: ``kappa:``
    #: where the measure is a Bernstein function's kappa
    density_prefix: str = ""

    def moments(self, n_max):
        if self.moments_fn is None:
            raise UnsupportedError(
                "%s does not expose a moment sequence" % self.object_id)
        if n_max < 0:
            raise DomainError("n_max must be nonnegative, got %d" % n_max)
        return self.moments_fn(n_max)

    def mellin(self, z):
        if self.mellin_fn is None:
            raise UnsupportedError(
                "%s has no Mellin evaluator" % self.object_id)
        return self.mellin_fn(z)

    def measure(self):
        if self.measure_factory is None:
            raise UnsupportedError(
                "%s has no dumpable measure" % self.object_id)
        return self.measure_factory()

    def density_json(self):
        """The JSON of the id's density measure: the id's head after
        ``density_prefix``, and the id's parameters by the names of its
        ``TABLE`` row."""
        head, *parts = self.object_id.split(":")
        return {"density": self.density_prefix + head,
                "params": dict(zip(TABLE[head][0], map(float, parts)))}


def _bernstein(make):
    """Row builder for a Bernstein function: moment products at the
    ``alpha`` and ``beta`` of the extra params (both default 1), the keys
    ``EXTRA_PARAMS`` lists for it."""
    def build(params, *args):
        f = make(*args)
        seq = bernstein.power_moments(f, float(params.get("alpha", 1.0)),
                                      float(params.get("beta", 1.0)))
        return dict(moments_fn=seq.values, measure_factory=f.kappa_factory,
                    density_prefix="kappa:")
    return build


def _family(make, mellin, density):
    """Row builder for a Mellin family; its moments are the Mellin values
    at the integers."""
    def build(params, *args):
        fam = make(*args)
        return dict(moments_fn=lambda n_max: [
                        mellin(fam, n).real for n in range(n_max + 1)],
                    mellin_fn=lambda z: mellin(fam, z),
                    measure_factory=lambda: density(fam))
    return build


def _measure(make):
    """Row builder for an explicit measure, built once and queried for
    moments, all orders in one call, and Mellin values."""
    def build(params, *args):
        m = make(*args)
        return dict(moments_fn=lambda n_max: moment(
                        m, range(n_max + 1)).value.tolist(),
                    mellin_fn=lambda z: measure_mellin(m, z).value,
                    measure_factory=lambda: m)
    return build


def _qbeta(params, a, b, q, c):
    p = qseries.QParams(a, b, q)
    return dict(moments_fn=qseries.qbeta_moment_sequence(p, c).values,
                mellin_fn=lambda z: qseries.mellin_qbeta(p, c, z),
                measure_factory=lambda: qseries.mu_c(p, c))


def _hp(params, p, q):
    return dict(moments_fn=lambda n_max: list(
        qseries.hp_coefficients(p, q, n_max).coefficients))


#: id head -> (parameter names, builder).  A builder takes the extra
#: params and the id's parameters and returns the CatalogObject fields.
#: Rows hold constructors, but reach evaluators and measure builders
#: through their module when called, so that a wrapper installed on the
#: module later (a tracer, a test's monkeypatch) sees every call.
TABLE = {
    "affine": (("a",), _bernstein(bernstein.affine)),
    "linear": ((), _bernstein(bernstein.linear)),
    "ratio": (("a", "b"), _bernstein(bernstein.ratio)),
    "mobius": ((), _bernstein(bernstein.mobius)),
    "qratio": (("a", "b", "q"), _bernstein(bernstein.qratio)),
    "powertower": ((), _bernstein(bernstein.powertower)),
    "gamma": (("a", "c"), _family(
        semigroups.GammaFamily,
        lambda fam, z: semigroups.gamma_mellin(fam, z),
        lambda fam: semigroups.gamma_density(fam))),
    "beta": (("a", "b", "c"), _family(
        semigroups.BetaFamily,
        lambda fam, z: semigroups.beta_mellin(fam, z),
        lambda fam: semigroups.beta_density(fam))),
    "vclognormal": (("q", "c"), _family(
        semigroups.LogNormalQFamily,
        lambda fam, z: semigroups.vc_mellin(fam, z),
        lambda fam: semigroups.vc_density(fam))),
    "qbeta": (("a", "b", "q", "c"), _qbeta),
    "nu": (("a", "q"), _measure(lambda a, q: qseries.nu_a(a, q))),
    "hp": (("p", "q"), _hp),
    "sigmaq": (("a", "b", "q"), _measure(
        lambda a, b, q: qseries.sigma_abgamma(qseries.QParams(a, b, q)))),
}

#: id head -> the extra params its row reads; a head not listed reads none
EXTRA_PARAMS = dict.fromkeys(("affine", "linear", "ratio", "mobius",
                              "qratio", "powertower"), ("alpha", "beta"))


def resolve(object_id, params=None):
    """Resolve a string id to a CatalogObject.

    ``params`` is an optional dict of extra settings; Bernstein ids honor
    ``alpha`` and ``beta`` (both default 1) for their moment products.  A
    key that ``EXTRA_PARAMS`` does not list for the id is a DomainError.
    """
    head, *parts = object_id.split(":")
    if head not in TABLE:
        raise DomainError("unknown catalog id %r" % object_id)
    want = len(TABLE[head][0])
    if len(parts) != want:
        raise DomainError(
            "%s takes %d parameter(s), got %d" % (head, want, len(parts)))
    try:
        args = [float(p) for p in parts]
    except ValueError:
        raise DomainError("non-numeric parameter in %r" % object_id)
    if not all(math.isfinite(x) for x in args):
        raise DomainError("non-finite parameter in %r" % object_id)
    params = params or {}
    reads = EXTRA_PARAMS.get(head, ())
    unread = [key for key in params if key not in reads]
    if unread:
        raise DomainError("%s reads no param %s; it reads %s" % (
            head, ", ".join(map(repr, unread)), ", ".join(reads) or "none"))
    return CatalogObject(object_id, **TABLE[head][1](params, *args))
