"""Named verification suites behind ``verify`` in the CLI.

A suite is a generator that yields ``(check name, residual, default
tolerance)`` for each of its checks, in report order.  :func:`run_suite`
is the one place that turns those into :class:`CheckResult` rows: it names
each row after the suite's key in ``_SUITES`` and applies the optional
``tol``, which overrides every default tolerance.  A check passes when its
residual is at most its tolerance.  Every check is deterministic (no
randomness anywhere in the package), so rendering the same suite twice
gives byte-identical reports.
"""

import math
from typing import NamedTuple

import numpy as np

from . import bernstein, hankel, hermite, qseries, semigroups
from .errors import DomainError
from .measures import (MomentSequence, _in_order, additive_convolve, moment,
                       product_convolve)


class CheckResult(NamedTuple):
    suite: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance

    def line(self):
        return "%s %s/%s residual=%.17g tol=%.17g" % (
            "PASS" if self.passed else "FAIL", self.suite, self.name,
            self.residual, self.tolerance)


# ---------------------------------------------------------------- hankel

def _poch_seq(a):
    return MomentSequence(
        log_fn=lambda n: math.lgamma(a + n) - math.lgamma(a))


def _poch_ratio_seq(a, b):
    return MomentSequence(
        log_fn=lambda n: (math.lgamma(a + n) - math.lgamma(a)
                          - math.lgamma(b + n) + math.lgamma(b)))


def _lognormal_seq(q):
    log1q = math.log(1.0 / q)
    return MomentSequence(log_fn=lambda n: 0.5 * n * (n + 1) * log1q)


def suite_hankel():
    p = qseries.QParams(0.5, 0.25, 0.5)
    qb = qseries.qbeta_moment_sequence(p)
    tseq = semigroups.t_transform(qb)
    cases = [
        ("factorial", _poch_seq(1.0), 6),
        ("pochhammer:1.5", _poch_seq(1.5), 6),
        ("pochhammer-ratio:1:2.5", _poch_ratio_seq(1.0, 2.5), 8),
        ("qbeta:0.5:0.25:0.5", qb, 8),
        ("lognormal:0.5", _lognormal_seq(0.5), 6),
        ("t-transform-qbeta", tseq, 8),
    ]
    for name, seq, order in cases:
        for c in (0.5, 1.0, 2.0):
            verdict = hankel.stieltjes_check(
                hankel.power_sequence(seq, c), order)
            residual = math.inf if not verdict.is_psd \
                else max(0.0, -verdict.min_pivot)
            yield "psd:%s:c=%g" % (name, c), residual, 1e-9
    carleman_cases = [
        ("factorial:c=1", _poch_seq(1.0), 1.0, hankel.DIVERGENT),
        ("factorial:c=3", _poch_seq(1.0), 3.0, hankel.CONVERGENT),
        ("constant", MomentSequence(fn=lambda n: 1.0),
         1.0, hankel.DIVERGENT),
    ]
    for name, seq, c, expected in carleman_cases:
        diag = hankel.carleman_diagnostic(hankel.power_sequence(seq, c), 40)
        yield ("carleman:%s" % name,
               0.0 if diag.verdict == expected else 1.0, 0.5)
    tri = hankel.trichotomy_classify(_poch_seq(1.0), 10)
    yield ("trichotomy:all-positive",
           0.0 if tri == hankel.ALL_POSITIVE else 1.0, 0.5)
    tri = hankel.trichotomy_classify(MomentSequence.dirac_zero(), 10)
    yield ("trichotomy:dirac-zero",
           0.0 if tri == hankel.DIRAC_AT_ZERO else 1.0, 0.5)


# ---------------------------------------------------------- bernstein-rep

def _rep_catalog():
    return [
        bernstein.affine(1.0),
        bernstein.affine(2.0),
        bernstein.ratio(1.0, 2.0),
        bernstein.ratio(0.5, 3.0),
        bernstein.qratio(0.5, 0.25, 0.5),
        bernstein.linear(),
    ]


_AB_PAIRS = ((0.0, 1.0), (1.0, 1.0), (0.5, 2.0))


def suite_bernstein_rep():
    for f in _rep_catalog():
        rep_worst = 0.0
        psi_worst = 0.0
        psi0_worst = 0.0
        psi1_worst = 0.0
        for alpha, beta in _AB_PAIRS:
            if f(alpha) <= 0.0:
                continue
            seq = bernstein.power_moments(f, alpha, beta)
            orders = range(16)
            logs = np.array([seq.log(n) for n in orders])
            via_rep = bernstein.log_moment_via_rep(f, alpha, beta,
                                                   orders).value
            rep_worst = max(rep_worst, float(np.max(np.abs(via_rep - logs))))
            psi_n = bernstein.psi(f, alpha, beta, orders).value
            psi_worst = max(psi_worst, float(np.max(np.abs(psi_n + logs))))
            psi0_worst = max(psi0_worst, abs(float(psi_n[0])))
            psi1_worst = max(psi1_worst,
                             abs(float(psi_n[1]) + math.log(f(alpha))))
        yield "rep:%s" % f.catalog_id, rep_worst, 1e-7
        yield "psi:%s" % f.catalog_id, psi_worst, 1e-7
        yield "psi0:%s" % f.catalog_id, psi0_worst, 1e-12
        yield "psi1:%s" % f.catalog_id, psi1_worst, 1e-12
    pt = bernstein.powertower()
    seq = bernstein.power_moments(pt, 1.0, 1.0)
    yield "powertower:s3", abs(seq(3) - 256.0), 1e-9


# ---------------------------------------------------------------- qseries

_ABQ_GRID = tuple((a, b, q)
                  for a in (0.3, 0.5, 0.7)
                  for b in (0.0, 0.1, 0.25)
                  for q in (0.3, 0.5, 0.8))


def qbinom_product(p, n):
    """prod_{k<n} ((1-bq^k)/(1-aq^k))^{n-k}."""
    total = 0.0
    for k in range(n):
        total += (n - k) * (math.log1p(-p.b * p.q ** k)
                            - math.log1p(-p.a * p.q ** k))
    return math.exp(total)


def _worst_gap(values, seq):
    """max |values[n] - seq(n)| over the orders n of ``values``."""
    targets = [seq(n) for n in range(len(values))]
    return float(np.max(np.abs(values - targets)))


def suite_qseries():
    worst = 0.0
    for a, b, q in _ABQ_GRID:
        p = qseries.QParams(a, b, q)
        mu = qseries.mu_abq(p)
        seq = qseries.qbeta_moment_sequence(p)
        worst = max(worst, _worst_gap(moment(mu, range(11)).value, seq))
    yield "qbeta-atomic-moments", worst, 1e-12
    worst = 0.0
    for a, b, q in _ABQ_GRID:
        p = qseries.QParams(a, b, q)
        for c in (0.5, 1.0, 2.0, 3.0):
            mu = qseries.mu_c(p, c)
            seq = qseries.qbeta_moment_sequence(p, c)
            worst = max(worst, _worst_gap(moment(mu, range(11)).value, seq))
    yield "qbeta-semigroup-moments", worst, 1e-10
    p = qseries.QParams(0.5, 0.25, 0.5)
    tau = qseries.tau_c(p, 1.0)
    worst = max(abs(tau.laplace(s).value
                    - qseries.mellin_qbeta(p, 1.0, s).real)
                for s in (0.5, 1.0, 2.0))
    yield "tau-laplace-closed-form", worst, 1e-10
    yield "qbinomial", qseries.qbinomial_check(0.5, 0.25 / 0.5, 0.5), 1e-12
    nu = qseries.nu_a(0.5, 0.5)
    yield ("nu-mass",
           abs(nu.total_mass + math.log(qseries.qpoch(0.5, 0.5))),
           1e-11)
    worst = max(abs(qseries.mellin_qbeta(p, c, n).real
                    - qseries.qbeta_moment_sequence(p, c)(n))
                for c in (0.5, 1.0, 2.0) for n in range(7))
    yield "qbeta-mellin-at-integers", worst, 1e-10
    neg = 0.0
    for pp in (0.1, 0.3, 0.7):
        for q in (0.3, 0.5, 0.8):
            series = qseries.hp_coefficients(pp, q, 50)
            neg = max(neg, -min(series.coefficients))
    yield "hp-nonnegative", neg, 1e-14
    sig = moment(qseries.sigma_abgamma(p), range(7)).value
    tseq = semigroups.t_transform(qseries.qbeta_moment_sequence(p))
    worst_t = _worst_gap(sig, tseq)
    worst_p = _worst_gap(sig, lambda n: qbinom_product(p, n))
    yield "sigmaq-vs-t-transform", worst_t, 1e-9
    yield "sigmaq-vs-product", worst_p, 1e-9


# -------------------------------------------------------------- semigroup

_CD_PAIRS = ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7))


def suite_semigroup():
    p = qseries.QParams(0.5, 0.25, 0.5)
    worst_tau = 0.0
    worst_mu = 0.0
    for c, d in _CD_PAIRS:
        tau_cd = additive_convolve(qseries.tau_c(p, c), qseries.tau_c(p, d))
        tau_sum = qseries.tau_c(p, c + d)
        mu_cd = product_convolve(qseries.mu_c(p, c), qseries.mu_c(p, d))
        mu_sum = qseries.mu_c(p, c + d)
        orders = range(7)
        worst_tau = max(worst_tau, float(np.max(np.abs(
            moment(tau_cd, orders).value - moment(tau_sum, orders).value))))
        worst_mu = max(worst_mu, float(np.max(np.abs(
            moment(mu_cd, orders).value - moment(mu_sum, orders).value))))
    yield "tau-additive", worst_tau, 1e-9
    yield "mu-product", worst_mu, 1e-9
    worst = 0.0
    for q in (0.3, 0.5, 0.8):
        for c in (0.5, 1.0, 2.0):
            fam = semigroups.LogNormalQFamily(q, c)
            dens = semigroups.vc_density(fam)
            values = moment(dens, range(7), tol=1e-11).value
            for n, value in enumerate(values.tolist()):
                target = semigroups.vc_mellin(fam, n).real
                worst = max(worst, abs(value - target) / target)
    yield "vc-quadrature-relative", worst, 1e-8
    worst = 0.0
    for a, b in ((1.0, 2.0), (0.5, 3.0)):
        gam_a = semigroups.GammaFamily(a, 1.0)
        gam_b = semigroups.GammaFamily(b, 1.0)
        bet = semigroups.BetaFamily(a, b, 1.0)
        for z in (0.5, 1.0, 2.0 + 1.0j):
            lhs = (semigroups.gamma_mellin(gam_b, z)
                   * semigroups.beta_mellin(bet, z))
            worst = max(worst, abs(lhs - semigroups.gamma_mellin(gam_a, z)))
    yield "mellin-factorization", worst, 1e-12
    worst = 0.0
    families = ((semigroups.GammaFamily, (1.5,), semigroups.gamma_mellin),
                (semigroups.BetaFamily, (1.0, 2.5), semigroups.beta_mellin),
                (semigroups.LogNormalQFamily, (0.5,), semigroups.vc_mellin))
    for z in (0.5, 1.0, 2.0 + 1.0j):
        for c, d in _CD_PAIRS:
            for make, args, mell in families:
                fc, fd, fcd = (make(*args, c), make(*args, d),
                               make(*args, c + d))
                worst = max(worst, abs(mell(fc, z) * mell(fd, z)
                                       - mell(fcd, z))
                            / abs(mell(fcd, z)))
    yield "mellin-semigroup-law", worst, 1e-13


# ---------------------------------------------------------------- hermite

def suite_hermite():
    t_grid = [round(-0.95 + 0.05 * i, 10) for i in range(39)]
    x_grid = [round(-10.0 + 0.25 * i, 10) for i in range(81)]
    report = hermite.positivity_scan(t_grid, x_grid, tol=1e-10)
    yield "scan-certified-positive", -report.min_certified, 0.0
    # h_5, h_10, ..., h_200 of each column; h_0 = 1 is within any bound
    worst = 0.0
    for x in np.arange(-6.0, 6.0001, 0.1).tolist():
        abs_h = hermite._float_column(x, 200)[1]
        excess = abs_h[4::5] - math.exp(0.5 * x * x)
        worst = max(worst, float(excess.max()))
    yield "szasz", worst, 1e-12
    worst = 0.0
    for x in np.arange(-3.0, 3.0001, 0.5):
        H = [hermite.hermite_H(k, float(x)) for k in range(61)]
        for z in np.arange(-0.8, 0.8001, 0.2):
            total = 0.0
            for k in range(61):
                total += H[k] * float(z) ** k / math.factorial(k)
            worst = max(worst, abs(total - math.exp(2 * x * z - z * z)))
    yield "exp-generating-function", worst, 1e-9
    g = hermite.generating_G(0.5, 0.0)
    # h_0 = 1, and h_2k of the column at x = 0 at index 2k - 1
    h_even = np.append(1.0, hermite._float_column(0.0, 198)[0][1::2])
    oracle = _in_order(h_even * 0.5 ** np.arange(0.0, 200.0, 2.0))
    yield "g-direct-oracle", abs(g.value - oracle), 1e-10


_SUITES = {
    "hankel": suite_hankel,
    "bernstein-rep": suite_bernstein_rep,
    "qseries": suite_qseries,
    "semigroup": suite_semigroup,
    "hermite": suite_hermite,
}


SUITE_NAMES = tuple(_SUITES)


def run_suite(name, tol=None):
    """The checks of one named suite, or of all of them in ``SUITE_NAMES``
    order for name == 'all', as a list of :class:`CheckResult`."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise DomainError("tol must be a finite positive number")
    if name == "all":
        keys = SUITE_NAMES
    elif name in _SUITES:
        keys = (name,)
    else:
        raise DomainError("unknown suite %r; choose from %s or 'all'"
                          % (name, ", ".join(SUITE_NAMES)))
    return [CheckResult(key, check, float(residual),
                        default_tol if tol is None else tol)
            for key in keys for check, residual, default_tol in _SUITES[key]()]


def render_report(results):
    """Deterministic plain-text report with one line per check."""
    lines = [r.line() for r in results]
    n_pass = sum(1 for r in results if r.passed)
    lines.append("passed %d/%d" % (n_pass, len(results)))
    return "\n".join(lines) + "\n"


def all_passed(results):
    return all(r.passed for r in results)
