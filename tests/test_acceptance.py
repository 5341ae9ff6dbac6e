"""Acceptance suite: one test per criterion, each at its stated
tolerance, emitting a single pass/fail line on stdout."""

import math
import time

import numpy as np
import pytest

from momentforge import (MomentSequence, additive_convolve, affine,
                         generating_G, hermite_H, hermite_h, hp_coefficients,
                         linear, log_moment_via_rep, mellin_qbeta, moment,
                         mu_abq, mu_c, positivity_scan, power_moments,
                         power_sequence, product_convolve, psi,
                         qbeta_moment_sequence, qratio, ratio, sigma_abgamma,
                         stieltjes_check, tau_c, carleman_diagnostic)
from momentforge import hankel as hankel_mod
from momentforge import verify
from momentforge.cli import main as cli_main
from momentforge.measures import moment as measure_moment
from momentforge.qseries import QParams, tau_c as tau
from momentforge.semigroups import (BetaFamily, GammaFamily,
                                    LogNormalQFamily, beta_mellin,
                                    gamma_mellin, t_transform, vc_density,
                                    vc_mellin)

CATALOG = [
    ("affine:1", affine(1.0)),
    ("affine:2", affine(2.0)),
    ("ratio:1:2", ratio(1.0, 2.0)),
    ("ratio:0.5:3", ratio(0.5, 3.0)),
    ("qratio:0.5:0.25:0.5", qratio(0.5, 0.25, 0.5)),
    ("linear", linear()),
]

AB_PAIRS = [(0.0, 1.0), (1.0, 1.0), (0.5, 2.0)]

P = QParams(0.5, 0.25, 0.5)

ABQ_GRID = [(a, b, q)
            for a in (0.3, 0.5, 0.7)
            for b in (0.0, 0.1, 0.25)
            for q in (0.3, 0.5, 0.8)]


def report(num, name, ok):
    print("criterion %02d %s: %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, name)


def sweep():
    for _, f in CATALOG:
        for alpha, beta in AB_PAIRS:
            if f(alpha) <= 0.0:
                continue
            yield f, alpha, beta


def test_criterion_01_representation_identity():
    worst = 0.0
    for f, alpha, beta in sweep():
        seq = power_moments(f, alpha, beta)
        for n in range(16):
            rep = log_moment_via_rep(f, alpha, beta, n).value
            worst = max(worst, abs(rep - seq.log(n)))
    report(1, "representation-identity (worst %.3g)" % worst,
           worst <= 1e-7)


def test_criterion_02_psi_consistency():
    worst_n = 0.0
    worst_edge = 0.0
    for f, alpha, beta in sweep():
        seq = power_moments(f, alpha, beta)
        for n in range(16):
            worst_n = max(worst_n,
                          abs(psi(f, alpha, beta, float(n)).value
                              + seq.log(n)))
        worst_edge = max(worst_edge, abs(psi(f, alpha, beta, 0.0).value))
        worst_edge = max(worst_edge, abs(psi(f, alpha, beta, 1.0).value
                                         + math.log(f(alpha))))
    report(2, "psi-consistency (worst %.3g / %.3g)" % (worst_n, worst_edge),
           worst_n <= 1e-7 and worst_edge <= 1e-12)


def test_criterion_03_hankel_positivity():
    log2 = math.log(2.0)
    cases = [
        (MomentSequence(log_fn=lambda n: math.lgamma(n + 1.0)), 6),
        (MomentSequence(log_fn=lambda n: math.lgamma(1.5 + n)
                        - math.lgamma(1.5)), 6),
        (MomentSequence(log_fn=lambda n: (math.lgamma(1.0 + n)
                                          + math.lgamma(2.5)
                                          - math.lgamma(2.5 + n))), 8),
        (qbeta_moment_sequence(P), 8),
        (MomentSequence(log_fn=lambda n: 0.5 * n * (n + 1) * log2), 6),
        (t_transform(qbeta_moment_sequence(P)), 8),
    ]
    ok = True
    for seq, order in cases:
        for c in (0.5, 1.0, 2.0):
            verdict = stieltjes_check(power_sequence(seq, c), order)
            ok = ok and verdict.is_psd
    report(3, "hankel-positivity", ok)


def test_criterion_04_qbeta_moments():
    worst = 0.0
    for a, b, q in ABQ_GRID:
        p = QParams(a, b, q)
        for c in (0.5, 1.0, 2.0, 3.0):
            mu = mu_c(p, c)
            seq = qbeta_moment_sequence(p, c)
            for n in range(11):
                worst = max(worst, abs(moment(mu, n).value - seq(n)))
    report(4, "qbeta-moments (worst %.3g)" % worst, worst <= 1e-10)


def test_criterion_05_laplace_mellin_closed_forms():
    t1 = tau(P, 1.0)
    worst_lap = max(abs(t1.laplace(s).value - mellin_qbeta(P, 1.0, s).real)
                    for s in (0.5, 1.0, 2.0))
    mu = mu_abq(P)
    worst_mell = max(abs(mellin_qbeta(P, 1.0, n).real
                         - moment(mu, n).value) for n in range(7))
    worst_fact = 0.0
    for a, b in ((1.0, 2.0), (0.5, 3.0)):
        for z in (0.5, 1.0, 2.0 + 1.0j):
            lhs = (gamma_mellin(GammaFamily(b, 1.0), z)
                   * beta_mellin(BetaFamily(a, b, 1.0), z))
            worst_fact = max(worst_fact,
                             abs(lhs - gamma_mellin(GammaFamily(a, 1.0),
                                                    z)))
    report(5, "laplace-mellin (%.3g / %.3g / %.3g)"
           % (worst_lap, worst_mell, worst_fact),
           worst_lap <= 1e-10 and worst_mell <= 1e-10
           and worst_fact <= 1e-12)


def test_criterion_06_vc_family():
    worst = 0.0
    for q in (0.3, 0.5, 0.8):
        for c in (0.5, 1.0, 2.0):
            fam = LogNormalQFamily(q, c)
            dens = vc_density(fam)
            for n in range(7):
                target = vc_mellin(fam, n).real
                worst = max(worst, abs(moment(dens, n, tol=1e-11).value
                                       - target) / target)
    report(6, "vc-family (worst rel %.3g)" % worst, worst <= 1e-8)


def test_criterion_07_semigroup_laws():
    worst = 0.0
    for c, d in ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7)):
        tau_conv = additive_convolve(tau(P, c), tau(P, d))
        tau_direct = tau(P, c + d)
        mu_conv = product_convolve(mu_c(P, c), mu_c(P, d))
        mu_direct = mu_c(P, c + d)
        for n in range(7):
            worst = max(worst, abs(moment(tau_conv, n).value
                                   - moment(tau_direct, n).value))
            worst = max(worst, abs(moment(mu_conv, n).value
                                   - moment(mu_direct, n).value))
    report(7, "semigroup-laws (worst %.3g)" % worst, worst <= 1e-9)


def test_criterion_08_power_series_coefficients():
    min_coeff = math.inf
    for p_ in (0.1, 0.3, 0.7):
        for q in (0.3, 0.5, 0.8):
            series = hp_coefficients(p_, q, 50)
            min_coeff = min(min_coeff, min(series.coefficients))
    sig = sigma_abgamma(P)
    tseq = t_transform(qbeta_moment_sequence(P))
    worst = 0.0
    for n in range(7):
        product = 1.0
        for k in range(n):
            product *= ((1.0 - P.b * P.q ** k)
                        / (1.0 - P.a * P.q ** k)) ** (n - k)
        got = moment(sig, n).value
        worst = max(worst, abs(got - product), abs(got - tseq(n)))
    report(8, "hp-and-sigma (min c_k %.3g, worst %.3g)"
           % (min_coeff, worst),
           min_coeff >= -1e-14 and worst <= 1e-9)


def test_criterion_09_hermite_positivity():
    start = time.time()
    t_grid = [round(-0.95 + 0.05 * i, 10) for i in range(39)]
    x_grid = [round(-10.0 + 0.25 * i, 10) for i in range(81)]
    scan = positivity_scan(t_grid, x_grid, tol=1e-10)
    szasz_ok = True
    for x in np.arange(-6.0, 6.0001, 0.1):
        bound = math.exp(0.5 * x * x)
        prev, curr = 1.0, math.sqrt(2.0) * x
        if abs(prev) > bound:
            szasz_ok = False
        for n in range(1, 201):
            if abs(curr) > bound:
                szasz_ok = False
                break
            prev, curr = curr, ((math.sqrt(2.0) * x * curr
                                 - math.sqrt(n) * prev)
                                / math.sqrt(n + 1.0))
    worst_gen = 0.0
    for x in np.arange(-3.0, 3.0001, 0.5):
        for z in np.arange(-0.8, 0.8001, 0.2):
            total = sum(hermite_H(k, float(x)) * float(z) ** k
                        / math.factorial(k) for k in range(61))
            worst_gen = max(worst_gen,
                            abs(total - math.exp(2 * x * z - z * z)))
    elapsed = time.time() - start
    report(9, "hermite (min cert %.3g, gen %.3g, %.1fs)"
           % (scan.min_certified, worst_gen, elapsed),
           scan.all_positive and scan.min_certified > 0 and szasz_ok
           and worst_gen <= 1e-9 and elapsed <= 60.0)


def test_criterion_10_carleman_sanity():
    factorial = MomentSequence(log_fn=lambda n: math.lgamma(n + 1.0))
    constant = MomentSequence(fn=lambda n: 1.0)
    ok = (carleman_diagnostic(factorial, 40).verdict
          == hankel_mod.DIVERGENT)
    ok = ok and (carleman_diagnostic(power_sequence(factorial, 3.0),
                                     40).verdict == hankel_mod.CONVERGENT)
    ok = ok and (carleman_diagnostic(constant, 40).verdict
                 == hankel_mod.DIVERGENT)
    report(10, "carleman-sanity", ok)


def test_criterion_11_determinism(tmp_path):
    first = tmp_path / "report1.txt"
    second = tmp_path / "report2.txt"
    code1 = cli_main(["verify", "all", "--out", str(first)])
    code2 = cli_main(["verify", "all", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    report(11, "determinism", code1 == 0 and code2 == 0 and identical)
