import math

import numpy as np
import pytest

from momentforge import (DomainError, QParams, additive_convolve,
                         hp_coefficients, mellin_qbeta, moment, mu_abq, mu_c,
                         nu_a, product_convolve, qbeta_moment_sequence,
                         qbinomial_check, qpoch, sigma_abgamma, tau_c)
from momentforge.qseries import _exp_series
from momentforge.semigroups import t_transform

P = QParams(0.5, 0.25, 0.5)


def test_qpoch_finite():
    assert qpoch(0.5, 0.5, 0) == 1.0
    assert qpoch(0.5, 0.5, 2) == pytest.approx(0.375)


def test_qpoch_infinite():
    oracle = 1.0
    for k in range(200):
        oracle *= 1.0 - 0.5 * 0.5 ** k
    assert qpoch(0.5, 0.5) == pytest.approx(oracle, rel=1e-13)
    assert qpoch(0.5, 0.5) == pytest.approx(0.288788095, abs=1e-9)


def test_qpoch_zero_argument():
    assert qpoch(0.0, 0.5) == 1.0


def test_qparams_validation():
    with pytest.raises(DomainError):
        QParams(0.5, 0.25, 1.5)
    with pytest.raises(DomainError):
        QParams(1.5, 0.25, 0.5)
    with pytest.raises(DomainError):
        QParams(0.25, 0.5, 0.5).require_ordered()


def test_mu_abq_is_probability():
    mu = mu_abq(P)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
    assert all(wt >= 0 for _, wt in mu.atoms)


def test_mu_abq_first_moment():
    assert moment(mu_abq(P), 1).value == pytest.approx(2.0 / 3.0,
                                                       abs=1e-12)


@pytest.mark.parametrize("a,b,q", [(0.3, 0.0, 0.3), (0.5, 0.25, 0.5),
                                   (0.7, 0.1, 0.8)])
def test_mu_abq_moments_match_closed_form(a, b, q):
    p = QParams(a, b, q)
    mu = mu_abq(p)
    seq = qbeta_moment_sequence(p)
    for n in range(11):
        assert moment(mu, n).value == pytest.approx(seq(n), abs=1e-12)


def test_qbinomial_identity():
    assert qbinomial_check(0.5, 0.5, 0.5, N=6, K=80) < 1e-12
    assert qbinomial_check(0.0, 0.5, 0.5, N=3, K=40) < 1e-14


def test_nu_mass_identity():
    nu = nu_a(0.5, 0.5)
    assert nu.total_mass == pytest.approx(-math.log(qpoch(0.5, 0.5)),
                                          abs=1e-11)
    assert nu.total_mass == pytest.approx(1.242062, abs=1e-6)


def test_nu_first_atom():
    nu = nu_a(0.5, 0.5)
    loc, wt = nu.atoms[0]
    assert loc == pytest.approx(math.log(2.0))
    assert wt == pytest.approx(0.5 / (1.0 - 0.5))


def test_nu_empty_for_a_zero():
    assert nu_a(0.0, 0.5).atoms == ()


def test_tau_is_probability():
    for c in (0.5, 1.0, 2.5):
        tau = tau_c(P, c)
        assert tau.total_mass == pytest.approx(1.0, abs=1e-12)


def _tau_reference(p, c, N, terms=80):
    """w_0..w_N of tau_c by brute force: w_0 sum_m c^m lambda^{*m} / m!
    over the closed-form Levy weights lambda_k = (a^k - b^k)/(k (1-q^k))."""
    k = np.arange(1, N + 1)
    lam = np.concatenate(([0.0], (p.a ** k - p.b ** k)
                          / (k * (1.0 - p.q ** k))))
    power = np.zeros(N + 1)
    power[0] = 1.0
    acc = power.copy()
    for m in range(1, terms + 1):
        power = np.convolve(power, lam)[:N + 1] * (c / m)
        acc += power
    return (qpoch(p.a, p.q) / qpoch(p.b, p.q)) ** c * acc


@pytest.mark.parametrize("c", [0.5, 2.5])
def test_tau_weights_match_convolution_exponential(c):
    tau = tau_c(P, c)
    weights = np.array([tau.zero_mass] + [wt for _, wt in tau.atoms])
    reference = _tau_reference(P, c, len(tau.atoms))
    assert np.max(np.abs(weights - reference) / reference) < 1e-13


@pytest.mark.parametrize("c", [0.5, 2.5])
def test_tau_truncation_error_bounds_dropped_mass(c):
    tau = tau_c(P, c)
    N = len(tau.atoms)
    j = np.arange(1, 4 * N + 1)
    w = _exp_series(c * (P.a ** j - P.b ** j) / (1.0 - P.q ** j),
                    tau.zero_mass)
    assert 0.0 < math.fsum(w[N + 1:]) <= tau.truncation_error


def test_tau_keeps_few_atoms():
    assert len(tau_c(P, 1.0).atoms) <= 200


def test_tau_pushforward_matches_mu():
    mu_direct = mu_abq(P)
    mu_via_tau = mu_c(P, 1.0)
    for n in range(8):
        assert moment(mu_via_tau, n).value == pytest.approx(
            moment(mu_direct, n).value, abs=1e-12)


def test_tau_additive_semigroup():
    for c, d in ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7)):
        conv = additive_convolve(tau_c(P, c), tau_c(P, d))
        direct = tau_c(P, c + d)
        for n in range(7):
            assert moment(conv, n).value == pytest.approx(
                moment(direct, n).value, abs=1e-10)


def test_mu_product_semigroup():
    for c, d in ((0.5, 0.5), (0.3, 1.7)):
        conv = product_convolve(mu_c(P, c), mu_c(P, d))
        direct = mu_c(P, c + d)
        for n in range(7):
            assert moment(conv, n).value == pytest.approx(
                moment(direct, n).value, abs=1e-10)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
def test_mu_c_moments(c):
    mu = mu_c(P, c)
    seq = qbeta_moment_sequence(P, c)
    for n in range(11):
        assert moment(mu, n).value == pytest.approx(seq(n), abs=1e-10)


def test_tau_laplace_is_mu_mellin():
    tau = tau_c(P, 1.0)
    for s in (0.5, 1.0, 2.0):
        assert tau.laplace(s) == pytest.approx(
            mellin_qbeta(P, 1.0, s).real, abs=1e-10)


def test_mellin_qbeta_at_zero_and_integers():
    assert mellin_qbeta(P, 1.0, 0.0).real == pytest.approx(1.0, abs=1e-14)
    seq = qbeta_moment_sequence(P, 2.0)
    for n in range(7):
        assert mellin_qbeta(P, 2.0, n).real == pytest.approx(seq(n),
                                                             abs=1e-10)


def test_mellin_qbeta_strip():
    # needs a q^{Re z} < 1, i.e. Re z > log a / log q
    p = QParams(0.5, 0.25, 0.5)
    edge = -math.log(p.a) / math.log(p.q)  # a q^z = 1 at z = -1
    with pytest.raises(DomainError):
        mellin_qbeta(p, 1.0, edge - 0.5)


def test_hp_leading_coefficients():
    series = hp_coefficients(0.3, 0.5, 10)
    cs = series.coefficients
    assert cs[0] == 1.0
    # degree-1 term: (1-p) sum_k k q^k = (1-p) q/(1-q)^2
    assert cs[1] == pytest.approx(0.7 * 0.5 / 0.25, rel=1e-12)


@pytest.mark.parametrize("p_", [0.1, 0.3, 0.7])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_hp_nonnegative(p_, q):
    series = hp_coefficients(p_, q, 50)
    assert min(series.coefficients) >= -1e-14


def test_hp_p_one_would_be_trivial():
    series = hp_coefficients(0.0, 0.5, 5)
    assert all(c >= 0 for c in series.coefficients)


@pytest.mark.parametrize("p_, q", [(0.3, 0.5), (0.7, 0.8), (0.0, 0.3)])
def test_hp_series_matches_product(p_, q):
    # the product in log form: raising each factor to the k-th power would
    # amplify its rounding k times
    z = 0.3
    product = math.exp(math.fsum(
        k * (math.log1p(-p_ * z * q ** k) - math.log1p(-z * q ** k))
        for k in range(1, 400)))
    assert hp_coefficients(p_, q, 80)(z) == pytest.approx(product, rel=1e-13)


def test_sigma_is_probability():
    sig = sigma_abgamma(P)
    assert sig.total_mass == pytest.approx(1.0, abs=1e-10)


def test_sigma_first_moment():
    sig = sigma_abgamma(P)
    assert moment(sig, 1).value == pytest.approx(
        (1.0 - P.b) / (1.0 - P.a), abs=1e-10)


def test_sigma_moments_match_t_transform():
    sig = sigma_abgamma(P)
    s = t_transform(qbeta_moment_sequence(P))
    for n in range(7):
        assert moment(sig, n).value == pytest.approx(s(n), abs=1e-9)


def test_sigma_moments_match_product_form():
    sig = sigma_abgamma(P)
    for n in range(7):
        expected = 1.0
        for k in range(n):
            expected *= ((1.0 - P.b * P.q ** k)
                         / (1.0 - P.a * P.q ** k)) ** (n - k)
        assert moment(sig, n).value == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("a, b, q", [(0.9, 0.0, 0.9), (0.5, 0.25, 0.5)])
def test_sigma_tail_bounds_dropped_weights(a, b, q):
    sig = sigma_abgamma(QParams(a, b, q), K=200)
    cs = hp_coefficients(b / a, q, 600).coefficients
    weights = [c * a ** k for k, c in enumerate(cs)]
    dropped = math.fsum(weights[201:]) / math.fsum(weights[:201])
    assert 0.0 < dropped <= sig.truncation_error


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_qbeta_moments_reject_bad_c(c):
    with pytest.raises(DomainError):
        qbeta_moment_sequence(P, c)


def test_tau_rejects_bad_c():
    with pytest.raises(DomainError):
        tau_c(P, -1.0)
