import math

import numpy as np
import pytest

from momentforge import (AtomicMeasure, DomainError, MomentSequence,
                         QParams, additive_convolve, hp_coefficients,
                         mellin, mellin_qbeta, moment, mu_abq, mu_c, nu_a,
                         product_convolve, pushforward,
                         qbeta_moment_sequence, qbinomial_check, qpoch,
                         sigma_abgamma, tau_c)
from momentforge.bernstein import (affine, kappa_of, power_moments,
                                   powertower, qratio, ratio)
from momentforge.errors import BudgetError, RangeError
from momentforge.measures import geometric_cut
from momentforge.qseries import (_exp_series, _factor_count, _hp_log_terms,
                                 _radii, _tau_head)
from momentforge.verify import _ABQ_GRID
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


@pytest.mark.parametrize("n", [2.5, -0.5, -1, math.nan, -math.inf])
def test_qpoch_rejects_n_that_is_not_a_count(n):
    with pytest.raises(DomainError):
        qpoch(0.5, 0.5, n)


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


def test_mu_abq_moves_underflowing_atoms_into_truncation_error():
    # q^k underflows to 0 past k = 1074 while a^k is still above tol
    p = QParams(0.97, 0.5, 0.5)
    mu = mu_abq(p)
    assert mu.locations()[0] > 0.0
    assert abs(mu.total_mass + mu.truncation_error - 1.0) <= 1e-12
    seq = qbeta_moment_sequence(p)
    for n in range(8):
        assert abs(moment(mu, n).value - seq(n)) <= 1e-12


def test_qbinomial_identity():
    assert qbinomial_check(0.5, 0.5, 0.5) < 1e-12
    assert qbinomial_check(0.0, 0.5, 0.5) < 1e-14


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


def _dropped_mass(c, N, w0):
    """The weights past w_N of the recurrence at P, run to 4N, summed."""
    j = np.arange(1, 4 * N + 1)
    w = _exp_series(c * (P.a ** j - P.b ** j) / (1.0 - P.q ** j), w0)
    return math.fsum(w[N + 1:])


@pytest.mark.parametrize("c", [0.5, 2.5])
def test_tau_truncation_error_bounds_dropped_mass(c):
    tau = tau_c(P, c)
    dropped = _dropped_mass(c, len(tau.atoms), tau.zero_mass)
    assert 0.0 < dropped <= tau.truncation_error


@pytest.mark.parametrize("c", [0.5, 2.5])
def test_mu_truncation_error_bounds_dropped_mass(c):
    mu = mu_c(P, c)
    # w_0 is the atom at e^0 = 1, the last in ascending order
    location, w0 = mu.atoms[-1]
    assert location == 1.0
    dropped = _dropped_mass(c, len(mu.atoms) - 1, w0)
    assert 0.0 < dropped <= mu.truncation_error


def test_tau_keeps_few_atoms():
    assert len(tau_c(P, 1.0).atoms) <= 200


def _tau_cut_reference(p, c, order, tol=1e-14):
    """The lattice cut N and truncation_error at amplification exponent
    ``order`` (8 for tau_c, 0 for mu_c), with the Cauchy head taken one
    qpoch at a time, each with its own factor count."""
    a, b, q = p.a, p.b, p.q
    log1q = math.log(1.0 / q)
    log_w0 = c * (math.log(qpoch(a, q)) - math.log(qpoch(b, q)))
    radii = _radii(1.0, 1.0 / a)
    log_head = np.array([
        log_w0 + c * (math.log(qpoch(b * r, q)) - math.log(qpoch(a * r, q)))
        - math.log1p(-1.0 / r) for r in radii])
    N, last = 0, None
    while N != last:
        last = N
        N, tail = geometric_cut(log_head, -np.log(radii),
                                tol / max(1.0, (N + 1) * log1q) ** order)
    return N, tail


# every (a, b, q, c) at which the qseries and semigroup suites build tau_c
_SUITE_TAU_ARGS = sorted(
    {(a, b, q, c) for a, b, q in _ABQ_GRID for c in (0.5, 1.0, 2.0, 3.0)}
    | {(0.5, 0.25, 0.5, c) for c in (0.3, 0.5, 1.0, 1.7, 2.0, 3.0)})


def test_tau_cut_matches_the_head_taken_one_radius_at_a_time():
    for a, b, q, c in _SUITE_TAU_ARGS:
        tau = tau_c(QParams(a, b, q), c)
        N, tail = _tau_cut_reference(QParams(a, b, q), c, 8)
        assert len(tau.atoms) == N, (a, b, q, c)
        # the heads differ by rounding and by factors within 1e-14 of 1,
        # which the 1e-12 that geometric_cut adds to each head covers
        assert tau.truncation_error == pytest.approx(tail, rel=1e-12, abs=0)


def test_mu_cut_matches_the_head_taken_one_radius_at_a_time():
    for a, b, q, c in _SUITE_TAU_ARGS:
        mu = mu_c(QParams(a, b, q), c)
        N, tail = _tau_cut_reference(QParams(a, b, q), c, 0)
        # w_1..w_N and w_0, no image of which underflows on this grid
        assert len(mu.atoms) == N + 1, (a, b, q, c)
        assert mu.truncation_error == pytest.approx(tail, rel=1e-12, abs=0)


def _tau_c_reference(p, c, order):
    """tau_c's lattice cut at amplification exponent ``order``, with its
    whole Cauchy head built afresh at every call, one c at a time."""
    a, b, q = p.a, p.b, p.q
    log1q = math.log(1.0 / q)
    log_w0 = c * (math.log(qpoch(a, q)) - math.log(qpoch(b, q)))
    radii = _radii(1.0, 1.0 / a)
    qk = q ** np.arange(_factor_count(a * radii[-1], q))
    log_poch = np.log1p(-np.multiply.outer(qk, np.append(b * radii,
                                                         a * radii)))
    log_br, log_ar = np.split(log_poch.sum(axis=0), 2)
    log_head = log_w0 + c * (log_br - log_ar) - np.log1p(-1.0 / radii)
    N, last = 0, None
    while N != last:
        last = N
        N, tail = geometric_cut(log_head, -np.log(radii),
                                1e-14 / max(1.0, (N + 1) * log1q) ** order)
    j = np.arange(1, N + 1)
    w = _exp_series(c * (a ** j - b ** j) / (1.0 - q ** j), math.exp(log_w0))
    return AtomicMeasure.on_lattice((log1q,), j, w[1:], zero_mass=w[0],
                                    truncation_error=tail)


# 187 and 255 atoms of the lattices of these mu_c, and 2235 and 2324 of
# these tau_c, have locations whose image e^{-x} underflows; in mu_c their
# mass joins truncation_error, which passes 1e-14 at c = 1.0
_UNDERFLOW_TAU_ARGS = [(0.97, 0.5, 0.5, 0.5), (0.97, 0.5, 0.5, 1.0)]


# at c = 1e-300, 1654 of the 3197 weights of tau_c underflow to 0, all
# among the 2123 whose image underflows; tau_c drops them
@pytest.mark.parametrize("a, b, q, c", _SUITE_TAU_ARGS + _UNDERFLOW_TAU_ARGS
                         + [(0.97, 0.5, 0.5, 1e-300)])
def test_semigroup_lattices_equal_the_one_c_at_a_time_build(a, b, q, c):
    p = QParams(a, b, q)
    tau = tau_c(p, c)
    reference = _tau_c_reference(p, c, 8)
    assert tau.atoms == reference.atoms
    assert tau.zero_mass == reference.zero_mass
    assert tau.truncation_error == reference.truncation_error
    # mu_c is the image of the lattice cut with no amplification
    mu = mu_c(p, c)
    lattice = _tau_c_reference(p, c, 0)
    image = pushforward(lattice)
    assert mu.atoms == image.atoms
    assert mu.zero_mass == image.zero_mass == 0.0
    assert mu.truncation_error == image.truncation_error
    if (a, b, q, c) in _UNDERFLOW_TAU_ARGS:
        assert (np.exp(-tau.locations()) == 0.0).sum() > 2000
        assert (np.exp(-lattice.locations()) == 0.0).sum() > 150
        assert lattice.truncation_error < mu.truncation_error < 2e-14


@pytest.mark.parametrize("a, b, q, c", _SUITE_TAU_ARGS)
def test_mu_moments_match_the_image_of_the_amplified_lattice(a, b, q, c):
    # the image of tau_c's lattice is mu_c as cut to cover tau_c's moments;
    # mu_c's own cut moves no moment by more than its dropped mass
    p = QParams(a, b, q)
    mu = mu_c(p, c)
    longer = pushforward(_tau_c_reference(p, c, 8))
    orders = np.arange(11)
    gap = np.abs(moment(mu, orders).value - moment(longer, orders).value)
    assert (gap <= mu.truncation_error).all(), gap.max()


def test_tau_head_is_shared_whatever_the_order_of_the_calls():
    args = [(QParams(a, b, q), c) for a, b, q in _ABQ_GRID[:4]
            for c in (0.5, 2.0)]
    _tau_head.cache_clear()
    forward = [(tau_c(p, c), mu_c(p, c)) for p, c in args]
    _tau_head.cache_clear()
    backward = [(mu_c(p, c), tau_c(p, c)) for p, c in reversed(args)]
    warm = [(tau_c(p, c), mu_c(p, c)) for p, c in args]
    assert forward == [pair[::-1] for pair in reversed(backward)] == warm
    # b = 0.0 and b = -0.0 are one QParams and share one head
    _tau_head.cache_clear()
    first = tau_c(QParams(0.5, -0.0, 0.5), 1.0)
    assert _tau_head(QParams(0.5, 0.0, 0.5)) is _tau_head(
        QParams(0.5, -0.0, 0.5))
    _tau_head.cache_clear()
    assert tau_c(QParams(0.5, 0.0, 0.5), 1.0) == first


def test_tau_head_arrays_refuse_writes():
    for array in _tau_head(P)[1:]:
        with pytest.raises(ValueError):
            array[0] = 0.0


def _sigma_cut_reference(p):
    """sigma_abgamma's K, weights by k and truncation_error, with the
    Cauchy head taken one radius at a time, each from its own 2000-term
    log series."""
    a, b, q = p.a, p.b, p.q
    M = 2000

    def log_hp_upper(r):
        head = float(np.sum(_hp_log_terms(b / a, q, M, r)
                            / np.arange(1, M + 1)))
        x = q * r
        return head + x ** (M + 1) / ((M + 1) * (1.0 - q) ** 2 * (1.0 - x))

    radii = _radii(a, 1.0 / q)
    log_head = np.array([log_hp_upper(r) - math.log1p(-a / r)
                         for r in radii])
    log_ratio = np.log(a / radii)
    log_norm = float(np.sum(_hp_log_terms(b / a, q, M, a)
                            / np.arange(1, M + 1))) * (1.0 - 1e-12)
    K, _ = geometric_cut(log_head - log_norm, log_ratio, 1e-14)
    weights = _exp_series(_hp_log_terms(b / a, q, K, a))
    norm = float(weights.sum())
    tail = math.exp(float(np.min(log_head + (K + 1) * log_ratio))
                    - math.log(norm))
    return K, weights / norm, tail


def test_sigma_cut_matches_the_head_taken_one_radius_at_a_time():
    for a, b, q in _ABQ_GRID:
        sig = sigma_abgamma(QParams(a, b, q))
        K, weights, tail = _sigma_cut_reference(QParams(a, b, q))
        assert len(sig.atoms) == K + 1, (a, b, q)
        # the atoms are in ascending location, k = K first
        assert sig.weights().tobytes() == weights[::-1].tobytes()
        assert sig.truncation_error == tail


@pytest.mark.parametrize("make", [mu_abq, lambda p: mu_c(p, 1.0)],
                         ids=["mu_abq", "mu_c"])
def test_underflowing_mass_above_tol_is_refused(make):
    # at q = 0.5 only q^0..q^1074 are representable; the atoms past them
    # carry 2.0e-5 at a = 0.99 and 1.5e-12 at a = 0.975
    for a in (0.975, 0.99):
        with pytest.raises(BudgetError, match="underflows"):
            make(QParams(a, 0.5, 0.5))


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


def test_product_convolve_moves_indices_past_underflow_into_the_error():
    # mu_c's indices run to 1074, whose q^n is the least subnormal; the
    # product's run to 2148, and the mass past 1074 joins its error
    p = QParams(0.97, 0.5, 0.5)
    m = mu_c(p, 0.5)
    assert m.index[0] == 1074
    conv = product_convolve(m, m)
    direct = mu_c(p, 1.0)
    assert abs(conv.total_mass - 1.0) <= conv.truncation_error + 1e-12
    orders = np.arange(7)
    gap = np.abs(moment(conv, orders).value - moment(direct, orders).value)
    assert (gap <= conv.truncation_error + direct.truncation_error
            + 1e-15).all(), gap.max()


def test_mu_abq_and_mu_c_lie_on_one_lattice_and_convolve():
    conv = product_convolve(mu_abq(P), mu_c(P, 1.0))
    seq = qbeta_moment_sequence(P)
    orders = np.arange(9)
    gap = np.abs(moment(conv, orders).value
                 - np.array([seq(n) ** 2 for n in orders]))
    assert (gap <= conv.truncation_error + 1e-14).all(), gap.max()


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
def test_mu_c_moments(c):
    mu = mu_c(P, c)
    seq = qbeta_moment_sequence(P, c)
    for n in range(11):
        assert moment(mu, n).value == pytest.approx(seq(n), abs=1e-10)


def test_tau_laplace_is_mu_mellin():
    tau = tau_c(P, 1.0)
    for s in (0.5, 1.0, 2.0):
        assert tau.laplace(s).value == pytest.approx(
            mellin_qbeta(P, 1.0, s).real, abs=1e-10)


def test_mu_c_mellin_at_complex_z():
    z = 1.5 + 2.0j
    got = mellin(mu_c(P, 2.5), z).value
    assert abs(got - mellin_qbeta(P, 2.5, z)) <= 1e-12


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
    cs = hp_coefficients(p_, q, 80).coefficients
    assert sum(c * z ** k for k, c in enumerate(cs)) == pytest.approx(
        product, rel=1e-13)


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


def test_sigma_default_K_from_normalized_bound():
    # choosing K against the unnormalized bound kept 774 weights here
    a, b, q = 0.9, 0.0, 0.9
    sig = sigma_abgamma(QParams(a, b, q))
    assert len(sig.atoms) <= 400
    K = len(sig.atoms) - 1
    cs = hp_coefficients(b / a, q, 4 * K).coefficients
    weights = [c * a ** k for k, c in enumerate(cs)]
    dropped = math.fsum(weights[K + 1:]) / math.fsum(weights)
    assert dropped <= sig.truncation_error <= 1e-14


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_qbeta_moments_reject_bad_c(c):
    with pytest.raises(DomainError):
        qbeta_moment_sequence(P, c)


@pytest.mark.parametrize("c", [0.0, math.nan, math.inf])
def test_mellin_qbeta_rejects_bad_c(c):
    with pytest.raises(DomainError):
        mellin_qbeta(P, c, 1.0)


def test_tau_rejects_bad_c():
    with pytest.raises(DomainError):
        tau_c(P, -1.0)


@pytest.mark.parametrize("build", [tau_c, mu_c], ids=["tau_c", "mu_c"])
@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_semigroup_members_reject_c_that_is_not_finite(build, c):
    # the match keeps a DomainError from a later step, such as the term
    # limit of the cut at c = nan, from passing for this check
    with pytest.raises(DomainError, match="c must be positive and finite"):
        build(P, c)


# w_0 = ((a;q)_inf/(b;q)_inf)^c is e^-944 and e^-1242, which round to 0,
# and e^-739, which is subnormal
@pytest.mark.parametrize("build", [tau_c, mu_c], ids=["tau_c", "mu_c"])
@pytest.mark.parametrize("a, b, q, c", [(0.5, 0.25, 0.999, 3.0),
                                        (0.5, 0.25, 0.999, 2.35),
                                        (0.5, 0.0, 0.5, 1000.0)])
def test_semigroup_members_whose_w0_underflows_are_refused(build, a, b, q,
                                                           c):
    with pytest.raises(RangeError, match="underflows binary64"):
        build(QParams(a, b, q), c)


#: each lattice measure at (a, b) with q = 0.5, cut at tol
LATTICES = {
    "mu_abq": lambda a, b, tol: mu_abq(QParams(a, b, 0.5), tol),
    "nu_a": lambda a, b, tol: nu_a(a, 0.5, tol),
    "qratio-kappa": lambda a, b, tol: kappa_of(qratio(a, b, 0.5, tol)),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("a, b", [(0.5, 0.1), (0.9, 0.05), (0.5, 0.25)])
def test_truncation_error_bounds_the_dropped_mass(name, a, b):
    # the atoms a long cut keeps past the default one are the dropped mass
    # (up to 1e-40, and short of q^k underflowing at k = 1075)
    build = LATTICES[name]
    cut = build(a, b, 1e-14)
    kept = {loc for loc, _ in cut.atoms}
    dropped = sum(wt for loc, wt in build(a, b, 1e-40).atoms
                  if loc not in kept)
    assert dropped > 0.0
    assert cut.truncation_error >= dropped


def _exp_series_reference(jl, c0=1.0):
    """The exp-series recurrence with c_{n-1}, ..., c_0 read as a reversed
    slice of the coefficients."""
    c = np.zeros(len(jl) + 1)
    c[0] = c0
    for n in range(1, len(c)):
        c[n] = np.dot(jl[:n], c[n - 1::-1]) / n
    return c


def test_exp_series_equals_the_slice_recurrence_bit_for_bit():
    for a, b, q in _ABQ_GRID:
        for c in (0.5, 1.0, 2.0, 3.0):
            tau = tau_c(QParams(a, b, q), c)
            j = np.arange(1, len(tau.atoms) + 1)
            jl = c * (a ** j - b ** j) / (1.0 - q ** j)
            series = _exp_series(jl, tau.zero_mass)
            reference = _exp_series_reference(jl, tau.zero_mass)
            assert series.tobytes() == reference.tobytes()
            assert series[1:].tobytes() == tau.weights().tobytes()
    for p_ in (0.1, 0.3, 0.7):
        for q in (0.3, 0.5, 0.8):
            reference = _exp_series_reference(_hp_log_terms(p_, q, 50))
            assert (hp_coefficients(p_, q, 50).coefficients
                    == tuple(reference.tolist()))


def _qbeta_log_reference(p, c, n):
    total = 0.0
    for k in range(n):
        total += math.log1p(-p.a * p.q ** k) - math.log1p(-p.b * p.q ** k)
    return c * total


def _power_log_reference(f, alpha, beta, n):
    total = 0.0
    for k in range(n):
        total += math.log(f(alpha + k * beta))
    return total


def _t_transform_log_reference(a, n):
    total = 0.0
    for k in range(1, n + 1):
        total -= math.log(a(k))
    return total


@pytest.mark.parametrize("calls", [[10, 3, 0, 11, 7], [0, 1, 2, 5, 4, 12]])
def test_qbeta_moment_sequence_equals_the_loop_in_any_call_order(calls):
    # (sequence, its log s_n summed in the order of k); the T-transforms
    # and power_moments share qbeta_moment_sequence's running log-sum
    cases = []
    for p in (P, QParams(0.7, 0.0, 0.8)):
        cases.append((qbeta_moment_sequence(p, 2.5),
                      lambda n, p=p: _qbeta_log_reference(p, 2.5, n)))
    for a in (qbeta_moment_sequence(P),
              MomentSequence(log_fn=lambda n: -math.log1p(n))):
        cases.append((t_transform(a),
                      lambda n, a=a: _t_transform_log_reference(a, n)))
    for f in (affine(1.0), ratio(0.5, 3.0), qratio(0.5, 0.25, 0.5),
              powertower()):
        for alpha, beta in ((1.0, 1.0), (0.5, 2.0)):
            cases.append((power_moments(f, alpha, beta),
                          lambda n, f=f, alpha=alpha, beta=beta:
                          _power_log_reference(f, alpha, beta, n)))
    for seq, reference in cases:
        for n in calls:
            assert seq.log(n) == reference(n)
            assert seq(n) == math.exp(reference(n))
