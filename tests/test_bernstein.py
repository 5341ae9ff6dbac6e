import math

import numpy as np
import pytest

from momentforge import (AtomicMeasure, DomainError, LevyKhinchinRep,
                         UnsupportedError, affine, kappa_of, linear,
                         log_moment_via_rep, mobius, power_moments,
                         powertower, psi, qratio, ratio, sigma_of)
from momentforge.bernstein import (_stable_centered_power, lk_log_moment,
                                   lk_rep_of)
from momentforge.errors import PreconditionError
from momentforge.measures import DensityMeasure, integral
from momentforge.quadrature import integrate

CATALOG = [
    affine(1.0),
    affine(2.0),
    ratio(1.0, 2.0),
    ratio(0.5, 3.0),
    qratio(0.5, 0.25, 0.5),
    linear(),
    mobius(),
]

AB_PAIRS = [(0.0, 1.0), (1.0, 1.0), (0.5, 2.0)]


def admissible(f, alpha):
    return f(alpha) > 0.0


@pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
def test_affine_closed_form(s):
    assert affine(1.5)(s) == pytest.approx(1.5 + s)


def test_ratio_closed_form():
    f = ratio(1.0, 2.0)
    assert f(1.0) == pytest.approx(2.0 / 3.0)
    assert f(0.0) == pytest.approx(0.5)


def test_ratio_requires_order():
    with pytest.raises(DomainError):
        ratio(2.0, 1.0)


def test_mobius_values():
    f = mobius()
    assert f(1.0) == pytest.approx(0.5)
    assert f(0.0) == 0.0


def test_qratio_closed_form():
    f = qratio(0.5, 0.25, 0.5)
    # (1 - a q^s) / (1 - b q^s) at s = 1
    assert f(1.0) == pytest.approx((1 - 0.25) / (1 - 0.125))


def test_powertower_closed_form():
    f = powertower()
    assert f(1.0) == pytest.approx(4.0)
    assert f(2.0) == pytest.approx(2.0 * 1.5 ** 3)


def test_kappa_affine_is_exponential_density():
    kappa = kappa_of(affine(2.0))
    assert isinstance(kappa, DensityMeasure)
    assert kappa.density(1.0) == pytest.approx(math.exp(-2.0))


def test_kappa_qratio_is_atomic():
    kappa = kappa_of(qratio(0.5, 0.25, 0.5))
    assert isinstance(kappa, AtomicMeasure)
    log2 = math.log(2.0)
    assert kappa.atoms[0][0] == pytest.approx(log2)
    assert kappa.atoms[0][1] == pytest.approx((0.5 - 0.25) * log2)


def test_kappa_powertower_unsupported():
    with pytest.raises(UnsupportedError):
        kappa_of(powertower())


def test_kappa_is_laplace_transform_of_log_derivative():
    # f'/f (s) = int e^{-sx} dkappa(x), with f' = (b - a)/(b + s)^2
    f = ratio(1.0, 2.0)
    kappa = kappa_of(f)
    for s in (0.5, 1.0, 2.0):
        lhs = (2.0 - 1.0) / (2.0 + s) ** 2 / f(s)
        val, _ = integrate(
            lambda x, s=s: np.exp(-s * x) * kappa.density(x),
            0.0, math.inf, tol=1e-12)
        assert lhs == pytest.approx(val, abs=1e-10)


def test_power_moments_telescopes_for_powertower():
    seq = power_moments(powertower(), 1.0, 1.0)
    for n in range(1, 6):
        assert seq(n) == pytest.approx(float((n + 1) ** (n + 1)), rel=1e-13)


def test_power_moments_affine_is_pochhammer():
    seq = power_moments(affine(1.5), 1.0, 1.0)
    for n in range(6):
        expected = math.gamma(2.5 + n) / math.gamma(2.5)
        assert seq(n) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("entry", [
    lambda f: power_moments(f, 0.0, 1.0),
    lambda f: psi(f, 0.0, 1.0, 1.0),
    lambda f: lk_rep_of(f, 0.0, 1.0),
], ids=["power_moments", "psi", "lk_rep_of"])
def test_power_moments_needs_positive_start(entry):
    with pytest.raises(PreconditionError, match=r"f\(alpha\)=0 must be"):
        entry(linear())


@pytest.mark.parametrize("alpha, beta", [
    (1.0, 0.0), (1.0, -1.0), (-1.0, 1.0), (1.0, math.nan), (math.nan, 1.0),
    (math.inf, 1.0), (1.0, math.inf)])
@pytest.mark.parametrize("entry", [
    power_moments,
    sigma_of,
    lambda f, alpha, beta: psi(f, alpha, beta, 2.0),
    lambda f, alpha, beta: log_moment_via_rep(f, alpha, beta, 3),
], ids=["power_moments", "sigma_of", "psi", "log_moment_via_rep"])
@pytest.mark.parametrize("f", [ratio(1.0, 2.0), qratio(0.5, 0.25, 0.5)],
                         ids=["ratio", "qratio"])
def test_moment_products_need_finite_alpha_and_positive_beta(
        entry, f, alpha, beta):
    with pytest.raises(DomainError, match="finite alpha >= 0 and beta > 0"):
        entry(f, alpha, beta)


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.catalog_id)
def test_representation_identity(f):
    for alpha, beta in AB_PAIRS:
        if not admissible(f, alpha):
            continue
        seq = power_moments(f, alpha, beta)
        for n in (0, 1, 2, 5, 10, 15):
            rep = log_moment_via_rep(f, alpha, beta, n).value
            assert rep == pytest.approx(seq.log(n), abs=1e-7)


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.catalog_id)
def test_psi_at_integers(f):
    for alpha, beta in AB_PAIRS:
        if not admissible(f, alpha):
            continue
        seq = power_moments(f, alpha, beta)
        for n in (0, 1, 2, 7, 15):
            assert psi(f, alpha, beta, float(n)).value == pytest.approx(
                -seq.log(n), abs=1e-7)


def test_psi_normalizations_exact():
    f = ratio(1.0, 2.0)
    assert abs(psi(f, 1.0, 1.0, 0.0).value) < 1e-12
    assert psi(f, 1.0, 1.0, 1.0).value == pytest.approx(-math.log(f(1.0)),
                                                        abs=1e-12)


def test_psi_between_integers_is_finite_and_concaveish():
    f = affine(1.0)
    values = [psi(f, 1.0, 1.0, z).value for z in (0.5, 1.5, 2.5)]
    assert all(math.isfinite(v) for v in values)


def test_sigma_qratio_is_atomic_probability_like():
    f = qratio(0.5, 0.25, 0.5)
    sigma = sigma_of(f, 1.0, 1.0)
    assert isinstance(sigma, AtomicMeasure)
    assert all(0.0 < loc < 1.0 for loc, _ in sigma.atoms)
    assert all(wt > 0 for _, wt in sigma.atoms)


def test_sigma_density_moment_condition():
    # total sigma mass may diverge near 1, but int (1 - u)^2 dsigma must
    # be finite for the representation integral to converge
    f = affine(1.0)
    sigma = sigma_of(f, 1.0, 1.0)
    val, _ = integrate(lambda u: (1.0 - u) ** 2 * sigma.density(u),
                       0.0, 1.0, tol=1e-9)
    assert math.isfinite(val) and val > 0


def test_sigma_alpha_zero_requires_positive_f0():
    with pytest.raises(Exception):
        sigma_of(linear(), 0.0, 1.0)


def test_lk_log_moment_matches_rep():
    f = affine(1.0)
    rep = lk_rep_of(f, 1.0, 1.0)
    seq = power_moments(f, 1.0, 1.0)
    for n in (2, 5):
        assert lk_log_moment(rep, n).value == pytest.approx(seq.log(n),
                                                            abs=1e-8)


def test_sigma_integral_of_linear_covers_its_error():
    # sigma's density is u^{-3/4} / (-log u) at 0: the nodes must reach
    # far below 1e-38 for order 15 to meet 1e-12
    f = linear()
    seq = power_moments(f, 0.5, 2.0)
    values = log_moment_via_rep(f, 0.5, 2.0, range(16)).value
    assert max(abs(values[n] - seq.log(n)) for n in range(16)) <= 1e-12
    r = integral(sigma_of(f, 0.5, 2.0),
                 lambda u: _stable_centered_power(u, 15), 1e-11)
    exact = seq.log(15) - 15 * math.log(f(0.5))
    assert abs(r.value - exact) <= r.abs_error + 4 * 2.0 ** -52 * abs(exact)


def test_ratio_rejects_b_below_a():
    # the parameter check 0 < a < b refuses b < a
    with pytest.raises(DomainError):
        ratio(3.0, 0.5)


def test_atomic_lk_log_moment_matches_per_atom_sum():
    f = qratio(0.5, 0.25, 0.5)
    for alpha, beta in AB_PAIRS:
        rep = lk_rep_of(f, alpha, beta)
        assert isinstance(rep.sigma, AtomicMeasure)
        for n in range(16):
            expected = rep.a * n + rep.b * n * n + math.fsum(
                wt * float(_stable_centered_power(u, n))
                for u, wt in rep.sigma.atoms)
            assert lk_log_moment(rep, n).value == pytest.approx(
                expected, rel=1e-14, abs=0.0)


def test_atomic_psi_normalizations():
    f = qratio(0.5, 0.25, 0.5)
    for alpha, beta in AB_PAIRS:
        assert abs(psi(f, alpha, beta, 0.0).value) <= 1e-12
        assert abs(psi(f, alpha, beta, 1.0).value
                   + math.log(f(alpha))) <= 1e-12


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.catalog_id)
def test_psi_at_real_z_is_real_and_exact_at_zero_and_one(f):
    # at z = 0 and z = 1 the integrand vanishes identically in real
    # arithmetic, so psi(0) = 0 and psi(1) = -log f(alpha) exactly
    for alpha, beta in AB_PAIRS:
        if not admissible(f, alpha):
            continue
        values = psi(f, alpha, beta, range(4)).value
        assert values.dtype == np.float64
        assert values[0] == 0.0
        assert values[1] == -math.log(f(alpha))
        assert isinstance(psi(f, alpha, beta, 2).value, float)
    assert psi(f, 1.0, 1.0, [1.0, 2 + 1j]).value.dtype == np.complex128


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.catalog_id)
def test_all_orders_in_one_call_match_the_scalar_calls(f):
    for alpha, beta in AB_PAIRS:
        if not admissible(f, alpha):
            continue
        together = log_moment_via_rep(f, alpha, beta, range(16)).value
        assert together.shape == (16,)
        for n in range(16):
            alone = log_moment_via_rep(f, alpha, beta, n).value
            assert isinstance(alone, float)
            # both meet tol = 1e-11 relative to max(1, |I|), as estimated;
            # for linear at n = 8 they differ by 1.2e-10 at |I| = 13
            assert abs(together[n] - alone) <= 1e-10 * max(1.0, abs(alone)), n


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.catalog_id)
def test_psi_over_a_sequence_matches_the_scalar_calls(f):
    zs = [0, 0.5, 1, 2 + 1j, 15]
    for alpha, beta in AB_PAIRS:
        if not admissible(f, alpha):
            continue
        together = psi(f, alpha, beta, zs).value
        assert together.shape == (5,)
        for z, value in zip(zs, together):
            assert abs(value - psi(f, alpha, beta, z).value) <= 1e-10, z
        assert together.dtype == complex
        assert psi(f, alpha, beta, zs[:2]).value.dtype == float


def test_psi_refuses_a_sequence_with_negative_real_part():
    with pytest.raises(DomainError):
        psi(affine(1.0), 1.0, 1.0, [0.5, 2.0, -0.25 + 1j])


@pytest.mark.parametrize("z", [math.nan, math.inf, [1.0, math.nan]])
def test_psi_refuses_a_non_finite_z(z):
    with pytest.raises(DomainError, match="finite z"):
        psi(ratio(1.0, 2.0), 1.0, 1.0, z)


@pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf, [1, -2]])
@pytest.mark.parametrize("entry", [
    lambda n: log_moment_via_rep(ratio(1.0, 2.0), 1.0, 1.0, n),
    lambda n: lk_log_moment(LevyKhinchinRep(0.5, 0.0, None), n),
], ids=["log_moment_via_rep", "lk_log_moment"])
def test_log_moments_need_nonnegative_integer_orders(entry, n):
    with pytest.raises(DomainError, match="nonnegative integer"):
        entry(n)


def test_centered_powers_in_one_pass_match_each_order():
    u = np.linspace(0.0, 2.0, 41)
    together = _stable_centered_power(u, [3, 0, 15, 1])
    assert together.shape == (41, 4)
    for column, n in enumerate([3, 0, 15, 1]):
        assert np.array_equal(together[:, column],
                              _stable_centered_power(u, n))


# each evaluator as (scalar call, sequence call) on ratio(1, 2) at
# alpha = beta = 1, where kappa and sigma are densities
_REP_EVALUATORS = {
    "psi": lambda f, x: psi(f, 1.0, 1.0, x),
    "log_moment_via_rep": lambda f, x: log_moment_via_rep(f, 1.0, 1.0, x),
    "lk_log_moment": lambda f, x: lk_log_moment(lk_rep_of(f, 1.0, 1.0), x),
}


@pytest.mark.parametrize("name", sorted(_REP_EVALUATORS))
def test_rep_evaluators_report_their_integral_error(name):
    evaluate = _REP_EVALUATORS[name]
    f = ratio(1.0, 2.0)
    alone = evaluate(f, 5)
    assert isinstance(alone.value, float)
    assert isinstance(alone.abs_error, float)
    assert math.isfinite(alone.abs_error) and alone.abs_error >= 0.0
    together = evaluate(f, range(16))
    assert together.value.shape == together.abs_error.shape == (16,)
    assert np.isfinite(together.abs_error).all()
    assert (together.abs_error >= 0.0).all()
    # the quadrature's level difference, not a dropped 0
    assert (together.abs_error > 0.0).any()


def test_lk_log_moment_without_sigma_reports_no_error():
    rep = LevyKhinchinRep(0.5, 0.1, None)
    assert lk_log_moment(rep, 3).abs_error == 0.0
    assert lk_log_moment(rep, [1, 2]).abs_error.tolist() == [0.0, 0.0]


def test_psi_at_complex_z_reports_a_real_error():
    r = psi(ratio(1.0, 2.0), 1.0, 1.0, 2.0 + 1.0j)
    assert isinstance(r.value, complex)
    assert isinstance(r.abs_error, float) and r.abs_error >= 0.0
