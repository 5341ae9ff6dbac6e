import cmath
import math

import numpy as np
import pytest

from momentforge import (BetaFamily, DomainError, GammaFamily,
                         LogNormalQFamily, MomentSequence, UnsupportedError,
                         affine, beta_density, beta_mellin, gamma_density,
                         gamma_mellin, mellin, moment, ratio, t_transform,
                         vc_density, vc_mellin)
from momentforge.errors import QuadratureError, RangeError
from momentforge.semigroups import _loggamma


def test_gamma_mellin_at_integers_is_pochhammer():
    fam = GammaFamily(1.5, 1.0)
    for n in range(6):
        expected = math.gamma(1.5 + n) / math.gamma(1.5)
        assert gamma_mellin(fam, n).real == pytest.approx(expected,
                                                          rel=1e-13)


def test_gamma_mellin_power():
    fam = GammaFamily(1.0, 2.0)
    # (Gamma(1+3)/Gamma(1))^2 = 36
    assert gamma_mellin(fam, 3.0).real == pytest.approx(36.0, rel=1e-13)


def test_gamma_density_moments_match_mellin():
    fam = GammaFamily(2.5, 1.0)
    dens = gamma_density(fam)
    for n in range(5):
        assert moment(dens, n).value == pytest.approx(
            gamma_mellin(fam, n).real, rel=1e-10)


def test_gamma_density_needs_c_one():
    with pytest.raises(UnsupportedError):
        gamma_density(GammaFamily(1.0, 2.0))


def test_gamma_mellin_strip():
    with pytest.raises(DomainError):
        gamma_mellin(GammaFamily(1.0, 1.0), -1.5)


def test_beta_moments_are_pochhammer_ratio():
    fam = BetaFamily(1.0, 2.5, 1.0)
    dens = beta_density(fam)
    for n in range(5):
        expected = (math.gamma(1.0 + n) / math.gamma(1.0)
                    * math.gamma(2.5) / math.gamma(2.5 + n))
        assert moment(dens, n).value == pytest.approx(expected, rel=1e-10)
        assert beta_mellin(fam, n).real == pytest.approx(expected,
                                                         rel=1e-12)


def test_beta_needs_ordered_params():
    with pytest.raises(DomainError):
        BetaFamily(2.0, 1.0, 1.0)


def test_mellin_factorization():
    # gamma_b mellin times beta(a,b) mellin equals gamma_a mellin
    a, b = 1.0, 2.0
    for z in (0.5, 1.0, 2.0 + 1.0j):
        lhs = (gamma_mellin(GammaFamily(b, 1.0), z)
               * beta_mellin(BetaFamily(a, b, 1.0), z))
        rhs = gamma_mellin(GammaFamily(a, 1.0), z)
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_vc_density_moments(q, c):
    fam = LogNormalQFamily(q, c)
    dens = vc_density(fam)
    for n in range(7):
        target = vc_mellin(fam, n).real
        got = moment(dens, n, tol=1e-11).value
        assert got == pytest.approx(target, rel=1e-8)


def test_vc_mellin_closed_form():
    fam = LogNormalQFamily(0.5, 1.0)
    for n in range(5):
        assert vc_mellin(fam, n).real == pytest.approx(
            2.0 ** (n * (n + 1) / 2.0), rel=1e-13)


@pytest.mark.parametrize("make,args", [
    (GammaFamily, (1.5,)),
    (BetaFamily, (1.0, 2.5)),
    (LogNormalQFamily, (0.5,)),
])
def test_mellin_semigroup_law(make, args):
    mell = {GammaFamily: gamma_mellin, BetaFamily: beta_mellin,
            LogNormalQFamily: vc_mellin}[make]
    for z in (0.5, 1.0, 2.0 + 1.0j):
        for c, d in ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7)):
            lhs = mell(make(*args, c), z) * mell(make(*args, d), z)
            rhs = mell(make(*args, c + d), z)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_t_transform_example():
    # a_n = (a)_n/(b)_n gives s_n = prod_{k<=n} (b)_k/(a)_k
    a, b = 1.0, 2.5

    def ratio_seq(n):
        return (math.gamma(a + n) / math.gamma(a)
                * math.gamma(b) / math.gamma(b + n))

    s = t_transform(ratio_seq)
    expected = 1.0
    for k in range(1, 5):
        expected /= ratio_seq(k)
    assert s(4) == pytest.approx(expected, rel=1e-12)


def test_t_transform_needs_normalization():
    with pytest.raises(DomainError):
        t_transform(lambda n: 2.0)


def test_t_transform_constant_is_involution_fixed_point():
    s = t_transform(lambda n: 1.0)
    for n in range(5):
        assert s(n) == 1.0


@pytest.mark.parametrize("build", [
    lambda: GammaFamily(math.nan), lambda: GammaFamily(1.0, math.inf),
    lambda: BetaFamily(1.0, math.inf), lambda: BetaFamily(1.0, 2.0, math.nan),
    lambda: LogNormalQFamily(0.5, math.nan),
    lambda: LogNormalQFamily(0.5, math.inf),
    lambda: affine(math.nan), lambda: affine(math.inf),
    lambda: ratio(1.0, math.inf),
], ids=["gamma-a-nan", "gamma-c-inf", "beta-b-inf", "beta-c-nan",
        "lognormal-c-nan", "lognormal-c-inf", "affine-nan", "affine-inf",
        "ratio-b-inf"])
def test_non_finite_family_parameters_are_refused(build):
    with pytest.raises(DomainError):
        build()


def test_family_validation():
    with pytest.raises(DomainError):
        GammaFamily(-1.0, 1.0)
    with pytest.raises(DomainError):
        LogNormalQFamily(1.5, 1.0)
    with pytest.raises(DomainError):
        LogNormalQFamily(0.5, -1.0)


@pytest.mark.parametrize("fam,density,closed", [
    (GammaFamily(1.5), gamma_density, gamma_mellin),
    (BetaFamily(1.0, 2.5), beta_density, beta_mellin),
    (LogNormalQFamily(0.5), vc_density, vc_mellin),
])
def test_density_mellin_at_complex_z(fam, density, closed):
    # one family per kind of support: a half-line with exponential decay,
    # a finite interval, a half-line with a log-normal tail
    z = 2.0 + 1.0j
    target = closed(fam, z)
    assert abs(mellin(density(fam), z).value - target) <= 1e-9 * abs(target)


@pytest.mark.parametrize("a,z", [(0.05, n) for n in range(7)]
                         + [(0.5, n) for n in range(7)]
                         + [(1.5, -1.0), (1.5, -1.4), (2.0, -1.9 + 1j)])
def test_gamma_density_singular_at_zero(a, z):
    # x^{a-1+z} is singular at 0; a = 0.05 holds 5e-16 of its mass below
    # 1e-303, so the nodes must reach that far
    fam = GammaFamily(a)
    dens = gamma_density(fam)
    value = (moment(dens, z) if isinstance(z, int) else mellin(dens, z)).value
    target = gamma_mellin(fam, z)
    assert abs(value - target) <= 1e-11 * abs(target)


def test_unresolvable_beta_mass_raises():
    # (1 - x)^{-0.9} puts 2 % of the mass within 2^-53 of 1, where no
    # binary64 x resolves it
    with pytest.raises(QuadratureError) as info:
        moment(beta_density(BetaFamily(0.5, 0.6)), 0)
    assert np.shape(info.value.value) == np.shape(info.value.residual) == ()
    assert info.value.residual > 0.01


def _within(value, reference, rel):
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def test_loggamma_on_the_real_axis_is_lgamma():
    xs = np.concatenate([np.geomspace(1e-300, 1e6, 2001),
                         np.linspace(0.01, 30.0, 2991),
                         np.arange(1.0, 31.0)])
    for x in xs:
        value = _loggamma(x)
        assert value.imag == 0.0, x
        assert _within(value.real, math.lgamma(x), 5e-14), x


def test_loggamma_modulus_on_the_critical_line():
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y), taken in logs
    for y in np.linspace(-50.0, 50.0, 2001):
        t = abs(math.pi * y)
        log_cosh = t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)
        reference = math.log(math.pi) - log_cosh
        assert _within(2.0 * _loggamma(complex(0.5, y)).real, reference,
                       5e-14), y


def test_loggamma_duplication():
    # Legendre (DLMF 5.5.5): Gamma(2z) = 2^{2z-1} Gamma(z) Gamma(z+1/2)
    # / sqrt(pi); every term is on the branch continuous from the real
    # axis, so the identity holds in logs with no multiple of 2 pi i
    for x in np.linspace(0.05, 20.0, 41):
        for y in np.linspace(-40.0, 40.0, 41):
            z = complex(x, y)
            reference = _loggamma(2.0 * z)
            value = ((2.0 * z - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
                     + _loggamma(z) + _loggamma(z + 0.5))
            assert _within(value, reference, 5e-14), z


def test_loggamma_recurrence_across_the_seam():
    # z below Re z = 15 is shifted, z + 1 above it is not
    for x in (14.0, 14.25, 14.5, 14.999, 15.0):
        for y in (0.0, 0.5, -3.0, 20.0, -60.0):
            z = complex(x, y)
            reference = _loggamma(z + 1.0)
            assert _within(_loggamma(z) + cmath.log(z), reference,
                           5e-14), z


def test_loggamma_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for x in np.linspace(0.01, 60.0, 120):
        for y in np.linspace(-60.0, 60.0, 121):
            z = complex(x, y)
            reference = complex(special.loggamma(z))
            assert _within(_loggamma(z), reference, 1e-13), z


@pytest.mark.parametrize("a", [20.0, 1e5, 1e10, 1e15])
def test_gamma_and_beta_mellin_keep_their_digits_at_large_parameters(a):
    # the difference of two Stirling sums of size a log a lost them: at
    # a = 1e15, s_1 read 7.9e13
    for n in range(6):
        assert gamma_mellin(GammaFamily(a), n).real == pytest.approx(
            math.prod(a + k for k in range(n)), rel=1e-12)
        assert beta_mellin(BetaFamily(a, 2.5 * a), n).real == pytest.approx(
            math.prod((a + k) / (2.5 * a + k) for k in range(n)), rel=1e-12)


@pytest.mark.parametrize("a", [20.0, 1e8, 1e15])
def test_gamma_mellin_recurrence_in_a_at_large_a(a):
    z = 2.0 + 3.0j
    ratio = gamma_mellin(GammaFamily(a + 1.0), z) / gamma_mellin(
        GammaFamily(a), z)
    assert abs(ratio - (a + z) / a) <= 1e-12 * abs((a + z) / a)


@pytest.mark.parametrize("mellin_of,fam,z", [
    (gamma_mellin, GammaFamily(1.0), 200),
    (gamma_mellin, GammaFamily(1.0), 171),
    (beta_mellin, BetaFamily(1.0, 1.5, 500.0), -1.0 + 1e-6),
    (vc_mellin, LogNormalQFamily(0.5), 60),
    # log-gamma itself overflows to inf, or gives nan, before exp
    (gamma_mellin, GammaFamily(1.0), 1e308),
    (gamma_mellin, GammaFamily(1.0), math.inf),
    (gamma_mellin, GammaFamily(1.0), math.nan),
    # s_2 of a shape past 1e154 overflows, and s_2 of (1)_n/(1e300)_n
    # underflows, which the difference of the log-gammas read as 1
    (gamma_mellin, GammaFamily(1e300), 2),
    (beta_mellin, BetaFamily(1.0, 1e300), 2),
])
def test_mellin_past_binary64_is_a_range_error(mellin_of, fam, z):
    with pytest.raises(RangeError):
        mellin_of(fam, z)
