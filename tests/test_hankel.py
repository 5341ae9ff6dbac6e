import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import (DomainError, MomentSequence, carleman_diagnostic,
                         power_sequence, stieltjes_check, trichotomy_classify)
from momentforge.errors import InconsistencyError
from momentforge import hankel


def factorial_seq():
    return MomentSequence(log_fn=lambda n: math.lgamma(n + 1.0))


def geometric_seq(r):
    return MomentSequence(log_fn=lambda n: n * math.log(r))


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_factorial_powers_are_psd(c):
    verdict = stieltjes_check(power_sequence(factorial_seq(), c), 6)
    assert verdict.is_psd
    assert verdict.min_pivot > 0


def test_lognormal_sequence_psd():
    log2 = math.log(2.0)
    s = MomentSequence(log_fn=lambda n: 0.5 * n * (n + 1) * log2)
    assert stieltjes_check(s, 6).is_psd


def test_non_moment_sequence_fails():
    # s_2 < s_1^2 violates Cauchy-Schwarz for H0
    s = MomentSequence(fn=[1.0, 2.0, 1.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                           256.0, 512.0, 1024.0, 2048.0, 4096.0,
                           8192.0].__getitem__)
    verdict = stieltjes_check(s, 6)
    assert not verdict.is_psd
    assert verdict.status == hankel.FAILED_AT
    assert verdict.failed_matrix in ("H0", "H1")


def test_hamburger_but_not_stieltjes_fails_h1():
    # moments of a measure with support reaching into negatives would
    # break H1; emulate with a sequence whose odd entries are too small
    s = MomentSequence(fn=[1.0, 0.1, 2.0, 0.2, 8.0, 0.8, 40.0, 4.0, 300.0,
                           30.0, 3000.0, 300.0, 40000.0,
                           4000.0].__getitem__)
    verdict = stieltjes_check(s, 6)
    assert not verdict.is_psd


def test_needs_enough_terms():
    with pytest.raises(DomainError):
        stieltjes_check(factorial_seq(), 0)


def test_negative_values_rejected():
    s = MomentSequence(fn=[1.0, -1.0, 1.0, -1.0].__getitem__)
    with pytest.raises(DomainError):
        stieltjes_check(s, 1)


def _factorials_with_s3(value):
    return MomentSequence(
        fn=lambda n: value if n == 3 else math.factorial(n))


@pytest.mark.parametrize("s", [
    _factorials_with_s3(math.nan), _factorials_with_s3(math.inf),
    # what power_sequence(factorial_seq(), nan) built before it refused nan
    MomentSequence(log_fn=lambda n: math.nan * math.lgamma(n + 1.0))],
    ids=["s3-nan", "s3-inf", "nan-power"])
def test_non_finite_moments_get_no_verdict(s):
    with pytest.raises(DomainError, match="finite and nonnegative"):
        stieltjes_check(s, 4)


def test_zero_containing_sequence_uses_raw_path():
    s = MomentSequence.dirac_zero(2.0)
    assert stieltjes_check(s, 4).is_psd


def test_carleman_factorial_divergent():
    diag = carleman_diagnostic(factorial_seq(), 40)
    assert diag.verdict == hankel.DIVERGENT
    assert diag.partial_sum > 0


def test_carleman_factorial_cubed_convergent():
    s = power_sequence(factorial_seq(), 3.0)
    assert carleman_diagnostic(s, 40).verdict == hankel.CONVERGENT


def test_carleman_constant_divergent():
    s = MomentSequence(fn=lambda n: 1.0)
    assert carleman_diagnostic(s, 40).verdict == hankel.DIVERGENT


def test_carleman_needs_range():
    with pytest.raises(DomainError):
        carleman_diagnostic(factorial_seq(), 4)


def test_carleman_refuses_a_zero_moment():
    with pytest.raises(DomainError, match="nonpositive moment s_1"):
        carleman_diagnostic(MomentSequence.dirac_zero(), 40)


def test_trichotomy_all_positive():
    assert trichotomy_classify(factorial_seq(), 8) == hankel.ALL_POSITIVE


def test_trichotomy_dirac_zero():
    t = trichotomy_classify(MomentSequence.dirac_zero(), 8)
    assert t == hankel.DIRAC_AT_ZERO


def test_trichotomy_symmetric():
    s = MomentSequence(fn=lambda n: 2.0 ** n if n % 2 == 0 else 0.0)
    assert trichotomy_classify(s, 8) == hankel.SYMMETRIC_ZERO_ODD


def test_trichotomy_inadmissible_pattern():
    s = MomentSequence(fn=[1.0, 0.0, 0.0, 1.0, 1.0].__getitem__)
    with pytest.raises(InconsistencyError):
        trichotomy_classify(s, 4)


def test_power_sequence_identity():
    s = factorial_seq()
    p = power_sequence(s, 1.0)
    for n in range(6):
        assert p(n) == pytest.approx(s(n))


@given(st.floats(0.2, 3.0), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_power_sequence_inverts(c, n):
    s = factorial_seq()
    back = power_sequence(power_sequence(s, c), 1.0 / c)
    assert back.log(n) == pytest.approx(s.log(n), abs=1e-9)


def test_power_sequence_rejects_nonpositive_exponent():
    with pytest.raises(DomainError):
        power_sequence(factorial_seq(), 0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_power_sequence_rejects_a_non_finite_exponent(c):
    with pytest.raises(DomainError, match="positive and finite"):
        power_sequence(factorial_seq(), c)


def test_power_sequence_keeps_the_symmetric_zero_pattern():
    # (1, 0, 4, 0, 16, ...): s_1 = 0 without being a mass at 0
    s = MomentSequence(fn=lambda n: 2.0 ** n if n % 2 == 0 else 0.0)
    p = power_sequence(s, 2.0)
    values = [p(n) for n in range(9)]
    assert values[1::2] == [0.0] * 4
    assert values[::2] == pytest.approx([1.0, 16.0, 256.0, 4096.0, 65536.0],
                                        rel=1e-14)
    assert trichotomy_classify(p, 8) == hankel.SYMMETRIC_ZERO_ODD
    dirac = power_sequence(MomentSequence.dirac_zero(4.0), 0.5)
    assert dirac(0) == pytest.approx(2.0, rel=1e-15)
    assert trichotomy_classify(dirac, 8) == hankel.DIRAC_AT_ZERO


def test_verdict_json():
    verdict = stieltjes_check(factorial_seq(), 6)
    data = verdict.to_json_dict()
    assert data["status"] == hankel.CONSISTENT_PSD
    assert data["order_tested"] == 6
