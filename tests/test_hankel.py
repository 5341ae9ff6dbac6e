import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import (DomainError, MomentSequence, carleman_diagnostic,
                         power_sequence, stieltjes_check, trichotomy_classify)
from momentforge.errors import InconsistencyError
from momentforge import hankel, qseries, semigroups
from momentforge.verify import _lognormal_seq, _poch_ratio_seq, _poch_seq


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


def test_a_mass_at_zero_is_psd_on_the_one_scaled_path():
    s = MomentSequence.dirac_zero(2.0)
    assert stieltjes_check(s, 4).is_psd


def _head(*values):
    """The sequence that starts with ``values`` and is 0 after them."""
    return MomentSequence(
        fn=lambda n: values[n] if n < len(values) else 0.0)


PSD = (hankel.CONSISTENT_PSD, None, None)


def _failed(order, matrix):
    return (hankel.FAILED_AT, order, matrix)


@pytest.mark.parametrize("s, verdicts", [
    # (0, 1, 0, ...): s_0 = 0 forces s_1 = 0
    (_head(0.0, 1.0), [_failed(0, "H0")] * 3),
    (_head(1.0, 0.0, 0.0, 1.0), [PSD] + [_failed(1, "H0")] * 2),
    # 1/2 delta_{-2} + 1/2 delta_2: a Hamburger but not a Stieltjes sequence
    (MomentSequence(fn=lambda n: 2.0 ** n if n % 2 == 0 else 0.0),
     [_failed(0, "H1")] * 3),
    (_head(1.0, 1e305), [_failed(1, "H0")] * 3),
    (MomentSequence.dirac_zero(2.0), [PSD] * 3),
    (_head(1.0, 0.5), [_failed(1, "H0")] * 3),
    # the zero measure
    (MomentSequence(fn=lambda n: 0.0), [PSD] * 3),
], ids=["0-1-0", "1-0-0-1", "symmetric-pm2", "1-1e305", "dirac-zero",
        "1-half-0", "all-zero"])
def test_verdicts_of_sequences_with_zero_moments(s, verdicts):
    # once a pivot is at most PSD_TOL the whole remaining block is read,
    # not only its diagonal, so none of these is waved through
    for N, expected in zip((1, 2, 3), verdicts):
        verdict = stieltjes_check(s, N)
        assert (verdict.status, verdict.failed_order,
                verdict.failed_matrix) == expected, N
        assert (verdict.min_pivot < 0) == (not verdict.is_psd)


def _verify_hankel_sequences():
    qb = qseries.qbeta_moment_sequence(qseries.QParams(0.5, 0.25, 0.5))
    return {"factorial": _poch_seq(1.0), "pochhammer:1.5": _poch_seq(1.5),
            "pochhammer-ratio:1:2.5": _poch_ratio_seq(1.0, 2.5),
            "qbeta:0.5:0.25:0.5": qb, "lognormal:0.5": _lognormal_seq(0.5),
            "t-transform-qbeta": semigroups.t_transform(qb)}


#: min_pivot of each ``psd:`` sequence of ``verify hankel`` at c = 0.5, 1,
#: 2 and N = 6, 8, recorded before zero moments joined the scaled matrix;
#: every one of these sequences is positive, so they keep them bit for bit
_VERIFY_HANKEL_MIN_PIVOTS = {
    "factorial": [
        "0x1.79e22400947c0p-20", "0x1.ae06151412f50p-27",
        "0x1.132bf1ca53d58p-15", "0x1.7ef74ecae20d8p-21",
        "0x1.065f6e24cd8f0p-10", "0x1.3978ec48bc370p-15"],
    "pochhammer:1.5": [
        "0x1.b914222516e60p-21", "0x1.21ecdae60c900p-28",
        "0x1.56b4af539d068p-16", "0x1.14b10059025b0p-22",
        "0x1.5dc2c91291be0p-11", "0x1.c580cccb0fe60p-16"],
    "pochhammer-ratio:1:2.5": [
        "0x1.8e38008b6d1c0p-27", "0x1.631f23a4ca960p-35",
        "0x1.06c53be37f430p-24", "0x1.007ab6cc49c40p-34",
        "0x1.11b8d6a200620p-21", "0x1.7b337a00003a0p-31"],
    "qbeta:0.5:0.25:0.5": [
        "0x1.75d0a1987ee00p-38", "0x1.9589ca9fd3400p-41",
        "0x1.82e77f7d67800p-42", "0x1.39747944dfa00p-43",
        "0x1.43b99c079a800p-39", "0x1.04cc5085bb800p-40"],
    "lognormal:0.5": [
        "0x1.7aa2a890bc72cp-9", "0x1.101e02c07101cp-10",
        "0x1.0ff917be61826p-4", "0x1.a269287ef6dcdp-5",
        "0x1.c19738b0197edp-2", "0x1.b635bac0cdf2ep-2"],
    "t-transform-qbeta": [
        "0x1.7f1b2747bc800p-42", "0x1.a340f94cb9000p-45",
        "0x1.3386aaa0acc00p-39", "0x1.50b68d81f7800p-42",
        "0x1.03a61c7f13800p-42", "0x1.bef1fc020a400p-44"],
}


def test_verify_hankel_sequences_keep_their_min_pivots_bit_for_bit():
    for name, seq in _verify_hankel_sequences().items():
        got = []
        for c in (0.5, 1.0, 2.0):
            for N in (6, 8):
                verdict = stieltjes_check(power_sequence(seq, c), N)
                assert verdict.is_psd, (name, c, N)
                got.append(float(verdict.min_pivot).hex())
        assert got == _VERIFY_HANKEL_MIN_PIVOTS[name], name


def test_a_sequence_past_binary64_gets_a_verdict():
    # s_12 = (12!)^40 overflows binary64, its log does not
    verdict = stieltjes_check(power_sequence(factorial_seq(), 40.0), 8)
    assert verdict.is_psd
    assert verdict.min_pivot == pytest.approx(0.8466, abs=1e-4)


class _LogsOnly:
    """A sequence that can only be read as its logs."""

    def __init__(self, log_fn):
        self.log = log_fn


def test_the_hankel_layer_reads_only_logs():
    logs = _LogsOnly(lambda n: math.lgamma(n + 1.0))
    assert stieltjes_check(logs, 6).is_psd
    assert carleman_diagnostic(logs, 40).verdict == hankel.DIVERGENT
    assert trichotomy_classify(logs, 8) == hankel.ALL_POSITIVE
    zeros = _LogsOnly(lambda n: 0.0 if n == 0 else -math.inf)
    assert trichotomy_classify(zeros, 8) == hankel.DIRAC_AT_ZERO


def test_trichotomy_refuses_a_nan_moment():
    with pytest.raises(DomainError, match="finite and nonnegative"):
        trichotomy_classify(_factorials_with_s3(math.nan), 6)


def test_carleman_refuses_a_nan_log():
    s = MomentSequence(
        log_fn=lambda n: math.nan if n == 9 else math.lgamma(n + 1.0))
    with pytest.raises(DomainError, match="finite and nonnegative"):
        carleman_diagnostic(s, 40)


def test_trichotomy_refuses_a_negative_moment():
    with pytest.raises(DomainError, match="nonpositive moment s_1"):
        trichotomy_classify(_head(1.0, -1.0, 1.0, -1.0), 3)


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
