import math

import numpy as np
import pytest

from momentforge.errors import QuadratureError
from momentforge.quadrature import _LEVELS, integrate


def test_polynomial_exact():
    val, err = integrate(lambda x: x ** 3, 0.0, 2.0)
    assert val == pytest.approx(4.0, abs=1e-13)
    assert err < 1e-10


def test_oscillatory():
    val, _ = integrate(lambda x: np.sin(10.0 * x), 0.0, math.pi)
    assert val == pytest.approx((1 - math.cos(10 * math.pi)) / 10.0,
                                abs=1e-11)


def test_integrable_endpoint_singularity():
    val, _ = integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, tol=1e-10)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_exp_decay_gamma_integral():
    val, _ = integrate(lambda x: x ** 2 * np.exp(-x), 0.0, math.inf,
                       tol=1e-12)
    assert val == pytest.approx(2.0, rel=1e-11)


def test_log_substitution_lognormal():
    # int_0^inf x^{-1/2} exp(-(log x)^2/2) dx / sqrt(2 pi) = e^{1/8}
    def f(x):
        logx = np.log(x)
        return np.exp(-0.5 * logx - 0.5 * logx ** 2) / math.sqrt(
            2.0 * math.pi)

    val, _ = integrate(f, 0.0, math.inf, tol=1e-11)
    assert val == pytest.approx(math.exp(0.125), rel=1e-9)


def test_error_estimate_is_honest():
    val, err = integrate(lambda x: np.exp(x), 0.0, 1.0, tol=1e-12)
    assert abs(val - (math.e - 1.0)) <= max(err, 1e-13)


def _fast_sine(x):
    # 1600 periods on [0, 50]: the last level's step is too coarse
    return np.sin(200.0 * x) / (x + 1e-8)


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError) as info:
        integrate(_fast_sine, 0.0, 50.0, tol=1e-14)
    assert np.shape(info.value.value) == np.shape(info.value.residual) == ()
    assert np.isfinite(info.value.value) and info.value.residual > 1e-14


def _recording(f):
    calls = []

    def recorded(x):
        calls.append(np.array(x))
        return f(x)
    return recorded, calls


def _assert_new_nodes_only(calls, a, b):
    nodes = np.concatenate(calls)
    assert ((a < nodes) & (nodes < b)).all()
    # nodes within a few ulp of a finite right end may round to one x;
    # below 0.5 each node is its own distance from a, or exp of its t
    left = nodes[nodes < 0.5]
    assert len(np.unique(left)) == len(left) > len(calls)


def test_one_integrand_call_per_split():
    # each level splits every step in two and calls f once, on the
    # midpoints only
    recorded, calls = _recording(_fast_sine)
    with pytest.raises(QuadratureError):
        integrate(recorded, 0.0, 50.0, tol=1e-14)
    assert len(calls) == _LEVELS + 1
    assert all(len(later) > len(earlier)
               for earlier, later in zip(calls[1:], calls[2:]))
    _assert_new_nodes_only(calls, 0.0, 50.0)


def test_converged_integration_calls_pattern():
    # e^{-x} / sqrt(x) on a finite interval and on the half-line
    for b, exact in ((1.0, math.sqrt(math.pi) * math.erf(1.0)),
                     (math.inf, math.sqrt(math.pi))):
        recorded, calls = _recording(lambda x: np.exp(-x) / np.sqrt(x))
        val, err = integrate(recorded, 1e-300, b, tol=1e-10)
        assert np.shape(val) == np.shape(err) == ()
        assert val == pytest.approx(exact, rel=1e-12)
        assert 1 < len(calls) <= _LEVELS + 1
        _assert_new_nodes_only(calls, 1e-300, b)


@pytest.mark.parametrize("f,a,b,tol,exact", [
    (np.exp, 0.0, 1.0, 1e-12, math.e - 1.0),
    (lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, 1e-10, 2.0),
    (lambda x: np.sin(10.0 * x), 0.0, math.pi, 1e-12, 0.0),
], ids=["exp", "inv-sqrt", "sin10x"])
def test_error_estimate_covers_actual_error(f, a, b, tol, exact):
    # the level difference leaves out rounding, so allow 4 ulp
    val, err = integrate(f, a, b, tol=tol)
    assert abs(val - exact) <= err + 4 * 2.0 ** -52 * max(1.0, abs(exact))


def _powers_times_decay(x):
    # x^n e^{-x} for n = 0..8, then the complex x e^{-(1 - i) x}
    cols = [x ** n * np.exp(-x) for n in range(9)]
    return np.stack(cols + [x * np.exp(-(1.0 - 1.0j) * x)], axis=-1)


def _powers_times_lognormal(x):
    # x^n times the standard log-normal density for n = 0..4; the mass of
    # column n sits near x = e^n
    logx = np.log(x)
    density = np.exp(-0.5 * logx ** 2) / (x * math.sqrt(2.0 * math.pi))
    return np.stack([x ** n * density for n in range(5)], axis=-1)


# the ids name the two kinds of half-line integrand: exponential decay, and
# log-normal-type tails whose mass lies far from x = 1
@pytest.mark.parametrize("f,exact", [
    (_powers_times_decay,
     [math.factorial(n) for n in range(9)] + [1.0 / (1.0 - 1.0j) ** 2]),
    (_powers_times_lognormal, [math.exp(0.5 * n * n) for n in range(5)]),
], ids=["integrate_exp_decay", "integrate_log_sub"])
def test_vector_columns_match_their_scalar_integrals(f, exact):
    values, errs = integrate(f, 0.0, math.inf, tol=1e-12)
    assert values.shape == errs.shape == (len(exact),)
    for k in range(len(exact)):
        value, err = integrate(lambda x, k=k: f(x)[:, k],
                               0.0, math.inf, tol=1e-12)
        # the level differences leave out rounding, so allow 4 ulp
        slack = 4 * 2.0 ** -52 * max(1.0, abs(value))
        assert abs(values[k] - value) <= errs[k] + err + slack, k
    assert np.allclose(values, exact, rtol=1e-11, atol=0.0)


def test_vector_budget_exhaustion_raises_with_arrays():
    def f(x):
        return np.stack((_fast_sine(x), x), axis=-1)

    with pytest.raises(QuadratureError) as info:
        integrate(f, 0.0, 50.0, tol=1e-14)
    assert np.shape(info.value.value) == np.shape(info.value.residual) == (2,)
    assert info.value.value[1] == pytest.approx(1250.0, rel=1e-12)
