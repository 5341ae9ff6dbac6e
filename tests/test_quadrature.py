import heapq
import math

import numpy as np
import pytest

from momentforge.errors import QuadratureError
from momentforge.quadrature import (_KRONROD_NODES, _RULE_WEIGHTS,
                                    integrate, integrate_exp_decay,
                                    integrate_log_sub)

K21_WEIGHTS = _RULE_WEIGHTS[:, 0]
G10_WEIGHTS = _RULE_WEIGHTS[:, 1]


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
    val, _ = integrate_exp_decay(lambda x: x ** 2 * np.exp(-x), tol=1e-12)
    assert val == pytest.approx(2.0, rel=1e-11)


def test_log_substitution_lognormal():
    # int_0^inf x^{-1/2} exp(-(log x)^2/2) dx / sqrt(2 pi) = e^{1/8}
    def f(x):
        logx = np.log(x)
        return np.exp(-0.5 * logx - 0.5 * logx ** 2) / math.sqrt(
            2.0 * math.pi)

    val, _ = integrate_log_sub(f, tol=1e-11)
    assert val == pytest.approx(math.exp(0.125), rel=1e-9)


def test_error_estimate_is_honest():
    val, err = integrate(lambda x: np.exp(x), 0.0, 1.0, tol=1e-12)
    assert abs(val - (math.e - 1.0)) <= max(err, 1e-13)


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.sin(200.0 * x) / (x + 1e-8), 0.0, 50.0,
                  tol=1e-14, budget=8)


def _monomial_integral(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


@pytest.mark.parametrize("weights,degree", [(K21_WEIGHTS, 31),
                                            (G10_WEIGHTS, 19)],
                         ids=["K21", "G10"])
def test_rule_integrates_monomials_exactly(weights, degree):
    for k in range(degree + 1):
        value = float(np.dot(weights, _KRONROD_NODES ** k))
        assert abs(value - _monomial_integral(k)) <= 1e-15, k


def test_rule_tables_are_symmetric_and_sum_to_two():
    assert len(_KRONROD_NODES) == 21
    assert np.all(np.diff(_KRONROD_NODES) < 0)
    assert np.array_equal(_KRONROD_NODES, -_KRONROD_NODES[::-1])
    for weights in (K21_WEIGHTS, G10_WEIGHTS):
        assert np.array_equal(weights, weights[::-1])
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
    # the Gauss nodes are the Kronrod nodes of odd index
    assert np.count_nonzero(G10_WEIGHTS) == 10
    assert np.all(G10_WEIGHTS[1::2] > 0)


def _counting(f):
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)
    return counted, sizes


def test_one_integrand_call_per_split():
    # with a budget of 8 panels the bisection makes exactly 7 splits
    counted, sizes = _counting(lambda x: np.sin(200.0 * x) / (x + 1e-8))
    with pytest.raises(QuadratureError):
        integrate(counted, 0.0, 50.0, tol=1e-14, budget=8)
    assert sizes == [21] + [42] * 7


def test_converged_integration_calls_pattern():
    counted, sizes = _counting(lambda x: 1.0 / np.sqrt(x))
    val, _ = integrate(counted, 1e-300, 1.0, tol=1e-10)
    assert val == pytest.approx(2.0, abs=1e-6)
    assert len(sizes) > 1
    assert sizes == [21] + [42] * (len(sizes) - 1)


@pytest.mark.parametrize("f,a,b,tol,exact", [
    (np.exp, 0.0, 1.0, 1e-12, math.e - 1.0),
    (lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, 1e-10, 2.0),
    (lambda x: np.sin(10.0 * x), 0.0, math.pi, 1e-12, 0.0),
], ids=["exp", "inv-sqrt", "sin10x"])
def test_error_estimate_covers_actual_error(f, a, b, tol, exact):
    # the estimate |K21 - G10| leaves out rounding, so allow 4 ulp
    val, err = integrate(f, a, b, tol=tol)
    assert abs(val - exact) <= err + 4 * 2.0 ** -52 * max(1.0, abs(exact))


def _reference_panels(f, edges):
    # the rule as it was for (m,) integrands only
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _KRONROD_NODES).ravel()
    rules = half[:, None] * (f(x).reshape(len(mid), 21) @ _RULE_WEIGHTS)
    return rules[:, 0], np.abs(rules[:, 0] - rules[:, 1])


def _reference_integrate(f, a, b, tol):
    # the bisection loop as it was for (m,) integrands only
    (value,), (err,) = _reference_panels(f, (a, b))
    heap = [(-err, a, b, value, err)]
    total, total_err = value, err
    panels = 1
    while total_err > tol * max(1.0, abs(total)):
        _, lo, hi, val0, err0 = heapq.heappop(heap)
        total -= val0
        total_err -= err0
        mid = 0.5 * (lo + hi)
        values, errs = _reference_panels(f, (lo, mid, hi))
        for left, right, val, e in zip((lo, mid), (mid, hi), values, errs):
            heapq.heappush(heap, (-e, left, right, val, e))
            total += val
            total_err += e
        panels += 1
    return total, total_err, panels


@pytest.mark.parametrize("f,a,b,tol", [
    (lambda x: x ** 3, 0.0, 2.0, 1e-12),
    (np.exp, 0.0, 1.0, 1e-12),
    (lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, 1e-10),
    (lambda x: np.sin(10.0 * x), 0.0, math.pi, 1e-12),
    (lambda x: np.exp(1j * x) / np.sqrt(x), 1e-300, 1.0, 1e-10),
], ids=["cubic", "exp", "inv-sqrt", "sin10x", "complex-inv-sqrt"])
def test_scalar_path_is_bit_identical_to_the_scalar_loop(f, a, b, tol):
    counted, sizes = _counting(f)
    value, err = integrate(counted, a, b, tol=tol)
    ref_value, ref_err, ref_panels = _reference_integrate(f, a, b, tol)
    assert value == ref_value and err == ref_err
    assert len(sizes) == ref_panels
    assert np.shape(value) == np.shape(err) == ()


def _powers_times_decay(x):
    # x^n e^{-x} for n = 0..8, then the complex x e^{-(1 - i) x}
    cols = [x ** n * np.exp(-x) for n in range(9)]
    return np.stack(cols + [x * np.exp(-(1.0 - 1.0j) * x)], axis=-1)


@pytest.mark.parametrize("integrator", [integrate_exp_decay,
                                        integrate_log_sub])
def test_vector_columns_match_their_scalar_integrals(integrator):
    values, errs = integrator(_powers_times_decay, tol=1e-12)
    assert values.shape == errs.shape == (10,)
    for k in range(10):
        value, err = integrator(
            lambda x, k=k: _powers_times_decay(x)[:, k], tol=1e-12)
        assert abs(values[k] - value) <= errs[k] + err, k
    exact = [math.factorial(n) for n in range(9)] + [1.0 / (1.0 - 1.0j) ** 2]
    assert np.allclose(values, exact, rtol=1e-11, atol=0.0)


def test_vector_budget_exhaustion_raises_with_arrays():
    def f(x):
        return np.stack((np.sin(200.0 * x) / (x + 1e-8), x), axis=-1)

    with pytest.raises(QuadratureError) as info:
        integrate(f, 0.0, 50.0, tol=1e-14, budget=8)
    assert np.shape(info.value.value) == np.shape(info.value.residual) == (2,)
    assert info.value.value[1] == pytest.approx(1250.0, rel=1e-12)
