import builtins
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import (AtomicMeasure, DensityMeasure, DomainError,
                         MomentSequence, additive_convolve, integral, kappa_of,
                         mellin, moment, product_convolve, pushforward,
                         qratio, sigma_of, verify)
from momentforge.errors import RangeError
from momentforge.measures import geometric_cut
from momentforge.qseries import (QParams, mellin_qbeta, mu_abq, mu_c, nu_a,
                                 tau_c)
from momentforge.semigroups import (GammaFamily, LogNormalQFamily,
                                    gamma_density, vc_density)


def test_dirac_moment():
    m = AtomicMeasure.from_pairs([(2.0, 3.0)])
    assert moment(m, 0).value == 3.0
    assert moment(m, 2).value == 12.0


def test_dirac_at_zero():
    m = AtomicMeasure((), zero_mass=1.0)
    assert m.zero_mass == 1.0
    assert moment(m, 0).value == 1.0
    assert moment(m, 1).value == 0.0


@pytest.mark.parametrize("build", [AtomicMeasure, AtomicMeasure.from_pairs])
def test_unordered_locations_are_refused(build):
    with pytest.raises(DomainError, match="strictly ascending"):
        build([(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)])


@pytest.mark.parametrize("build", [AtomicMeasure, AtomicMeasure.from_pairs])
def test_repeated_locations_are_refused(build):
    with pytest.raises(DomainError, match="strictly ascending"):
        build([(1.0, 0.5), (1.0, 0.25), (2.0, 1.0)])
    # a zero weight is dropped before the order is checked
    assert build([(1.0, 0.5), (1.0, 0.0), (2.0, 1.0)]).atoms == (
        (1.0, 0.5), (2.0, 1.0))


def test_negative_location_rejected():
    with pytest.raises(DomainError):
        AtomicMeasure.from_pairs([(-1.0, 1.0)])


@pytest.mark.parametrize("pairs", [
    [(math.nan, 1.0), (2.0, 1.0)],
    [(math.inf, 1.0)],
    [(1.0, math.nan)],
    [(1.0, -math.inf)],
    # non-finite values are refused even where the weight is zero
    [(math.nan, 0.0), (2.0, 1.0)],
])
def test_from_pairs_rejects_non_finite_atoms(pairs):
    with pytest.raises(DomainError):
        AtomicMeasure.from_pairs(pairs)


@pytest.mark.parametrize("build", [
    lambda: AtomicMeasure(((-1.0, 0.5),)),
    lambda: AtomicMeasure(((1.0, math.nan),)),
    lambda: AtomicMeasure((), zero_mass=-1.0),
    lambda: AtomicMeasure((), zero_mass=math.nan),
], ids=["negative-location", "nan-weight", "negative-zero-mass",
        "nan-zero-mass"])
def test_constructor_rejects_bad_atoms_and_zero_mass(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("zero_mass, truncation_error", [
    (math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0), (0.0, math.nan),
    (0.0, -1.0),
])
def test_from_pairs_rejects_bad_zero_mass_or_truncation_error(
        zero_mass, truncation_error):
    with pytest.raises(DomainError):
        AtomicMeasure.from_pairs([(1.0, 1.0)], zero_mass=zero_mass,
                                 truncation_error=truncation_error)


@pytest.mark.parametrize("pairs", [
    [1.0, 2.0],
    [(1.0, 2.0, 3.0)],
    [(1.0, 1.0), (2.0,)],
    [("one", 1.0)],
    "abc",
    [[1, 1, 1]],
    [1, 2],
])
def test_from_pairs_rejects_input_that_is_not_pairs(pairs):
    with pytest.raises(DomainError):
        AtomicMeasure.from_pairs(pairs)


def test_locations_and_weights_are_stored_read_only_arrays():
    for m in (AtomicMeasure.from_pairs([(1.0, 0.25), (2.0, 0.5)]),
              AtomicMeasure(((1.0, 0.25), (2.0, 0.5))),
              AtomicMeasure((), zero_mass=0.5),
              AtomicMeasure.on_lattice((1.0,), [1, 2], [0.25, 0.5])):
        assert m.locations() is m.locations()
        assert m.weights() is m.weights()
        assert m.locations().dtype == m.weights().dtype == np.float64
        assert m.locations().tolist() == [loc for loc, _ in m.atoms]
        assert m.weights().tolist() == [wt for _, wt in m.atoms]
        for arr in (m.locations(), m.weights(), m.index):
            if arr is not None:
                with pytest.raises(ValueError):
                    arr[:] = 3
        with pytest.raises(AttributeError):
            m.zero_mass = 1.0


def test_mellin_matches_moment_at_integers():
    m = AtomicMeasure.from_pairs([(0.5, 0.3), (2.0, 0.7)])
    for n in range(5):
        assert mellin(m, n).value.real == pytest.approx(
            moment(m, n).value, abs=1e-14)


def test_mellin_complex():
    m = AtomicMeasure.from_pairs([(2.0, 1.0)])
    z = 1.0 + 1.0j
    expected = 2.0 ** (1.0 + 1.0j)
    assert abs(mellin(m, z).value - expected) < 1e-14


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the atomic Mellin error reads |x^z| at the largest "
    "location, but at Re z < 0 the dropped atoms q^k -> 0 weigh more"))
def test_atomic_mellin_at_negative_re_z_within_its_error():
    # the closed form against the cut of mu_abq: 7.2163 against 7.4664,
    # with an abs_error of 6.2e-15
    p = QParams(0.5, 0.25, 0.5)
    z = -0.9
    got = mellin(mu_abq(p), z)
    assert abs(got.value - mellin_qbeta(p, 1.0, z)) <= got.abs_error


def test_density_moment_gamma():
    # int x^n x^{a-1} e^{-x} / Gamma(a) = (a)_n
    dens = gamma_density(GammaFamily(1.5))
    for n in range(5):
        expected = math.gamma(1.5 + n) / math.gamma(1.5)
        assert moment(dens, n).value == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("make, tol", [
    (lambda: mu_c(QParams(0.5, 0.25, 0.5), 2.0), 1e-12),
    (lambda: tau_c(QParams(0.5, 0.25, 0.5), 1.0), 1e-12),
    (lambda: vc_density(LogNormalQFamily(0.5, 1.0)), 1e-11),
], ids=["mu_c", "tau_c", "vc_density"])
def test_moment_of_all_orders_matches_each_order(make, tol):
    m = make()
    orders = range(9)
    all_orders = moment(m, orders, tol)
    assert all_orders.value.shape == all_orders.abs_error.shape == (9,)
    for n in orders:
        one = moment(m, n, tol)
        assert type(one.value) is float
        if isinstance(m, AtomicMeasure):
            # the same powers, each order's atoms added in the same order
            assert all_orders.value[n] == one.value
        # the quadrature estimate leaves out rounding, hence the few ulps
        assert (abs(all_orders.value[n] - one.value)
                <= all_orders.abs_error[n] + 16 * 2.0 ** -52 * one.value)
    # each is a probability; tau_c's mass at 0 counts at order 0 only
    assert all_orders.value[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [-1, 1.5, [0, 1, -1], [0, 1.5], math.nan,
                               [[0, 1]]])
def test_moment_refuses_orders_that_are_not_nonnegative_integers(n):
    with pytest.raises(DomainError):
        moment(AtomicMeasure.from_pairs([(2.0, 1.0)]), n)


def _lattice_measure(lattice, weights, zero_mass):
    """weights[k] at the k'th index of ``lattice``, counted from 1 on an
    arithmetic lattice and from 0 on a geometric one."""
    n, w = np.arange(len(weights)) + 1, np.asarray(weights, dtype=float)
    if len(lattice) == 2:
        n, w = n[::-1] - 1, w[::-1]
    return AtomicMeasure.on_lattice(lattice, n, w, zero_mass=zero_mass)


_LATTICE_WEIGHTS = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6)


@given(st.floats(0.1, 2.0), st.floats(0.1, 2.0), _LATTICE_WEIGHTS,
       _LATTICE_WEIGHTS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_product_convolve_multiplies_moments(h, beta, w1, w2, z1, z2):
    m1 = _lattice_measure((h, beta), w1, z1)
    m2 = _lattice_measure((h, beta), w2, z2)
    m = product_convolve(m1, m2)
    assert m.lattice == (h, beta)
    for n in range(3):
        lhs = moment(m, n).value
        rhs = moment(m1, n).value * moment(m2, n).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(st.floats(0.1, 2.0), _LATTICE_WEIGHTS, _LATTICE_WEIGHTS,
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 2.0))
@settings(max_examples=50, deadline=None)
def test_additive_convolve_multiplies_laplace(h, w1, w2, z1, z2, s):
    m1 = _lattice_measure((h,), w1, z1)
    m2 = _lattice_measure((h,), w2, z2)
    m = additive_convolve(m1, m2)
    assert m.lattice == (h,)
    assert m.laplace(s).value == pytest.approx(
        m1.laplace(s).value * m2.laplace(s).value, rel=1e-12, abs=1e-13)


def test_additive_convolve_zero_mass_is_identity_atom():
    delta0 = AtomicMeasure.on_lattice((1.0,), (), (), zero_mass=1.0)
    m = AtomicMeasure.on_lattice((1.0,), [1, 2], [0.5, 0.5])
    conv = additive_convolve(delta0, m)
    assert conv.atoms == m.atoms
    assert conv.zero_mass == 0.0


_ARITHMETIC = AtomicMeasure.on_lattice((0.5,), [1, 2], [0.5, 0.5])
_GEOMETRIC = AtomicMeasure.on_lattice((0.5, 1.0), [1, 0], [0.5, 0.5])
_ON_NO_LATTICE = AtomicMeasure.from_pairs([(0.5, 0.5), (1.0, 0.5)])


@pytest.mark.parametrize("convolve, m1, m2", [
    (additive_convolve, _ON_NO_LATTICE, _ON_NO_LATTICE),
    (additive_convolve, _ARITHMETIC, _ON_NO_LATTICE),
    (additive_convolve, _ARITHMETIC,
     AtomicMeasure.on_lattice((0.25,), [1], [1.0])),
    (additive_convolve, _GEOMETRIC, _GEOMETRIC),
    (additive_convolve, _ARITHMETIC,
     DensityMeasure(np.exp, (0.0, 1.0))),
    (product_convolve, _ON_NO_LATTICE, _ON_NO_LATTICE),
    (product_convolve, _GEOMETRIC, _ON_NO_LATTICE),
    (product_convolve, _GEOMETRIC,
     AtomicMeasure.on_lattice((0.5, 2.0), [0], [1.0])),
    (product_convolve, _GEOMETRIC,
     AtomicMeasure.on_lattice((0.25, 1.0), [0], [1.0])),
    (product_convolve, _ARITHMETIC, _ARITHMETIC),
], ids=["additive-no-lattice", "additive-one-lattice", "additive-other-h",
        "additive-geometric", "additive-density", "product-no-lattice",
        "product-one-lattice", "product-other-beta", "product-other-h",
        "product-arithmetic"])
def test_convolutions_refuse_measures_not_on_one_lattice(convolve, m1, m2):
    with pytest.raises(DomainError, match="on one"):
        convolve(m1, m2)
    with pytest.raises(DomainError, match="on one"):
        convolve(m2, m1)


@pytest.mark.parametrize("lattice, index", [
    ((0.5, 1.0), [-1]), ((0.5,), [2, 1]), ((0.5,), [1, 1]),
    ((0.5, 1.0), [0, 1]), ((0.5, 1.0), [1, 1])])
def test_lattice_indices_must_be_nonnegative_and_in_location_order(
        lattice, index):
    with pytest.raises(DomainError, match="lattice index"):
        AtomicMeasure.on_lattice(lattice, index, [1.0] * len(index))


def test_lattice_atoms_may_share_a_subnormal_location():
    # exp(-n h) at n = 2087, 2088 with h = log(1/0.7) both round to the
    # least subnormal; the indices keep them two atoms
    h = math.log(1.0 / 0.7)
    m = AtomicMeasure.on_lattice((h, 1.0), [2088, 2087], [0.25, 0.5])
    assert m.atoms == ((5e-324, 0.25), (5e-324, 0.5))
    assert product_convolve(m, AtomicMeasure.on_lattice(
        (h, 1.0), [0], [1.0])).atoms == m.atoms


_H = math.log(1.0 / 0.5)
_P = QParams(0.5, 0.25, 0.5)


@pytest.mark.parametrize("make, lattice", [
    (lambda: tau_c(_P, 1.0), (_H,)),
    (lambda: nu_a(0.5, 0.5), (_H,)),
    (lambda: kappa_of(qratio(0.5, 0.25, 0.5)), (_H,)),
    (lambda: mu_c(_P, 2.5), (_H, 1.0)),
    (lambda: sigma_of(qratio(0.5, 0.25, 0.5), 0.5, 0.7), (_H, 0.7)),
], ids=["tau_c", "nu_a", "qratio-kappa", "mu_c", "sigma_of-qratio"])
def test_lattice_measures_store_the_lattice_formula(make, lattice):
    m = make()
    assert m.lattice == lattice
    n = m.index
    # the formula of each constructor, n log(1/q) or exp(-beta n log(1/q))
    want = n * _H if len(lattice) == 1 else np.exp(-lattice[1] * (n * _H))
    assert m.locations().tobytes() == want.tobytes()
    # ascending locations: ascending index on n h, descending on e^{-beta n h}
    step = 1 if len(lattice) == 1 else -1
    assert (np.diff(n) * step > 0).all() and len(n) == len(m.atoms) > 10


def test_pushforward_exp_neg():
    m = AtomicMeasure.on_lattice((math.log(2.0),), [1], [1.0])
    image = pushforward(m)
    assert image.atoms[0][0] == pytest.approx(0.5)


def test_pushforward_maps_the_arithmetic_lattice_to_the_geometric_one():
    m = AtomicMeasure.on_lattice((0.5,), [1, 3], [0.25, 0.5], zero_mass=0.125)
    image = pushforward(m, 2.0)
    assert image.lattice == (0.5, 2.0)
    assert image.index.tolist() == [3, 1, 0]
    assert image.atoms == ((math.exp(-3.0), 0.5), (math.exp(-1.0), 0.25),
                           (1.0, 0.125))
    # an image is on a geometric lattice, which pushforward refuses
    with pytest.raises(DomainError, match="arithmetic lattice"):
        pushforward(image)


def test_pushforward_exp_neg_underflow_and_zero_mass():
    m = AtomicMeasure.on_lattice((1.0,), [1, 1000], [0.25, 0.5],
                                 zero_mass=0.125, truncation_error=1e-12)
    image = pushforward(m, 1.0)
    # e^{-1000} underflows: its mass moves into the truncation error, and
    # the mass at 0 becomes an atom at e^0 = 1
    assert image.atoms == ((math.exp(-1.0), 0.25), (1.0, 0.125))
    assert image.index.tolist() == [1, 0]
    assert image.zero_mass == 0.0
    assert image.truncation_error == 1e-12 + 0.5


_builtin_sum = builtins.sum


def _compensated_sum(values, start=0):
    """Python's sum as it behaves from 3.12: float additions compensated
    (here correctly rounded), integer sums exact."""
    values = list(values)
    if isinstance(start, int) and all(isinstance(v, int) for v in values):
        return _builtin_sum(values, start)
    return math.fsum([start, *values])


def test_float_sums_do_not_depend_on_builtin_sum(monkeypatch):
    # tau_1 at these parameters has many atoms whose image under exp(-x)
    # underflows, so their lost mass rounds differently when compensated
    p = QParams(0.9, 0.5, 0.3)

    def sums():
        return (nu_a(0.5, 0.5).total_mass, mu_c(p, 1.0).truncation_error,
                pushforward(tau_c(p, 1.0)).truncation_error,
                verify.render_report(verify.run_suite("hermite")))

    before = sums()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert sums() == before
    assert before[0] == 1.2420620948124117


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
def test_pushforward_refuses_a_beta_that_is_not_positive_and_finite(beta):
    with pytest.raises(DomainError, match="beta must be positive"):
        pushforward(_ARITHMETIC, beta)


@pytest.mark.parametrize("m", [_ON_NO_LATTICE, _GEOMETRIC,
                               DensityMeasure(np.exp, (0.0, 1.0))],
                         ids=["no-lattice", "geometric", "density"])
def test_pushforward_refuses_what_is_not_on_an_arithmetic_lattice(m):
    with pytest.raises(DomainError, match="arithmetic lattice"):
        pushforward(m)


def test_pushforward_takes_no_map_name():
    with pytest.raises(TypeError):
        pushforward(_ARITHMETIC, "exp-neg", 1.0)


@pytest.mark.parametrize("lattice", [
    (-0.5, 1.0), (0.5, -1.0), (0.0, 1.0), (0.5, 0.0), (math.nan, 1.0),
    (0.5, math.inf), (-0.5,), (0.0,), (math.inf,)])
def test_lattice_key_must_be_positive_and_finite(lattice):
    index = [3, 1, 0] if len(lattice) == 2 else [0, 1, 3]
    with pytest.raises(DomainError, match="must be positive and finite"):
        AtomicMeasure.on_lattice(lattice, index, [0.25, 0.5, 0.25])


def test_geometric_lattice_moves_underflowing_weights_into_truncation_error():
    # exp(-n) underflows past n = 745; those indices lead and are dropped,
    # their weights added to truncation_error from the smallest index up,
    # in which order each 2^-53 rounds away
    tiny = 2.0 ** -53
    m = AtomicMeasure.on_lattice((1.0, 1.0), [3000, 2000, 800, 1],
                                 [tiny, tiny, 1.0, 0.125],
                                 truncation_error=1e-12)
    assert m.atoms == ((math.exp(-1.0), 0.125),)
    assert m.index.tolist() == [1]
    assert m.truncation_error == 1e-12 + 1.0 != 1e-12 + (1.0 + 2 * tiny)
    with pytest.raises(DomainError, match="weights must be >= 0"):
        AtomicMeasure.on_lattice((1.0, 1.0), [800, 1], [-0.5, 0.125])


def test_json_roundtrip():
    m = AtomicMeasure.from_pairs([(0.5, 0.25), (2.0, 0.5)],
                                 zero_mass=0.25, truncation_error=1e-12)
    assert m.to_json_dict() == {"atoms": [[0.5, 0.25], [2.0, 0.5]],
                                "zero_mass": 0.25, "trunc_err": 1e-12}


def test_moment_sequence_log_fn():
    s = MomentSequence(log_fn=lambda n: n * math.log(3.0))
    assert s(2) == pytest.approx(9.0)


@pytest.mark.parametrize("log_sn", [math.inf, 710.0])
def test_moment_sequence_past_binary64_is_a_range_error(log_sn):
    with pytest.raises(RangeError, match="overflows binary64"):
        MomentSequence(log_fn=lambda n: log_sn)(1)


def test_moment_sequence_refuses_an_infinite_value_from_fn():
    with pytest.raises(RangeError, match="s_1 overflows binary64"):
        MomentSequence(fn=lambda n: math.inf)(1)
    with pytest.raises(RangeError, match="s_1 overflows binary64"):
        MomentSequence(fn=lambda n: -math.inf)(1)
    # its log is +inf, which a reader of logs can still refuse by itself
    assert MomentSequence(fn=lambda n: math.inf).log(1) == math.inf


@pytest.mark.parametrize("s", [MomentSequence(log_fn=lambda n: math.nan),
                               MomentSequence(fn=lambda n: math.nan)],
                         ids=["log_fn", "fn"])
def test_moment_sequence_refuses_a_nan_value(s):
    for read in (s, s.log):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            read(1)


def test_moment_sequence_log_of_a_zero_value_is_minus_inf():
    assert MomentSequence(fn=[1.0, 0.0].__getitem__).log(1) == -math.inf
    with pytest.raises(DomainError):
        MomentSequence(fn=[1.0, -1.0].__getitem__).log(1)


@pytest.mark.parametrize("evaluate", [lambda m: moment(m, range(401)),
                                      lambda m: moment(m, 400),
                                      lambda m: mellin(m, 800),
                                      lambda m: mellin(m, 700 + 1e300j)])
def test_a_sum_over_atoms_past_binary64_is_a_range_error(evaluate):
    m = nu_a(0.5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="leaves binary64"):
            evaluate(m)


def test_truncation_error_propagates_through_product():
    m1 = AtomicMeasure.on_lattice((1.0, 1.0), [0], [1.0],
                                  truncation_error=1e-10)
    m2 = AtomicMeasure.on_lattice((1.0, 1.0), [0], [1.0],
                                  truncation_error=1e-11)
    m = product_convolve(m1, m2)
    assert m.truncation_error >= 1e-10


def test_moment_error_bound_scales_with_location():
    m = AtomicMeasure.from_pairs([(10.0, 1.0)], truncation_error=1e-12)
    assert moment(m, 3).abs_error == pytest.approx(1e-12 * 1000.0)


@pytest.mark.parametrize("g", [
    lambda x: x ** 3,
    lambda x: np.exp(-x / 2.0),
    lambda x: x ** (1.0 + 2.0j),
])
def test_atomic_integral_sums_atoms_without_zero_mass(g):
    m = AtomicMeasure.from_pairs([(0.5, 0.25), (1.5, 0.125), (3.0, 0.375)],
                                 zero_mass=0.25, truncation_error=1e-12)
    terms = [complex(wt * g(np.array([loc]))[0]) for loc, wt in m.atoms]
    want = complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))
    value = integral(m, g).value
    assert abs(value - want) <= 1e-15 * abs(want)


def test_atomic_integral_error_scales_with_largest_location():
    m = AtomicMeasure.from_pairs([(0.5, 0.25), (3.0, 0.375)],
                                 zero_mass=0.25, truncation_error=1e-12)
    err = integral(m, lambda x: x ** 3).abs_error
    assert err == 1e-12 * 3.0 ** 3


def test_empty_atomic_integral_is_zero_with_truncation_error():
    m = AtomicMeasure((), zero_mass=0.5, truncation_error=1e-9)
    r = integral(m, lambda x: x ** 2)
    assert (r.value, r.abs_error) == (0.0, 1e-9)


def test_empty_atomic_integral_has_one_entry_per_component():
    m = AtomicMeasure((), zero_mass=0.5, truncation_error=1e-9)
    r = integral(m, lambda x: np.stack([x ** 0, x, x ** 2], axis=-1))
    assert r.value.tolist() == [0.0, 0.0, 0.0]
    assert r.abs_error.tolist() == [1e-9, 1e-9, 1e-9]


def _brute_cut(heads, ratios, tol):
    # the first N at which some pair's C rho^{N+1} is at most tol
    N = 0
    while min(c * r ** (N + 1) for c, r in zip(heads, ratios)) > tol:
        N += 1
    return N


@pytest.mark.parametrize("heads, ratios", [
    ((3.0,), (0.5,)),
    ((2.5,), (0.9,)),
    # the best pair changes with tol: slow and small, fast and large
    ((1.0, 1e6, 40.0), (0.9, 0.5, 0.7)),
])
@pytest.mark.parametrize("tol", [0.3, 1e-3, 1e-8, 1e-14])
def test_geometric_cut_is_the_smallest_index(heads, ratios, tol):
    N, bound = geometric_cut(np.log(heads), np.log(ratios), tol)
    assert N == _brute_cut(heads, ratios, tol)
    assert bound == pytest.approx(
        min(c * r ** (N + 1) for c, r in zip(heads, ratios)), rel=1e-11)
    assert bound <= tol
    if N > 0:
        assert min(c * r ** N for c, r in zip(heads, ratios)) > tol


def test_geometric_cut_keeps_one_term_when_the_head_is_small():
    assert geometric_cut(math.log(1e-20), math.log(0.5), 1e-14) == (
        0, pytest.approx(0.5e-20))
    assert geometric_cut(0.0, -math.inf, 1e-14) == (0, 0.0)


def test_geometric_cut_refuses_more_than_100000_terms():
    # log C / log(1/rho) = 100000 exactly: N = 99999 is the last index kept
    assert geometric_cut(50000.0, -0.5, 1.0)[0] == 99999
    with pytest.raises(DomainError):
        geometric_cut(50000.5, -0.5, 1.0)
    with pytest.raises(DomainError):
        geometric_cut(0.0, math.log(0.9999), 1e-14)


@pytest.mark.parametrize("log_head, log_ratio, tol", [
    (math.log(head), math.log(ratio), tol)
    for head, ratio in ((3.0, 0.5), (2.5, 0.9), (1.0, 0.9), (1e6, 0.5),
                        (40.0, 0.7))
    for tol in (0.3, 1e-3, 1e-8, 1e-14)] + [
    (math.log(1e-20), math.log(0.5), 1e-14),
    (0.0, -math.inf, 1e-14),
    (50000.0, -0.5, 1.0),
])
def test_geometric_cut_of_two_floats_equals_the_one_pair_array(
        log_head, log_ratio, tol):
    cut = geometric_cut(log_head, log_ratio, tol)
    assert cut == geometric_cut(np.array([log_head]), np.array([log_ratio]),
                                tol)
    assert type(cut[1]) is float


@pytest.mark.parametrize("log_head, log_ratio, tol", [
    (50000.5, -0.5, 1.0), (0.0, math.log(0.9999), 1e-14)])
def test_geometric_cut_of_two_floats_refuses_as_the_array_does(
        log_head, log_ratio, tol):
    for args in ((log_head, log_ratio),
                 (np.array([log_head]), np.array([log_ratio]))):
        with pytest.raises(DomainError, match="more than 100000 terms"):
            geometric_cut(*args, tol)


def test_laplace_reports_the_error_of_its_integral():
    m = tau_c(QParams(0.5, 0.25, 0.5), 1.0)
    assert m.truncation_error > 0.0
    for s in (0.5, 1.0, 2.0):
        r = m.laplace(s)
        assert isinstance(r.value, float)
        assert isinstance(r.abs_error, float)
        assert math.isfinite(r.abs_error) and r.abs_error > 0.0
        assert r.abs_error == integral(m, lambda x: np.exp(-s * x)).abs_error


def test_laplace_of_a_sequence_matches_the_scalar_calls():
    m = AtomicMeasure.from_pairs([(0.5, 0.25), (1.5, 0.125), (3.0, 0.375)],
                                 zero_mass=0.25, truncation_error=1e-12)
    together = m.laplace([0.5, 1.0, 2.0])
    assert together.value.shape == together.abs_error.shape == (3,)
    for k, s in enumerate((0.5, 1.0, 2.0)):
        alone = m.laplace(s)
        assert together.value[k] == alone.value
        assert together.abs_error[k] == alone.abs_error
    empty = AtomicMeasure((), zero_mass=0.5).laplace([1.0, 2.0])
    assert empty.value.tolist() == [0.5, 0.5]
    assert empty.abs_error.tolist() == [0.0, 0.0]
