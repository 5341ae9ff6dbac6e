"""The public record types are named tuples: fields, defaults, repr,
equality, immutability, and the checks of the four parameter families."""

import math
import os
import subprocess
import sys

import pytest

import momentforge
from momentforge import (bernstein, catalog, hankel, hermite, measures,
                         qseries, semigroups, verify)
from momentforge.errors import DomainError


def _density(x):
    return x


def _closed_form(s):
    return s


# (class, the keyword arguments it is built from, all its fields in order,
# and the defaults of the fields left out)
RECORDS = [
    (qseries.QParams, dict(a=0.5, b=0.25, q=0.5), ("a", "b", "q"), {}),
    (qseries.PowerSeries, dict(coefficients=(1.0, 0.5)),
     ("coefficients",), {}),
    (semigroups.GammaFamily, dict(a=1.5), ("a", "c"), {"c": 1.0}),
    (semigroups.BetaFamily, dict(a=1.0, b=2.5), ("a", "b", "c"),
     {"c": 1.0}),
    (semigroups.LogNormalQFamily, dict(q=0.5), ("q", "c"), {"c": 1.0}),
    (measures.MellinValue, dict(value=2.0), ("value", "abs_error"),
     {"abs_error": 0.0}),
    (measures.DensityMeasure, dict(density=_density, support=(0.0, 1.0)),
     ("density", "support", "strip_min_re"), {"strip_min_re": None}),
    (hankel.HankelVerdict,
     dict(status=hankel.CONSISTENT_PSD, order_tested=8, tolerance=1e-9),
     ("status", "order_tested", "tolerance", "failed_order",
      "failed_matrix", "min_pivot"),
     {"failed_order": None, "failed_matrix": None, "min_pivot": None}),
    (hankel.CarlemanDiagnostic,
     dict(partial_sum=1.5, slope_estimate=-0.5, verdict=hankel.DIVERGENT),
     ("partial_sum", "slope_estimate", "verdict"), {}),
    (bernstein.BernsteinFunction,
     dict(catalog_id="linear", closed_form=_closed_form),
     ("catalog_id", "closed_form", "kappa_factory"),
     {"kappa_factory": None}),
    (bernstein.LevyKhinchinRep, dict(a=0.0, b=0.5, sigma=None),
     ("a", "b", "sigma"), {}),
    (hermite.GenFunValue,
     dict(t=0.5, x=0.0, value=1.25, tail_bound=1e-12, terms_used=40),
     ("t", "x", "value", "tail_bound", "terms_used", "roundoff_bound"),
     {"roundoff_bound": 0.0}),
    (hermite.ScanReport, dict(min_certified=0.25, points=()),
     ("min_certified", "points"), {}),
    (catalog.CatalogObject, dict(object_id="gamma:1:2"),
     ("object_id", "moments_fn", "mellin_fn", "measure_factory",
      "density_prefix"),
     {"moments_fn": None, "mellin_fn": None, "measure_factory": None,
      "density_prefix": ""}),
    (verify.CheckResult,
     dict(suite="hankel", name="check", residual=0.0, tolerance=1e-12),
     ("suite", "name", "residual", "tolerance"), {}),
]


@pytest.mark.parametrize("cls, kwargs, fields, defaults", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_by_keyword_with_its_defaults(cls, kwargs, fields, defaults):
    record = cls(**kwargs)
    values = dict(kwargs, **defaults)
    assert record._fields == fields
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (name, values[name]) for name in fields))
    assert record == cls(**kwargs)
    assert hash(record) == hash(cls(**kwargs))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_every_record_of_the_package_is_listed():
    records = {value for module in (bernstein, catalog, hankel, hermite,
                                    measures, qseries, semigroups, verify)
               for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, tuple)
               and value.__module__ == module.__name__}
    assert records == {row[0] for row in RECORDS}
    assert len(records) == 15


def test_records_are_tuples():
    mv = measures.moment(measures.AtomicMeasure([(0.5, 1.0)]), 2)
    value, abs_error = mv
    assert (value, abs_error) == (mv[0], mv[1]) == (0.25, 0.0)
    assert len(mv) == 2 and mv == (0.25, 0.0)
    assert mv < (0.25, 1.0)
    assert mv._replace(abs_error=1.0) == measures.MellinValue(0.25, 1.0)
    assert mv._asdict() == {"value": 0.25, "abs_error": 0.0}


@pytest.mark.parametrize("min_certified, positive", [
    (0.25, True), (0.0, False), (-1e-12, False)])
def test_scan_report_all_positive_is_a_property(min_certified, positive):
    report = hermite.ScanReport(min_certified, ())
    assert "all_positive" not in report._fields
    assert report.all_positive is positive


def test_zero_mass_is_a_class_attribute_of_a_density():
    m = measures.DensityMeasure(_density, (0.0, 1.0))
    assert "zero_mass" not in m._fields
    assert m.zero_mass == measures.DensityMeasure.zero_mass == 0.0


@pytest.mark.parametrize("cls, kwargs", [
    (qseries.QParams, dict(a=0.5, b=0.25, q=1.5)),
    (qseries.QParams, dict(a=0.5, b=0.25, q=0.0)),
    (qseries.QParams, dict(a=1.5, b=0.25, q=0.5)),
    (qseries.QParams, dict(a=0.5, b=-0.25, q=0.5)),
    (semigroups.GammaFamily, dict(a=-1.0)),
    (semigroups.GammaFamily, dict(a=1.0, c=0.0)),
    (semigroups.BetaFamily, dict(a=2.0, b=1.0)),
    (semigroups.BetaFamily, dict(a=0.0, b=1.0)),
    (semigroups.BetaFamily, dict(a=1.0, b=2.0, c=-1.0)),
    (semigroups.LogNormalQFamily, dict(q=1.5)),
    (semigroups.LogNormalQFamily, dict(q=0.5, c=-1.0)),
    (semigroups.LogNormalQFamily, dict(q=math.nan)),
])
def test_a_family_refuses_a_bad_parameter(cls, kwargs):
    with pytest.raises(DomainError):
        cls(**kwargs)
    with pytest.raises(DomainError):
        cls(*kwargs.values())
    # _replace builds through the same checks
    good = {qseries.QParams: dict(a=0.5, b=0.25, q=0.5),
            semigroups.GammaFamily: dict(a=1.0),
            semigroups.BetaFamily: dict(a=1.0, b=2.0),
            semigroups.LogNormalQFamily: dict(q=0.5)}[cls]
    with pytest.raises(DomainError):
        cls(**good)._replace(**kwargs)


def test_importing_the_cli_generates_no_dataclass():
    src = os.path.dirname(os.path.dirname(momentforge.__file__))
    code = ("import sys; sys.path.insert(0, %r); import momentforge.cli; "
            "print('dataclasses' in sys.modules)" % src)
    fresh = subprocess.run([sys.executable, "-I", "-c", code],
                           capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "False\n",
                                                              "")
