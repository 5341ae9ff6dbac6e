"""The functions perfbench's tracer wraps exist in the package.

A traced benchmark run reports a layer function that has gone as an
absent metric (OPTIONAL_FUNCS) or stops (the rest), so a deletion or
rename shows here first."""

import importlib.util
import os

import pytest

import momentforge

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = _tracer()


@pytest.mark.parametrize(
    "module, attr",
    sorted(set(_LAYERS.LAYER_FUNCS) | set(_LAYERS.OPTIONAL_FUNCS)))
def test_every_traced_layer_function_exists(module, attr):
    # the tracer looks each one up as an attribute of the package's module
    assert callable(getattr(getattr(momentforge, module), attr, None))
