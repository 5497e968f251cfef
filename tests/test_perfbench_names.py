"""The names that the benchmark's tracer binds in homlie still exist.

`perfbench/layertrace.py` imports every module in `LAYERS`, wraps the
kernels in `KERNELS` and the private functions in `PRIVATE`, and the
benchmark worker records `homlie.BACKEND`.  A rename or removal in
`src/homlie` that breaks one of them fails here, in the tier-1 suite,
instead of only in `perfbench/tests`.  The tracer module is loaded from
its file, as it is, without putting `perfbench/` on the import path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import homlie
from homlie import kernels

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
_spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
TRACE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACE)


@pytest.mark.parametrize("layer", TRACE.LAYERS[1:])
def test_every_layer_is_a_module(layer):
    importlib.import_module("homlie." + layer)


@pytest.mark.parametrize("name", TRACE.KERNELS)
def test_every_traced_kernel_is_a_function(name):
    assert inspect.isfunction(getattr(kernels, name, None))


@pytest.mark.parametrize("layer, name", sorted(TRACE.PRIVATE))
def test_every_private_binding_exists(layer, name):
    module = importlib.import_module("homlie." + layer)
    assert callable(getattr(module, name, None))


def test_backend_is_set():
    assert isinstance(homlie.BACKEND, str) and homlie.BACKEND
