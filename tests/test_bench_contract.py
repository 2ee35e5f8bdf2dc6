"""The traced benchmark run reports a layer's metrics only while the name it
traces exists: ``bench/tracer.py`` skips a name it cannot find, so a deleted
or renamed function silently drops metrics that ``BENCHMARK.json`` declares.
This test reads the traced names from the benchmark's own files and checks
that each still resolves to what the tracer can wrap."""

import importlib
import importlib.util
import pathlib
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
LAYERS = _load("run").LAYERS


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layer_name_is_traced(name):
    module_name, *path = name.split(".")
    assert module_name in TRACER.MODULES
    module = importlib.import_module(f"pmm.{module_name}")
    if len(path) == 1:
        # the tracer wraps public functions defined in the module itself
        fn = getattr(module, path[0], None)
        assert isinstance(fn, types.FunctionType), f"pmm.{name} is not a function"
        assert fn.__module__ == module.__name__ and not path[0].startswith("_")
    else:
        # and the methods that METHODS lists
        cls_name, meth = path
        assert meth in TRACER.METHODS.get(module_name, {}).get(cls_name, ())
        cls = getattr(module, cls_name, None)
        fn = vars(cls).get(meth) if isinstance(cls, type) else None
        assert isinstance(fn, types.FunctionType), f"pmm.{name} is not a method"
