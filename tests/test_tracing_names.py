"""Every name the benchmark's tracer patches exists in the package.

``perfbench/tracing.py`` swaps wrappers into ``oltsp`` by module, class and
attribute name, and its own self-test lies outside the default test paths,
so a rename in the package is caught here.  The tracer module is loaded
read-only and never installed.
"""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _tracing()
    missing = []
    for metric, mod, fn_name in tracing.FUNCTION_SPANS:
        if not callable(getattr(importlib.import_module(f"oltsp.{mod}"), fn_name, None)):
            missing.append(metric)
    for metric, mod, cls_name, meth in tracing.METHOD_SPANS + tracing.METHOD_COUNTS:
        cls = getattr(importlib.import_module(f"oltsp.{mod}"), cls_name, None)
        # the tracer reads the method from the class's own namespace
        if cls is None or not callable(vars(cls).get(meth)):
            missing.append(f"{metric} ({cls_name}.{meth})")
    assert not missing, missing
