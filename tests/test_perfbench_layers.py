"""The traced benchmark reads spans and cache statistics of library
functions named in perfbench/layers.py; a refactor that renames one of
those functions or drops one of those caches must fail here rather than
read 0 in the traced run."""

import importlib
import importlib.util
import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layers():
    """Import perfbench/layers.py without writing its bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_cache_is_a_functools_cache():
    for prefix, mod, name in load_layers().CACHES:
        obj = getattr(importlib.import_module("isodecomp." + mod), name, None)
        assert obj is not None, "%s: isodecomp.%s has no %s" % (prefix, mod, name)
        assert callable(getattr(obj, "cache_info", None)), "%s is not cached" % prefix
        assert callable(getattr(obj, "cache_clear", None)), "%s is not cached" % prefix


# Names in layers.SIZED | layers.MAX_BITS whose functions were deleted from
# the library; their metrics read 0 until perfbench/layers.py drops them.
STALE_TRACED = {
    "moments.triangulate": "deleted with the one moment engine (facet simplices, one "
                           "Dirichlet product formula)",
    "moments.isotropize_polytope": "deleted with the float isotropization (certify at "
                                   "the exact rational centroid)",
}


def test_every_sized_span_names_a_public_function():
    layers = load_layers()
    for name in sorted(layers.SIZED | layers.MAX_BITS):
        mod, attr = name.split(".")
        obj = getattr(importlib.import_module("isodecomp." + mod), attr, None)
        if name in STALE_TRACED:
            assert obj is None, "%s exists again; remove it from STALE_TRACED" % name
            continue
        # the conditions under which layers.Tracer.install wraps a function
        assert mod in layers.LAYER_MODULES and name not in layers.UNWRAPPED, name
        assert not attr.startswith("_") and obj is not None, "isodecomp.%s is gone" % name
        assert obj.__module__ == "isodecomp." + mod, name
        assert inspect.isfunction(obj) or hasattr(obj, "cache_info"), name
