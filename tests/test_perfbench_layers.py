"""The traced benchmark reads cache statistics from library functions
named in perfbench/layers.py; a refactor that drops one of those caches
must fail here rather than in the traced run."""

import importlib
import importlib.util
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
