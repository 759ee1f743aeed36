"""Per-layer tracing for the traced benchmark run.

The tracer wraps every public function of the isodecomp modules from the
outside: each wrapper is a span that counts calls and self time (its
duration minus the time of the spans it caused).  Spans are aggregated in
memory per function name while the run goes and read once at the end, so
memory stays bounded however many calls a run makes.  Every module-level
name bound to a wrapped function is rebound, including the copies that
``from .x import f`` leaves in other modules; ``uninstall`` restores them.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from fractions import Fraction

LAYER_MODULES = ("polytope", "exactnum", "moments", "decomp", "variations", "cli")

# exactnum's scalar and vector helpers are the arithmetic every layer
# does; their time stays in the calling layer's self time, and wrapping
# their million calls per pass would be most of the tracing overhead.
UNWRAPPED = {"exactnum." + name for name in (
    "rat", "vec", "dot", "vadd", "vsub", "vscale", "is_zero_vec", "snap", "to_float",
    "to_decimal_str")}

# Functions whose return values are walked for the largest numerator or
# denominator bit length; walking every call of every function would make
# the traced run several times slower.
MAX_BITS = {
    "exactnum.determinant",
    "moments.body_moments",
    "moments.isotropize_polytope",
    "variations.kernel_direction",
    "variations.radial_polytope",
}

SIZED = MAX_BITS | {
    "polytope.hull_facets",
    "moments.triangulate",
    "decomp.facewise_affine_space",
    "cli.quasiconvex_search",
}

# Caches whose hit ratios are reported, as (metric prefix, module, name).
CACHES = (
    ("moments.body_moments", "moments", "body_moments"),
    ("moments.facet_table", "moments", "_facet_raw_table"),
    ("variations.eps_bound", "variations", "eps_bound"),
)

ROOT = "op"
SIZING = "perfbench.sizing"


def value_bits(x) -> int:
    """Largest numerator/denominator bit length inside a returned value."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, (tuple, list)):
        items = x
    elif isinstance(x, dict):
        items = x.values()
    elif dataclasses.is_dataclass(x):
        items = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif hasattr(x, "vertices") and hasattr(x, "facets"):  # Polytope; skip its hash
        items = [x.vertices, [(f.normal, f.offset) for f in x.facets]]
    else:
        return 0
    return max(map(value_bits, items), default=0)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "isodecomp" or name.startswith("isodecomp."))]


def find_caches() -> list:
    """Every functools cache in the package; call before ``install``."""
    found = []
    for mod in package_modules():
        for obj in vars(mod).values():
            if (hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", "").startswith("isodecomp")
                    and obj not in found):
                found.append(obj)
    return found


class Tracer:
    """Aggregated spans around the public functions of each layer module."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_ns, total_ns]
        self.sizes: dict[str, dict[str, int]] = {}
        self.root_ns = 0
        self._stack: list[list[int]] = [[0]]
        self._rebound: list[tuple[object, str, object]] = []
        self.cache_totals = {prefix: [0, 0] for prefix, _, _ in CACHES}
        self._caches = {prefix: getattr(importlib.import_module("isodecomp." + mod), name)
                        for prefix, mod, name in CACHES}

    def _record(self, name: str, dur: int, child: int) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur

    def _size(self, name: str, args, result) -> None:
        t0 = time.perf_counter_ns()
        sz = self.sizes.setdefault(name, {})
        if name in MAX_BITS:
            sz["max_bits"] = max(sz.get("max_bits", 0), value_bits(result))
        if name == "polytope.hull_facets":
            sz["points_in"] = sz.get("points_in", 0) + len(args[0])
        elif name == "moments.triangulate":
            sz["simplices"] = sz.get("simplices", 0) + len(result)
        elif name == "decomp.facewise_affine_space":
            sz["dim"] = max(sz.get("dim", 0), result.dimension)
        elif name == "cli.quasiconvex_search":
            sz["records"] = sz.get("records", 0) + len(result["counterexamples"])
        dur = time.perf_counter_ns() - t0
        self._stack[-1][0] += dur
        self._record(SIZING, dur, 0)

    def _wrap(self, name: str, fn):
        stack = self._stack
        record = self._record
        size = self._size if name in SIZED else None
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                record(name, dur, frame[0])
            if size is not None:
                size(name, args, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        originals = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module("isodecomp." + short)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (short, attr)
                if name not in UNWRAPPED and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    originals[id(obj)] = self._wrap(name, obj)
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def run_root(self, fn):
        """Run one op as a root span, with cache statistics taken around it."""
        before = {p: c.cache_info() for p, c in self._caches.items()}
        frame = [0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            dur = time.perf_counter_ns() - t0
            self._stack.pop()
            self._record(ROOT, dur, frame[0])
            self.root_ns += dur
            for prefix, cache in self._caches.items():
                info = cache.cache_info()
                self.cache_totals[prefix][0] += info.hits - before[prefix].hits
                self.cache_totals[prefix][1] += info.misses - before[prefix].misses

    def self_ns_total(self) -> int:
        return sum(st[1] for st in self.stats.values())

    def metric(self, name: str) -> float:
        """Value of one per-layer metric, ``<module>.<function>.<stat>``.

        ``calls`` and ``self_s`` are totals; ``points_in``, ``simplices`` and
        ``records`` sum over calls; ``dim`` and ``max_bits`` are maxima; a
        hit ratio with no lookups reads 0.
        """
        func, stat = name.rsplit(".", 1)
        if stat == "hit_ratio":
            hits, misses = self.cache_totals[func]
            return hits / (hits + misses) if hits + misses else 0.0
        st = self.stats.get(func, [0, 0, 0])
        if stat == "calls":
            return st[0]
        if stat == "self_s":
            return st[1] / 1e9
        return self.sizes.get(func, {}).get(stat, 0)

    def spans(self) -> dict:
        """Aggregated spans, largest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        return {name: {"calls": c, "self_s": s / 1e9, "total_s": t / 1e9}
                for name, (c, s, t) in rows}
