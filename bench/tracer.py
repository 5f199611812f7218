"""Outside-in tracer: exact call counts and self time per fanoscope function,
recorded from the benchmark's side without touching the package.

A module-level function is rebound in every `fanoscope.*` namespace that
holds it (gamma keeps its own `nullity`, the package root re-exports
`analyze`, ...), so calls through any of those names are seen.  A class is
traced through its `__init__` and a method on its class, which catches
every construction and call however the class was imported.  Self time is
a span's duration minus that of the traced spans it encloses; work in
functions that are not traced counts toward the nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> traced names: `func`, `Class` (its __init__) or `Class.method`
TARGETS = {
    "linalg": ("rank", "nullity", "solve_in_span", "saturate", "snf", "hnf",
               "kernel_basis", "det"),
    "polytope": ("LatticePolytope", "LatticePolytope.polar_dual", "Polygon",
                 "embed_polygon", "gorenstein_index", "identity24"),
    "minkowski": ("enumerate_smooth_decompositions",),
    "degeneration": ("method1_data", "normal_fan_data", "line_fan_data",
                     "product_data", "decomposition_regimes",
                     "polygon_of_sections", "DegenerationData.validate",
                     "Slab"),
    "gamma": ("build_system", "baseline_ok", "barT_sections"),
    "invariants": ("analyze", "degree", "fano_index"),
    "discriminant": ("assemble_global", "dual_graph", "max_triangulation"),
    "fileio": ("load_fixture", "data_from_fixture", "expected_rows",
               "bundled_polytopes"),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)


def span_names():
    """Metric stems `<layer>.<name>`, e.g. `polytope.polar_dual`."""
    return [f"{layer}.{spec.rpartition('.')[2]}"
            for layer, specs in TARGETS.items() for spec in specs]


class Tracer:
    """`with Tracer() as t:` traces every target; `t.stats` maps each span
    name to `[calls, self seconds]`.  Leaving the block restores every
    original binding."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in span_names()}
        self._stack = []
        self._undo = []

    def reset(self):
        for st in self.stats.values():
            st[0], st[1] = 0, 0.0

    def _wrap(self, name, fn):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                st[0] += 1
                st[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "fanoscope" or n.startswith("fanoscope.")]
        for layer, specs in TARGETS.items():
            module = importlib.import_module(f"fanoscope.{layer}")
            for spec in specs:
                owner_name, _, method = spec.partition(".")
                obj = getattr(module, owner_name)
                name = f"{layer}.{method or owner_name}"
                if isinstance(obj, type):
                    attr = method or "__init__"
                    self._set(obj, attr, self._wrap(name, vars(obj)[attr]))
                    continue
                traced = self._wrap(name, obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, attr, traced)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False
