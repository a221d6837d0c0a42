"""Per-layer tracing for the benchmark's traced run.

The tracer replaces each traced function at every place its caller looks it
up: module-level functions at every binding in the stconvex modules (for
example `convexity` imports `covariant_hessian` and `evaluator_for` by name,
and the package re-exports most functions), methods on their class
(`MetricEvaluator.metric_at`, `Catalog.model`). `uninstall` puts every
original back. The library's own files are never changed.

For each span name the tracer records calls and self time (the span's
duration minus the time of spans called from inside it), and for each pair
in NESTED how many calls of the inner name happened while the outer one was
running.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg

from stconvex import catalog, convexity, expressions, foliation, geodesics, geometry

FOLIATION_PUBLIC = tuple(name for name in foliation.__all__
                         if callable(getattr(foliation, name))
                         and not isinstance(getattr(foliation, name), type))

#: (span name, owner, attribute); a class owner means a method
SPANS = (
    ("expressions.parse", expressions, "parse"),
    ("expressions.compile", expressions, "compile_jet1"),
    ("expressions.compile", expressions, "compile_value"),
    ("expressions.eval_jet2", expressions, "eval_jet2"),
    ("expressions.eval_jet1", expressions, "eval_jet1"),
    ("geometry.metric_at", geometry.MetricEvaluator, "metric_at"),
    ("geometry.covariant_hessian", geometry, "covariant_hessian"),
    ("geometry.evaluator_for", geometry, "evaluator_for"),
    ("convexity.certify_region", convexity, "certify_region"),
    ("convexity.admissible_c_interval", convexity, "admissible_c_interval"),
    ("convexity.hessian_signature", convexity, "hessian_signature"),
    *((f"foliation.{name}", foliation, name) for name in FOLIATION_PUBLIC),
    ("geodesics.integrate_geodesic", geodesics, "integrate_geodesic"),
    ("geodesics.convexity_along_curve", geodesics, "convexity_along_curve"),
    ("geodesics.closed_curve_probe", geodesics, "closed_curve_probe"),
    ("catalog.model", catalog.Catalog, "model"),
)
#: counted but not timed: their time stays in the calling span's self time
COUNTS = (
    ("numpy.linalg.eigvalsh", numpy.linalg, "eigvalsh"),
    ("geometry.MetricEvaluator.__init__", geometry.MetricEvaluator, "__init__"),
)
#: every span name, in report order
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
#: inner name -> the outer span whose running calls count it
NESTED = {
    "numpy.linalg.eigvalsh": "convexity.admissible_c_interval",
    "geometry.metric_at": "geodesics.integrate_geodesic",
    "geometry.MetricEvaluator.__init__": "geometry.evaluator_for",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.within = Counter()  # (outer, inner) in NESTED -> inner calls while outer ran
        self.sites = defaultdict(list)  # span name -> patched "owner.attr" strings
        self._stack = []  # child seconds of each running span
        self._active = Counter()
        self._patches = []  # (owner, attr, original)

    def _note(self, name):
        self.calls[name] += 1
        outer = NESTED.get(name)
        if outer is not None and self._active[outer]:
            self.within[(outer, name)] += 1

    def _span(self, name, fn):
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._note(name)
            children = [0.0]
            stack.append(children)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                stack.pop()
                self.self_s[name] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._note(name)
            return fn(*args, **kwargs)
        return counted

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "stconvex" or n.startswith("stconvex.")]
        targets = [(name, owner, attr, True) for name, owner, attr in SPANS]
        targets += [(name, owner, attr, False) for name, owner, attr in COUNTS]
        for name, owner, attr, timed in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                sites = [owner]
            else:
                original = getattr(owner, attr)
                sites = [owner] + [m for m in modules if m is not owner]
            wrapper = (self._span if timed else self._count)(name, original)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._patches.append((site, key, original))
                        self.sites[name].append(f"{site.__name__}.{key}")
            if not self.sites[name]:
                raise RuntimeError(f"no binding of {name} found to trace")
        return self

    def uninstall(self):
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
