"""The benchmark's tracer binds library names by attribute: installing it
must find every traced name, and uninstalling it must put back every
binding it replaced. A removed or renamed traced function fails here."""

import importlib.util
import sys
from pathlib import Path

import numpy.linalg

from stconvex import catalog, expressions, geometry

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """(owner, name) -> value over every place the tracer may patch."""
    owners = [module for name, module in sys.modules.items()
              if name == "stconvex" or name.startswith("stconvex.")]
    owners += [geometry.MetricEvaluator, catalog.Catalog, numpy.linalg]
    return {(owner, key): value for owner in owners for key, value in list(vars(owner).items())}


def test_tracer_install_and_uninstall_restore_every_binding():
    tracer = _load_tracer()
    before = _bindings()
    traced = tracer.Tracer()
    try:
        traced.install()
        assert set(traced.sites) >= set(tracer.SPAN_NAMES)
        assert all(getattr(site, key) is not original for site, key, original in traced._patches)
        assert expressions.eval_jet1 is not before[expressions, "eval_jet1"]
    finally:
        traced.uninstall()
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
