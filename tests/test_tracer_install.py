"""The benchmark's per-layer tracer installs on the package as it stands.

``perfbench/tracing.py`` wraps named layer functions in every module that
binds them and refuses to install if a wrapped function is still reachable
unwrapped (a renamed layer, a default argument, a closure).  Checking it here
finds such a refactor without a benchmark run.
"""

import importlib
import os
import pkgutil

import qsheaf

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_tracer_installs_on_every_module(monkeypatch):
    for info in pkgutil.iter_modules(qsheaf.__path__):
        importlib.import_module(f"qsheaf.{info.name}")
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()   # raises TraceBindingError on a stray reference
        assert tracer.missing == ["qsheaf.lattice.in_cone", "qsheaf.linalg.rref",
                                  "qsheaf.linalg.solve_columns"]
    finally:
        tracer.uninstall()
    assert not hasattr(qsheaf.poly.standard_monomials, "__wrapped__")
