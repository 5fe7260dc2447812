"""Every span target of ``perfbench/tracer.py`` must exist in the package,
and the Faà di Bruno spans must fire on a tiny check, or their per-layer
metrics would silently read 0."""

import importlib.util
from pathlib import Path

import optrees.cli  # noqa: F401  (loads every module the tracer patches)
from optrees import bialgebra
from optrees.pfunctor import builtin

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    t = tracer.Tracer()
    t.install()
    try:
        missing = list(t.missing)
    finally:
        t.uninstall()
    assert missing == []
    assert t.leftover_wrappers() == []


def test_the_fdb_spans_fire_on_a_tiny_check():
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        # looked up on the module at call time, as the command does
        assert bialgebra.verify_fdb(builtin("exp", max_arity=3), 3, 4).passed
    finally:
        t.uninstall()
    spans = t.summary()["spans"]
    for name in ("bialgebra.verify_fdb", "bialgebra.fdb_lhs_coefficient",
                 "bialgebra.graft_classes", "bialgebra.fdb_rhs_coefficient"):
        assert spans[name]["calls"] > 0, name
