"""Every span target of ``perfbench/tracer.py`` must exist in the package,
or its per-layer metrics would silently read 0."""

import importlib.util
from pathlib import Path

import optrees.cli  # noqa: F401  (loads every module the tracer patches)

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
