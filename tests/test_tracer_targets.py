"""Every span target of ``perfbench/tracer.py`` must exist in the package,
and the Faà di Bruno spans (through the library and through the command),
the groupoid-suite workload's spans and the structured writer's span must
fire on a tiny run, or their per-layer metrics would silently read 0.  The
tracer wraps the modules in ``sys.modules`` once ``optrees.cli`` is
imported, so one test runs it in a fresh process, where no other test has
imported a module that the CLI leaves unloaded."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import optrees.cli  # puts every module the tracer patches in sys.modules
from optrees import bialgebra, groupoid_suite
from optrees.pfunctor import builtin

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


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


def test_a_fresh_traced_command_resolves_every_target_and_fires_the_groupoid_spans(
        tmp_path):
    # perfbench/tracer.py imports only optrees.cli before it installs
    tracer, workload = load_tracer(), load("workloads").WORKLOADS["groupoid-suite"]
    out = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(out), "--", "verify",
         "groupoid", "--count", "20", "--format", "structured"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
    report = json.loads(out.read_text())
    assert report["missing"] == [] and report["leftover_wrappers"] == []
    laws = [tracer.LAW_PREFIX + name for name, _ in groupoid_suite.LAWS]
    for name in workload.spans + tuple(laws):
        assert report["spans"][name]["calls"] > 0, name


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


def test_the_fdb_spans_fire_on_a_tiny_command(capsys):
    # the command runs the check while the writer pulls its rows, so fdb-six
    # times the check's own work under cli.emit_structured
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        code = optrees.cli.main(["verify", "fdb", "--functor", "exp", "--max-arity", "3",
                                 "--max-nodes", "3", "--max-edges", "4",
                                 "--format", "structured"])
    finally:
        t.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pairs"]
    spans = t.summary()["spans"]
    for name in ("cli.emit_structured", "bialgebra.fdb_lhs_coefficient",
                 "bialgebra.graft_classes", "bialgebra.fdb_rhs_coefficient"):
        assert spans[name]["calls"] > 0, name


def test_the_groupoid_suite_spans_fire_on_a_tiny_run(capsys):
    tracer, workload = load_tracer(), load("workloads").WORKLOADS["groupoid-suite"]
    t = tracer.Tracer()
    t.install()
    try:
        code = optrees.cli.main(["verify", "groupoid", "--count", "20",
                                 "--format", "structured"])
    finally:
        t.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0
    spans = t.summary()["spans"]
    laws = [tracer.LAW_PREFIX + name for name, _ in groupoid_suite.LAWS]
    for name in workload.spans + tuple(laws):
        assert spans[name]["calls"] > 0, name


def test_the_writer_span_fires_on_a_tiny_enumerate(capsys):
    # enum-exp's cli.emit_structured.self_s times the writer, which encodes
    # the rows as the command's generator hands them out
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        code = optrees.cli.main(["enumerate", "--functor", "exp", "--max-arity", "3",
                                 "--max-edges", "4", "--format", "structured"])
    finally:
        t.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] > 10
    assert t.summary()["spans"]["cli.emit_structured"]["calls"] == 1
