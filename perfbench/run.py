"""The optrees benchmark: cold ``optrees`` CLI workloads, timed from outside.

    python3 perfbench/run.py --workload fdb-six --seed 0 --seconds 10 --trace 0

Each command of a workload runs in a fresh interpreter, one at a time (a
closed loop with one client).  A run repeats the workload's pass until
``--seconds`` have gone by (at least once) and reports the median pass.
Times are taken with the speed gauge of ``gauge.py`` running beside the
command and are reported in seconds at the gauge's reference speed.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
adds one pass under ``tracer.py`` and reports the per-layer metrics.  Every
command's structured output is checked against the digests recorded in
``digests.json``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gauge import Gauge
from workloads import (GROUPOID_SUITE_SEED, REPORT_COUNTS, WORKLOADS, Command,
                       digest)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

SETUP_REPS = 11
# Mirrors the ``optrees`` console script, which calls optrees.cli:main.
CLI = "import sys; from optrees.cli import main; sys.exit(main())"
PROBE = "import sys, optrees.cli; sys.stdout.write(optrees.cli.__file__)"


class BenchError(Exception):
    """The benchmark cannot run here (no program, or the wrong one)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing, so that set iteration order, and with it every
    # work counter, repeats from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Spawned:
    t0_ns: int   # spawn and exit, as time.monotonic_ns
    t1_ns: int
    cpu_s: float
    rss_mb: float
    exit_code: int
    stolen_s: float = 0.0   # kept from the gauge's core by the hypervisor


def spawn(argv: list[str], stdout_path: Path,
          gauge: Gauge | None = None) -> Spawned:
    """Run one child to completion, on the gauge's core if there is one."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        stolen = gauge.stolen_ns() if gauge else 0
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(),
                                preexec_fn=gauge.pin if gauge else None)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.monotonic_ns()
        stolen = (gauge.stolen_ns() - stolen) / 1e9 if gauge else 0.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(t0, t1, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, proc.returncode, stolen)


def at_reference(ran: Spawned, gauge: Gauge | None,
                 end_ns: int | None = None) -> tuple[float, float]:
    """Wall and processor seconds of a child at the gauge's reference
    speed: the processor time the gauge took from the shared core, and the
    time the hypervisor kept the core, are taken off the elapsed time, and
    both times are divided by the gauge's slowdown factor.  ``end_ns`` ends
    the interval before the child's exit.  Without a gauge, the times as
    measured."""
    end = ran.t1_ns if end_ns is None else end_ns
    wall = (end - ran.t0_ns) / 1e9
    if gauge is None:
        return wall, ran.cpu_s
    factor, taken = gauge.measure(ran.t0_ns, end)
    return (wall - taken - ran.stolen_s) / factor, ran.cpu_s / factor


def measure_setup(gauge: Gauge) -> float:
    """Median time from interpreter start to ``optrees.cli`` imported, in
    seconds at the gauge's reference speed.

    The first, untimed, probe fills the bytecode cache and checks that the
    program comes from this checkout's ``src``.
    """
    if not (SRC / "optrees" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'optrees'} is missing")
    path = OUT / "setup.out"
    first = spawn([sys.executable, "-c", PROBE], path)
    loaded = Path(path.read_text(encoding="utf-8") or ".").resolve()
    if first.exit_code != 0 or SRC.resolve() not in loaded.parents:
        raise BenchError(f"optrees.cli did not load from {SRC}")
    spawns = [spawn([sys.executable, "-c", PROBE], path, gauge)
              for _ in range(SETUP_REPS)]
    return statistics.median(at_reference(s, gauge)[0] for s in spawns)


@dataclass
class Pass:
    wall_s: float = 0.0   # at the gauge's reference speed, as is cpu_s
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0   # elapsed, as measured
    rss_mb: float = 0.0
    items: int = 0
    failed: int = 0
    stdout_bytes: int = 0
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    mismatched: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def run_pass(workload, commands: list[Command], expected: dict | None,
             traced: bool, gauge: Gauge | None = None) -> Pass:
    """Run every command of the workload once and check its answers.

    Each command's digest must equal its entry in ``expected``; a command
    with no entry there counts as a mismatch.  ``expected=None`` skips the
    comparison (the self-test's tiny budgets have no recorded answers).
    Without a gauge, times are taken as measured.
    """
    result = Pass()
    for cmd in commands:
        stdout_path = OUT / f"{cmd.label}.out"
        trace_path = OUT / f"{cmd.label}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                    "--", *cmd.argv]
        else:
            argv = [sys.executable, "-c", CLI, *cmd.argv]
        ran = spawn(argv, stdout_path, gauge)
        result.raw_wall_s += (ran.t1_ns - ran.t0_ns) / 1e9
        result.rss_mb = max(result.rss_mb, ran.rss_mb)
        result.stdout_bytes += stdout_path.stat().st_size
        try:
            if ran.exit_code != 0:
                raise ValueError(f"exit code {ran.exit_code}")
            with open(stdout_path, encoding="utf-8") as fh:
                outcome = workload.inspect(json.load(fh))
            end_ns = None
            if traced:
                with open(trace_path, encoding="utf-8") as fh:
                    result.traces.append(json.load(fh))
                # The tracer's own aggregation and writing after
                # ``optrees.cli.main`` returned is not command time.
                end_ns = result.traces[-1]["main_end_ns"]
        except (ValueError, KeyError, TypeError, OSError) as exc:
            print(f"{cmd.label}: failed ({exc})", file=sys.stderr)
            wall, cpu = at_reference(ran, gauge)
            result.wall_s += wall
            result.cpu_s += cpu
            result.items += 1
            result.failed += 1
            result.mismatched.append(cmd.label)
            continue
        wall, cpu = at_reference(ran, gauge, end_ns)
        if traced:
            # Span times are elapsed time; scale them like the command's.
            raw = ((end_ns or ran.t1_ns) - ran.t0_ns) / 1e9
            result.traces[-1]["scale"] = wall / raw
        result.wall_s += wall
        result.cpu_s += cpu
        got = digest(outcome.rows)
        result.digests[cmd.label] = got
        result.items += outcome.items
        want = None if expected is None else expected.get(cmd.label)
        if expected is not None and want != got:
            print(f"{cmd.label}: content digest {got} != recorded "
                  f"{want or '(none recorded)'}", file=sys.stderr)
            result.failed += max(outcome.items, 1)
            result.mismatched.append(cmd.label)
        else:
            result.failed += outcome.failed
        for name, value in outcome.counts.items():
            result.counts[name] = result.counts.get(name, 0) + value
    return result


def timed_passes(workload, commands, expected, seconds: float,
                 gauge: Gauge) -> list[Pass]:
    """Passes until ``seconds`` have gone by, at least one.  A pass is not
    started when half of it would fall after the deadline, so that a run
    of long passes does not overshoot by a whole pass."""
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start
                         + passes[-1].raw_wall_s / 2 < seconds):
        passes.append(run_pass(workload, commands, expected, traced=False,
                               gauge=gauge))
    return passes


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": setup_s,
    }


def merge_traces(traces: list[dict]) -> dict:
    """Sum the tracer summaries of a pass's commands, with each command's
    span times at the gauge's reference speed."""
    spans: dict = {}
    counters: dict = {}
    under = 0
    for t in traces:
        for name, s in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_ns": 0,
                                          "total_ns": 0})
            scale = t.get("scale", 1.0)
            acc["calls"] += s["calls"]
            for k in ("self_ns", "total_ns"):
                acc[k] += s[k] * scale
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
        under += t["cuts_under_cut_summary"]
    return {"spans": spans, "counters": counters,
            "cuts_under_cut_summary": under}


def layer_value(name: str, trace: dict, traced: Pass, overhead: float):
    """Value of one per-layer metric of BENCHMARK.json."""
    spans, counters = trace["spans"], trace["counters"]
    if name == "trace_overhead_ratio":
        return overhead
    if name == "cli.stdout_bytes":
        return traced.stdout_bytes
    if name == "bialgebra.cut_summary.hit_ratio":
        calls = spans["bialgebra.cut_summary"]["calls"]
        return 1 - trace["cuts_under_cut_summary"] / calls if calls else 0.0
    if name in counters:
        return counters[name]
    if name in REPORT_COUNTS:
        return traced.counts.get(name, 0)
    span, _, kind = name.rpartition(".")
    if span in spans:
        s = spans[span]
        if kind == "self_s":
            return s["self_ns"] / 1e9
        if kind in ("calls", "instances"):
            return s["calls"]
        if kind == "s":
            return s["total_ns"] / 1e9
    raise KeyError(f"per-layer metric {name!r} is not produced by the tracer")


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, seed: int, passes: list[Pass], metrics: dict,
           spec: list[dict], traced: Pass | None) -> dict:
    every = passes + ([traced] if traced else [])
    attempted = sum(p.items for p in every)
    failed = sum(p.failed for p in every)
    mismatched = sorted({m for p in every for m in p.mismatched})
    correct = failed == 0 and not mismatched
    print(f"workload {workload.name}  seed {seed} ({workload.seed_note})  "
          f"passes {len(passes)}: "
          + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s at reference "
          "speed, measured "
          + " ".join(f"{p.raw_wall_s:.3f}" for p in passes) + " s"
          + (f"  + 1 traced: {traced.wall_s:.3f} s" if traced else ""))
    print(f"content check: {'ok' if not mismatched else 'MISMATCH'} "
          f"({len(every[0].digests)} digests)"
          + (f"  mismatched: {', '.join(mismatched)}" if mismatched else ""))
    print(f"  failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items)")
    units = {m["name"]: m["unit"] for m in spec}
    for name, value in metrics.items():
        if value or not traced:
            print(f"  {name} = {value:.6g} {units[name]}")
    if traced:
        idle = sum(1 for v in metrics.values() if not v)
        print(f"  ({idle} more per-layer metrics are 0: their layer does not "
              "run on this workload)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite-seed", type=int, default=GROUPOID_SUITE_SEED,
                    help="seed passed to 'verify groupoid' (groupoid-suite)")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that the running command and the gauge are
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    commands = workload.commands(False, args.suite_seed)
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        recorded = load_json(DIGESTS)
        OUT.mkdir(exist_ok=True)
        with Gauge(OUT / "gauge.bin") as gauge:
            setup_s = measure_setup(gauge)
            expected = recorded.get(workload.name, {})
            seconds = (bench["run_seconds"] if args.seconds is None
                       else args.seconds)
            passes = timed_passes(workload, commands, expected, seconds,
                                  gauge)
            traced = None
            if args.trace:
                traced = run_pass(workload, commands, expected, traced=True,
                                  gauge=gauge)
    except (BenchError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = end_to_end(passes, setup_s)
    spec = bench["end_to_end"]
    if traced:
        trace = merge_traces(traced.traces)
        for missing in sorted({m for t in traced.traces for m in t["missing"]}):
            print(f"warning: tracer target {missing} not found", file=sys.stderr)
        overhead = traced.wall_s / metrics["wall_s"]
        spec = bench["per_layer"]
        metrics = {m["name"]: layer_value(m["name"], trace, traced, overhead)
                   for m in spec}
    else:
        metrics = {m["name"]: metrics[m["name"]] for m in spec}
    result = report(workload, args.seed, passes, metrics, spec, traced)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
