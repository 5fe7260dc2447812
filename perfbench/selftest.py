"""Self-test of the benchmark's tracer and checks.

    python3 perfbench/selftest.py                  # tiny budgets, every workload
    python3 perfbench/selftest.py --full --workload fdb-six   # full size

For each workload it runs one untraced and two traced passes and checks that

* every span listed for the workload fires at least once (for
  groupoid-suite, also every law of ``groupoid_suite.LAWS``);
* the traced commands leave no wrapper behind and found every target;
* the traced passes give the same content digests as the untraced one;
* the two traced passes give identical counters (call counts, work counts,
  report counts); any that differ are named;
* every per-layer metric of BENCHMARK.json can be computed.

In process, it also checks that removing the tracer restores every binding
of the package, and that the recorded groupoid-suite digest is that of a
suite with no failed instance.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import argparse
import sys

from run import (DIGESTS, OUT, ROOT, SRC, layer_value, load_json, merge_traces,
                 run_pass)
from tracer import LAW_PREFIX, Tracer, package_bindings
from workloads import GROUPOID_COUNT, WORKLOADS, digest

FAILURES: list[str] = []


def check(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def counters(p, trace: dict) -> dict:
    """Every deterministic number of a traced pass, by name."""
    out = {f"{name}.calls": s["calls"] for name, s in trace["spans"].items()}
    out.update(trace["counters"])
    out.update(p.counts)
    out["bialgebra.cuts_under_cut_summary"] = trace["cuts_under_cut_summary"]
    out["cli.stdout_bytes"] = p.stdout_bytes
    out["items"] = p.items
    return out


def check_workload(name: str, full: bool, suite_seed: int, per_layer: list):
    workload = WORKLOADS[name]
    commands = workload.commands(not full, suite_seed)
    expected = load_json(DIGESTS)[name] if full else None
    plain = run_pass(workload, commands, expected, traced=False)
    check(plain.failed == 0, f"{name}: untraced pass has no failed item")
    first = run_pass(workload, commands, expected, traced=True)
    second = run_pass(workload, commands, expected, traced=True)
    for label, p in (("first", first), ("second", second)):
        check(p.failed == 0 and p.digests == plain.digests,
              f"{name}: {label} traced pass gives the untraced digests")
    missing = sorted({m for t in first.traces + second.traces
                      for m in t["missing"]})
    check(not missing, f"{name}: every tracer target exists"
          + (f" (missing: {', '.join(missing)})" if missing else ""))
    left = sorted({w for t in first.traces + second.traces
                   for w in t["leftover_wrappers"]})
    check(not left, f"{name}: no wrapper left after the command"
          + (f" ({', '.join(left)})" if left else ""))
    trace = merge_traces(first.traces)
    want = list(workload.spans)
    if name == "groupoid-suite":
        want += [s for s in trace["spans"] if s.startswith(LAW_PREFIX)]
    silent = [s for s in want if trace["spans"].get(s, {}).get("calls", 0) == 0]
    check(not silent, f"{name}: all {len(want)} listed spans fire"
          + (f" (silent: {', '.join(silent)})" if silent else ""))
    a, b = counters(first, trace), counters(second, merge_traces(second.traces))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    check(not differ, f"{name}: {len(a)} counters repeat across two traced passes"
          + (f" (differ: {', '.join(differ)})" if differ else ""))
    try:
        for m in per_layer:
            layer_value(m["name"], trace, first, 1.0)
        check(True, f"{name}: all {len(per_layer)} per-layer metrics computed")
    except KeyError as exc:
        check(False, f"{name}: {exc}")


def check_uninstall():
    sys.path.insert(0, str(SRC))
    import optrees.cli  # noqa: F401  (loads every module of the package)

    before = package_bindings()
    tracer = Tracer()
    tracer.install()
    during = package_bindings()
    wrapped = {k for k in before if during[k] is not before[k]}
    must = {("optrees.cli", "verify_fdb"), ("optrees.bialgebra", "cut_summary"),
            ("optrees", "enumerate_cuts"), ("optrees.pfunctor", "PTree.edge_codes"),
            ("optrees.groupoids", "GroupoidMap.check"),
            ("optrees.groupoid_suite", "LAWS[0]")}
    check(must <= wrapped and not tracer.missing,
          f"tracer wraps {len(wrapped)} bindings, including re-exports, "
          "methods and the law table")
    tracer.uninstall()
    after = package_bindings()
    changed = sorted(k for k in before if after.get(k) is not before[k])
    check(not changed and after.keys() == before.keys()
          and not tracer.leftover_wrappers(),
          "uninstall restores every binding of the package"
          + (f" (changed: {changed})" if changed else ""))


def check_recorded_groupoid():
    from optrees import groupoid_suite

    laws = [name for name, _ in groupoid_suite.LAWS]
    instances = {law: GROUPOID_COUNT // len(laws)
                 + (i < GROUPOID_COUNT % len(laws)) for i, law in enumerate(laws)}
    clean = digest([[law, instances[law], 0] for law in sorted(laws)])
    recorded = load_json(DIGESTS).get("groupoid-suite", {})
    check(recorded == {"groupoid-suite": clean},
          "the recorded groupoid-suite digest is that of a suite with no "
          "failed instance")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="only this workload (default: all)")
    ap.add_argument("--full", action="store_true",
                    help="full-size commands instead of tiny budgets")
    ap.add_argument("--suite-seed", type=int, default=0)
    args = ap.parse_args()
    if not (SRC / "optrees").is_dir():
        print(f"error: {SRC / 'optrees'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    per_layer = load_json(ROOT / "BENCHMARK.json")["per_layer"]
    check_uninstall()
    check_recorded_groupoid()
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        check_workload(name, args.full, args.suite_seed, per_layer)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
