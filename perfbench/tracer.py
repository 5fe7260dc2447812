"""Span tracer for one ``optrees`` command, run from outside the program.

Usage: python3 perfbench/tracer.py OUT_JSON -- OPTREES_ARGS...

The tracer imports ``optrees``, wraps the public functions listed in
``TARGETS`` in every namespace of the package that binds them (``from .x
import y`` copies, methods on their class, and the law functions held in
``groupoid_suite.LAWS``), runs ``optrees.cli.main`` on the arguments, and
removes every wrapper again.  Spans (name, start, end, parent) are kept in
memory in flat arrays and written to ``OUT_JSON.spans`` at the end; the
per-name aggregates (calls, total and self time) and the work counters go to
``OUT_JSON``.  A span's self time is its duration minus the time its child
spans cover.  ``main_end_ns`` in ``OUT_JSON`` is the ``time.monotonic_ns``
reading when ``optrees.cli.main`` returned: the caller ends the command's
wall time there, leaving out this post-processing.

Per-access helpers (``representative``, ``PTree.node_count``/``edge_count``,
``PForest.node_count``) are deliberately not wrapped: they run millions of
times and their cost stays in their callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, span name, counter name, counter function).  An
# attribute "Class.method" wraps the method on its class.
TARGETS = (
    ("trees", "enumerate_cuts", "trees.enumerate_cuts", "trees.cuts", len),
    ("trees", "prune", "trees.prune", None, None),
    ("pfunctor", "PTree.edge_codes", "pfunctor.edge_codes", None, None),
    ("pfunctor", "aut_order", "pfunctor.aut_order", None, None),
    ("pfunctor", "build_ptree", "pfunctor.build_ptree", None, None),
    ("pfunctor", "prune_decorated", "pfunctor.prune_decorated", None, None),
    ("pfunctor", "graft_decorated", "pfunctor.graft_decorated", None, None),
    ("pfunctor", "parse_ptree", "pfunctor.parse_ptree", None, None),
    ("enumeration", "enumerate_ptrees", "enumeration.enumerate_ptrees",
     "enumeration.tree_classes", len),
    ("enumeration", "enumerate_pforests", "enumeration.enumerate_pforests",
     "enumeration.forests", len),
    ("bialgebra", "verify_fdb", "bialgebra.verify_fdb", None, None),
    ("bialgebra", "fdb_lhs_coefficient", "bialgebra.fdb_lhs_coefficient",
     None, None),
    ("bialgebra", "graft_classes", "bialgebra.graft_classes", None, None),
    ("bialgebra", "cut_summary", "bialgebra.cut_summary", None, None),
    ("bialgebra", "fdb_rhs_coefficient", "bialgebra.fdb_rhs_coefficient",
     None, None),
    ("bialgebra", "series_mul", "bialgebra.series_mul", None, None),
)


def _arrows(result) -> int:
    return len(result[0].arrows)


TARGETS += tuple(
    ("groupoids", name, "groupoids." + name, "groupoids.arrows_built", _arrows)
    for name in ("homotopy_sum", "homotopy_pullback", "homotopy_fiber",
                 "homotopy_quotient", "groth_equivalence")) + (
    ("groupoids", "is_equivalence", "groupoids.is_equivalence", None, None),
    ("groupoids", "FiniteGroupoid.check", "groupoids.check", None, None),
    ("groupoids", "GroupoidMap.check", "groupoids.check", None, None),
    ("groupoids", "GroupAction.check", "groupoids.check", None, None),
    ("groupoid_suite", "coloured_set_groupoid",
     "groupoid_suite.coloured_set_groupoid", None, None),
    ("cli", "emit_structured", "cli.emit_structured", None, None),
)

LAW_PREFIX = "groupoid_suite.law."


def package_bindings() -> dict:
    """Every module-level and class-level binding of the loaded ``optrees``
    modules, and the functions in ``groupoid_suite.LAWS``."""
    out = {}
    for n, m in sorted(sys.modules.items()):
        if n != "optrees" and not n.startswith("optrees."):
            continue
        for key, value in vars(m).items():
            out[(n, key)] = value
            if isinstance(value, type) and value.__module__ == n:
                for k, v in vars(value).items():
                    out[(n, f"{key}.{k}")] = v
        for i, entry in enumerate(getattr(m, "LAWS", ())):
            out[(n, f"LAWS[{i}]")] = entry[1]
    return out


class Tracer:
    """Installs span wrappers into the ``optrees`` package and removes them."""

    def __init__(self):
        self.names: list[str] = []
        self.counter_names: list[str] = []
        self.counts: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.laws: list | None = None

    def _index(self, table: list[str], name: str) -> int:
        if name not in table:
            table.append(name)
            if table is self.counter_names:
                self.counts.append(0)
        return table.index(name)

    def _wrap(self, fn, span: str, counter: str | None, count_fn):
        name_i = self._index(self.names, span)
        count_i = self._index(self.counter_names, counter) if counter else -1
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, counts = (self.span_start, self.span_end,
                                       self.stack, self.counts)
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_i)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if count_fn is not None:
                counts[count_i] += count_fn(result)
            return result

        wrapper._perfbench_span = span
        return wrapper

    def _set(self, owner, attr: str, value):
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "optrees" or n.startswith("optrees.")]
        for module, attr, span, counter, count_fn in TARGETS:
            mod = sys.modules.get("optrees." + module)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                # Keep the span and counter at zero, and let the caller see
                # which target has gone.
                self._index(self.names, span)
                if counter:
                    self._index(self.counter_names, counter)
                self.missing.append(f"optrees.{module}.{attr}")
                continue
            wrapper = self._wrap(original, span, counter, count_fn)
            if owner_name:
                self._set(owner, name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        suite = sys.modules.get("optrees.groupoid_suite")
        if suite is not None:
            self.laws = list(suite.LAWS)
            suite.LAWS[:] = [(law, self._wrap(fn, LAW_PREFIX + law, None, None))
                             for law, fn in self.laws]

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        if self.laws is not None:
            sys.modules["optrees.groupoid_suite"].LAWS[:] = self.laws

    def leftover_wrappers(self) -> list[str]:
        """Bindings of the package that still hold a wrapper (none once
        ``uninstall`` has run)."""
        return [".".join(k) for k, v in package_bindings().items()
                if hasattr(v, "_perfbench_span")]

    def summary(self) -> dict:
        """Calls, total and self nanoseconds per span name, the counters, and
        the number of enumerate_cuts spans directly under cut_summary."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, total, own = [0] * k, [0] * k, [0] * k
        for i in range(n):
            d = ends[i] - starts[i]
            j = names[i]
            calls[j] += 1
            total[j] += d
            own[j] += d - child[i]
        under = 0
        if "trees.enumerate_cuts" in self.names and \
                "bialgebra.cut_summary" in self.names:
            cuts = self.names.index("trees.enumerate_cuts")
            summary = self.names.index("bialgebra.cut_summary")
            under = sum(1 for i in range(n)
                        if names[i] == cuts and parents[i] >= 0
                        and names[parents[i]] == summary)
        return {
            "spans": {name: {"calls": calls[j], "total_ns": total[j],
                             "self_ns": own[j]}
                      for j, name in enumerate(self.names)},
            "counters": dict(zip(self.counter_names, self.counts)),
            "cuts_under_cut_summary": under,
            "span_count": n,
            "missing": self.missing,
        }

    def write_spans(self, path: str):
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names,
                                 "count": len(self.span_start),
                                 "arrays": ["name:H", "parent:i", "start:q",
                                            "end:q"]})
            fh.write(header.encode("utf-8") + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_JSON -- OPTREES_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import optrees.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = optrees.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        main_end = time.monotonic_ns()
        tracer.uninstall()
    report = tracer.summary()
    report["exit"] = code
    report["leftover_wrappers"] = tracer.leftover_wrappers()
    tracer.write_spans(out_path + ".spans")
    report["main_end_ns"] = main_end
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
