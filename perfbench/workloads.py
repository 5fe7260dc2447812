"""The benchmark's workloads: which ``optrees`` commands each one runs, what
counts as a verified item, and the digest of its exact answers.

Every command is one cold ``optrees`` invocation.  Its structured stdout is
inspected after the command has exited, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

# The six specs of acceptance criterion 1 (ROADMAP W1); the last three need
# an arity bound.
FDB_SPECS = (("identity", None), ("constant", None), ("binary", None),
             ("planar", 3), ("exp", 3), ("stable", 3))

# Suite seed of the timed groupoid-suite pass (the CLI default).  See
# README.md for why it does not follow the benchmark's --seed.
GROUPOID_SUITE_SEED = 0
GROUPOID_COUNT = 200


@dataclass(frozen=True)
class Command:
    label: str               # key of the command's digest in digests.json
    argv: tuple[str, ...]    # arguments after ``optrees``


@dataclass
class Outcome:
    """What one command's output says: verified items, failed items, the
    rows its digest covers and the counts the traced run reports."""

    items: int
    failed: int
    rows: object
    counts: dict


def fdb_six(tiny: bool, suite_seed: int) -> list[Command]:
    nodes, edges = (3, 4) if tiny else (5, 8)
    out = []
    for functor, arity in FDB_SPECS:
        argv = ["verify", "fdb", "--functor", functor]
        if arity is not None:
            argv += ["--max-arity", str(arity)]
        argv += ["--max-nodes", str(nodes), "--max-edges", str(edges),
                 "--jobs", "1", "--format", "structured"]
        out.append(Command(functor, tuple(argv)))
    return out


def enum_exp(tiny: bool, suite_seed: int) -> list[Command]:
    arity, edges = (4, 5) if tiny else (7, 9)
    return [Command("enum-exp", ("enumerate", "--functor", "exp",
                                 "--max-arity", str(arity),
                                 "--max-edges", str(edges),
                                 "--format", "structured"))]


def groupoid_suite(tiny: bool, suite_seed: int) -> list[Command]:
    count = 20 if tiny else GROUPOID_COUNT
    # One label for every suite seed: with no failure the answers depend
    # only on --count, so one recorded digest covers the held-out seeds too.
    return [Command("groupoid-suite",
                    ("verify", "groupoid", "--count", str(count),
                     "--seed", str(suite_seed), "--format", "structured"))]


# Counts read from the verification reports of fdb-six.
REPORT_COUNTS = ("bialgebra.pairs_checked", "bialgebra.pairs_listed",
                 "bialgebra.cross_checked", "bialgebra.zero_pairs")


def inspect_fdb(doc: dict) -> Outcome:
    s = doc["summary"]
    rows = {"spec": doc["spec"],
            "pairs": [[p["F"], p["S"], p["lhs"], p["rhs"]] for p in doc["pairs"]],
            "checked": s["checked"], "failed": s["failed"]}
    listed_bad = sum(1 for p in doc["pairs"]
                     if not p["pass"] or p["lhs"] != p["rhs"])
    failed = max(s["failed"], listed_bad) + s["cross_failed"]
    counts = dict(zip(REPORT_COUNTS, (s["checked"], len(doc["pairs"]),
                                      s["cross_checked"], s["zero_pairs"])))
    return Outcome(s["checked"], failed, rows, counts)


def inspect_enum(doc: dict) -> Outcome:
    rows = {"classes": [[c["key"], c["aut_order"]] for c in doc["classes"]],
            "count": doc["count"]}
    return Outcome(len(doc["classes"]), 0, rows, {})


def inspect_groupoid(doc: dict) -> Outcome:
    rows = [[law["law"], law["instances"], law["failed"]] for law in doc["laws"]]
    s = doc["summary"]
    failed = max(s["failed"], sum(law["failed"] for law in doc["laws"]))
    return Outcome(s["instances"], failed, rows, {})


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[bool, int], list[Command]]   # (tiny, suite seed)
    inspect: Callable[[dict], Outcome]   # structured stdout document
    spans: tuple[str, ...]   # spans the traced run must see fire
    seed_note: str = "no random input"


WORKLOADS = {
    "fdb-six": Workload("fdb-six", fdb_six, inspect_fdb, (
        "trees.enumerate_cuts", "trees.prune",
        "pfunctor.edge_codes", "pfunctor.aut_order", "pfunctor.build_ptree",
        "pfunctor.prune_decorated", "pfunctor.graft_decorated",
        "pfunctor.parse_ptree",
        "enumeration.enumerate_ptrees", "enumeration.enumerate_pforests",
        "bialgebra.verify_fdb", "bialgebra.fdb_lhs_coefficient",
        "bialgebra.graft_classes", "bialgebra.cut_summary",
        "bialgebra.fdb_rhs_coefficient", "bialgebra.series_mul",
        "cli.emit_structured")),
    "enum-exp": Workload("enum-exp", enum_exp, inspect_enum, (
        "pfunctor.edge_codes", "pfunctor.aut_order", "pfunctor.build_ptree",
        "enumeration.enumerate_ptrees", "cli.emit_structured")),
    "groupoid-suite": Workload("groupoid-suite", groupoid_suite,
                               inspect_groupoid, (
        "groupoids.homotopy_sum", "groupoids.homotopy_fiber",
        "groupoids.homotopy_quotient", "groupoids.is_equivalence",
        "groupoids.groth_equivalence", "groupoids.check",
        "groupoid_suite.coloured_set_groupoid", "cli.emit_structured"),
        "suite seed fixed, see --suite-seed"),
}


def digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
