"""Command-line front end.

Subcommands: ``enumerate``, ``aut``, ``delta``, ``green``, ``groupoid`` and
the verification suites ``verify fdb|classical|phi|groupoid``.

Exit status: 0 on success or all checks passing, 1 on a verification
failure, 2 on an input error (usage, spec, grammar, groupoid document,
decoding, bound range, unreadable file), 3 on an internal error, reported
in one ``internal error:`` line.  Results go to standard output only;
diagnostics and timings go to standard error.  Structured output is a
single JSON document with sorted keys and a ``schema_version`` field, so
identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bialgebra import (Bound, delta_tree, format_rational, green,
                        profile_str, verify_fdb)
from .classical import classical_verify, verify_phi
from .enumeration import BoundError, enumerate_classes
from .groupoid_suite import run_suite
from .groupoids import GroupoidError, groupoid_from_doc
from .pfunctor import (EndofunctorSpec, SpecError, aut_order, builtin,
                       forest_key_str, load_spec, parse_ptree_or_shape)
from .trees import GrammarError

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _spec_from_args(args) -> EndofunctorSpec:
    if getattr(args, "spec_file", None):
        if getattr(args, "functor", None):
            raise UsageError("give either --functor or --spec-file, not both")
        return load_spec(args.spec_file)
    if not getattr(args, "functor", None):
        raise UsageError("a spec source is required (--functor or --spec-file)")
    return builtin(args.functor, max_arity=args.max_arity)


def _parse_profile(text: str, spec: EndofunctorSpec) -> tuple[tuple[str, int], ...]:
    out: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise UsageError(f"bad leaf profile entry {part!r}, expected colour:count")
        colour, _, count = part.partition(":")
        colour = colour.strip()
        _check_colour(spec, colour)
        if colour in out:
            raise UsageError(f"colour {colour!r} named twice in leaf profile")
        try:
            n = int(count)
        except ValueError:
            raise UsageError(f"bad count in profile entry {part!r}") from None
        out[colour] = _at_least(n, 0, f"count in profile entry {part!r}")
    return tuple(sorted(out.items()))


def _at_least(value: int, least: int, what: str) -> int:
    if value < least:
        raise UsageError(f"{what} must be at least {least}, got {value}")
    return value


def _check_colour(spec: EndofunctorSpec, colour: str):
    if colour not in spec.colours:
        raise UsageError(f"unknown colour {colour!r}; spec has "
                         f"{', '.join(spec.colours)}")


def emit_structured(command: str, doc: dict):
    doc = {"schema_version": SCHEMA_VERSION, "command": command, **doc}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2,
                                ensure_ascii=False, separators=(",", ": ")))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    bound = Bound(args.max_edges, args.max_nodes)
    profile = _parse_profile(args.leaf_profile, spec) if args.leaf_profile else None
    if args.root_colour is not None:
        _check_colour(spec, args.root_colour)
    classes = enumerate_classes(spec, bound, root_colour=args.root_colour,
                                leaf_profile=profile)
    rows = [{"key": c.key, "tree": c.key, "aut_order": c.aut, "root": c.root,
             "leaf_profile": profile_str(c.leaf_profile), "edges": c.edges,
             "nodes": c.nodes} for c in classes]
    if args.format == "structured":
        emit_structured("enumerate", {"spec": spec.name, "bound": bound.label(),
                                      "classes": rows, "count": len(rows)})
    else:
        for r in rows:
            print(f"{r['key']}\taut={r['aut_order']}\troot={r['root']}"
                  f"\tleaves={r['leaf_profile']}\tedges={r['edges']}\tnodes={r['nodes']}")
        print(f"# {len(rows)} classes", file=sys.stderr)
    return 0


def cmd_aut(args) -> int:
    spec = _spec_from_args(args)
    t = parse_ptree_or_shape(spec, args.tree)
    order = aut_order(t)
    if args.format == "structured":
        emit_structured("aut", {"spec": spec.name, "tree": t.key(),
                                "aut_order": order})
    else:
        print(order)
    return 0


def cmd_delta(args) -> int:
    spec = _spec_from_args(args)
    t = parse_ptree_or_shape(spec, args.tree)
    ts = delta_tree(t)
    terms = [{"F": forest_key_str(left), "S": forest_key_str(right),
              "coeff": format_rational(c)}
             for (left, right), c in sorted(ts.coeffs.items())]
    if args.format == "structured":
        emit_structured("delta", {"spec": spec.name, "tree": t.key(),
                                  "terms": terms, "count": len(terms)})
    else:
        for term in terms:
            coeff = "" if term["coeff"] == "1/1" else term["coeff"] + " "
            print(f"{coeff}{term['F']} ⊗ {term['S']}")
    return 0


def cmd_green(args) -> int:
    spec = _spec_from_args(args)
    bound = Bound(args.max_edges, args.max_nodes)
    profile = _parse_profile(args.leaf_profile, spec) if args.leaf_profile else None
    if args.root_colour is not None:
        _check_colour(spec, args.root_colour)
    series = green(spec, bound, root_colour=args.root_colour,
                   leaf_profile=profile)
    terms = [{"monomial": forest_key_str(k), "coeff": format_rational(c)}
             for k, c in sorted(series.coeffs.items())]
    if args.format == "structured":
        emit_structured("green", {"spec": spec.name, "bound": bound.label(),
                                  "terms": terms})
    else:
        print(series.terms_str() if terms else "0")
    return 0


def cmd_groupoid(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    g = groupoid_from_doc(doc)
    comps = g.pi0()
    rows = [{"class": repr(c[0]), "objects": len(c),
             "aut_order": len(g.hom(c[0], c[0]))} for c in comps]
    card = g.cardinality()
    if args.format == "structured":
        emit_structured("groupoid", {
            "objects": len(g.objects), "arrows": len(g.arrows),
            "components": rows, "cardinality": format_rational(card)})
    else:
        print(f"objects: {len(g.objects)}  arrows: {len(g.arrows)}")
        for r in rows:
            print(f"class {r['class']}: {r['objects']} objects, "
                  f"vertex group order {r['aut_order']}")
        print(f"cardinality: {format_rational(card)}")
    return 0


def cmd_verify_fdb(args) -> int:
    spec = _spec_from_args(args)
    if args.rooted is not None:
        _check_colour(spec, args.rooted)
    report = verify_fdb(spec, max_total_nodes=args.max_nodes,
                        max_edges_side=args.max_edges, rooted=args.rooted)
    if args.format == "structured":
        emit_structured("verify-fdb", report.as_doc())
    else:
        doc = report.as_doc()
        for p in doc["pairs"]:
            status = "ok" if p["pass"] else "FAIL"
            print(f"{status}  F={p['F']}  S={p['S']}  lhs={p['lhs']}  rhs={p['rhs']}")
        s = doc["summary"]
        print(f"checked={s['checked']} failed={s['failed']} "
              f"cross_checked={s['cross_checked']} cross_failed={s['cross_failed']}")
    return 0 if report.passed else 1


def cmd_verify_classical(args) -> int:
    report = classical_verify(_at_least(args.max_degree, 0, "--max-degree"))
    if args.format == "structured":
        emit_structured("verify-classical", report.as_doc())
    else:
        doc = report.as_doc()
        print(f"multiplicities: checked={doc['multiplicities']['checked']} "
              f"failed={doc['multiplicities']['failed']}")
        print(f"identity pairs: checked={doc['summary']['checked']} "
              f"failed={doc['summary']['failed']}")
    return 0 if report.passed else 1


def cmd_verify_phi(args) -> int:
    spec = _spec_from_args(args)
    report = verify_phi(spec, max_n=_at_least(args.max_n, 0, "--max-n"),
                        bound=Bound(args.max_edges))
    if args.format == "structured":
        emit_structured("verify-phi", report.as_doc())
    else:
        doc = report.as_doc()
        for row in doc["generators"]:
            status = "ok" if row["pass"] else "FAIL"
            print(f"{status}  n={row['n']} checked={row['checked']} failed={row['failed']}")
        print(f"green_match={doc['green_match']}")
    return 0 if report.passed else 1


def cmd_verify_groupoid(args) -> int:
    report = run_suite(count=_at_least(args.count, 1, "--count"),
                       seed=args.seed)
    if args.format == "structured":
        emit_structured("verify-groupoid", report.as_doc())
    else:
        doc = report.as_doc()
        for row in doc["laws"]:
            status = "ok" if row["failed"] == 0 else "FAIL"
            print(f"{status}  {row['law']}: {row['instances']} instances, "
                  f"{row['failed']} failed")
        print(f"instances={doc['summary']['instances']} "
              f"failed={doc['summary']['failed']}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_spec_args(p: argparse.ArgumentParser):
    p.add_argument("--functor", help="builtin spec name")
    p.add_argument("--max-arity", type=int, default=None,
                   help="arity bound for arity-unbounded builtins")
    p.add_argument("--spec-file", help="path to a spec JSON file")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("table", "structured"), default="table")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="optrees",
                                 description="decorated operadic trees, their "
                                             "bialgebra, and groupoid checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="tree classes within a bound")
    _add_spec_args(p)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--root-colour")
    p.add_argument("--leaf-profile", help='filter like "o:2" (colour:count,...)')
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("aut", help="automorphism order of a tree")
    _add_spec_args(p)
    p.add_argument("--tree", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("delta", help="coproduct of a tree class")
    _add_spec_args(p)
    p.add_argument("--tree", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("green", help="truncated Green function")
    _add_spec_args(p)
    p.add_argument("--max-edges", type=int, default=8)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--root-colour")
    p.add_argument("--leaf-profile")
    _add_common(p)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("groupoid", help="inspect a groupoid interchange file")
    p.add_argument("--file", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_groupoid)

    pv = sub.add_parser("verify", help="verification suites")
    vsub = pv.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("fdb", help="coproduct identity for Green functions")
    _add_spec_args(p)
    p.add_argument("--max-edges", type=int, default=8,
                   help="edge bound per pair side")
    p.add_argument("--max-nodes", type=int, default=5,
                   help="total node bound per pair")
    p.add_argument("--rooted", help="restrict stumps to this root colour")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    _add_common(p)
    p.set_defaults(func=cmd_verify_fdb)

    p = vsub.add_parser("classical", help="surjection bialgebra identity")
    p.add_argument("--max-degree", type=int, default=7)
    _add_common(p)
    p.set_defaults(func=cmd_verify_classical)

    p = vsub.add_parser("phi", help="classical-to-tree homomorphism")
    _add_spec_args(p)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_verify_phi)

    p = vsub.add_parser("groupoid", help="randomized groupoid law suite")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify_groupoid)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code = args.func(args)
    except (UsageError, SpecError, GrammarError, GroupoidError, BoundError,
            OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
