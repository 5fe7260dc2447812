"""Command-line front end.

Subcommands: ``enumerate``, ``aut``, ``delta``, ``green``, ``groupoid`` and
the verification suites ``verify fdb|classical|phi|groupoid``.

Exit status: 0 on success or all checks passing, 1 on a verification
failure, 2 on an input error (usage, spec, grammar, groupoid document,
decoding, bound range, unreadable file), 3 on an internal error, reported
in one ``internal error:`` line; standard output may then hold part of a
document.  Results go to standard output only; diagnostics and timings go
to standard error.  Structured output is a single JSON document with
sorted keys and a ``schema_version`` field, so identical invocations are
byte-identical; its bytes are those of one ``json.dumps`` of the whole
document.  ``emit_structured`` is the one writer of structured output.  It
encodes a top-level list item by item as the items come, in writes bounded
by size: ``enumerate`` and ``verify fdb`` hand it generators of ``Row``s
formatted from each class record or pair check, so neither builds a list of
its rows; other lists' objects of scalars go through the C encoder.

A command compiles only the modules it runs.  The other modules of the
package are lazy modules (see ``optrees``), bound here as modules: a
command looks their names up on them when it calls or catches them, so
importing this module compiles none of them, and ``main``'s handlers load
the modules of the error classes only when an exception reaches them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Iterable, Iterator

from . import (bialgebra, classical, enumeration, groupoid_suite, groupoids, pfunctor,
               trees)

SCHEMA_VERSION = 1
# a write of structured output, but the last, holds at least 8 * BATCH
# characters: no more writes than one per BATCH chunks of ENCODER's, which
# average about 6 characters
BATCH = 8192
ENCODER = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)
# the members of an object of scalars in a top-level list, laid out as
# ENCODER lays them out (no indent, so the C encoder runs)
ITEM = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                        separators=(",\n      ", ": "))
SCALARS = {str, int, float, bool, type(None)}
_string = json.encoder.encode_basestring  # a str as ITEM encodes it


class UsageError(Exception):
    pass


def _spec_from_args(args) -> pfunctor.EndofunctorSpec:
    if getattr(args, "spec_file", None):
        if getattr(args, "functor", None):
            raise UsageError("give either --functor or --spec-file, not both")
        return pfunctor.load_spec(args.spec_file)
    if not getattr(args, "functor", None):
        raise UsageError("a spec source is required (--functor or --spec-file)")
    return pfunctor.builtin(args.functor, max_arity=args.max_arity)


def _parse_profile(text: str) -> tuple[tuple[str, int], ...]:
    """The entries of ``colour:count,...``; ``enumerate_classes`` checks them."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise UsageError(f"bad leaf profile entry {part!r}, expected colour:count")
        colour, _, count = part.partition(":")
        try:
            out.append((colour.strip(), int(count)))
        except ValueError:
            raise UsageError(f"bad count in profile entry {part!r}") from None
    if not out:
        raise UsageError("empty leaf profile; write colour:0 for no leaves")
    return tuple(out)


def _at_least(value: int, least: int, what: str) -> int:
    if value < least:
        raise UsageError(f"{what} must be at least {least}, got {value}")
    return value


def _check_colour(spec: pfunctor.EndofunctorSpec, colour: str):
    if colour not in spec.colours:
        raise UsageError(f"unknown colour {colour!r}; spec has "
                         f"{', '.join(spec.colours)}")


class Row(str):
    """An item of a top-level list, already laid out as ``_item`` lays it out."""


def emit_structured(command: str, doc: dict):
    """Write the document with the bytes of one ``json.dumps`` with
    ``ENCODER``'s settings.  A top-level list may be given as an iterator:
    its items are encoded and written as they come (``_item``; a ``Row`` is
    written as it is), so neither the list nor the whole text is held.  A
    value given as a function of no arguments is called when its key is
    written, so it sees what the lists before it left."""
    _write(_pieces({"schema_version": SCHEMA_VERSION, "command": command, **doc}))


def _pieces(doc: dict) -> Iterator[str]:
    sep = "{\n  "
    for key in sorted(doc):
        value = doc[key]
        if callable(value):
            value = value()
        yield f"{sep}{ENCODER.encode(key)}: "
        sep = ",\n  "
        if isinstance(value, (list, Iterator)):
            opened = False
            for item in value:
                yield (("," if opened else "[") + "\n    "
                       + (item if isinstance(item, Row) else _item(item)))
                opened = True
            yield "\n  ]" if opened else "[]"
        else:
            yield ENCODER.encode(value).replace("\n", "\n  ")
    yield "\n}\n"


def _item(value) -> str:
    """An item of a top-level list, laid out as ``ENCODER`` lays it out
    there: a nonempty object of scalars by the C encoder (``ITEM``), any
    other value by ``ENCODER``, re-indented (no encoded string holds a
    newline)."""
    if type(value) is dict and value and SCALARS.issuperset(map(type, value.values())):
        return "{\n      " + ITEM.encode(value)[1:-1] + "\n    }"
    return ENCODER.encode(value).replace("\n", "\n    ")


def _write(pieces: Iterable[str]):
    """Write the pieces, joined into writes of at least ``8 * BATCH``
    characters but the last."""
    batch, size = [], 0
    for text in pieces:
        batch.append(text)
        size += len(text)
        if size >= 8 * BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    if batch:
        sys.stdout.write("".join(batch))


def _pair_row(p: bialgebra.PairCheck) -> Row:
    """``_item(p.as_doc())``, formatted from the check's reduced integers: a
    listed pair's row."""
    crown = _string(pfunctor.forest_key_str(p.crown))
    return Row(f'{{\n      "F": {crown},\n      "S": {_string(p.stump)},\n      '
               f'"lhs": "{p.lhs_num}/{p.lhs_den}",\n      '
               f'"pass": {"true" if p.passed else "false"},\n      '
               f'"rhs": "{p.rhs_num}/{p.rhs_den}"\n    }}')


def _class_row(c: pfunctor.TreeClass, profiles: dict) -> Row:
    """``_item`` of the class's ``enumerate`` row, formatted from the record;
    ``profiles`` keeps each shared leaf profile's string, once formatted."""
    profile = profiles.get(c.leaf_profile) or profiles.setdefault(
        c.leaf_profile, _string(enumeration.profile_str(c.leaf_profile)))
    key = _string(c.key)
    return Row(f'{{\n      "aut_order": {c.aut},\n      "edges": {c.edges},\n      '
               f'"key": {key},\n      "leaf_profile": {profile},\n      '
               f'"nodes": {c.nodes},\n      "root": {_string(c.root)},\n      '
               f'"tree": {key}\n    }}')


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    bound = enumeration.Bound(args.max_edges, args.max_nodes)
    profile = None if args.leaf_profile is None else _parse_profile(args.leaf_profile)
    if args.root_colour is not None:
        _check_colour(spec, args.root_colour)
    classes = enumeration.enumerate_classes(spec, bound, root_colour=args.root_colour,
                                            leaf_profile=profile)
    if args.format == "structured":
        profiles = {}
        rows = (_class_row(c, profiles) for c in classes)
        emit_structured("enumerate", {"spec": spec.name, "bound": bound.label(),
                                      "classes": rows, "count": len(classes)})
    else:
        for c in classes:
            print(f"{c.key}\taut={c.aut}\troot={c.root}\tleaves="
                  f"{enumeration.profile_str(c.leaf_profile)}\tedges={c.edges}\t"
                  f"nodes={c.nodes}")
        print(f"# {len(classes)} classes", file=sys.stderr)
    return 0


def cmd_aut(args) -> int:
    spec = _spec_from_args(args)
    t = pfunctor.parse_ptree_or_shape(spec, args.tree)
    order = pfunctor.aut_order(t)
    if args.format == "structured":
        emit_structured("aut", {"spec": spec.name, "tree": t.key(),
                                "aut_order": order})
    else:
        print(order)
    return 0


def cmd_delta(args) -> int:
    spec = _spec_from_args(args)
    t = pfunctor.parse_ptree_or_shape(spec, args.tree)
    ts = bialgebra.delta_tree(t)
    terms = [{"F": pfunctor.forest_key_str(left), "S": pfunctor.forest_key_str(right),
              "coeff": bialgebra.format_rational(c)}
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
    bound = enumeration.Bound(args.max_edges, args.max_nodes)
    profile = None if args.leaf_profile is None else _parse_profile(args.leaf_profile)
    if args.root_colour is not None:
        _check_colour(spec, args.root_colour)
    series = bialgebra.green(spec, bound, root_colour=args.root_colour,
                             leaf_profile=profile)
    terms = [{"monomial": pfunctor.forest_key_str(k),
              "coeff": bialgebra.format_rational(c)}
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
    g = groupoids.groupoid_from_doc(doc)
    comps = g.pi0()
    rows = [{"class": repr(c[0]), "objects": len(c),
             "aut_order": len(g.hom(c[0], c[0]))} for c in comps]
    card = g.cardinality()
    if args.format == "structured":
        emit_structured("groupoid", {
            "objects": len(g.objects), "arrows": len(g.arrows),
            "components": rows, "cardinality": bialgebra.format_rational(card)})
    else:
        print(f"objects: {len(g.objects)}  arrows: {len(g.arrows)}")
        for r in rows:
            print(f"class {r['class']}: {r['objects']} objects, "
                  f"vertex group order {r['aut_order']}")
        print(f"cardinality: {bialgebra.format_rational(card)}")
    return 0


def cmd_verify_fdb(args) -> int:
    """The listed pairs are written as ``fdb_checks`` yields them."""
    spec = _spec_from_args(args)
    if args.rooted is not None:
        _check_colour(spec, args.rooted)
    report = bialgebra.FdbReport(spec.name, args.max_nodes, args.max_edges, args.rooted)
    # closed on any exit, so the collector that the check pauses is resumed
    with contextlib.closing(bialgebra.fdb_checks(spec, report)) as checks:
        if args.format == "structured":  # the summary sorts after the pairs
            emit_structured("verify-fdb", {
                **report.frame(), "pairs": map(_pair_row, checks),
                "summary": lambda: report.frame()["summary"]})
        else:
            for p in checks:
                crown = pfunctor.forest_key_str(p.crown)
                print(f"{'ok' if p.passed else 'FAIL'}  F={crown}  "
                      f"S={p.stump}  lhs={p.lhs_num}/{p.lhs_den}  "
                      f"rhs={p.rhs_num}/{p.rhs_den}")
            print(f"checked={report.checked} failed={report.failed} "
                  f"cross_checked={report.cross_checked} "
                  f"cross_failed={report.cross_failed}")
    return 0 if report.passed else 1


def cmd_verify_classical(args) -> int:
    report = classical.classical_verify(_at_least(args.max_degree, 0, "--max-degree"))
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
    report = classical.verify_phi(spec, max_n=_at_least(args.max_n, 0, "--max-n"),
                                  bound=enumeration.Bound(args.max_edges))
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
    report = groupoid_suite.run_suite(count=_at_least(args.count, 1, "--count"),
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
        sys.stdout.flush()  # a closed reader is an error here, not at exit
    except (UsageError, pfunctor.SpecError, trees.GrammarError, groupoids.GroupoidError,
            enumeration.BoundError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):  # so the flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
