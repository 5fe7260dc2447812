"""Byte identity of every command's output, against a committed digest table.

Each case runs ``cli.main`` in process from the repository root (spec files
are read at fixed relative paths under ``tests/data``, since a spec read from
a file is named by its path) and records the md5 and length of stdout, the
exit code and, for an error exit, the first line of stderr.  One more case
records one digest over what each grammar reader makes of a seeded corpus of
strings.  ``tests/golden.json`` is written only by running this file:

    PYTHONPATH=src python tests/test_golden.py --write

A change that alters output on purpose regenerates the table; the write
prints each case whose row moved, with its old and new md5 and length.
"""

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from conftest import two_colour_spec
from test_cli import HashingStdout
from optrees.cli import main
from optrees.pfunctor import builtin, parse_pforest, parse_ptree, parse_ptree_or_shape
from optrees.trees import parse_forest, parse_tree

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "golden.json"

EXP2 = ["--functor", "exp", "--max-arity", "2"]
EXP3 = ["--functor", "exp", "--max-arity", "3"]
CYCLIC3 = ["--functor", "cyclic", "--max-arity", "3"]
TWO = ["--spec-file", "tests/data/two-colour.json"]
SPLIT = ["--spec-file", "tests/data/split-block.json"]
PARTIAL = ["--spec-file", "tests/data/partial-blocks.json"]
STRUCT = ["--format", "structured"]

# name -> argv; names ending in "-s" are the structured twin of a table case
CASES = {
    "enumerate-exp3": ["enumerate", *EXP3, "--max-edges", "5"],
    "enumerate-exp3-s": ["enumerate", *EXP3, "--max-edges", "5", *STRUCT],
    "enumerate-cyclic3-capped-s": ["enumerate", *CYCLIC3, "--max-edges", "6",
                                   "--max-nodes", "3", *STRUCT],
    "enumerate-planar2-filtered": ["enumerate", "--functor", "planar", "--max-arity", "2",
                                   "--max-edges", "6", "--root-colour", "o",
                                   "--leaf-profile", "o:2"],
    "enumerate-two-colour-rooted-s": ["enumerate", *TWO, "--max-edges", "5",
                                      "--root-colour", "b", *STRUCT],
    "enumerate-split-block": ["enumerate", *SPLIT, "--max-edges", "6"],
    "enumerate-split-block-s": ["enumerate", *SPLIT, "--max-edges", "6", *STRUCT],
    "enumerate-partial-blocks": ["enumerate", *PARTIAL, "--max-edges", "7"],
    "enumerate-partial-blocks-s": ["enumerate", *PARTIAL, "--max-edges", "7", *STRUCT],
    "aut-exp3": ["aut", *EXP3, "--tree", "(n3:_(n1:_)_)"],
    "aut-exp3-s": ["aut", *EXP3, "--tree", "(n3:_(n1:_)_)", *STRUCT],
    "aut-cyclic3-shape-s": ["aut", *CYCLIC3, "--tree", "(((_)_)_(_))", *STRUCT],
    "aut-partial-blocks-s": ["aut", *PARTIAL, "--tree", "(q:(n0)_(n0)(n0))", *STRUCT],
    "delta-exp2": ["delta", *EXP2, "--tree", "(n2:(n1:_)(n2:__))"],
    "delta-exp2-s": ["delta", *EXP2, "--tree", "(n2:(n1:_)(n2:__))", *STRUCT],
    "delta-two-colour-s": ["delta", *TWO, "--tree", "(f:(f:_a_b)(g:_a_b))", *STRUCT],
    "delta-split-block-s": ["delta", *SPLIT, "--tree", "(f:(h)(g:_a)_a)", *STRUCT],
    "green-exp2": ["green", *EXP2, "--max-edges", "5"],
    "green-exp2-s": ["green", *EXP2, "--max-edges", "5", *STRUCT],
    "green-two-colour-filtered-s": ["green", *TWO, "--max-edges", "6", "--root-colour", "a",
                                    "--leaf-profile", "a:1,b:1", *STRUCT],
    "green-partial-blocks-capped-s": ["green", *PARTIAL, "--max-edges", "8",
                                      "--max-nodes", "3", *STRUCT],
    "groupoid": ["groupoid", "--file", "tests/data/groupoid.json"],
    "groupoid-s": ["groupoid", "--file", "tests/data/groupoid.json", *STRUCT],
    "verify-fdb-exp2": ["verify", "fdb", *EXP2, "--max-nodes", "3", "--max-edges", "4"],
    "verify-fdb-exp2-s": ["verify", "fdb", *EXP2, "--max-nodes", "3", "--max-edges", "4",
                          *STRUCT],
    "verify-fdb-cyclic3-s": ["verify", "fdb", *CYCLIC3, "--max-nodes", "3",
                             "--max-edges", "4", *STRUCT],
    "verify-fdb-two-colour-rooted-s": ["verify", "fdb", *TWO, "--max-nodes", "3",
                                       "--max-edges", "4", "--rooted", "a", *STRUCT],
    "verify-fdb-split-block-s": ["verify", "fdb", *SPLIT, "--max-nodes", "3",
                                 "--max-edges", "5", *STRUCT],
    "verify-fdb-partial-blocks-s": ["verify", "fdb", *PARTIAL, "--max-nodes", "3",
                                    "--max-edges", "5", *STRUCT],
    "verify-fdb-planar3-s": ["verify", "fdb", "--functor", "planar", "--max-arity", "3",
                             "--max-nodes", "4", "--max-edges", "6", *STRUCT],
    "verify-fdb-exp3": ["verify", "fdb", *EXP3, "--max-nodes", "4", "--max-edges", "6"],
    "verify-classical": ["verify", "classical", "--max-degree", "4"],
    "verify-classical-s": ["verify", "classical", "--max-degree", "4", *STRUCT],
    "verify-phi": ["verify", "phi", "--functor", "effective", "--max-arity", "3",
                   "--max-n", "3", "--max-edges", "6"],
    "verify-phi-s": ["verify", "phi", "--functor", "effective", "--max-arity", "3",
                     "--max-n", "3", "--max-edges", "6", *STRUCT],
    "verify-groupoid": ["verify", "groupoid", "--count", "10", "--seed", "3"],
    "verify-groupoid-s": ["verify", "groupoid", "--count", "10", "--seed", "3", *STRUCT],
    # exit 2
    "error-unknown-builtin": ["enumerate", "--functor", "nosuch", "--max-edges", "3"],
    "error-missing-bound": ["enumerate", *EXP2],
    "error-grammar": ["delta", "--functor", "identity", "--tree", "(n1:_", *STRUCT],
    "error-missing-spec-file": ["enumerate", "--spec-file", "tests/data/none.json",
                                "--max-edges", "3"],
    "error-not-a-groupoid": ["groupoid", "--file", "tests/data/split-block.json", *STRUCT],
    "error-colour-named-twice": ["enumerate", *EXP2, "--max-edges", "3",
                                 "--leaf-profile", "o:1,o:2"],
    "error-unknown-rooted-colour": ["verify", "fdb", *TWO, "--rooted", "c"],
    "error-bound-range": ["green", *EXP2, "--max-edges", "0", *STRUCT],
    "error-groupoid-count": ["verify", "groupoid", "--count", "0"],
}

# the grammar readers' alphabet, and texts that a mutation starts from
TOKENS = ["_", "(", ")", ":", "·", "ε", "n0", "n1", "n2", "f", "g", "o", "a", "b",
          "_a", "_b", " ", "\t", "\n", "\r"]
SEEDS = ["_", "(n2:__)", "(n1:(n2:_(n0)))", "(_(__))", "(n1:(n1:_))", "((_))",
         "_b", "(f:_a_b)", "(g:(f:_a_b)(g:_a_b))", "(__)", "ε", "_·(n2:__)",
         "(n0)·(n1:_)·_", "_a·(g:_a_b)"]


def corpus(n=2000, seed=36):
    """``n`` seeded strings: random tokens and mutated seed texts, in turn."""
    rng, out = random.Random(seed), []
    for i in range(n):
        if i % 2:
            tokens = [rng.choice(TOKENS) for _ in range(rng.randint(0, 12))]
        else:
            tokens = [rng.choice(SEEDS)]
            for _ in range(rng.randint(0, 3)):
                text = "".join(tokens)
                at = rng.randrange(len(text) + 1)
                tokens = [text[:at], rng.choice(TOKENS), text[at:]]
        out.append("".join(tokens))
    return out


def _diagram(d):
    return repr((tuple(d.edges), sorted(d.node_inputs.items()), sorted(d.node_output.items())))


def _readers():
    specs = [builtin("exp", max_arity=2), builtin("identity"), two_colour_spec()]
    yield "parse_tree", lambda text: _diagram(parse_tree(text))
    yield "parse_forest", lambda text: _diagram(parse_forest(text))
    for spec in specs:
        yield f"parse_ptree[{spec.name}]", lambda text, s=spec: parse_ptree(s, text).key()
        yield f"parse_ptree_or_shape[{spec.name}]", \
            lambda text, s=spec: parse_ptree_or_shape(s, text).key()
        yield f"parse_pforest[{spec.name}]", \
            lambda text, s=spec: repr(parse_pforest(s, text).keys)


def grammar_outcome() -> dict:
    """One md5 over each reader's outcome on each corpus string: what it
    read, or the error's class and message (with its line and column)."""
    digest, length = hashlib.md5(), 0
    readers = list(_readers())
    for text in corpus():
        for name, read in readers:
            try:
                got = "ok " + read(text)
            except Exception as exc:  # every error is part of the outcome
                got = f"{type(exc).__name__} {exc}"
            line = f"{name}\t{text!r}\t{got}\n"
            digest.update(line.encode("utf-8"))
            length += len(line)
    return {"md5": digest.hexdigest(), "length": length}


def run_case(argv) -> dict:
    """The digest and length of stdout, the exit code and, for an error
    exit, the first line of stderr, of ``main(argv)`` run from the root."""
    out, err, cwd = HashingStdout(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:  # argparse wraps its usage line to the width in COLUMNS
        with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), \
                redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    row = {"code": code, "md5": out.md5.hexdigest(), "length": out.length}
    if code not in (0, 1):
        row["stderr"] = err.getvalue().splitlines()[0]
    return row


def current_table() -> dict:
    table = {name: run_case(argv) for name, argv in CASES.items()}
    table["grammar-corpus"] = grammar_outcome()
    return table


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_names_every_case(golden):
    assert sorted(golden) == sorted([*CASES, "grammar-corpus"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_output_is_the_recorded_one(golden, name):
    assert run_case(CASES[name]) == golden[name]


def test_grammar_readers_give_the_recorded_outcomes(golden):
    assert grammar_outcome() == golden["grammar-corpus"]


def moved_rows(old: dict, new: dict) -> list[str]:
    """One line per case whose row differs between two tables, in name
    order: its name, then its old and its new md5 and length (``-`` for a
    case that one of the tables lacks)."""
    def cell(row):
        return "-" if row is None else f"md5 {row['md5']} length {row['length']}"
    return [f"{name}: {cell(old.get(name))} -> {cell(new.get(name))}"
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def test_moved_rows_names_each_changed_case_with_both_digests():
    row = {"code": 0, "md5": "a" * 32, "length": 3}
    old = {"same": row, "moved": row, "gone": row}
    new = {"same": row, "moved": {**row, "md5": "b" * 32, "length": 4},
           "added": {**row, "code": 1}}
    assert moved_rows(old, new) == [
        f"added: - -> md5 {'a' * 32} length 3",
        f"gone: md5 {'a' * 32} length 3 -> -",
        f"moved: md5 {'a' * 32} length 3 -> md5 {'b' * 32} length 4"]
    assert moved_rows(old, old) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    new = current_table()
    print("\n".join(moved_rows(old, new)) or "no case moved")
    TABLE.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
