import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import two_colour_spec
from optrees import bialgebra, cli, groupoid_suite, pfunctor
from optrees.bialgebra import BoundMismatch, PairCheck
from optrees.cli import main
from optrees.enumeration import Bound, enumerate_classes, profile_str
from optrees.groupoids import (Group, discrete, disjoint_union_groupoids,
                               groupoid_to_doc, one_object)
from optrees.pfunctor import builtin, load_spec, save_spec
from optrees.trees import DiagramError


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "optrees.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_delta_ladder_table(capsys):
    code = main(["delta", "--functor", "identity", "--tree", "((_))"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_delta_structured(capsys):
    code = main(["delta", "--functor", "identity", "--tree", "((_))",
                 "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "delta"
    assert doc["count"] == 3
    for term in doc["terms"]:
        assert set(term) == {"F", "S", "coeff"}


def test_green_constant(capsys):
    code = main(["green", "--functor", "constant"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "(c) + _"


def test_aut_command(capsys):
    code = main(["aut", "--functor", "exp", "--max-arity", "3",
                 "--tree", "(n2:(n2:__)(n2:__))"])
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "8"


def test_aut_of_a_large_symmetric_node(capsys):
    code = main(["aut", "--functor", "exp", "--max-arity", "12",
                 "--tree", "(n12:" + "_" * 12 + ")"])
    assert code == 0
    assert capsys.readouterr().out == "479001600\n"


def test_symmetry_group_too_large_to_close_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"colours": ["o"], "ops": [
        {"name": "f", "out": "o", "in": ["o"] * 10,
         "sym": [[1, 0, *range(2, 10)], [*range(1, 10), 0]]}]}))
    code = main(["aut", "--spec-file", str(path), "--tree", "(f:" + "_" * 10 + ")"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: op 'f': symmetry group has more than")


@pytest.mark.parametrize("ops, named", [
    ([{"name": "a", "out": "o", "in": ["o"]}, {"name": "b", "out": "o", "in": []},
      {"name": "a:(b)", "out": "o", "in": []}], "op 'a:(b)'"),
    ([{"name": "a:b", "out": "o", "in": ["o"]}], "op 'a:b'"),
    ([{"name": "", "out": "o", "in": []}], "op ''"),
], ids=["key-syntax", "colon", "empty"])
def test_spec_names_outside_the_key_grammar_exit_2(tmp_path, capsys, ops, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"colours": ["o"], "ops": ops}))
    for args in (["enumerate", "--max-edges", "2"], ["aut", "--tree", "_"]):
        assert main([*args, "--spec-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {named}: names are nonempty strings of ASCII letters, "
            "digits, '-' and '*'"]


def test_enumerate_structured(capsys):
    code = main(["enumerate", "--functor", "binary", "--max-edges", "5",
                 "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["count"] == len(doc["classes"])
    for row in doc["classes"]:
        assert set(row) == {"key", "tree", "aut_order", "root",
                            "leaf_profile", "edges", "nodes"}
        assert row["aut_order"] == 1


def test_enumerate_requires_bound(capsys):
    assert main(["enumerate", "--functor", "binary"]) == 2


def test_verify_fdb_passes(capsys):
    code = main(["verify", "fdb", "--functor", "binary", "--max-edges", "6",
                 "--max-nodes", "4", "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["checked"] > 0
    assert "elapsed" not in json.dumps(doc)


def test_verify_exit_code_contract():
    # the mapping from report outcome to exit status
    from optrees.bialgebra import FdbReport, PairCheck
    good = FdbReport("x", 1, 1, None, [], 1, 0, 0, 1, 0)
    bad = FdbReport("x", 1, 1, None,
                    [PairCheck((), "_", (0, 1), (1, 1))], 1, 1, 0, 1, 0)
    assert good.passed and not bad.passed


def test_verify_classical_cli(capsys):
    code = main(["verify", "classical", "--max-degree", "4",
                 "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["failed"] == 0


def test_verify_phi_cli(capsys):
    code = main(["verify", "phi", "--functor", "stable", "--max-arity", "3",
                 "--max-n", "2", "--max-edges", "6", "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["green_match"] is True


def test_verify_groupoid_cli(capsys):
    code = main(["verify", "groupoid", "--count", "10", "--seed", "3",
                 "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["failed"] == 0


def test_spec_file_flow(tmp_path, capsys):
    path = tmp_path / "two.json"
    save_spec(two_colour_spec(), str(path))
    code = main(["enumerate", "--spec-file", str(path), "--max-edges", "3",
                 "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["count"] > 0
    assert main(["enumerate", "--spec-file", str(path), "--functor", "binary",
                 "--max-edges", "3"]) == 2


def test_groupoid_file_flow(tmp_path, capsys):
    g = disjoint_union_groupoids([one_object(Group.cyclic(2)),
                                  discrete([0, 1])]).relabel()[0]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(groupoid_to_doc(g)))
    code = main(["groupoid", "--file", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["cardinality"] == "5/2"
    assert doc["objects"] == 3


def test_parse_error_exit_code(capsys):
    assert main(["delta", "--functor", "identity", "--tree", "(("]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


# the tree grammars' alphabet, and trees of each fuzzed spec that a
# mutation starts from
_TREE_TOKENS = ["_", "(", ")", ":", "·", "ε", "n0", "n1", "n2", "f", "g", "o", "a", "b",
                "_a", "_b", " ", "\t", "\n", "\r"]
_TREE_SEEDS = [["_", "(n2:__)", "(n1:(n2:_(n0)))", "(_(__))"],
               ["_", "(n1:(n1:_))", "((_))"],
               ["_b", "(f:_a_b)", "(g:(f:_a_b)(g:_a_b))", "(__)"]]


def test_fuzzed_tree_text_exits_cleanly(tmp_path, capsys):
    # a seeded --tree text, random tokens or a mutated tree, is a tree
    # (exit 0) or a grammar or decoration error (exit 2), never an internal
    # error (3); a grammar error names its line and column
    path = tmp_path / "two-colour.json"
    save_spec(two_colour_spec(), str(path))
    specs = [["--functor", "exp", "--max-arity", "2"], ["--functor", "identity"],
             ["--spec-file", str(path)]]
    rng, codes = random.Random(20261020), set()
    for i in range(150):
        if i % 2:
            tokens = [rng.choice(_TREE_TOKENS) for _ in range(rng.randint(0, 12))]
        else:
            tokens = list(rng.choice(_TREE_SEEDS[i % 3]))
            for _ in range(rng.randint(0, 2)):
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_TREE_TOKENS))
        text = "".join(tokens)
        for command in ("aut", "delta"):
            code = main([command, *specs[i % 3], "--tree", text])
            err = capsys.readouterr().err
            assert code in (0, 2), (text, err)
            if code == 2:
                assert re.fullmatch(r"error: .+ \(line \d+, column \d+\)\n", err) or \
                    re.fullmatch(r"error: (cannot infer|inferred colours) .+\n", err), (text, err)
            codes.add(code)
    assert codes == {0, 2}


def test_usage_error_exit_code():
    assert main(["delta", "--functor", "nosuch", "--tree", "_"]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["delta", "--tree", "_"]) == 2  # no spec source
    # a fixed-arity builtin takes no arity bound
    assert main(["enumerate", "--functor", "trivial", "--max-arity", "-3",
                 "--max-edges", "2"]) == 2
    assert main(["enumerate", "--functor", "binary", "--max-arity", "7",
                 "--max-edges", "2"]) == 2


def test_unknown_colour_is_usage_error(capsys):
    assert main(["green", "--functor", "constant",
                 "--root-colour", "zzz"]) == 2
    assert main(["enumerate", "--functor", "constant", "--max-edges", "3",
                 "--leaf-profile", "zzz:1"]) == 2
    assert main(["verify", "fdb", "--functor", "constant",
                 "--rooted", "zzz"]) == 2
    assert "unknown colour" in capsys.readouterr().err
    # the empty colour is no colour of the spec either: no vacuous result
    for args in (["verify", "fdb", "--functor", "binary", "--max-edges", "3",
                  "--max-nodes", "2", "--rooted", ""],
                 ["enumerate", "--functor", "binary", "--max-edges", "3",
                  "--root-colour", ""],
                 ["green", "--functor", "binary", "--root-colour", ""]):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown colour ''" in captured.err


def test_structured_output_byte_identical_across_jobs():
    args = ["verify", "fdb", "--functor", "identity", "--max-edges", "6",
            "--max-nodes", "4", "--format", "structured"]
    runs = [run_cli(args + ["--jobs", str(j)]) for j in (1, 4, 4)]
    for code, _, _ in runs:
        assert code == 0
    outs = {out for _, out, _ in runs}
    assert len(outs) == 1


def test_cli_echoes_canonical_form(capsys):
    # non-canonical child order comes back canonicalised
    code = main(["delta", "--functor", "exp", "--max-arity", "2",
                 "--tree", "(n2:_(n1:_))", "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["tree"] == "(n2:(n1:_)_)"


def test_timings_go_to_stderr():
    code, out, err = run_cli(["green", "--functor", "constant",
                              "--format", "structured"])
    assert code == 0
    assert "elapsed_ms" in err
    assert "elapsed" not in out


def test_verify_groupoid_count_below_one_is_usage_error(capsys):
    for count in ("0", "-3"):
        assert main(["verify", "groupoid", "--count", count,
                     "--format", "structured"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--count" in captured.err


def test_law_that_raises_counts_as_failed_instance(monkeypatch, capsys):
    def raising(rng):
        raise ZeroDivisionError("broken law")

    monkeypatch.setattr(groupoid_suite, "LAWS",
                        [("holds", lambda rng: True), ("raises", raising)])
    code = main(["verify", "groupoid", "--count", "5", "--format", "structured"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert {row["law"]: (row["instances"], row["failed"])
            for row in doc["laws"]} == {"holds": (3, 0), "raises": (2, 2)}
    assert doc["summary"]["failed"] == 2
    assert "raises" in captured.err and "ZeroDivisionError" in captured.err


def test_deep_input_is_a_parse_error_without_traceback():
    ladder = lambda n: "(n1:" * n + "_" + ")" * n
    for command in ("aut", "delta"):
        code, out, err = run_cli([command, "--functor", "identity",
                                  "--tree", ladder(1200)])
        assert code == 2, err
        assert "Traceback" not in err
        assert "line 1, column" in err
        assert out == ""
    code, out, err = run_cli(["delta", "--functor", "identity",
                              "--tree", ladder(500), "--format", "structured"])
    assert code == 0, err
    assert json.loads(out)["count"] == 501


def test_input_errors_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"colours": ["o"], "ops": [{"name": "f", "out": "o", '
                    '"in": ["o"], "sym": [["x"]]}]}')
    doc = tmp_path / "g.json"
    doc.write_text('{"objects": [1], "arrows": [{"src": 1, "dst": 1, '
                   '"label": "e"}], "compose": [["e", "e"]]}')
    array_ids = tmp_path / "array_ids.json"
    array_ids.write_text('{"objects": [[0]], "arrows": [{"src": [0], '
                         '"dst": [0], "label": "e"}], "compose": [["e", "e", "e"]]}')
    duplicate_label = tmp_path / "duplicate_label.json"
    duplicate_label.write_text('{"objects": [0], "arrows": [{"src": 0, "dst": 0, '
                               '"label": "e"}, {"src": 0, "dst": 0, "label": "e"}], '
                               '"compose": [["e", "e", "e"]]}')
    duplicate_row = tmp_path / "duplicate_row.json"
    duplicate_row.write_text('{"objects": [0], "arrows": [{"src": 0, "dst": 0, '
                             '"label": "e"}], "compose": [["e", "e", "zz"], '
                             '["e", "e", "e"]]}')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for args in (["groupoid", "--file", str(tmp_path)],
                 ["enumerate", "--spec-file", str(tmp_path), "--max-edges", "3"],
                 ["enumerate", "--spec-file", str(spec), "--max-edges", "3"],
                 ["groupoid", "--file", str(doc)],
                 ["groupoid", "--file", str(array_ids)],
                 ["groupoid", "--file", str(duplicate_label)],
                 ["groupoid", "--file", str(duplicate_row)],
                 ["groupoid", "--file", str(binary)],
                 ["enumerate", "--functor", "binary", "--max-edges", "0"],
                 ["enumerate", "--functor", "binary", "--max-edges", "3",
                  "--max-nodes", "-1"]):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_a_boolean_beside_its_number_exits_2(tmp_path, capsys):
    doc = tmp_path / "g.json"
    doc.write_text('{"objects": [1, true], "arrows": [{"src": 1, "dst": 1, '
                   '"label": "a"}, {"src": true, "dst": true, "label": "b"}], '
                   '"compose": [["a", "a", "a"], ["b", "b", "b"]]}')
    assert main(["groupoid", "--file", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: malformed groupoid document: "
                            "ids 1 and true collide\n")


@pytest.mark.parametrize("error", [DiagramError("broken diagram"),
                                   BoundMismatch("bounds differ"),
                                   ZeroDivisionError("division by zero")],
                         ids=lambda e: type(e).__name__)
def test_internal_error_exits_3_without_traceback(monkeypatch, capsys, error):
    def broken(t):
        raise error

    monkeypatch.setattr(bialgebra, "delta_tree", broken)
    assert main(["delta", "--functor", "identity", "--tree", "(_)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"internal error: {type(error).__name__}: {error}"]


@pytest.mark.parametrize("doc", [
    '{"colours": "ab", "ops": []}',
    '{"colours": [["o"]], "ops": []}',
    '{"colours": ["o"], "ops": [{"name": "f", "out": "o", "in": "oo"}]}',
    '{"colours": ["o"], "ops": [{"name": "f", "out": "o", "in": ["o", "o"], '
    '"sym": [[1.5, 0]]}]}',
], ids=["colours-string", "colour-array", "inputs-string", "sym-float"])
def test_malformed_spec_document_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    assert main(["enumerate", "--spec-file", str(path), "--max-edges", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed spec document")


@pytest.mark.parametrize("args", [
    ["verify", "classical", "--max-degree", "-1"],
    ["verify", "phi", "--functor", "stable", "--max-arity", "2", "--max-n", "-1"],
    ["enumerate", "--functor", "binary", "--max-edges", "3",
     "--leaf-profile", "o:-1"],
], ids=["max-degree", "max-n", "leaf-profile-count"])
def test_negative_count_is_usage_error(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 0, got -1" in captured.err


@pytest.mark.parametrize("text", ["", ",", " , "], ids=["empty", "comma", "blank"])
def test_empty_leaf_profile_is_usage_error(capsys, text):
    for command in ("enumerate", "green"):
        assert main([command, "--functor", "constant", "--max-edges", "3",
                     "--leaf-profile", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty leaf profile" in captured.err
    # the empty profile is written with a zero count
    assert main(["enumerate", "--functor", "constant", "--max-edges", "3",
                 "--leaf-profile", "o:0"]) == 0
    assert capsys.readouterr().out.startswith("(c)\t")


def test_colour_named_twice_in_a_leaf_profile_is_usage_error(capsys):
    for command in ("enumerate", "green"):
        assert main([command, "--functor", "exp", "--max-arity", "3",
                     "--max-edges", "3", "--leaf-profile", "o:1,o:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "colour 'o' named twice" in captured.err


class RecordingStdout:
    """A stdout that keeps each write, or only its length."""

    def __init__(self, keep=True):
        self.keep, self.writes, self.lengths = keep, [], []

    def write(self, text):
        if self.keep:
            self.writes.append(text)
        self.lengths.append(len(text))

    def flush(self):
        pass


def synthetic_document(rows):
    """Rows with non-ASCII keys and values, empty objects and lists, and
    nested lists."""
    return {"résumé": [{"clé": f"(n{i % 7}:ñ_{i})", "aut_order": i,
                        "nested": [[i, "é"], [], [[{}]]], "empty": {},
                        "pass": i % 2 == 0, "none": None}
                       for i in range(rows)],
            "count": rows, "ünïcode": "→ ⊗ ∅"}


def reference_text(command, doc):
    return json.dumps({"schema_version": cli.SCHEMA_VERSION, "command": command,
                       **doc}, sort_keys=True, indent=2, ensure_ascii=False,
                      separators=(",", ": ")) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_emit_structured_writes_the_bytes_of_one_dumps(monkeypatch, rows):
    doc = synthetic_document(rows)
    chunks = sum(1 for _ in json.JSONEncoder(
        sort_keys=True, indent=2, ensure_ascii=False, separators=(",", ": "),
    ).iterencode({"schema_version": cli.SCHEMA_VERSION, "command": "test", **doc}))
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli.emit_structured("test", doc)
    assert "".join(out.writes) == reference_text("test", doc)
    assert len(out.writes) <= -(-chunks // cli.BATCH) + 1
    if rows == 3000:
        assert chunks > 3 * cli.BATCH  # several batches long


def test_emit_structured_holds_a_fraction_of_the_text(monkeypatch):
    # Encoding the whole text before writing it (``json.dumps``) holds every
    # chunk and the joined text at once, about 8 times the text's length
    # here; writing in batches holds about 0.6 of it for this document.
    doc = synthetic_document(3700)
    length = len(reference_text("test", doc))
    assert 900_000 < length < 1_200_000
    out = RecordingStdout(keep=False)
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        cli.emit_structured("test", doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(out.lengths) == length
    assert peak < length, peak / length


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_emit_structured_calls_function_values_as_their_keys_are_written(
        monkeypatch, rows):
    # objects of scalars, with non-ASCII keys and values, every other one
    # given laid out already, between a value read before the list and one
    # read after it
    items = [{"clé": f"(n{i % 7}:ñ_{i})", "aut_order": i, "pass": i % 2 == 0,
              "none": None, "ratio": i / 4, "→": "⊗ ∅ \"q\"\n"} for i in range(rows)]
    made = []

    def given():
        for i, item in enumerate(items):
            made.append(i)
            yield cli.Row(cli._item(item)) if i % 2 else item

    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli.emit_structured("test", {"count": lambda: len(made), "résumé": given(),
                                 "ünïcode": lambda: f"→ {len(made)} ⊗ ∅"})
    assert "".join(out.writes) == reference_text(
        "test", {"count": 0, "résumé": items, "ünïcode": f"→ {rows} ⊗ ∅"})


def scalar_rows(n):
    """Objects of scalars: non-ASCII text, quotes, a newline, a float, None
    and both bools."""
    return [{"clé": f"(n{i % 7}:ñ_{i})", "quote": 'say "ö"\n→', "ratio": i / 3,
             "none": None, "pass": i % 2 == 0, "fail": i % 2 == 1, "aut_order": i}
            for i in range(n)]


STREAMED_DOCS = {
    "empty": {"rows": []},
    "one item": {"rows": scalar_rows(1), "count": 1},
    "scalars": {"rows": scalar_rows(6), "ünïcode": "→ ⊗ ∅"},
    "mixed": {"rows": [{}, *scalar_rows(2), {"nested": [1, {"é": []}], "x": {}},
                       [], {"a": [{}]}, 3, "s\n", None, {"a": 1}, {}]},
    "second list": {"rows": scalar_rows(3), "zweite": [*scalar_rows(2), {}, [[]]],
                    "summary": {"count": 3, "pass": True}},
}


@pytest.mark.parametrize("name", STREAMED_DOCS)
def test_emit_structured_writes_a_list_given_as_an_iterator(monkeypatch, name):
    doc = STREAMED_DOCS[name]
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli.emit_structured("test", {**doc, "rows": iter(doc["rows"])})
    assert "".join(out.writes) == reference_text("test", doc)


def test_emit_structured_writes_before_the_iterator_ends(monkeypatch):
    out = RecordingStdout(keep=False)
    written = []

    def rows():
        for row in scalar_rows(3000):
            written.append(sum(out.lengths))
            yield row

    monkeypatch.setattr(sys, "stdout", out)
    cli.emit_structured("test", {"rows": rows()})
    assert sum(out.lengths) == len(reference_text("test", {"rows": scalar_rows(3000)}))
    assert len(out.lengths) > 3
    assert written[-1] > sum(out.lengths) / 2  # batches went out as rows came
    assert max(out.lengths[:-1]) < 2 * 8 * cli.BATCH


class HashingStdout:
    """A stdout that keeps only the md5 and length of what is written."""

    def __init__(self):
        self.md5, self.length = hashlib.md5(), 0

    def write(self, text):
        self.md5.update(text.encode("utf-8"))
        self.length += len(text)

    def flush(self):
        pass


def test_enumerate_streams_its_rows(monkeypatch):
    # the records of exp(7) to 9 edges take about 2 MB; the rows as dicts
    # and the text through the indented encoder took the peak to 4.5 MB
    out = HashingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["enumerate", "--functor", "exp", "--max-arity", "7",
                     "--max-edges", "9", "--format", "structured"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.md5.hexdigest() == "ea441f43618876020e9ce05e3b01217b"
    assert peak < 3_000_000, peak


def test_enumerate_table_text(tmp_path, capsys):
    assert main(["enumerate", "--functor", "exp", "--max-arity", "2",
                 "--max-edges", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "(n0)\taut=1\troot=o\tleaves=-\tedges=1\tnodes=1\n"
        "(n1:(n0))\taut=1\troot=o\tleaves=-\tedges=2\tnodes=2\n"
        "(n1:(n1:(n0)))\taut=1\troot=o\tleaves=-\tedges=3\tnodes=3\n"
        "(n1:(n1:_))\taut=1\troot=o\tleaves=o:1\tedges=3\tnodes=2\n"
        "(n1:_)\taut=1\troot=o\tleaves=o:1\tedges=2\tnodes=1\n"
        "(n2:(n0)(n0))\taut=2\troot=o\tleaves=-\tedges=3\tnodes=3\n"
        "(n2:(n0)_)\taut=1\troot=o\tleaves=o:1\tedges=3\tnodes=2\n"
        "(n2:__)\taut=2\troot=o\tleaves=o:2\tedges=3\tnodes=1\n"
        "_\taut=1\troot=o\tleaves=o:1\tedges=1\tnodes=0\n")
    assert captured.err.startswith("# 9 classes\n")
    path = str(tmp_path / "two.json")
    save_spec(two_colour_spec(), path)
    assert main(["enumerate", "--spec-file", path, "--max-edges", "3",
                 "--root-colour", "a"]) == 0
    assert capsys.readouterr().out == (
        "(f:__)\taut=1\troot=a\tleaves=a:1,b:1\tedges=3\tnodes=1\n"
        "_a\taut=1\troot=a\tleaves=a:1\tedges=1\tnodes=0\n")


def test_a_reader_that_stops_early_gets_exit_2_and_one_error_line():
    proc = subprocess.Popen(
        [sys.executable, "-m", "optrees.cli", "enumerate", "--functor", "exp",
         "--max-arity", "7", "--max-edges", "9", "--format", "structured"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert head.startswith(b'{\n  "bound": ')
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--functor", "exp", "--max-arity", "3", "--max-edges", "3",
     "--format", "structured"],
    ["aut", "--functor", "exp", "--max-arity", "3", "--tree", "(n2:__)"]])
def test_output_that_fits_the_buffer_of_a_closed_pipe_gets_exit_2(argv):
    # stdout is buffered, so the whole document waits for the flush at the
    # end of the command; a flush at interpreter exit would fail with 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "optrees.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


FDB_STREAM_SPECS = [("identity", None), ("constant", None), ("binary", None),
                    ("planar", 3), ("exp", 3), ("stable", 3)]


def fdb_argv(name, arity, nodes=3, edges=4):
    argv = ["verify", "fdb", "--functor", name, "--max-nodes", str(nodes),
            "--max-edges", str(edges)]
    return argv + ([] if arity is None else ["--max-arity", str(arity)])


def table_text(doc):
    """The table rendering of a verify-fdb document."""
    s = doc["summary"]
    return "".join(
        [f"{'ok' if p['pass'] else 'FAIL'}  F={p['F']}  S={p['S']}  "
         f"lhs={p['lhs']}  rhs={p['rhs']}\n" for p in doc["pairs"]]
        + [f"checked={s['checked']} failed={s['failed']} "
           f"cross_checked={s['cross_checked']} cross_failed={s['cross_failed']}\n"])


def assert_stream_is_the_report(capsys, argv, report):
    doc = report.as_doc()
    for fmt, expected in (("structured", reference_text("verify-fdb", doc)),
                          ("table", table_text(doc))):
        code = main(argv + ["--format", fmt])
        assert capsys.readouterr().out == expected, fmt
        assert code == (0 if report.passed else 1), fmt


@pytest.mark.parametrize("name, arity", FDB_STREAM_SPECS,
                         ids=[n if a is None else f"{n}({a})" for n, a in FDB_STREAM_SPECS])
def test_verify_fdb_stream_is_the_collected_report(capsys, name, arity):
    report = bialgebra.verify_fdb(builtin(name, arity), 3, 4)
    assert report.passed and report.pairs
    assert_stream_is_the_report(capsys, fdb_argv(name, arity), report)


@pytest.mark.parametrize("rooted", ["a", "b"])
def test_verify_fdb_stream_is_the_collected_rooted_report(tmp_path, capsys, rooted):
    path = str(tmp_path / "two.json")
    save_spec(two_colour_spec(), path)
    report = bialgebra.verify_fdb(load_spec(path), 4, 6, rooted)
    assert report.passed and report.pairs
    assert_stream_is_the_report(capsys, [
        "verify", "fdb", "--spec-file", path, "--max-nodes", "4",
        "--max-edges", "6", "--rooted", rooted], report)


def plant_fault(monkeypatch, fault):
    """Make every later check of planar(3) at (3, 4) fail: the first pair
    with a nonzero LHS gets one more, the first sampled profile-mismatched
    pair a nonzero RHS, the accumulation a pair that no route computes, or
    the pair space loses a crown that stump walks still reach."""
    target = []

    def first(pair):
        target[:] = target or [pair]
        return target[0] == pair

    if fault == "lhs-off-by-one":
        lhs = bialgebra.fdb_lhs_ratio

        def planted(crown, stump, *rest):
            num, den = lhs(crown, stump, *rest)
            return (num + den, den) if num and first((crown.keys, stump.key)) else (num, den)

        monkeypatch.setattr(bialgebra, "fdb_lhs_ratio", planted)
    elif fault == "sampled-pair-does-not-vanish":
        rhs = bialgebra.fdb_rhs_coefficient

        def planted(crown, stump, powers):
            if crown.root_profile() != stump.leaf_profile and first(
                    (crown.keys, stump.key)):
                return Fraction(1)
            return rhs(crown, stump, powers)

        monkeypatch.setattr(bialgebra, "fdb_rhs_coefficient", planted)
    elif fault == "crown-only-the-walk-reaches":
        space = bialgebra._fdb_pair_space

        def planted(*args):
            listed, *rest = space(*args)
            return ([(s, [f for f in crowns if f.keys != ("(n0)", "_")])
                     for s, crowns in listed], *rest)

        monkeypatch.setattr(bialgebra, "_fdb_pair_space", planted)
    else:
        accumulate = bialgebra._direct_accumulation

        def planted(*args):
            acc = accumulate(*args)
            assert (("_", "_"), "_") not in acc
            acc[(("_", "_"), "_")] = Fraction(1)
            return acc

        monkeypatch.setattr(bialgebra, "_direct_accumulation", planted)


@pytest.mark.parametrize("fault", ["lhs-off-by-one", "sampled-pair-does-not-vanish",
                                   "unlisted-accumulated-pair",
                                   "crown-only-the-walk-reaches"])
def test_verify_fdb_stream_is_the_collected_failing_report(monkeypatch, capsys, fault):
    plant_fault(monkeypatch, fault)
    report = bialgebra.verify_fdb(builtin("planar", 3), 3, 4)
    assert not report.passed
    failing = [p for p in report.pairs if not p.passed]
    if fault == "unlisted-accumulated-pair":
        assert (report.failed, report.cross_failed, failing) == (0, 1, [])
    elif fault == "crown-only-the-walk-reaches":
        assert failing and not any(p.reached for p in failing)
        assert report.failed == len(failing)
    else:
        assert report.failed == len(failing) == 1
    if fault == "sampled-pair-does-not-vanish":
        assert report.pairs[-1] is failing[0]  # after every stump's pairs
    else:  # by stump, then crown
        order = [(p.stump, p.crown) for p in report.pairs]
        assert order == sorted(order)
    assert_stream_is_the_report(capsys, fdb_argv("planar", 3), report)


@pytest.mark.parametrize("fault", [None, "lhs-off-by-one"], ids=["honest", "failing"])
def test_a_pair_row_is_the_item_of_its_document(monkeypatch, fault):
    # rows of the two-colour spec (trivial keys like _a) unrooted and rooted,
    # of planar(3) (the empty crown ε), and of a failing pair
    if fault:
        plant_fault(monkeypatch, fault)
    reports = [bialgebra.verify_fdb(builtin("planar", 3), 3, 4)]
    if not fault:
        reports += [bialgebra.verify_fdb(two_colour_spec(), 4, 6, rooted)
                    for rooted in (None, "b")]
    pairs = [p for report in reports for p in report.pairs]
    assert [cli._pair_row(p) for p in pairs] == [cli._item(p.as_doc()) for p in pairs]
    docs = [p.as_doc() for p in pairs]
    assert [d["pass"] for d in docs].count(False) == (1 if fault else 0)
    if not fault:
        assert any(d["F"] == "ε" for d in docs)
        assert any("_a" in d["F"] for d in docs) and any("_b" in d["F"] for d in docs)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 10**40), st.integers(1, 10**40), st.integers(1, 10**6),
       st.integers(1, 10**6))
@example(0, 1, 1, 1)
@example(0, 6, 4, 1)
@example(6, 4, 3, 2)
def test_a_pair_check_side_prints_as_its_rational(n, d, k, j):
    # each side is given unreduced, as the LHS and the RHS hand it over
    # (0 over any d too), and printed from the reduced integers it keeps
    check = PairCheck(("_",), "_", (n * k, d * k), (0, d * j), reached=False)
    doc = check.as_doc()
    assert doc["lhs"] == bialgebra.format_rational(Fraction(n, d))
    assert doc["rhs"] == bialgebra.format_rational(Fraction(0)) == "0/1"
    assert (check.lhs, check.rhs) == (Fraction(n, d), 0)
    assert cli._pair_row(check) == cli._item(doc)


@pytest.mark.parametrize("fault, code", [
    (None, 0), ("lhs-off-by-one", 1), ("stage-raises", 3), ("writer-raises", 3)])
def test_verify_fdb_resumes_the_collector_on_every_exit(monkeypatch, capsys, fault, code):
    # the check pauses the collector while it runs; the command closes it
    # on every exit, also when its writer raises while the check is paused
    def broken(*args):
        assert not gc.isenabled()
        raise RuntimeError("planted")

    if fault == "stage-raises":
        monkeypatch.setattr(bialgebra, "_stump_checks", broken)
    elif fault == "writer-raises":
        monkeypatch.setattr(cli, "_pair_row", broken)
    elif fault:
        plant_fault(monkeypatch, fault)
    assert gc.isenabled()
    assert main(fdb_argv("planar", 3) + ["--format", "structured"]) == code
    assert gc.isenabled()
    if code == 3:
        assert "internal error: RuntimeError: planted" in capsys.readouterr().err


class _BrokenLaws(list):
    # a law table whose lookup fails inside the suite's loop
    def __getitem__(self, k):
        assert not gc.isenabled()
        raise RuntimeError("planted")


@pytest.mark.parametrize("fault, code", [(None, 0), ("law-fails", 1), ("loop-raises", 3)])
def test_verify_groupoid_resumes_the_collector_on_every_exit(monkeypatch, capsys, fault,
                                                             code):
    # the suite pauses the collector while its laws run
    def failing(rng):
        assert not gc.isenabled()
        return False

    if fault == "law-fails":
        monkeypatch.setattr(groupoid_suite, "LAWS", [*groupoid_suite.LAWS, ("fails", failing)])
    elif fault == "loop-raises":
        monkeypatch.setattr(groupoid_suite, "LAWS", _BrokenLaws(groupoid_suite.LAWS))
    assert gc.isenabled()
    assert main(["verify", "groupoid", "--count", "11", "--format", "structured"]) == code
    assert gc.isenabled()
    if code == 3:
        assert "internal error: RuntimeError: planted" in capsys.readouterr().err


def test_a_class_row_is_the_item_of_its_document():
    # rows of exp(3), of planar(2) (the trivial record _) and of the
    # two-colour spec (trivial keys _a and _b, profiles of two colours)
    # unrooted, rooted at b and filtered by a leaf profile; one table of
    # profile strings serves them all, as it serves one command
    two = two_colour_spec()
    classes = [c for run in (
        enumerate_classes(builtin("exp", 3), Bound(5)),
        enumerate_classes(builtin("planar", 2), Bound(5)),
        enumerate_classes(two, Bound(5)),
        enumerate_classes(two, Bound(5), root_colour="b"),
        enumerate_classes(two, Bound(5), leaf_profile=(("a", 2), ("b", 1))))
        for c in run]
    old_dict_rows = [{"key": c.key, "tree": c.key, "aut_order": c.aut, "root": c.root,
                      "leaf_profile": profile_str(c.leaf_profile), "edges": c.edges,
                      "nodes": c.nodes} for c in classes]
    profiles = {}
    assert ([cli._class_row(c, profiles) for c in classes]
            == [cli._item(row) for row in old_dict_rows])
    assert {"_", "_a", "_b"} <= {c.key for c in classes}
    assert any(len(c.leaf_profile) > 1 for c in classes)
    assert max(c.aut for c in classes) > 1


# a fresh process's prefix that lists, in ``ran``, the file name of each
# module of the package whose code runs
RAN = ("import importlib.util, os, sys\n"
       "package = os.path.dirname(importlib.util.find_spec('optrees').origin)\n"
       "ran = []\n"
       "sys.addaudithook(lambda event, args: event == 'exec' and os.path.dirname(\n"
       "    getattr(args[0], 'co_filename', '')) == package\n"
       "    and ran.append(os.path.basename(args[0].co_filename)))\n")
CLI_FILES = ["__init__.py", "cli.py"]
ENUMERATE_FILES = CLI_FILES + ["enumeration.py", "pfunctor.py", "trees.py"]
FDB_FILES = ENUMERATE_FILES + ["bialgebra.py"]


@pytest.mark.parametrize("args, files", [
    ([], CLI_FILES),
    (["enumerate", "--functor", "exp", "--max-arity", "3", "--max-edges", "4"],
     ENUMERATE_FILES),
    (["verify", "fdb", "--functor", "exp", "--max-arity", "2", "--max-nodes", "3",
      "--max-edges", "3"], FDB_FILES),
    (["verify", "groupoid", "--count", "10"],
     CLI_FILES + ["groupoid_suite.py", "groupoids.py"]),
    (["verify", "classical", "--max-degree", "3"], FDB_FILES + ["classical.py"])],
    ids=["import", "enumerate", "verify-fdb", "verify-groupoid", "verify-classical"])
def test_a_command_runs_only_the_package_modules_it_needs(args, files):
    # every submodule is lazy: importing the CLI runs none of them, and a
    # command runs only the modules whose names it reads
    code = (RAN + "import optrees.cli\n"
            f"code = optrees.cli.main({args!r}) if {args!r} else 0\n"
            "print(code, sorted(set(ran)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == f"0 {sorted(files)}", proc.stderr


def test_importing_the_cli_leaves_classical_unloaded():
    # ``classical`` is run by its own commands and by its names on the
    # package, on first access; it is in ``sys.modules`` from the start
    code = (RAN + "import optrees.cli\n"
            "print('classical.py' in ran)\n"
            "from optrees import classical_verify\n"
            "print('classical.py' in ran)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["False", "True"], proc.stderr


def test_importing_the_package_generates_no_code():
    # no record class is a dataclass, so a cold start neither loads the
    # modules that generate and compile their methods nor runs them
    code = ("import sys\n"
            "names = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
            "import optrees.cli\n"
            "print(sorted(set(names) & set(sys.modules)))\n"
            "import optrees.classical\n"
            "print(sorted(set(names) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines() == ["[]", "[]"], proc.stderr


GROUPOID_NAMES = {
    "groupoids": ("FiniteGroupoid", "Group", "GroupAction", "GroupoidError",
                  "GroupoidMap", "discrete", "homotopy_fiber", "homotopy_pullback",
                  "homotopy_quotient", "homotopy_sum", "is_equivalence", "one_object",
                  "pushforward_cardinality", "relative_cardinality", "sum_projection"),
    "groupoid_suite": ("SuiteReport", "run_suite")}


def test_importing_the_cli_runs_no_groupoid_module():
    # the groupoid modules are lazy: ``import optrees.cli`` neither imports
    # nor runs them, and their names resolve on the package and on them
    code = (RAN + "import optrees.cli\n"
            "print(sorted(f for f in ran if f.startswith('groupoid')),\n"
            "      'classical.py' in ran)\n"
            "import optrees\n"
            f"for module, names in {GROUPOID_NAMES!r}.items():\n"
            "    for name in names:\n"
            "        exec(f'from optrees import {name} as value')\n"
            "        assert value is getattr(getattr(optrees, module), name), name\n"
            "print(sorted(f for f in ran if f.startswith('groupoid')),\n"
            "      'classical.py' in ran)\n")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines() == [
        "[] False", "['groupoid_suite.py', 'groupoids.py'] False"], proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "optrees.cli" in imported
    assert not imported & {"optrees.groupoids", "optrees.groupoid_suite",
                           "optrees.classical"}


TREE_NAMES = {
    "trees": ("Cut", "CycleDetected", "DiagramError", "ForestDiagram", "GrammarError",
              "MatchingNotBijective", "MultipleRoots", "NoRoot", "NonInjectiveS",
              "NonInjectiveT", "TreeDiagram", "enumerate_cuts", "graft", "ideal_subtree",
              "parse_forest", "parse_tree", "print_forest", "print_tree", "prune",
              "trivial_tree", "validate_forest", "validate_tree"),
    "pfunctor": ("ArityMismatch", "BUILTIN_NAMES", "ColourMismatch", "EndofunctorSpec",
                 "OpType", "PForest", "PTree", "SpecError", "UnknownBuiltin", "UnknownOp",
                 "aut_order", "aut_order_forest", "automorphisms", "builtin",
                 "forest_mul", "graft_decorated", "isomorphisms_brute", "load_spec",
                 "parse_pforest", "parse_ptree", "prune_decorated", "save_spec",
                 "trivial_ptree", "validate_ptree"),
    "enumeration": ("Bound", "enumerate_classes", "enumerate_pforests",
                    "enumerate_ptrees", "matchings"),
    "bialgebra": ("FdbReport", "Series", "TensorSeries", "counit", "delta_monomial",
                  "delta_series", "delta_tree", "fdb_lhs_coefficient",
                  "fdb_rhs_coefficient", "green", "series_mul", "verify_fdb")}


def test_a_lazy_package_name_is_the_name_of_its_module():
    import optrees
    names = {**GROUPOID_NAMES, "classical": (
        "ClassicalReport", "NullaryOpsPresent", "PhiReport", "classical_verify",
        "delta_generator", "phi", "set_partitions", "surjection_delta",
        "type_count_closed_form", "verify_phi"), **TREE_NAMES}
    for module, module_names in names.items():
        for name in module_names:
            assert getattr(optrees, name) is getattr(
                sys.modules[f"optrees.{module}"], name), name
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        optrees.nosuch


def test_errors_of_a_fresh_process_keep_their_exit_codes(tmp_path):
    # ``main`` catches the error classes by reading them from their lazy
    # modules when an error reaches it, in a process that has not loaded them
    bad_doc = tmp_path / "g.json"
    bad_doc.write_text('{"objects": [0], "arrows": [{"src": 0, "dst": 1, '
                       '"label": "e"}], "compose": []}')
    not_json = tmp_path / "not.json"
    not_json.write_text('{"objects": [')
    for args, message in (
            (["groupoid", "--file", str(bad_doc)], "error: arrow 'e' has unknown endpoint"),
            (["groupoid", "--file", str(not_json)], "error: Expecting value"),
            (["enumerate", "--functor", "nosuch", "--max-edges", "3"],
             "error: unknown builtin"),
            (["enumerate", "--spec-file", str(tmp_path / "none.json"),
              "--max-edges", "3"], "error: [Errno 2]"),
            (["enumerate", "--spec-file", str(tmp_path), "--max-edges", "3"],
             "error: [Errno 21]")):
        code, out, err = run_cli(args)
        assert (code, out) == (2, ""), (args, err)
        assert len(err.splitlines()) == 1 and err.startswith(message), (args, err)
    code = ("import sys, optrees.bialgebra, optrees.cli as cli\n"
            "optrees.bialgebra.delta_tree = lambda t: 1 / 0\n"
            "sys.exit(cli.main(['delta', '--functor', 'identity', '--tree', '(_)']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == ["internal error: ZeroDivisionError: division by zero"]


@pytest.mark.parametrize("command", [
    ["enumerate", "--functor", "exp", "--max-edges", "3"],
    ["verify", "fdb", "--functor", "stable", "--max-nodes", "3", "--max-edges", "3"]])
def test_an_arity_above_the_limit_is_one_error_line(command, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(pfunctor, "OpType", lambda *a: built.append(a))
    assert main(command + ["--max-arity", str(pfunctor.MAX_ARITY + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (f"error: max_arity must be at most {pfunctor.MAX_ARITY}, "
                            f"got {pfunctor.MAX_ARITY + 1}\n")


def test_verify_fdb_writes_each_stumps_pairs_before_the_next_stump(monkeypatch):
    # the rows go out in the writer's batches as the stumps are checked: when
    # each stump's checks start, and when the graft oracle first runs, the
    # rows of the stumps before it that are not on stdout yet are less than
    # a batch; the command builds no report document.  At (4, 6) the rows
    # take several batches.
    report = bialgebra.verify_fdb(builtin("planar", 3), 4, 6)
    text = reference_text("verify-fdb", report.as_doc())
    assert len(text) > 2 * 8 * cli.BATCH
    ends, end = {}, text.index('"pairs": ') + len('"pairs": ')
    for p in report.pairs:  # where each stump's last row ends in the text
        end += len("[\n    ") + len(cli._pair_row(p))
        ends[p.stump] = end
    out = RecordingStdout(keep=False)
    at_stump, at_oracle = [], []
    checks, oracle = bialgebra._stump_checks, bialgebra.graft_oracle_agrees

    def unwritten(key=None):
        """The text to the end of the rows of the stumps before ``key``
        (every stump if None) that is not on stdout yet."""
        done = max((e for s, e in ends.items() if key is None or s < key), default=0)
        return done - sum(out.lengths)

    def recorded_checks(s, *rest):
        at_stump.append(unwritten(s.key))
        return checks(s, *rest)

    def recorded_oracle(*args):
        at_oracle.append(unwritten())
        return oracle(*args)

    def no_doc(self):
        raise AssertionError("FdbReport.as_doc called")

    monkeypatch.setattr(bialgebra, "_stump_checks", recorded_checks)
    monkeypatch.setattr(bialgebra, "graft_oracle_agrees", recorded_oracle)
    monkeypatch.setattr(bialgebra.FdbReport, "as_doc", no_doc)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(fdb_argv("planar", 3, 4, 6) + ["--format", "structured"]) == 0
    assert sum(out.lengths) == len(text)
    assert len(at_stump) > 100 and at_oracle
    assert max(at_stump) < 8 * cli.BATCH and at_oracle[0] < 8 * cli.BATCH
    assert len(out.lengths) > 2


def test_verify_fdb_takes_a_crown_of_more_trees_than_the_recursion_limit(capsys):
    code = main(["verify", "fdb", "--functor", "identity", "--max-nodes", "1",
                 "--max-edges", "1100", "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["failed"] == doc["summary"]["cross_failed"] == 0


def test_verify_fdb_input_error_writes_no_output(capsys):
    for fmt in ("structured", "table"):
        code = main(["verify", "fdb", "--functor", "binary", "--max-edges", "0",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
