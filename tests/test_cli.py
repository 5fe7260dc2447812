import json
import subprocess
import sys

import pytest

from conftest import two_colour_spec
from optrees import cli, groupoid_suite
from optrees.bialgebra import BoundMismatch
from optrees.cli import main
from optrees.groupoids import (Group, discrete, disjoint_union_groupoids,
                               groupoid_to_doc, one_object)
from optrees.pfunctor import save_spec
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
    from fractions import Fraction
    good = FdbReport("x", 1, 1, None, [], 1, 0, 0, 1, 0)
    bad = FdbReport("x", 1, 1, None,
                    [PairCheck((), "_", Fraction(0), Fraction(1))], 1, 1, 0, 1, 0)
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


@pytest.mark.parametrize("error", [DiagramError("broken diagram"),
                                   BoundMismatch("bounds differ"),
                                   ZeroDivisionError("division by zero")],
                         ids=lambda e: type(e).__name__)
def test_internal_error_exits_3_without_traceback(monkeypatch, capsys, error):
    def broken(t):
        raise error

    monkeypatch.setattr(cli, "delta_tree", broken)
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


def test_colour_named_twice_in_a_leaf_profile_is_usage_error(capsys):
    for command in ("enumerate", "green"):
        assert main([command, "--functor", "exp", "--max-arity", "3",
                     "--max-edges", "3", "--leaf-profile", "o:1,o:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "colour 'o' named twice" in captured.err
