"""Acceptance suite: every exit criterion, exact arithmetic, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Tolerances are zero everywhere: all comparisons are exact
rational or integer equalities.
"""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

from conftest import all_builtin_specs, two_colour_spec
from optrees.bialgebra import (Bound, delta_monomial, delta_tree, green,
                               verify_fdb)
from optrees.classical import (classical_verify, set_partitions,
                               type_count_closed_form, verify_phi)
from optrees.enumeration import (enumerate_classes, enumerate_pforests,
                                 enumerate_ptrees, instantiate_forest,
                                 matchings)
from optrees.groupoid_suite import run_suite
from optrees.pfunctor import (aut_order, automorphisms, builtin,
                              decorated_automorphism, graft_decorated,
                              parse_ptree, prune_decorated, save_spec,
                              trivial_ptree)
from optrees.trees import enumerate_cuts, graft, prune

FDB_SPECS = ["identity", "constant", "binary", "planar", "exp", "stable"]
FDB_NODE_BUDGET = 5
FDB_EDGE_BUDGET = 8


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def make_spec(name):
    if name in ("planar", "exp", "stable", "effective", "cyclic"):
        return builtin(name, max_arity=3)
    return builtin(name)


def ladder_text(n):
    text = "_"
    for _ in range(n):
        text = f"(n1:{text})"
    return text


# -- criterion 1 -----------------------------------------------------------------

def test_criterion_1_fdb_identity():
    started = time.monotonic()
    for name in FDB_SPECS:
        rep = verify_fdb(make_spec(name), max_total_nodes=FDB_NODE_BUDGET,
                         max_edges_side=FDB_EDGE_BUDGET)
        assert rep.failed == 0, f"{name}: {rep.failed} failing pairs"
        assert rep.cross_failed == 0
        assert rep.checked > 0 and rep.cross_checked > 0
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"Faa di Bruno identity, six specs, {elapsed:.1f}s")


# -- criterion 2 -----------------------------------------------------------------

def test_criterion_2_rooted_refinement():
    spec = two_colour_spec()
    for colour in spec.colours:
        rep = verify_fdb(spec, max_total_nodes=FDB_NODE_BUDGET,
                         max_edges_side=FDB_EDGE_BUDGET, rooted=colour)
        assert rep.failed == 0 and rep.cross_failed == 0
        assert rep.checked > 0
    report(2, "rooted refinement, two-colour spec")


# -- criterion 3 -----------------------------------------------------------------

def test_criterion_3_ladder():
    spec = builtin("identity")
    for n in range(0, 11):
        t = parse_ptree(spec, ladder_text(n))
        ts = delta_tree(t)
        expected = {((ladder_text(n - i),), (ladder_text(i),)): Fraction(1)
                    for i in range(n + 1)}
        assert ts.coeffs == expected
    report(3, "ladder coproduct n<=10")


# -- criterion 4 -----------------------------------------------------------------

def test_criterion_4_injections():
    spec = builtin("constant")
    x = trivial_ptree(spec)
    y = parse_ptree(spec, "(c)")
    xk, yk = x.key(), y.key()
    for n in range(0, 9):
        mono = tuple(sorted([yk] * n))
        ts = delta_monomial(spec, mono, Bound(max(2 * n, 1)))
        expected = {}
        for k in range(n + 1):
            left = tuple(sorted([yk] * k))
            right = tuple(sorted([yk] * (n - k) + [xk] * k))
            expected[(left, right)] = Fraction(math.comb(n, k))
        assert ts.coeffs == expected
    g = green(spec, Bound(8))
    assert g.coeffs == {(xk,): 1, (yk,): 1}
    assert green(spec, Bound(8), leaf_profile=()).coeffs == {(yk,): 1}
    assert green(spec, Bound(8), leaf_profile=(("o", 1),)).coeffs == {(xk,): 1}
    report(4, "injections bialgebra n<=8")


# -- criterion 5 -----------------------------------------------------------------

def test_criterion_5_classical():
    rep = classical_verify(7)
    assert rep.passed
    assert rep.multiplicity_failed == 0 and rep.failed == 0
    # brute-force partition counts again, independently of the library path
    for n in range(1, 8):
        counts = {}
        for part in set_partitions(list(range(n))):
            typ = tuple(sorted((len(b) for b in part)))
            counts[typ] = counts.get(typ, 0) + 1
        for typ, m in counts.items():
            grouped = {}
            for k in typ:
                grouped[k] = grouped.get(k, 0) + 1
            assert m == type_count_closed_form(n, tuple(sorted(grouped.items())))
    report(5, "classical identity degree<=7")


# -- criterion 6 -----------------------------------------------------------------

def test_criterion_6_phi_homomorphism():
    rep = verify_phi(builtin("stable", max_arity=3), max_n=4, bound=Bound(8))
    assert rep.passed and rep.green_match
    for row in rep.rows:
        assert row.failed == 0 and row.checked > 0
    report(6, "classical-to-tree homomorphism n<=4")


# -- criterion 7 -----------------------------------------------------------------

def node_permutation(t, edge_map):
    shape = t.shape
    return {n: shape.node_above[edge_map[shape.node_output[n]]]
            for n in shape.node_inputs}


def cut_orbit_count(t):
    perms = [node_permutation(t, m) for m in automorphisms(t)]
    reps = set()
    for cut in enumerate_cuts(t.shape):
        images = [tuple(sorted(p[n] for n in cut.kept)) for p in perms]
        reps.add(min(images))
    return len(reps)


def matching_orbit_count(spec, stump, crown):
    found = matchings(stump, crown)
    if not found:
        return 0
    comps, _, comp_roots = instantiate_forest(crown)
    generators = []
    for m in automorphisms(stump):
        generators.append(("leaf", {e: m[e] for e in stump.shape.leaves}))
    for i in range(len(comps) - 1):
        if comps[i].key() == comps[i + 1].key():
            swap = {comp_roots[i]: comp_roots[i + 1],
                    comp_roots[i + 1]: comp_roots[i]}
            generators.append(("root", swap))
    states = {frozenset(m.items()) for m in found}
    seen = set()
    orbits = 0
    for start in sorted(states, key=sorted):
        if start in seen:
            continue
        orbits += 1
        frontier = [dict(start)]
        seen.add(start)
        while frontier:
            m = frontier.pop()
            for kind, g in generators:
                if kind == "leaf":
                    m2 = {g[l]: r for l, r in m.items()}
                else:
                    m2 = {l: g.get(r, r) for l, r in m.items()}
                key = frozenset(m2.items())
                assert key in states  # the action preserves matchings
                if key not in seen:
                    seen.add(key)
                    frontier.append(m2)
    return orbits


def test_criterion_7_graft_prune_bijection():
    for spec in all_builtin_specs():
        trees6 = enumerate_ptrees(spec, Bound(6))
        total_cut_orbits = 0
        for t in trees6:
            for cut in enumerate_cuts(t.shape):
                comps, stump, matching = prune_decorated(t, cut.kept)
                # strict roundtrip at the diagram level
                crown, shape_stump, m2 = prune(cut)
                again = graft(crown, shape_stump, m2)
                assert again.tree == t.shape and again.kept == cut.kept
                # decorated regraft reproduces the class
                by_root = {c.shape.root: c for c in comps}
                rebuilt = graft_decorated(stump, {leaf: by_root[root]
                                                  for leaf, root in matching.items()})
                assert rebuilt.key() == t.key()
            total_cut_orbits += cut_orbit_count(t)

        total_matching_orbits = 0
        forests6 = enumerate_pforests(spec, Bound(6))
        for stump in trees6:
            leaf_count = stump.leaf_count()
            for crown in forests6:
                if crown.root_profile() != stump.leaf_profile():
                    continue
                graft_edges = crown.edge_count() + stump.edge_count - leaf_count
                if graft_edges > 6:
                    continue
                total_matching_orbits += matching_orbit_count(spec, stump, crown)
        assert total_cut_orbits == total_matching_orbits, spec.name
    report(7, "graft/prune bijection <=6 edges, all builtins")


# -- criterion 8 -----------------------------------------------------------------

def flat_automorphism_count(t):
    edges = sorted(t.shape.edges)
    count = 0
    for perm in itertools.permutations(edges):
        if decorated_automorphism(t, t, dict(zip(edges, perm))):
            count += 1
    return count


def test_criterion_8_automorphism_oracle():
    checked = 0
    for spec in all_builtin_specs():
        for t in enumerate_ptrees(spec, Bound(6)):
            assert aut_order(t) == flat_automorphism_count(t), t.key()
            checked += 1
    assert checked > 500
    catalan = [len(enumerate_classes(builtin("binary"), Bound(9),
                                     leaf_profile=(("o", n),)))
               for n in range(1, 6)]
    assert catalan == [1, 1, 2, 5, 14]
    report(8, f"automorphism oracle, {checked} trees, Catalan counts")


# -- criterion 9 -----------------------------------------------------------------

def test_criterion_9_groupoid_suite():
    rep = run_suite(count=200, seed=0)
    assert rep.passed
    assert rep.instances >= 200
    for law, (instances, failed) in sorted(rep.results.items()):
        assert failed == 0, law
        assert instances > 0, law
    report(9, "groupoid property suite, 200 instances")


# -- criterion 10 ----------------------------------------------------------------

def cli(args):
    proc = subprocess.run([sys.executable, "-m", "optrees.cli", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_10_determinism(tmp_path):
    spec_path = tmp_path / "two-colour.json"
    save_spec(two_colour_spec(), str(spec_path))
    budget = ["--max-edges", str(FDB_EDGE_BUDGET),
              "--max-nodes", str(FDB_NODE_BUDGET)]
    commands = []
    for name in FDB_SPECS:
        cmd = ["verify", "fdb", "--functor", name]
        if name in ("planar", "exp", "stable"):
            cmd += ["--max-arity", "3"]
        commands.append(cmd + budget + ["--jobs", "4"])
    commands.append(["verify", "fdb", "--spec-file", str(spec_path),
                     "--rooted", "a"] + budget + ["--jobs", "4"])
    commands.append(["verify", "fdb", "--spec-file", str(spec_path),
                     "--rooted", "b"] + budget + ["--jobs", "4"])
    commands.append(["delta", "--functor", "identity",
                     "--tree", ladder_text(10)])
    commands.append(["green", "--functor", "constant"])
    commands.append(["verify", "classical", "--max-degree", "7"])
    commands.append(["verify", "phi", "--functor", "stable",
                     "--max-arity", "3", "--max-n", "4", "--max-edges", "8"])
    commands.append(["enumerate", "--functor", "exp", "--max-arity", "3",
                     "--max-edges", "6"])
    commands.append(["verify", "groupoid", "--count", "200", "--seed", "0"])
    for cmd in commands:
        full = cmd + ["--format", "structured"]
        code1, out1 = cli(full)
        code2, out2 = cli(full)
        assert code1 == code2 == 0, full
        assert out1 == out2, full
        assert out1.strip(), full
    report(10, f"byte-identical structured reports, {len(commands)} commands x2")
