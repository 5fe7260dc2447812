import itertools
import math

import pytest

from conftest import (all_builtin_specs, cycle_generated_s3_spec,
                      symmetric_two_colour_spec, two_colour_spec)
from optrees import pfunctor
from optrees.bialgebra import green
from optrees.cli import main
from optrees.enumeration import (Bound, enumerate_classes, enumerate_pforests,
                                 enumerate_ptrees, graft_class_assignments,
                                 matchings, multiset_arrangements)
from optrees.pfunctor import (EndofunctorSpec, PForest, aut_order, builtin,
                              intern, parse_ptree, trivial_ptree,
                              validate_ptree)
from optrees.trees import validate_tree


def test_bound_validation():
    with pytest.raises(ValueError):
        Bound(0)
    with pytest.raises(ValueError):
        Bound(3, -1)
    assert Bound(3).admits(3, 100)
    assert not Bound(3, 2).admits(3, 3)


def test_catalan_counts_for_binary():
    spec = builtin("binary")
    counts = [len(enumerate_classes(spec, Bound(9), leaf_profile=(("o", n),)))
              for n in range(1, 6)]
    assert counts == [1, 1, 2, 5, 14]


def test_linear_counts():
    spec = builtin("identity")
    for e in range(1, 8):
        assert len(enumerate_ptrees(spec, Bound(e))) == e


def test_constant_classes():
    spec = builtin("constant")
    classes = enumerate_ptrees(spec, Bound(7))
    assert len(classes) == 2


def test_trivial_spec_classes():
    spec = builtin("trivial")
    assert len(enumerate_ptrees(spec, Bound(5))) == 1


def test_enumeration_no_duplicates_and_sorted():
    for spec in all_builtin_specs():
        classes = enumerate_ptrees(spec, Bound(5))
        keys = [t.key() for t in classes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_root_colour_filter(two_colour):
    all_classes = enumerate_ptrees(two_colour, Bound(5))
    for colour in two_colour.colours:
        filtered = enumerate_classes(two_colour, Bound(5), root_colour=colour)
        expect = [t.key() for t in all_classes if t.root_colour == colour]
        assert [c.key for c in filtered] == expect


def test_leaf_profile_filter_is_post_filter(exp3):
    bound = Bound(6)
    all_classes = enumerate_ptrees(exp3, bound)
    profiles = {t.leaf_profile() for t in all_classes}
    for profile in sorted(profiles):
        filtered = enumerate_classes(exp3, bound, leaf_profile=profile)
        expect = [t.key() for t in all_classes if t.leaf_profile() == profile]
        assert [c.key for c in filtered] == expect


def test_max_nodes_filter(exp3):
    capped = enumerate_ptrees(exp3, Bound(6, 2))
    full = enumerate_ptrees(exp3, Bound(6))
    assert {t.key() for t in capped} == \
        {t.key() for t in full if t.node_count <= 2}


def test_enumeration_cache_handles_mixed_bounds(exp3):
    # interleave capped and uncapped bounds on one spec instance
    seq = [Bound(6), Bound(6, 2), Bound(5), Bound(4, 3), Bound(6)]
    got = [[t.key() for t in enumerate_ptrees(exp3, b)] for b in seq]
    fresh = [[t.key() for t in enumerate_ptrees(builtin("exp", max_arity=3), b)]
             for b in seq]
    assert got == fresh


# -- brute-force completeness oracle -----------------------------------------


def raw_shapes(max_edges):
    """Every labelled tree diagram with <= max_edges edges, generated from
    raw injections and parent maps (independent of the growing generator)."""
    for e in range(1, max_edges + 1):
        edges = list(range(e))
        for n in range(0, e + 1):
            nodes = list(range(n))
            # t: injection nodes -> edges
            for outs in itertools.permutations(edges, n):
                # p: non-root edges (1..e-1) -> nodes
                others = edges[1:]
                for parents in itertools.product(nodes, repeat=len(others)) \
                        if n else ([()] if not others else []):
                    node_inputs = {m: [] for m in nodes}
                    for edge, m in zip(others, parents):
                        node_inputs[m].append(edge)
                    # orderings of each node's inputs
                    pools = [list(itertools.permutations(node_inputs[m]))
                             for m in nodes]
                    for choice in itertools.product(*pools):
                        ni = {m: choice[m] for m in nodes}
                        try:
                            yield validate_tree(edges, ni, dict(zip(nodes, outs)))
                        except Exception:
                            continue


def decorations(spec, shape):
    """Every decoration of a shape by ops of matching arity (one colour)."""
    colour = spec.colours[0]
    nodes = sorted(shape.node_inputs)
    pools = []
    for m in nodes:
        ops = [op.name for op in spec.ops
               if op.arity == len(shape.node_inputs[m])]
        pools.append(ops)
    for combo in itertools.product(*pools):
        yield validate_ptree(spec, shape,
                             {e: colour for e in shape.edges},
                             dict(zip(nodes, combo)))


@pytest.mark.parametrize("name,max_arity,max_edges", [
    ("exp", 3, 5),
    ("binary", None, 5),
    ("cyclic", 2, 5),
    ("planar", 2, 5),
    ("cycle-generated-s3", None, 5),
])
def test_generation_matches_raw_brute_force(name, max_arity, max_edges):
    if name == "cycle-generated-s3":
        spec = cycle_generated_s3_spec()
    else:
        spec = builtin(name, max_arity=max_arity) if max_arity else builtin(name)
    expected = set()
    for shape in raw_shapes(max_edges):
        for t in decorations(spec, shape):
            expected.add(t.key())
    got = {t.key() for t in enumerate_ptrees(spec, Bound(max_edges))}
    assert got == expected


def test_large_arity_exp_enumerates_without_closing_a_group():
    spec = builtin("exp", max_arity=8)
    trees = enumerate_ptrees(spec, Bound(10))
    assert len(trees) == 15_910
    assert sum(aut_order(t) for t in trees) == 445_369
    assert spec._groups == {}


# -- class records -------------------------------------------------------------

RECORD_SPECS = all_builtin_specs() + [two_colour_spec(), symmetric_two_colour_spec(),
                                      cycle_generated_s3_spec()]


def fresh(spec):
    """A copy of the spec with empty class tables."""
    return EndofunctorSpec(spec.colours, spec.ops, name=spec.name)


@pytest.mark.parametrize("template", RECORD_SPECS, ids=lambda s: s.name)
def test_enumerate_classes_equals_the_interned_trees(template):
    spec, bound = fresh(template), Bound(6, 4)
    selectors = [{}] + [{"root_colour": c} for c in spec.colours] + [
        {"leaf_profile": p}
        for p in sorted({c.leaf_profile for c in enumerate_classes(spec, bound)})]
    every = enumerate_ptrees(fresh(template), bound)
    for selector in selectors:
        def selected(t):
            return (selector.get("root_colour", t.root_colour) == t.root_colour
                    and selector.get("leaf_profile", t.leaf_profile())
                    == t.leaf_profile())
        classes = enumerate_classes(spec, bound, **selector)
        trees = [t for t in enumerate_ptrees(spec, bound) if selected(t)]
        assert [intern(t) for t in trees] == classes
        # the records' invariants are those of the selected trees of a fresh
        # unfiltered enumeration
        assert [(c.key, c.aut, c.root, c.leaf_profile, c.edges, c.nodes)
                for c in classes] == [
            (t.key(), aut_order(t), t.root_colour, t.leaf_profile(),
             t.edge_count, t.node_count) for t in every if selected(t)]


@pytest.mark.parametrize("template", RECORD_SPECS, ids=lambda s: s.name)
def test_enumerated_keys_round_trip(template):
    spec = fresh(template)
    classes = enumerate_classes(spec, Bound(7, 4))
    keys = [c.key for c in classes]
    assert len(set(keys)) == len(keys)
    assert [parse_ptree(fresh(template), k).key() for k in keys] == keys


def test_enumerate_and_green_build_no_tree(monkeypatch, capsys):
    built = []
    real = pfunctor.build_ptree
    monkeypatch.setattr(pfunctor, "build_ptree",
                        lambda *args: built.append(args) or real(*args))
    for command in ("enumerate", "green"):
        assert main([command, "--functor", "exp", "--max-arity", "3",
                     "--max-edges", "6", "--format", "structured"]) == 0
    spec = builtin("exp", max_arity=3)
    assert green(spec, Bound(6, 3)).coeffs
    assert enumerate_pforests(spec, Bound(5))
    assert built == []
    enumerate_ptrees(spec, Bound(6))  # the count sees trees when they are built
    assert built


# -- forests -------------------------------------------------------------------

def with_root_profile(spec, bound, profile):
    """The forests within the bound whose roots realise the profile."""
    return [f for f in enumerate_pforests(spec, bound) if f.root_profile() == profile]


def test_empty_profile_gives_empty_forest(exp3):
    out = with_root_profile(exp3, Bound(4), ())
    assert len(out) == 1 and out[0].keys == ()


def test_single_root_profile_gives_trees(two_colour):
    for colour in two_colour.colours:
        forests = with_root_profile(two_colour, Bound(5), ((colour, 1),))
        trees = enumerate_classes(two_colour, Bound(5), root_colour=colour)
        assert [f.keys for f in forests] == [(c.key,) for c in trees]


def test_identity_two_root_forests():
    spec = builtin("identity")
    forests = with_root_profile(spec, Bound(4), (("o", 2),))
    chains = {t.key(): t for t in enumerate_ptrees(spec, Bound(3))}
    expected = set()
    for k1, k2 in itertools.combinations_with_replacement(sorted(chains), 2):
        if chains[k1].edge_count + chains[k2].edge_count <= 4:
            expected.add(tuple(sorted((k1, k2))))
    assert {f.keys for f in forests} == expected


def test_forest_enumeration_bounds(exp3):
    for f in enumerate_pforests(exp3, Bound(5, 3)):
        assert f.edge_count() <= 5
        assert f.node_count() <= 3


def test_forest_enumeration_no_duplicates(exp3):
    forests = enumerate_pforests(exp3, Bound(5))
    keys = [f.keys for f in forests]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


# -- matchings ---------------------------------------------------------------

def test_matchings_two_same_colour(exp3):
    cherry = parse_ptree(exp3, "(n2:__)")
    crown = PForest.from_trees(exp3, [trivial_ptree(exp3), trivial_ptree(exp3)])
    found = matchings(cherry, crown)
    assert len(found) == 2
    for m in found:
        assert sorted(m) == sorted(cherry.shape.leaves)


def test_matchings_profile_mismatch(exp3):
    cherry = parse_ptree(exp3, "(n2:__)")
    crown = PForest.from_trees(exp3, [trivial_ptree(exp3)])
    assert matchings(cherry, crown) == []


def test_matchings_two_colours(two_colour):
    stump = parse_ptree(two_colour, "(f:__)")  # leaves coloured a, b
    crown = PForest.from_trees(two_colour, [trivial_ptree(two_colour, "a"),
                                            trivial_ptree(two_colour, "b")])
    assert len(matchings(stump, crown)) == 1


def test_matching_count_is_product_of_factorials(two_colour):
    stump = parse_ptree(two_colour, "(f:(f:__)(g:__))")
    prof = dict(stump.leaf_profile())
    crown = PForest.from_trees(
        two_colour,
        [trivial_ptree(two_colour, c) for c in
         ["a"] * prof.get("a", 0) + ["b"] * prof.get("b", 0)])
    expect = math.factorial(prof.get("a", 0)) * math.factorial(prof.get("b", 0))
    assert len(matchings(stump, crown)) == expect


def test_multiset_arrangements():
    out = list(multiset_arrangements(["x", "x", "y"]))
    assert len(out) == 3
    assert len(set(out)) == 3
    assert list(multiset_arrangements([])) == [()]


def test_graft_class_assignments_counts(exp3):
    cherry = parse_ptree(exp3, "(n2:__)")
    x1 = parse_ptree(exp3, "(n1:_)")
    crown = PForest.from_trees(exp3, [x1, x1])
    assert len(list(graft_class_assignments(cherry, crown))) == 1
    crown2 = PForest.from_trees(exp3, [x1, trivial_ptree(exp3)])
    assert len(list(graft_class_assignments(cherry, crown2))) == 2
