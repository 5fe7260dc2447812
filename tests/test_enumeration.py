import functools
import itertools
import math
import weakref
from fractions import Fraction

import pytest

from conftest import (all_builtin_specs, cardinality_series, cycle_generated_s3_spec,
                      partial_blocks_spec, split_block_spec,
                      symmetric_two_colour_spec, two_colour_spec)
from optrees import pfunctor
from optrees.bialgebra import graft_classes, green
from optrees.cli import main
from optrees.enumeration import (Bound, BoundError, enumerate_classes,
                                 enumerate_pforests, enumerate_ptrees, matchings)
from optrees.pfunctor import (EndofunctorSpec, PForest, PTree, SpecError, aut_order,
                              builtin, intern, parse_ptree, tree_class,
                              trivial_ptree, validate_ptree)
from optrees.trees import validate_tree


def test_bound_validation():
    with pytest.raises(ValueError):
        Bound(0)
    with pytest.raises(ValueError):
        Bound(3, -1)


def test_bounds_are_values():
    assert Bound(5) == Bound(5, None) == Bound(max_edges=5)
    assert Bound(5, 2) == Bound(max_edges=5, max_nodes=2)
    assert hash(Bound(5, 2)) == hash(Bound(5, max_nodes=2))
    assert Bound(5) != Bound(6) and Bound(5, 2) != Bound(5, 3)
    assert Bound(5) != Bound(5, 0) and Bound(5) != (5, None)
    assert len({Bound(5), Bound(5), Bound(5, 2)}) == 2
    assert repr(Bound(5, 2)) == "Bound(max_edges=5, max_nodes=2)"
    assert str(Bound(8)) == "Bound(max_edges=8, max_nodes=None)"
    with pytest.raises(BoundError, match="max_edges must be >= 1"):
        Bound(max_edges=0, max_nodes=3)
    with pytest.raises(BoundError, match="max_nodes must be >= 0"):
        Bound(2, max_nodes=-1)
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


@pytest.mark.parametrize("profile,message", [
    ((("o", 1), ("o", 2)), "colour 'o' named twice"),
    ((("zz", 2),), "unknown colour 'zz'"),
    ((("o", -1),), "must be at least 0, got -1"),
], ids=["repeated-colour", "unknown-colour", "negative-count"])
def test_a_bad_leaf_profile_raises(exp3, profile, message):
    for select in (enumerate_classes, green):
        with pytest.raises(SpecError, match=message):
            select(exp3, Bound(4), leaf_profile=profile)


def test_a_zero_count_is_dropped(exp3):
    no_leaves = enumerate_classes(exp3, Bound(4), leaf_profile=())
    assert no_leaves and all(c.leaves == 0 for c in no_leaves)
    assert enumerate_classes(exp3, Bound(4), leaf_profile=(("o", 0),)) == no_leaves


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
                    if not walks_to_the_root(outs, parents):
                        continue
                    node_inputs = {m: [] for m in nodes}
                    for edge, m in zip(others, parents):
                        node_inputs[m].append(edge)
                    # orderings of each node's inputs; whether the diagram
                    # is a tree does not depend on them
                    pools = [list(itertools.permutations(node_inputs[m]))
                             for m in nodes]
                    for choice in itertools.product(*pools):
                        ni = {m: choice[m] for m in nodes}
                        yield validate_tree(edges, ni, dict(zip(nodes, outs)))


def walks_to_the_root(outs, parents):
    """Whether the walk down from every node, through its output edge to
    the node that edge enters, ends at the root edge 0.  Each edge is one
    node's input at most and edge 0 none, so this is the one tree axiom a
    parent map of ``raw_shapes`` can break: else the walk cycles."""
    for m in range(len(outs)):
        for _ in outs:
            if outs[m] == 0:
                break
            m = parents[outs[m] - 1]
        else:
            return False
    return True


@pytest.fixture(scope="module")
def raw_shape_list():
    """``raw_shapes`` as a list, built once per edge bound for this module."""
    return functools.lru_cache(maxsize=None)(
        lambda max_edges: list(raw_shapes(max_edges)))


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
def test_generation_matches_raw_brute_force(name, max_arity, max_edges,
                                            raw_shape_list):
    if name == "cycle-generated-s3":
        spec = cycle_generated_s3_spec()
    else:
        spec = builtin(name, max_arity=max_arity) if max_arity else builtin(name)
    expected = set()
    for shape in raw_shape_list(max_edges):
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
                                      cycle_generated_s3_spec(), split_block_spec()]


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


@pytest.mark.parametrize("template", [builtin("planar", 3), builtin("exp", 3)],
                         ids=["planar(3)", "exp(3)"])
def test_enumerate_ptrees_leaves_no_tree_on_a_record(template):
    spec, bound = fresh(template), Bound(6, 4)
    trees = enumerate_ptrees(spec, bound)
    # each tree's key, computed afresh from the tree, is its record's
    assert [PTree(spec, t.shape, t.edge_colour, t.node_op).key() for t in trees] == [
        c.key for c in enumerate_classes(spec, bound)]
    assert len(trees) > 50
    # the caller holds the trees alone: a tree's diagram is held by the tree
    shapes = [weakref.ref(t.shape) for t in trees]
    del trees
    assert [r for r in shapes if r() is not None] == []


def test_enumerate_ptrees_builds_trees_deeper_than_the_recursion_limit():
    trees = enumerate_ptrees(builtin("identity"), Bound(1200))
    assert len(trees) == 1200
    # the deepest key sorts first
    assert trees[0].key() == "(n1:" * 1199 + "_" + ")" * 1199
    assert trees[0].edge_count == 1200


def test_enumerate_pforests_takes_forests_of_more_trees_than_the_recursion_limit():
    # k trivial trees, 0 <= k <= 1100, or one node beside k <= 1098 of them
    forests = enumerate_pforests(builtin("identity"), Bound(1100, 1))
    assert len(forests) == 2200
    assert max(len(f.keys) for f in forests) == 1100
    assert forests == sorted(forests, key=lambda f: f.keys)
    # a node bound of 0 leaves the forests of up to 7 trivial trees
    assert [f.keys for f in enumerate_pforests(builtin("constant"), Bound(7, 0))] == [
        ("_",) * k for k in range(8)]


@pytest.mark.parametrize("template", RECORD_SPECS, ids=lambda s: s.name)
def test_enumerated_keys_round_trip(template):
    spec = fresh(template)
    classes = enumerate_classes(spec, Bound(7, 4))
    keys = [c.key for c in classes]
    assert len(set(keys)) == len(keys)
    assert [parse_ptree(fresh(template), k).key() for k in keys] == keys


# -- the cell walk --------------------------------------------------------------


def rows(classes):
    return [(c.key, c.aut, c.root, c.leaf_profile, c.edges, c.nodes) for c in classes]


def ordered_product_classes(spec, max_edges):
    """Every class within the edge bound, composed on every ordered tuple of
    child classes whose edges add up (no cells, no orbit rule), by key."""
    strata = [[]]
    for e in range(1, max_edges + 1):
        level = {c.key: c for c in spec.trivial_classes.values()} if e == 1 else {}
        for op in spec.ops:
            for sizes in itertools.product(range(1, e), repeat=op.arity):
                if sum(sizes) != e - 1:
                    continue
                pools = [[c for c in strata[d] if c.root == colour]
                         for d, colour in zip(sizes, op.ins)]
                for children in itertools.product(*pools):
                    c = spec.compose(op.name, children)
                    level[c.key] = c
        strata.append(list(level.values()))
    return sorted((c for level in strata for c in level), key=lambda c: c.key)


@pytest.mark.parametrize("template", RECORD_SPECS, ids=lambda s: s.name)
def test_cell_walk_meets_every_class_of_the_ordered_product(template):
    assert rows(enumerate_classes(fresh(template), Bound(7))) == \
        rows(ordered_product_classes(fresh(template), 7))


@pytest.mark.parametrize("template", RECORD_SPECS, ids=lambda s: s.name)
def test_node_cap_is_the_uncapped_list_filtered(template):
    capped = enumerate_classes(fresh(template), Bound(9, 4))
    full = enumerate_classes(fresh(template), Bound(9))
    assert rows(capped) == rows(c for c in full if c.nodes <= 4)


@pytest.mark.parametrize("name,count", [("planar", 24_909), ("exp", 1_933)])
def test_node_cap_counts_beyond_the_brute_force_oracle(name, count):
    assert len(enumerate_classes(builtin(name, max_arity=3), Bound(16, 5))) == count


@pytest.mark.parametrize("template,bound,calls", [
    (builtin("exp", max_arity=7), Bound(9), 4_891),
    (builtin("planar", max_arity=3), Bound(8, 5), 2_506),
    (builtin("exp", max_arity=3), Bound(16, 5), 1_932),
    (symmetric_two_colour_spec(), Bound(9), 83 - 2),
    (symmetric_two_colour_spec(), Bound(9, 4), 51 - 2),
    (split_block_spec(), Bound(10), 201),
    (partial_blocks_spec(), Bound(12), 6_136),
], ids=["exp7", "planar3-capped", "exp3-capped", "symmetric-two-colour",
        "symmetric-two-colour-capped", "split-block", "partial-blocks"])
def test_rigid_and_block_symmetric_ops_compose_each_class_once(
        monkeypatch, template, bound, calls):
    spec, composed = fresh(template), []
    real = spec.compose
    monkeypatch.setattr(spec, "compose",
                        lambda *args: composed.append(args) or real(*args))
    classes = enumerate_classes(spec, bound)
    # every class but the trivial ones is composed, and only once
    assert len(composed) == len(classes) - len(spec.colours) == calls


@pytest.mark.parametrize("spec", all_builtin_specs() + [
    two_colour_spec(), symmetric_two_colour_spec(), split_block_spec(),
    cycle_generated_s3_spec(), partial_blocks_spec()], ids=lambda s: s.name)
def test_classes_count_as_the_cardinality_fixed_point(spec):
    # Σ 1/|Aut| per (root, edges, nodes) over the enumerated classes equals
    # the groupoid cardinality of the trees there: it checks that the
    # enumeration meets every class once and that each |Aut| is right
    bound, by_cell = Bound(12, 5), {}
    for c in enumerate_classes(spec, bound):
        cell = (c.root, c.edges, c.nodes)
        by_cell[cell] = by_cell.get(cell, 0) + Fraction(1, c.aut)
    assert by_cell == cardinality_series(spec, bound)


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
    # over a rigid stump, the walk fills the leaves with every distinct
    # ordering of the crown's classes, in candidate (node count) order
    planar = builtin("planar", max_arity=3)
    stump = tree_class(planar, "(n3:___)")
    crown = PForest.from_keys(planar, ["_", "_", "(n1:_)"])
    out = list(graft_classes(crown, stump).values())
    assert out == [("_", "_", "(n1:_)"), ("_", "(n1:_)", "_"), ("(n1:_)", "_", "_")]
    assert list(graft_classes(PForest.from_keys(planar, []),
                             tree_class(planar, "(n0)")).values()) == [()]


def test_graft_class_assignments_counts(exp3, two_colour):
    # the fillings of the stump's leaves, in slot order, that reach the
    # pair's graft classes: one per class reached
    cherry = tree_class(exp3, "(n2:__)")
    crown = PForest.from_keys(exp3, ["(n1:_)", "(n1:_)"])
    assert list(graft_classes(crown, cherry).values()) == [("(n1:_)", "(n1:_)")]
    # the cherry's two leaves are one symmetric block: one ordering is taken
    crown2 = PForest.from_keys(exp3, ["(n1:_)", "_"])
    assert list(graft_classes(crown2, cherry).values()) == [("_", "(n1:_)")]
    # leaves of two colours (slot order a, b, a, b): every ordering of
    # each colour's crown classes
    stump = tree_class(two_colour, "(f:(f:__)(g:__))")
    assert stump.leaf_profile == (("a", 2), ("b", 2))
    crown3 = PForest.from_keys(two_colour, ["(f:__)", "_a", "(g:__)", "_b"])
    assert sorted(graft_classes(crown3, stump).values()) == sorted(
        (a[0], b[0], a[1], b[1]) for a in [("(f:__)", "_a"), ("_a", "(f:__)")]
        for b in [("(g:__)", "_b"), ("_b", "(g:__)")])
    crown4 = PForest.from_keys(two_colour, ["_a", "_a", "(g:__)", "_b"])
    assert len(graft_classes(crown4, stump)) == 2
    # a crown whose root profile is not the leaf profile has no filling
    for keys in (["_a", "_a", "_b"], ["_a", "_b", "_b", "_b"], ["_a", "_a", "_a", "_b"]):
        assert graft_classes(PForest.from_keys(two_colour, keys), stump) == {}
    assert graft_classes(PForest.from_keys(exp3, ["_"]), cherry) == {}
    assert builtin("planar", max_arity=2)._blocks["n2"] == ()
