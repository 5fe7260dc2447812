import itertools
import math
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_builtin_specs, cycle_generated_s3_spec,
                      symmetric_two_colour_spec, two_colour_spec)
from optrees.bialgebra import flat_cut_summary, graft_classes
from optrees.enumeration import Bound, enumerate_pforests, enumerate_ptrees
from optrees.pfunctor import (ArityMismatch, ColourMismatch, EndofunctorSpec,
                              OpType, PForest, PTree, SpecError, UnknownBuiltin,
                              UnknownOp, aut_order, aut_order_forest,
                              automorphisms, build_ptree, builtin,
                              decorate_shape, decorated_automorphism,
                              forest_mul, graft_decorated, group_order,
                              isomorphisms_brute, parse_pforest, parse_ptree,
                              parse_ptree_or_shape, representative, save_spec, load_spec,
                              trivial_ptree, validate_ptree)
from optrees.trees import (GrammarError, MatchingNotBijective, parse_tree,
                           validate_tree)


# -- specs --------------------------------------------------------------------

def test_builtin_binary():
    spec = builtin("binary")
    assert len(spec.colours) == 1
    assert len(spec.ops) == 1
    op = spec.ops[0]
    assert op.arity == 2
    assert len(spec.sym_group(op.name)) == 1


def test_builtin_identity():
    spec = builtin("identity")
    assert [op.arity for op in spec.ops] == [1]


def test_builtin_exp_symmetries():
    spec = builtin("exp", max_arity=3)
    assert sorted(op.arity for op in spec.ops) == [0, 1, 2, 3]
    for op in spec.ops:
        assert len(spec.sym_group(op.name)) == math.factorial(op.arity)


def test_builtin_cyclic_symmetries():
    spec = builtin("cyclic", max_arity=4)
    for op in spec.ops:
        assert len(spec.sym_group(op.name)) == max(1, op.arity)


def test_builtin_effective_and_stable_arities():
    assert sorted(op.arity for op in builtin("effective", max_arity=3).ops) == [1, 2, 3]
    assert sorted(op.arity for op in builtin("stable", max_arity=3).ops) == [2, 3]
    assert builtin("trivial").ops == ()


def test_builtin_errors():
    with pytest.raises(UnknownBuiltin):
        builtin("nosuch")
    with pytest.raises(SpecError):
        builtin("exp")  # needs max_arity
    for name in ("binary", "identity", "constant", "trivial"):
        with pytest.raises(SpecError, match="fixed arities"):
            builtin(name, max_arity=2)


def test_bad_symmetry_generator_rejected():
    with pytest.raises(SpecError):
        EndofunctorSpec(["a", "b"], [OpType("f", "a", ("a", "b"), ((1, 0),))])
    with pytest.raises(SpecError):
        EndofunctorSpec(["a"], [OpType("f", "a", ("a", "a"), ((0, 0),))])


def test_spec_file_roundtrip(tmp_path):
    spec = two_colour_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, str(path))
    loaded = load_spec(str(path))
    assert loaded.colours == spec.colours
    assert [(o.name, o.out, o.ins, o.sym_gens) for o in loaded.ops] == \
        [(o.name, o.out, o.ins, o.sym_gens) for o in spec.ops]


@pytest.mark.parametrize("colours, ops, named", [
    (["o"], [OpType("a", "o", ("o",)), OpType("b", "o", ()),
             OpType("a:(b)", "o", ())], "op 'a:(b)'"),
    (["o"], [OpType("a:b", "o", ("o",))], "op 'a:b'"),
    (["o"], [OpType("", "o", ())], "op ''"),
    (["o"], [OpType("é", "o", ())], "op 'é'"),
    (["o x"], [], "colour 'o x'"),
    (["o", ""], [], "colour ''"),
    (["_"], [], "colour '_'"),
], ids=["key-syntax", "colon", "empty-op", "non-ascii", "space", "empty-colour",
        "underscore"])
def test_names_outside_the_key_grammar_are_rejected(colours, ops, named):
    with pytest.raises(SpecError, match=re.escape(named)):
        EndofunctorSpec(colours, ops)


def test_every_identifier_character_is_accepted():
    name = "azAZ09-*"
    spec = EndofunctorSpec([name], [OpType(name, name, (name,))])
    t = parse_ptree(spec, f"({name}:_)")
    assert t.key() == f"({name}:_)" and parse_ptree(spec, t.key()).key() == t.key()


# -- decorated validation -----------------------------------------------------

def test_trivial_ptree_any_colour():
    spec = two_colour_spec()
    for colour in spec.colours:
        t = trivial_ptree(spec, colour)
        assert t.root_colour == colour
        assert t.node_count == 0


def test_arity_mismatch():
    spec = builtin("binary")
    shape = validate_tree([0, 1, 2, 3], {0: (1, 2, 3)}, {0: 0})
    with pytest.raises(ArityMismatch):
        validate_ptree(spec, shape, {e: "o" for e in shape.edges}, {0: "n2"})


def test_colour_mismatch_and_unknown_op():
    spec = two_colour_spec()
    shape = validate_tree([0, 1, 2], {0: (1, 2)}, {0: 0})
    colours = {0: "a", 1: "a", 2: "b"}
    with pytest.raises(UnknownOp):
        validate_ptree(spec, shape, colours, {0: "zzz"})
    with pytest.raises(ColourMismatch):
        validate_ptree(spec, shape, {0: "b", 1: "a", 2: "b"}, {0: "f"})
    t = validate_ptree(spec, shape, colours, {0: "f"})
    assert t.root_colour == "a"


def test_constant_spec_has_two_one_edge_classes():
    spec = builtin("constant")
    classes = enumerate_ptrees(spec, Bound(1))
    assert len(classes) == 2
    assert {t.node_count for t in classes} == {0, 1}


# -- canonical keys -----------------------------------------------------------

def test_planar_child_order_distinguishes():
    spec = builtin("planar", max_arity=2)
    left = parse_ptree(spec, "(n2:(n1:_)_)")
    right = parse_ptree(spec, "(n2:_(n1:_))")
    assert left.key() != right.key()


def test_exp_child_order_identified():
    spec = builtin("exp", max_arity=2)
    left = parse_ptree(spec, "(n2:(n1:_)_)")
    right = parse_ptree(spec, "(n2:_(n1:_))")
    assert left.key() == right.key()
    assert isomorphisms_brute(left, right)


def test_cyclic_rotation_identified_reflection_not():
    spec = builtin("cyclic", max_arity=3)
    a = parse_ptree(spec, "(n3:(n1:_)(n2:__)_)")
    b = parse_ptree(spec, "(n3:_(n1:_)(n2:__))")   # rotated
    c = parse_ptree(spec, "(n3:(n2:__)(n1:_)_)")   # reflected
    assert a.key() == b.key()
    assert a.key() != c.key()


def test_trivial_trees_of_different_colours_differ():
    spec = two_colour_spec()
    assert trivial_ptree(spec, "a").key() != trivial_ptree(spec, "b").key()


def test_key_parse_roundtrip():
    for spec in all_builtin_specs():
        for t in enumerate_ptrees(spec, Bound(4)):
            back = parse_ptree(spec, t.key())
            assert back.key() == t.key()


def test_canon_is_complete_invariant():
    # key equality iff an explicit isomorphism exists, all pairs <= 6 edges
    for spec in all_builtin_specs() + [two_colour_spec()]:
        classes = enumerate_ptrees(spec, Bound(6))
        buckets = {}
        for t in classes:
            inv = (t.edge_count, t.node_count, t.root_colour,
                   tuple(sorted(t.node_op.values())), t.leaf_profile())
            buckets.setdefault(inv, []).append(t)
        for bucket in buckets.values():
            for t1, t2 in itertools.combinations(bucket, 2):
                # distinct enumerated classes: no isomorphism may exist
                assert t1.key() != t2.key()
                assert not isomorphisms_brute(t1, t2)
        for t in classes:
            # rebuilt representative is isomorphic to the original
            assert isomorphisms_brute(t, representative(spec, t.key()))


# -- automorphism orders --------------------------------------------------------

def test_aut_order_examples():
    exp2 = builtin("exp", max_arity=2)
    cherry = parse_ptree(exp2, "(n2:__)")
    assert aut_order(cherry) == 2
    nested = parse_ptree(exp2, "(n2:(n2:__)(n2:__))")
    assert aut_order(nested) == 8
    assert aut_order(trivial_ptree(exp2)) == 1


def test_planar_and_binary_are_rigid():
    for name in ("planar", "binary"):
        spec = builtin(name, max_arity=3) if name == "planar" else builtin(name)
        for t in enumerate_ptrees(spec, Bound(6)):
            assert aut_order(t) == 1


def test_aut_order_equals_explicit_automorphism_count():
    # the last spec's group is a proper subgroup of the slot permutations
    # that keep colours, on slots of mixed colours
    for spec in [builtin("exp", max_arity=3), builtin("cyclic", max_arity=3),
                 two_colour_spec(), symmetric_two_colour_spec()]:
        for t in enumerate_ptrees(spec, Bound(5)):
            maps = automorphisms(t)
            assert len(maps) == aut_order(t)
            for m in maps:
                assert decorated_automorphism(t, t, m)
            # no duplicates
            assert len({tuple(sorted(m.items())) for m in maps}) == len(maps)


def test_aut_order_and_key_of_trees_deeper_than_the_recursion_limit():
    identity = builtin("identity")
    ladder = trivial_ptree(identity)
    for _ in range(1200):
        ladder = build_ptree(identity, "n1", [ladder])
    assert aut_order(ladder) == 1
    assert ladder.key() == "(n1:" * 1200 + "_" + ")" * 1200
    exp2 = builtin("exp", max_arity=2)
    capped = parse_ptree(exp2, "(n2:__)")
    for _ in range(1199):
        capped = build_ptree(exp2, "n2", [trivial_ptree(exp2), capped])
    assert capped.node_count == 1200
    assert aut_order(capped) == 2
    assert capped.key() == "(n2:" * 1199 + "(n2:__)" + "_)" * 1199


def test_aut_order_flat_brute_force_small():
    spec = builtin("exp", max_arity=3)
    for t in enumerate_ptrees(spec, Bound(4)):
        edges = sorted(t.shape.edges)
        count = 0
        for perm in itertools.permutations(edges):
            if decorated_automorphism(t, t, dict(zip(edges, perm))):
                count += 1
        assert count == aut_order(t)


def test_symmetry_subgroup_order_divides():
    spec = builtin("exp", max_arity=3)
    for t in enumerate_ptrees(spec, Bound(5)):
        if t.node_count == 0:
            continue
        root_node = t.shape.node_above[t.shape.root]
        group = spec.sym_group(t.node_op[root_node])
        codes = t.edge_codes()
        ins = t.shape.node_inputs[root_node]
        child = [codes.get(e, "_") for e in ins]
        h = sum(1 for g in group
                if all(child[g[i]] == child[i] for i in range(len(ins))))
        assert len(group) % h == 0


def orbit_scan(spec, name, codes):
    """Node code and stabiliser order by a scan of the op's whole group."""
    group = spec.sym_group(name)
    orbit = {tuple(codes[i] for i in g) for g in group}
    least = min(orbit)
    return ("(" + name + (":" + "".join(least) if least else "") + ")",
            len(group) // len(orbit))


NODE_CODE_OPS = [(spec, op.name) for spec in
                 [*all_builtin_specs(4), two_colour_spec(),
                  symmetric_two_colour_spec(), cycle_generated_s3_spec()]
                 for op in spec.ops]


@pytest.mark.parametrize("spec,name", NODE_CODE_OPS,
                         ids=[f"{s.name}-{n}" for s, n in NODE_CODE_OPS])
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_node_code_equals_orbit_scan(spec, name, data):
    arity = spec.op(name).arity
    codes = tuple(data.draw(st.lists(st.sampled_from("abc"), min_size=arity,
                                     max_size=arity)))
    assert spec.node_code(name, codes) == orbit_scan(spec, name, codes)


def dihedral_spec(k):
    """One colour, with a k-ary op under the dihedral group of order 2k."""
    reflection = tuple((-i) % k for i in range(k))
    return EndofunctorSpec(["o"], [OpType("d", "o", ("o",) * k,
                                          ((*range(1, k), 0), reflection))],
                           name=f"dihedral({k})")


@pytest.mark.parametrize("spec,name", NODE_CODE_OPS + [
    (dihedral_spec(k), "d") for k in (4, 5, 6)],
    ids=[f"{s.name}-{n}" for s, n in NODE_CODE_OPS] + [
        f"dihedral({k})-d" for k in (4, 5, 6)])
def test_group_order_equals_the_closed_group(spec, name):
    assert group_order(spec.op(name)) == len(spec.sym_group(name))


def test_group_order_refuses_a_large_group_without_listing_it():
    for k in (10, 40):
        op = OpType("f", "o", ("o",) * k, ((1, 0, *range(2, k)), (*range(1, k), 0)))
        with pytest.raises(SpecError, match="more than 362880 elements"):
            group_order(op)
    big_cycle = OpType("f", "o", ("o",) * 200, ((*range(1, 200), 0),))
    assert group_order(big_cycle) == 200


def test_block_plan_needs_no_group_closure():
    exp = builtin("exp", max_arity=12)
    assert all(exp.group_is_block_symmetric(op.name) for op in exp.ops)
    assert exp.node_code("n12", ("_",) * 12) == (
        "(n12:" + "_" * 12 + ")", math.factorial(12))
    assert exp._groups == {}
    assert symmetric_two_colour_spec().group_is_block_symmetric("g")
    assert not builtin("planar", max_arity=2).group_is_block_symmetric("n2")
    assert not builtin("cyclic", max_arity=3).group_is_block_symmetric("n3")
    assert not cycle_generated_s3_spec().group_is_block_symmetric("n3")


def test_rigid_op_node_code_closes_no_group():
    rigid = [builtin("planar", max_arity=4), builtin("binary"),
             builtin("identity"), builtin("constant"), two_colour_spec(),
             EndofunctorSpec(["o"], [OpType("r", "o", ("o",) * 3,
                                            ((0, 1, 2),))])]
    for spec in rigid:
        for op in spec.ops:
            codes = tuple("(n0)" if i % 2 else "_" for i in range(op.arity))
            body = ":" + "".join(codes) if codes else ""
            assert spec.node_code(op.name, codes) == (f"({op.name}{body})", 1)
        enumerate_ptrees(spec, Bound(6))
        assert spec._groups == {}, spec.name
    assert not builtin("planar", max_arity=2).group_is_block_symmetric("n2")


# -- the class table -----------------------------------------------------------

@pytest.mark.parametrize("template", [
    builtin("exp", max_arity=3), two_colour_spec(), builtin("planar", max_arity=3),
    symmetric_two_colour_spec()],
    ids=["exp3", "two-colour", "planar3", "symmetric-two-colour"])
def test_class_records_match_a_fresh_parse(template):
    spec = EndofunctorSpec(template.colours, template.ops, name=template.name)
    bound = Bound(5)
    trees = enumerate_ptrees(spec, bound)
    assert trees
    for t in trees:
        assert representative(spec, t.key()) is t
    # and the graft classes composed from them, up to 7 edges
    grafts = {c.key for s in trees for f in enumerate_pforests(spec, bound)
              if s.edge_count + f.edge_count() - s.leaf_count() <= 7
              for c in graft_classes(f, s)}
    assert any(spec.classes[k].edges > bound.max_edges for k in grafts)
    for k in sorted(grafts | {t.key() for t in trees}):
        c = spec.classes[k]
        fresh = parse_ptree(spec, k)
        assert c.key == fresh.key() == k
        assert c.edges == fresh.edge_count
        assert c.nodes == fresh.node_count
        assert c.leaves == fresh.leaf_count()
        assert c.root == fresh.root_colour
        assert c.leaf_profile == fresh.leaf_profile()
        assert c.aut == len(automorphisms(fresh))
        assert c.cuts == flat_cut_summary(fresh), k
        assert representative(spec, k) is representative(spec, k)


def test_class_interned_once_on_first_sight_of_its_key():
    spec = builtin("exp", max_arity=3)
    k = "(n2:(n2:__)_)"
    t = representative(spec, k)
    assert spec.classes[k].tree is t
    assert representative(spec, k) is t
    # enumeration keeps the record it finds instead of making a second one
    assert t in enumerate_ptrees(spec, Bound(5))


@pytest.mark.parametrize("template", [builtin("exp", max_arity=3), two_colour_spec()],
                         ids=["one-colour", "two-colour"])
def test_trivial_record_tree_carries_its_key(template, monkeypatch):
    spec = EndofunctorSpec(template.colours, template.ops, name=template.name)

    def no_codes(self):
        raise AssertionError("edge_codes called for a record's tree")

    monkeypatch.setattr(PTree, "edge_codes", no_codes)
    for c in spec.colours:
        record = spec.trivial_classes[c]
        assert record.tree.key() == record.key == spec.trivial_key(c)


# -- forests ------------------------------------------------------------------

def test_forest_aut_orders():
    spec = builtin("exp", max_arity=2)
    triv = trivial_ptree(spec)
    double = PForest.from_trees(spec, [triv, triv])
    assert aut_order_forest(double) == 2
    cherry = parse_ptree(spec, "(n2:__)")
    x1 = parse_ptree(spec, "(n1:_)")
    mixed = PForest.from_trees(spec, [cherry, x1])
    assert aut_order_forest(mixed) == aut_order(cherry) * aut_order(x1)
    empty = PForest.from_keys(spec, [])
    assert aut_order_forest(empty) == 1
    two_cherries = PForest.from_trees(spec, [cherry, cherry])
    assert aut_order_forest(two_cherries) == 2 * 2 * 2


def test_forest_mul_and_profiles():
    spec = two_colour_spec()
    ta = trivial_ptree(spec, "a")
    tb = trivial_ptree(spec, "b")
    f = forest_mul(PForest.from_trees(spec, [ta]), PForest.from_trees(spec, [tb]))
    assert f.root_profile() == (("a", 1), ("b", 1))
    assert f.leaf_profile() == (("a", 1), ("b", 1))
    assert f.keys == tuple(sorted([ta.key(), tb.key()]))


def test_forest_grammar():
    spec = builtin("exp", max_arity=2)
    f = parse_pforest(spec, "(n2:__)·_·_")
    assert len(f.keys) == 3
    assert str(parse_pforest(spec, "ε")) == "ε"
    with pytest.raises(GrammarError):
        parse_pforest(spec, "_·")


# -- decorated grammar ----------------------------------------------------------

def test_parse_errors_have_positions():
    spec = builtin("exp", max_arity=2)
    for bad in ["(n2:_)", "(n9:__)", "(n2:___)", "", "(n2:__"]:
        with pytest.raises(GrammarError) as err:
            parse_ptree(spec, bad)
        assert "line" in str(err.value)


def test_decorated_parse_limits_nesting_depth():
    spec = builtin("identity")
    deep = parse_ptree(spec, "(n1:" * 500 + "_" + ")" * 500)
    assert deep.node_count == 500
    for n in (501, 1200):
        text = "(n1:" * n + "_" + ")" * n
        with pytest.raises(GrammarError) as err:
            parse_ptree(spec, text)
        assert "line 1, column 2001" in str(err.value)
        with pytest.raises(GrammarError):
            parse_pforest(spec, "_·" + text)


def test_multicolour_leaf_annotation():
    spec = two_colour_spec()
    t = parse_ptree(spec, "(f:_a_b)")
    assert t.root_colour == "a"
    # canonical form omits inferable annotations
    assert t.key() == "(f:__)"
    with pytest.raises(GrammarError):
        parse_ptree(spec, "(f:_b_b)")
    with pytest.raises(GrammarError):
        parse_ptree(spec, "_")  # ambiguous bare leaf


def test_decorate_shape():
    ident = builtin("identity")
    t = decorate_shape(ident, parse_tree("((_))"))
    assert t.key() == "(n1:(n1:_))"
    both = EndofunctorSpec(["o"], [OpType("f", "o", ("o",)),
                                   OpType("g", "o", ("o",))])
    with pytest.raises(SpecError):
        decorate_shape(both, parse_tree("(_)"))
    assert parse_ptree_or_shape(ident, "((_))").key() == "(n1:(n1:_))"
    assert parse_ptree_or_shape(ident, "(n1:_)").key() == "(n1:_)"


# -- grafting -------------------------------------------------------------------

def test_graft_decorated_rejects_an_assignment_missing_a_leaf():
    stump = parse_ptree(builtin("binary"), "(n2:__)")
    with pytest.raises(MatchingNotBijective):
        graft_decorated(stump, {})
    leaf = min(stump.shape.leaves)
    with pytest.raises(MatchingNotBijective):
        graft_decorated(stump, {leaf: trivial_ptree(stump.spec)})
