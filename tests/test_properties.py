"""Property tests of the canonical-code rule on random small trees.

An isomorphism of decorated trees may permute each node's slots by any
element of its op's group, so rebuilding a tree with such a permutation at
every node must keep its key and its automorphism order.  The walk that
fills a stump record's leaves must reach the class, and |Aut|, of every
tree grafted onto the record's tree.  The coproduct of a tree or a forest
monomial must satisfy both counit laws and coassociativity, and over a
rigid stump the walk must fill the leaves with the distinct orderings of
the crown's classes, in order.  The examples are derandomised, so every run
checks the same trees.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cycle_generated_s3_spec, symmetric_two_colour_spec,
                      triple_left, triple_right, two_colour_spec)
from optrees.bialgebra import (counit_left, counit_right, delta_monomial,
                               delta_tree, graft_classes)
from optrees.enumeration import Bound
from optrees.pfunctor import (PForest, aut_order, build_ptree, builtin,
                              graft_decorated, intern, parse_ptree, tree_class,
                              tree_in, trivial_ptree)
from optrees.trees import parse_tree, print_tree

SPECS = [builtin("exp", max_arity=3), builtin("exp", max_arity=5),
         builtin("cyclic", max_arity=3), two_colour_spec(),
         symmetric_two_colour_spec(), cycle_generated_s3_spec()]

PROPERTY = settings(max_examples=40, deadline=None, database=None,
                    derandomize=True)


@st.composite
def ptrees(draw, spec, max_nodes=6, colour=None):
    """A tree of the spec with at most ``max_nodes`` nodes, rooted at
    ``colour`` when one is given."""
    budget = [max_nodes]

    def grow(colour):
        ops = [op for op in spec.ops if op.out == colour]
        if not ops or budget[0] == 0 or not draw(st.booleans()):
            return trivial_ptree(spec, colour)
        op = draw(st.sampled_from(ops))
        budget[0] -= 1
        return build_ptree(spec, op.name, [grow(c) for c in op.ins])

    return grow(colour or draw(st.sampled_from(spec.colours)))


def rebuilt_with_permuted_slots(t, draw):
    """t rebuilt bottom-up, each node's children permuted by a group element
    drawn for that node: slot i gets the child of slot g[i]."""
    spec, shape = t.spec, t.shape

    def rebuild(e):
        n = shape.node_above.get(e)
        if n is None:
            return trivial_ptree(spec, t.edge_colour[e])
        op = t.node_op[n]
        g = draw(st.sampled_from(spec.sym_group(op)))
        ins = shape.node_inputs[n]
        return build_ptree(spec, op, [rebuild(ins[i]) for i in g])

    return rebuild(shape.root)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_key_and_aut_order_invariant_under_slot_permutations(spec, data):
    t = data.draw(ptrees(spec))
    twin = rebuilt_with_permuted_slots(t, data.draw)
    assert twin.key() == t.key()
    assert aut_order(twin) == aut_order(t)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_key_parses_back_to_its_class(spec, data):
    t = data.draw(ptrees(spec))
    back = parse_ptree(spec, t.key())
    assert back.key() == t.key()
    assert aut_order(back) == aut_order(t)
    shape = print_tree(t.shape)
    assert print_tree(parse_tree(shape)) == shape


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_composed_graft_is_the_class_of_the_grafted_tree(spec, data):
    stump = intern(data.draw(ptrees(spec, max_nodes=3)))
    tree = tree_in(stump, {})
    crown = {leaf: data.draw(ptrees(spec, max_nodes=3,
                                    colour=tree.edge_colour[leaf]))
             for leaf in sorted(tree.shape.leaves)}
    grafted = graft_decorated(tree, crown)
    reached = {c.key: c for c in graft_classes(
        PForest.from_trees(spec, crown.values()), stump)}
    assert reached[grafted.key()].aut == aut_order(grafted)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_tree_coproduct_counit_laws_and_coassociativity(spec, data):
    t = data.draw(ptrees(spec, max_nodes=4))
    bound = Bound(t.edge_count)
    ts = delta_tree(t, bound)
    assert counit_left(ts).coeffs == {(t.key(),): 1}
    assert counit_right(ts).coeffs == {(t.key(),): 1}
    assert triple_left(spec, ts, bound) == triple_right(spec, ts, bound)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_monomial_coproduct_counit_laws_and_coassociativity(spec, data):
    trees = data.draw(st.lists(ptrees(spec, max_nodes=2), min_size=1,
                               max_size=3))
    key = tuple(sorted(t.key() for t in trees))
    bound = Bound(sum(t.edge_count for t in trees))
    ts = delta_monomial(spec, key, bound)
    assert counit_left(ts).coeffs == {key: 1}
    assert counit_right(ts).coeffs == {key: 1}
    assert triple_left(spec, ts, bound) == triple_right(spec, ts, bound)


PLANAR = builtin("planar", max_arity=7)
# three crown classes, in the walk's candidate (node count) order
CROWN_OF = {"a": "_", "b": "(n1:_)", "c": "(n1:(n1:_))"}


@PROPERTY
@given(items=st.lists(st.sampled_from("abc"), max_size=7))
def test_multiset_arrangements_are_the_sorted_distinct_permutations(items):
    stump = tree_class(PLANAR, f"(n{len(items)}" + (":" + "_" * len(items)
                                                    if items else "") + ")")
    crown = PForest.from_keys(PLANAR, [CROWN_OF[i] for i in items])
    assert (list(graft_classes(crown, stump).values())
            == [tuple(CROWN_OF[i] for i in p)
                for p in sorted(set(itertools.permutations(items)))])
