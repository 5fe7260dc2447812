import itertools
import random
from collections import Counter

import pytest

from conftest import cut_specs
from optrees.enumeration import Bound, enumerate_ptrees
from optrees.trees import (MAX_PARSE_DEPTH, Cut, CycleDetected, DiagramError,
                           ForestDiagram, GrammarError, MatchingNotBijective,
                           MultipleRoots,
                           NoRoot, NonInjectiveS, NonInjectiveT,
                           cut_node_tuples, disjoint_union, empty_forest,
                           enumerate_cuts,
                           forest_components, graft, ideal_subtree,
                           parse_forest, parse_tree, print_forest, print_tree,
                           prune, trivial_tree, validate_forest,
                           validate_tree, view)


def linear_tree(n):
    """n nodes in a chain; edge i sits below node i."""
    edges = list(range(n + 1))
    node_inputs = {i: (i + 1,) for i in range(n)}
    node_output = {i: i for i in range(n)}
    return validate_tree(edges, node_inputs, node_output)


def star_tree(k):
    """One node with k input slots."""
    return validate_tree(range(k + 1), {0: tuple(range(1, k + 1))}, {0: 0})


# -- validation -------------------------------------------------------------

def test_trivial_tree_is_valid():
    t = validate_tree([0], {}, {})
    assert t.root == 0
    assert t.leaves == (0,)
    assert t.node_count == 0


def test_non_injective_t_rejected():
    with pytest.raises(NonInjectiveT):
        validate_tree([0, 1, 2], {0: (1,), 1: (2,)}, {0: 0, 1: 0})


def test_non_injective_s_rejected():
    with pytest.raises(NonInjectiveS):
        validate_tree([0, 1], {0: (1,), 1: (1,)}, {0: 0, 1: 1})


def test_cycle_detected_in_tree():
    # root edge 2 hangs loose; edges 0 and 1 feed each other's nodes
    with pytest.raises(CycleDetected):
        validate_tree([0, 1, 2], {0: (1,), 1: (0,)}, {0: 0, 1: 1})


def test_cycle_detected_in_rootless_forest():
    with pytest.raises(CycleDetected):
        validate_forest([0, 1], {0: (1,), 1: (0,)}, {0: 0, 1: 1})


def test_root_count_checked():
    with pytest.raises(MultipleRoots):
        validate_tree([0, 1], {}, {})
    with pytest.raises(NoRoot):
        validate_tree([0], {0: (0,)}, {0: 0})


def test_duplicate_and_unknown_ids_rejected():
    with pytest.raises(DiagramError):
        validate_tree([0, 0], {}, {})
    with pytest.raises(DiagramError):
        validate_tree([0], {0: (5,)}, {0: 0})


def test_empty_forest_is_valid():
    f = validate_forest([], {}, {})
    assert f.roots == () and f.leaves == ()
    assert f == empty_forest()


# -- basic views ------------------------------------------------------------

def test_star_views():
    t = star_tree(3)
    assert t.leaves == (1, 2, 3)
    assert t.roots == (0,)
    assert t.edge_count == 4
    assert t.node_count == 1


def test_two_trivial_forest_views():
    f = validate_forest([0, 1], {}, {})
    assert f.roots == (0, 1)
    assert f.leaves == (0, 1)


VIEWS = sorted(name for name, v in vars(ForestDiagram).items()
               if isinstance(v, view))


def test_diagram_views_are_computed_once_and_match_a_fresh_computation(
        monkeypatch):
    assert {"roots", "leaves", "node_above", "node_below", "nodes_top_down",
            "walk_down", "edge_set", "node_ids"} <= set(VIEWS)
    fresh = {name: vars(ForestDiagram)[name].func for name in VIEWS}
    calls, held = Counter(), []  # held keeps every counted diagram's id
    for name in VIEWS:
        def counted(d, name=name):
            calls[name, id(d)] += 1
            held.append(d)
            return fresh[name](d)
        monkeypatch.setattr(vars(ForestDiagram)[name], "func", counted)

    rng = random.Random(5)
    diagrams = [random_tree(rng, rng.randint(0, 6)) for _ in range(12)]
    diagrams += [linear_tree(3), star_tree(3), trivial_tree()]
    for t in list(diagrams):
        diagrams += [ideal_subtree(t, e) for e in t.edges]
        for cut in enumerate_cuts(t):
            crown, stump, matching = prune(cut)
            diagrams += [crown, stump, graft(crown, stump, matching).tree]
    for d in diagrams:
        for name in VIEWS:
            first = getattr(d, name)
            assert getattr(d, name) is first
            assert first == fresh[name](d)
    assert calls and max(calls.values()) == 1


def test_walk_down_reaches_root():
    t = linear_tree(4)
    e = 4
    for _ in range(4):
        e = t.walk_down[e]
    assert e == t.root


# -- cuts ---------------------------------------------------------------------

def test_cut_counts_small():
    assert len(enumerate_cuts(trivial_tree())) == 1
    assert len(enumerate_cuts(star_tree(2))) == 2
    for n in range(6):
        assert len(enumerate_cuts(linear_tree(n))) == n + 1


def brute_force_cuts(tree):
    node_list = tree.node_ids
    kept_sets = set()
    for bits in itertools.product((0, 1), repeat=len(node_list)):
        kept = frozenset(n for n, b in zip(node_list, bits) if b)
        ok = all(tree.parent_node(n) is None or tree.parent_node(n) in kept
                 for n in kept)
        if ok:
            kept_sets.add(kept)
    return kept_sets


def random_tree(rng, n_nodes):
    """Random shape: each node's output edge attaches to a random earlier slot."""
    t = trivial_tree()
    for _ in range(n_nodes):
        leaves = t.leaves
        if not leaves:
            break
        leaf = rng.choice(leaves)
        arity = rng.randint(0, 3)
        fresh = max(t.edges) + 1
        node = max(t.node_inputs, default=-1) + 1
        node_inputs = dict(t.node_inputs)
        node_output = dict(t.node_output)
        node_inputs[node] = tuple(range(fresh, fresh + arity))
        node_output[node] = leaf
        t = validate_tree(tuple(t.edges) + tuple(range(fresh, fresh + arity)),
                          node_inputs, node_output)
    return t


def test_cut_enumeration_matches_brute_force():
    # the kept sets in order (size, then sorted ids), each with its nodes top
    # down: random shapes and every tree of the cut specs within a bound
    rng = random.Random(7)
    samples = [linear_tree(12), star_tree(5)]
    samples += [random_tree(rng, rng.randint(1, 8)) for _ in range(20)]
    samples += [t.shape for spec in cut_specs()
                for t in enumerate_ptrees(spec, Bound(7, 5))]
    for t in samples:
        assert t.node_count <= 12
        cuts = enumerate_cuts(t)
        assert [c.kept for c in cuts] == sorted(brute_force_cuts(t),
                                                key=lambda s: (len(s), sorted(s)))
        for c in cuts:
            assert c.nodes == Cut(t, c.kept).nodes  # checks the set is closed
            assert all(t.parent_node(n) in (None, *c.nodes[:i])
                       for i, n in enumerate(c.nodes))


def test_cuts_of_a_ladder_deeper_than_the_recursion_limit():
    cuts = enumerate_cuts(linear_tree(1200))
    assert [len(c.kept) for c in cuts] == list(range(1201))


def test_the_kept_node_tuples_of_a_ladder_deeper_than_the_recursion_limit():
    # each cut of a chain keeps a prefix of it, top down
    t = linear_tree(1200)
    assert (Counter(cut_node_tuples(t)) == Counter(c.nodes for c in enumerate_cuts(t))
            == Counter(tuple(range(k)) for k in range(1201)))


def test_cut_order_is_by_size_then_ids():
    t = star_tree(2)
    cuts = enumerate_cuts(t)
    sizes = [len(c.kept) for c in cuts]
    assert sizes == sorted(sizes)


def test_invalid_cut_rejected():
    t = linear_tree(2)
    with pytest.raises(DiagramError):
        Cut(t, frozenset({1}))  # node 1 kept, parent node 0 dropped


def test_cuts_compare_by_tree_and_kept_set():
    t = linear_tree(3)
    cut = Cut(t, [1, 0])  # any iterable of nodes, kept as a frozenset
    assert cut.kept == frozenset({0, 1}) and isinstance(cut.kept, frozenset)
    assert cut == Cut(tree=linear_tree(3), kept=frozenset({0, 1}))
    assert cut != Cut(t, {0}) and cut != Cut(linear_tree(4), {0, 1})
    assert enumerate_cuts(t) == [Cut(t, c.kept) for c in enumerate_cuts(t)]
    with pytest.raises(DiagramError, match="kept node 7 not in tree"):
        Cut(t, {7})


# -- prune ------------------------------------------------------------------

def test_prune_full_cut():
    t = star_tree(3)
    crown, stump, matching = prune(Cut(t, frozenset(t.node_inputs)))
    assert stump == t
    comps = forest_components(crown)
    assert len(comps) == 3
    assert all(c.node_count == 0 for c in comps)
    assert matching == {e: e for e in t.leaves}


def test_prune_root_cut():
    t = star_tree(3)
    crown, stump, matching = prune(Cut(t, frozenset()))
    assert stump.node_count == 0
    comps = forest_components(crown)
    assert len(comps) == 1
    assert comps[0] == t


def test_prune_ladder_middle():
    t = linear_tree(2)
    crown, stump, _ = prune(Cut(t, frozenset({0})))
    assert stump.node_count == 1 and crown.node_count == 1
    assert len(crown.roots) == 1


def test_prune_counts():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tree(rng, rng.randint(0, 6))
        for cut in enumerate_cuts(t):
            crown, stump, _ = prune(cut)
            assert crown.node_count + stump.node_count == t.node_count
            assert crown.edge_count + stump.edge_count == \
                t.edge_count + len(stump.leaves)


# -- ideal subtrees ---------------------------------------------------------

def test_ideal_subtree_upward_closed():
    rng = random.Random(5)
    for _ in range(10):
        t = random_tree(rng, rng.randint(1, 6))
        for e in t.edges:
            sub = ideal_subtree(t, e)
            assert sub.root == e
            for n in sub.node_inputs:
                assert set(t.node_inputs[n]) <= sub.edge_set
            # everything above an included edge is included
            for e2 in sub.edges:
                n = t.node_above.get(e2)
                if n is not None:
                    assert n in sub.node_inputs


# -- graft ------------------------------------------------------------------

def test_graft_trivial_crowns_is_neutral():
    t = star_tree(3)
    crown = validate_forest(t.leaves, {}, {})
    cut = graft(crown, t, {e: e for e in t.leaves})
    assert cut.tree == t
    assert cut.kept == frozenset(t.node_inputs)


def test_graft_whole_tree_on_trivial_stump():
    t = linear_tree(3)
    stump = trivial_tree(t.root)
    crown = ForestDiagram(t.edges, dict(t.node_inputs), dict(t.node_output))
    cut = graft(crown, stump, {t.root: t.root})
    assert cut.tree == t
    assert cut.kept == frozenset()


def test_graft_renames_colliding_ids():
    stump = star_tree(2)  # edges 0,1,2
    crown = validate_forest([1, 2, 3], {7: (3,)}, {7: 1}, )
    cut = graft(crown, stump, {1: 1, 2: 2})
    assert cut.tree.node_count == 2
    assert cut.tree.edge_count == 4


def test_graft_rejects_bad_matching():
    stump = star_tree(2)
    crown = validate_forest([1, 2], {}, {})
    with pytest.raises(MatchingNotBijective):
        graft(crown, stump, {1: 1})
    with pytest.raises(MatchingNotBijective):
        graft(crown, stump, {1: 1, 2: 1})


def test_graft_prune_roundtrip_exhaustive():
    rng = random.Random(11)
    samples = [random_tree(rng, rng.randint(0, 5)) for _ in range(30)]
    samples += [linear_tree(4), star_tree(4)]
    for t in samples:
        if t.edge_count > 6:
            continue
        for cut in enumerate_cuts(t):
            crown, stump, matching = prune(cut)
            again = graft(crown, stump, matching)
            assert again.tree == t
            assert again.kept == cut.kept


def test_prune_graft_roundtrip_up_to_renaming():
    stump = star_tree(2)
    crown = disjoint_union([linear_tree(1), trivial_tree()])
    m = dict(zip(sorted(stump.leaves), crown.roots))
    cut = graft(crown, stump, m)
    crown2, stump2, m2 = prune(cut)
    assert stump2 == stump
    comps = sorted((c.edge_count, c.node_count) for c in forest_components(crown2))
    comps_in = sorted((c.edge_count, c.node_count) for c in forest_components(crown))
    assert comps == comps_in


# -- grammar ----------------------------------------------------------------

def test_parse_print_roundtrip():
    for text in ["_", "()", "(_)", "((_))", "(_(_)())", "((__)_)"]:
        t = parse_tree(text)
        assert print_tree(t) == text
        assert parse_tree(print_tree(t)) == t


def test_forest_grammar_roundtrip():
    for text in ["ε", "_", "_·_", "(_)·_", "(__)·(_)·_"]:
        f = parse_forest(text)
        assert print_forest(f) == text


def test_parse_reports_position():
    with pytest.raises(GrammarError) as err:
        parse_tree("((_)")
    assert "line 1" in str(err.value)
    with pytest.raises(GrammarError):
        parse_tree("(_))")
    with pytest.raises(GrammarError):
        parse_tree("x")
    with pytest.raises(GrammarError):
        parse_forest("_·")


def test_parse_limits_nesting_depth():
    deep = parse_tree("(" * 500 + "_" + ")" * 500)
    assert deep.node_count == 500
    for n in (501, 1200):
        with pytest.raises(GrammarError) as err:
            parse_tree("(" * n + "_" + ")" * n)
        assert "line 1, column 501" in str(err.value)
        with pytest.raises(GrammarError):
            parse_forest("_·" + "(" * n + "_" + ")" * n)


@pytest.mark.parametrize("read, text, message, line, col", [
    (parse_tree, "(" * 501, "nodes nested deeper than 500", 1, 501),
    (parse_tree, "\n" + "(" * 501, "nodes nested deeper than 500", 2, 501),
    (parse_tree, "(_", "unexpected end of input, expected ')'", 1, 3),
    (parse_tree, "(_\n x)", "unexpected character 'x'", 2, 2),
    (parse_tree, "", "unexpected end of input", 1, 1),
    (parse_tree, " \t\n\r\n ", "unexpected end of input", 3, 2),
    (parse_tree, "\rx", "unexpected character 'x'", 1, 2),
    (parse_tree, "(_)\n\t_", "trailing input after tree", 2, 2),
    (parse_forest, "ε\r\n_", "trailing input after empty forest", 2, 1),
    (parse_forest, "_\t_", "expected '·' between forest components", 1, 3),
    (parse_forest, "_·\n\n(x)", "unexpected character 'x'", 3, 2),
    (parse_forest, "_·", "unexpected end of input", 1, 3),
    (parse_forest, "_·" + "(" * 501, "nodes nested deeper than 500", 1, 503),
])
def test_every_grammar_error_names_its_line_and_column(read, text, message, line, col):
    # a column counts characters since the last newline; tab and \r are one
    with pytest.raises(GrammarError) as err:
        read(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_print_roundtrip_at_the_deepest_nesting_parsed():
    text = "(" * MAX_PARSE_DEPTH + "_" + ")" * MAX_PARSE_DEPTH
    assert print_tree(parse_tree(text)) == text
    assert print_forest(parse_forest("_·" + text)) == "_·" + text


def test_parse_assigns_contiguous_ids():
    t = parse_tree("((_)_)")
    assert set(t.edges) == set(range(t.edge_count))
    assert t.root == 0
