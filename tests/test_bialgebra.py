import gc
import hashlib
import itertools
import json
import math
import random
import time
import weakref
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from conftest import (all_builtin_specs, cardinality_series, cut_specs,
                      cycle_generated_s3_spec, partial_blocks_spec, split_block_spec,
                      symmetric_two_colour_spec, triple_left, triple_right,
                      truncated_product, two_colour_spec)
from optrees import bialgebra, pfunctor
from optrees.classical import verify_phi
from optrees.bialgebra import (Bound, BoundMismatch, FdbReport, PairCheck, Series,
                               TensorSeries, counit, counit_left,
                               counit_right, cut_summary, delta_monomial,
                               delta_series, delta_tree, fdb_lhs_coefficient,
                               fdb_rhs_coefficient, flat_cut_summary,
                               format_rational, graft_oracle_agrees, green,
                               profile_powers, series_add, series_mul,
                               series_one, series_powers, tensor_mul,
                               verify_fdb)
from optrees.enumeration import (Bound, enumerate_classes, enumerate_pforests,
                                 enumerate_ptrees)
from optrees.pfunctor import (EMPTY_FOREST_KEY, EndofunctorSpec, PForest,
                              TreeClass, aut_order, aut_order_forest, automorphisms, builtin,
                              cuts_in, parse_ptree, prune_decorated, tree_class,
                              tree_in, trivial_ptree)
from optrees.trees import Cut, cut_node_tuples, enumerate_cuts

EMPTY = EMPTY_FOREST_KEY


def key1(t):
    return (t.key(),)


def standalone_rhs(crown, stump):
    """The RHS read from a leaf-profile power built under the crown's sizes."""
    bound = Bound(max(crown.edge_count(), 1), crown.node_count())
    profile = stump.leaf_profile
    return fdb_rhs_coefficient(crown, stump,
                               profile_powers(stump.spec, bound, [profile]))


# -- coproduct examples -------------------------------------------------------

def test_trivial_tree_is_grouplike(exp3):
    t = trivial_ptree(exp3)
    ts = delta_tree(t)
    assert ts.coeffs == {(key1(t), key1(t)): 1}


def test_ladder_coproduct():
    spec = builtin("identity")
    for n in range(0, 11):
        text = "_"
        for _ in range(n):
            text = f"(n1:{text})"
        xs = [text]
        t = parse_ptree(spec, text)
        ts = delta_tree(t)
        chains = {}
        for i in range(0, n + 1):
            s = "_"
            for _ in range(i):
                s = f"(n1:{s})"
            chains[i] = s
        expected = {((chains[n - i],), (chains[i],)): Fraction(1)
                    for i in range(0, n + 1)}
        assert ts.coeffs == expected


def test_injections_coproduct():
    spec = builtin("constant")
    y = parse_ptree(spec, "(c)")
    x = trivial_ptree(spec)
    ts = delta_tree(y)
    assert ts.coeffs == {(EMPTY, key1(y)): 1, (key1(y), key1(x)): 1}


def test_delta_monomial_unit(exp3):
    ts = delta_monomial(exp3, (), Bound(1))
    assert ts.coeffs == {(EMPTY, EMPTY): 1}
    assert counit(exp3, ()) == 1


def test_injections_binomial_powers():
    spec = builtin("constant")
    y = parse_ptree(spec, "(c)")
    x = trivial_ptree(spec)
    yk, xk = y.key(), x.key()
    for n in range(0, 9):
        mono = tuple(sorted([yk] * n))
        ts = delta_monomial(spec, mono, Bound(max(2 * n, 1)))
        expected = {}
        for k in range(n + 1):
            left = tuple(sorted([yk] * k))
            right = tuple(sorted([yk] * (n - k) + [xk] * k))
            expected[(left, right)] = Fraction(math.comb(n, k))
        assert ts.coeffs == expected


def test_counit_laws():
    bound = Bound(6)
    for spec in all_builtin_specs():
        for t in enumerate_ptrees(spec, bound):
            ts = delta_tree(t, bound)
            left = counit_left(ts)
            right = counit_right(ts)
            assert left.coeffs == {key1(t): 1}
            assert right.coeffs == {key1(t): 1}


def test_counit_values(exp3):
    triv = trivial_ptree(exp3)
    cherry = parse_ptree(exp3, "(n2:__)")
    assert counit(exp3, (triv.key(), triv.key())) == 1
    assert counit(exp3, (cherry.key(),)) == 0


def test_coassociativity():
    for spec in all_builtin_specs():
        bound = Bound(6)
        for t in enumerate_ptrees(spec, bound):
            ts = delta_tree(t, bound)
            assert triple_left(spec, ts, bound) == triple_right(spec, ts, bound)


def test_delta_multiplicative(exp3):
    bound = Bound(8)
    rng = random.Random(2)
    trees = enumerate_ptrees(exp3, Bound(4))
    for _ in range(10):
        f1 = tuple(sorted(t.key() for t in rng.sample(trees, 2)))
        f2 = (rng.choice(trees).key(),)
        if sum(tree_class(exp3, k).edges for k in f1 + f2) > 8:
            continue
        lhs = delta_monomial(exp3, tuple(sorted(f1 + f2)), bound)
        rhs = tensor_mul(delta_monomial(exp3, f1, bound),
                         delta_monomial(exp3, f2, bound))
        assert lhs.coeffs == rhs.coeffs


def test_node_grading_preserved(exp3):
    for t in enumerate_ptrees(exp3, Bound(6)):
        ts = delta_tree(t)
        for (left, right) in ts.coeffs:
            nodes = sum(tree_class(exp3, k).nodes for k in left)
            nodes += sum(tree_class(exp3, k).nodes for k in right)
            assert nodes == t.node_count


CUT_SPECS = cut_specs()


def fresh(template):
    """A copy of the spec with an empty class table."""
    return EndofunctorSpec(template.colours, template.ops, name=template.name)


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_recursive_cut_summary_equals_flat_count(template):
    # The largest trees go first: their summaries fill those of their
    # subtree classes, which the smaller trees then read.
    spec = fresh(template)
    trees = sorted(enumerate_ptrees(spec, Bound(8)),
                   key=lambda t: -t.edge_count)
    for t in trees:
        assert cut_summary(t) == flat_cut_summary(t), t.key()


def test_recursive_cut_summary_of_trees_outside_the_table():
    # No enumeration: every record is composed along the parsed tree.
    for spec, text in [
            (builtin("exp", max_arity=3),
             "(n3:(n2:(n1:_)(n1:_))(n2:(n1:_)(n1:_))(n2:(n1:_)(n1:_)))"),
            (builtin("cyclic", max_arity=3), "(n3:(n2:__)(n2:__)(n3:___))"),
            (symmetric_two_colour_spec(), "(g:(f:_(h))(f:_(h))(g:(f:_a_b)_a(h)))"),
            (builtin("identity"), "(n1:" * 40 + "_" + ")" * 40)]:
        t = parse_ptree(spec, text)
        assert cut_summary(t) == flat_cut_summary(t), text


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_cut_tables_do_not_depend_on_the_order_they_are_filled(template):
    # Deep-first: each large class fills its subtree classes' tables on the
    # way.  Shallow-first: every class reads tables that are already full.
    tables = []
    for largest_first in (True, False):
        classes = sorted(enumerate_classes(fresh(template), Bound(7, 5)),
                         key=lambda c: (c.edges, c.key), reverse=largest_first)
        table = {}
        tables.append({c.key: cuts_in(c, table) for c in classes})
    assert tables[0] == tables[1]


def test_equal_cut_keys_are_one_object():
    spec, table = fresh(builtin("planar", max_arity=3)), {}
    pair = (("(n2:__)", "_"), "(n2:__)")
    left, right = (next(k for k in cuts_in(tree_class(spec, key), table) if k == pair)
                   for key in ("(n2:(n2:__)_)", "(n2:_(n2:__))"))
    assert left is right
    # every key, crown and stump of every table is the call table's one copy
    pairs, crowns, stumps, entries = {}, {}, {}, 0
    for c in enumerate_classes(spec, Bound(6, 4)):
        for key in cuts_in(c, table):
            crown, stump = key
            assert pairs.setdefault(key, key) is key
            assert crowns.setdefault(crown, crown) is crown
            assert stumps.setdefault(stump, stump) is stump
            entries += 1
    assert len(pairs) < entries


def test_a_wide_symmetric_corolla_has_one_term_per_number_of_cut_leaves():
    # the 2**24 combinations of the children's cut tables fold into 25
    # states, one per number of cut children
    k = 24
    spec = builtin("exp", max_arity=k)
    t = parse_ptree(spec, f"(n{k}:" + "(n0)" * k + ")")
    start = time.perf_counter()
    ts = delta_tree(t)
    elapsed = time.perf_counter() - start
    expected = {((t.key(),), ("_",)): 1}
    for j in range(k + 1):
        stump = f"(n{k}:" + "(n0)" * (k - j) + "_" * j + ")"
        expected[(("(n0)",) * j, (stump,))] = math.comb(k, j)
    assert ts.coeffs == expected
    assert elapsed < 1


RECORD_FIELDS = ("spec", "key", "op", "children", "edges", "nodes", "leaves",
                 "root", "leaf_profile", "aut")


def snapshot(spec):
    return {c.key: (c, tuple(getattr(c, f) for f in TreeClass.__slots__))
            for c in spec.classes.values()}


@pytest.mark.parametrize("run", [
    lambda spec: delta_series(green(spec, Bound(7, 5))),
    lambda spec: verify_phi(spec, 4, Bound(7)),
    lambda spec: [cut_summary(t) for t in enumerate_ptrees(spec, Bound(7))],
], ids=["delta_series", "verify_phi", "cut_summary"])
def test_a_record_holds_only_its_invariants(run):
    assert sorted(TreeClass.__slots__) == sorted(RECORD_FIELDS)
    spec = fresh(builtin("effective", 3))
    enumerate_classes(spec, Bound(7))
    before = snapshot(spec)
    assert not hasattr(next(iter(spec.classes.values())), "__dict__")
    run(spec)
    after = snapshot(spec)
    assert {k: after[k] for k in before} == before
    for k, (c, fields) in before.items():
        assert after[k][0] is c and all(
            x is y for x, y in zip(after[k][1], fields)), k


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_two_walks_compose_a_graft_past_the_budget_alike(template):
    # each walk keeps the grafts past the enumerated bound in its own memo,
    # so two walks compose two records of one class: equal in key, fields
    # and cut table, and neither in the class table
    spec, nodes, edges = fresh(template), 4, 4
    candidates = crown_candidates(spec, nodes, edges)
    first, second = [{c.key: c for s, _ in listed_pairs(spec, nodes, edges)
                      for grafts in bialgebra.stump_grafts(
                          s, candidates, nodes - s.nodes, edges).values()
                      for c in grafts if c.edges > edges} for _ in range(2)]
    assert first.keys() == second.keys()
    assert first or template.name in ("constant", "trivial")
    for k, c in first.items():
        again = second[k]
        assert again is not c and k not in spec.classes
        fields = ("op", "edges", "nodes", "leaves", "root", "leaf_profile", "aut")
        assert [getattr(again, f) for f in fields] == [getattr(c, f) for f in fields]
        assert cuts_in(again, {}) == cuts_in(c, {}), k


def test_cross_check_detects_a_wrong_recursive_count(monkeypatch):
    # The accumulation route counts cuts flat, so a wrong multiplicity in
    # the recursive count read by the LHS route shows as a cross failure.
    spec = builtin("binary")
    t, s = tree_class(spec, "(n2:(n2:__)_)"), tree_class(spec, "(n2:__)")
    pair = (("(n2:__)", "_"), "(n2:__)")
    count = bialgebra.stump_cuts
    assert count(t, s, {}) == {pair[0]: 1}

    def one_too_many(u, v, memo):
        found = count(u, v, memo)
        return {pair[0]: 2} if (u, v) == (t, s) else found

    monkeypatch.setattr(bialgebra, "stump_cuts", one_too_many)
    rep = verify_fdb(spec, max_total_nodes=3, max_edges_side=5)
    assert rep.cross_failed > 0
    assert any(p.crown == pair[0] and p.stump == pair[1] and not p.passed
               for p in rep.pairs)


@pytest.mark.parametrize("template", CUT_SPECS + [builtin("cyclic", max_arity=4)],
                         ids=lambda s: s.name)
def test_stump_cuts_equal_the_flat_count_of_each_stump(template):
    # Every class's count down each of its stumps is its flat cut count
    # restricted to that stump; down any other record the count is empty.
    spec = fresh(template)
    classes = enumerate_classes(spec, Bound(7))
    others = enumerate_classes(spec, Bound(5))
    memo, stumps_seen = {}, 0
    for t in classes:
        by_stump = {}
        for (crown, stump), m in flat_cut_summary(tree_in(t, {})).items():
            by_stump.setdefault(stump, {})[crown] = m
        for stump, crowns in by_stump.items():
            s = tree_class(spec, stump)
            assert bialgebra.stump_cuts(t, s, memo) == crowns, (t.key, stump)
        for u in others:
            if u.key not in by_stump:
                assert bialgebra.stump_cuts(t, u, memo) == {}, (t.key, u.key)
        stumps_seen += len(by_stump)
    assert stumps_seen > len(classes) or len(classes) == 1


@pytest.mark.parametrize("template, rooted", [
    (builtin("planar", 3), None), (builtin("exp", 3), None),
    (two_colour_spec(), "a"), (two_colour_spec(), "b")],
    ids=["planar(3)", "exp(3)", "two-colour-a", "two-colour-b"])
def test_the_fdb_path_fills_no_cut_table(monkeypatch, template, rooted):
    spec, read, memos = fresh(template), [], {}

    def fill(c, table):
        read.append(c.key)
        raise AssertionError("a cut table was filled")

    monkeypatch.setattr(pfunctor, "cuts_in", fill)
    monkeypatch.setattr(bialgebra, "cuts_in", fill)
    count = bialgebra.stump_cuts

    def recording(t, s, memo):
        memos[id(memo)] = memo
        return count(t, s, memo)

    monkeypatch.setattr(bialgebra, "stump_cuts", recording)
    rep = verify_fdb(spec, 4, 6, rooted)
    assert rep.passed and rep.pairs
    assert read == []
    # once the check returns, nothing but this list holds a count's memo
    held = list(memos.values())
    memos.clear()
    assert len(held) > 1
    assert all(r is held for r in gc.get_referrers(*held))


def test_the_stump_loop_runs_with_no_tree_alive(monkeypatch):
    # the accumulation route builds its trees in ``enumerate_ptrees``'s
    # table and the graft oracle in one for its sample, and both are freed,
    # so no built tree is alive while the stump loop runs, nor in a second
    # check of the spec; a tree's diagram is held by the tree alone
    spec, built, held = fresh(builtin("planar", 3)), [], []
    build, checks = pfunctor.build_ptree, bialgebra._stump_checks

    def building(*args):
        t = build(*args)
        built.append(weakref.ref(t.shape))
        return t

    def recording(s, *rest):
        held.append(sum(r() is not None for r in built))
        return checks(s, *rest)

    monkeypatch.setattr(pfunctor, "build_ptree", building)
    monkeypatch.setattr(bialgebra, "_stump_checks", recording)
    for _ in range(2):
        assert verify_fdb(spec, 4, 6).passed
    assert len(held) > 2 and len(built) > 100 and not any(held)


@pytest.mark.parametrize("rooted", [None, "o"], ids=["unrooted", "rooted"])
def test_the_check_removes_the_graft_records_past_the_budget(monkeypatch, rooted):
    spec, edges = fresh(builtin("planar", 3)), 6
    composed = []
    compose = spec.compose
    monkeypatch.setattr(spec, "compose",
                        lambda *args: composed.append(compose(*args)) or composed[-1])
    rep = verify_fdb(spec, 4, edges, rooted)
    assert rep.passed and rep.pairs
    past = {c.key for c in composed if c.edges > edges}
    assert past and past.isdisjoint(spec.classes)
    assert all(spec.classes[d.key] is d
               for c in spec.classes.values() for d in c.children)
    # a second check composes those records again, into its own memo
    composed.clear()
    assert verify_fdb(spec, 4, edges, rooted).as_doc() == rep.as_doc()
    assert {c.key for c in composed if c.edges > edges} == past
    assert past.isdisjoint(spec.classes)


def test_two_interleaved_checks_each_give_the_pairs_of_a_check_alone():
    # check A starts and yields a pair; check B runs 400 pairs; A finishes,
    # then B.  Neither takes a record out of the class table that the other
    # enumerated, or leaves a graft past both budgets in it
    template = builtin("cyclic", 3)
    spec = fresh(template)
    a, b = FdbReport(spec.name, 4, 5, None), FdbReport(spec.name, 5, 8, None)
    checks_a, checks_b = bialgebra.fdb_checks(spec, a), bialgebra.fdb_checks(spec, b)
    pairs_a = [next(checks_a)]
    pairs_b = list(itertools.islice(checks_b, 400))
    pairs_a += checks_a
    pairs_b += checks_b
    for report, pairs in [(a, pairs_a), (b, pairs_b)]:
        alone = verify_fdb(fresh(template), report.max_total_nodes, report.max_edges_side)
        assert report.passed and report.frame() == alone.frame()
        assert [p.as_doc() for p in pairs] == [p.as_doc() for p in alone.pairs]
    assert all(spec.classes[c.key] is c for c in enumerate_classes(spec, Bound(8, 5)))
    assert max(c.edges for c in spec.classes.values()) <= 8


def test_an_enumeration_while_a_check_is_paused_stays_in_the_class_table():
    spec = fresh(builtin("planar", 3))
    report = FdbReport(spec.name, 4, 5, None)
    checks = bialgebra.fdb_checks(spec, report)
    next(checks)
    records = enumerate_classes(spec, Bound(8))
    assert len(records) == 6016
    assert list(checks) and report.passed
    assert all(spec.classes[c.key] is c for c in records)
    assert all(tree_class(spec, c.key) is c for c in records)
    assert max(c.edges for c in spec.classes.values()) <= 8


def test_a_walk_reaches_one_record_per_class_when_the_class_table_grows_between_walks():
    # the walk of (n2:__) composes (n2:(n1:(n1:_))(n1:_)), 7 edges, into
    # the shared memo; an enumeration then puts the class in the class
    # table.  The walk of (n2:(n1:_)(n1:_)) meets it for the crown
    # (n1:_)·_ through the memo and, with its children swapped, through
    # ``compose``: both must give the memo's record, or it counts twice
    spec, nodes, edges = fresh(builtin("exp", 3)), 4, 5
    candidates, memo = crown_candidates(spec, nodes, edges), defaultdict(dict)
    first, second = tree_class(spec, "(n2:__)"), tree_class(spec, "(n2:(n1:_)(n1:_))")
    bialgebra.stump_grafts(first, candidates, nodes - first.nodes, edges, memo)
    enumerate_classes(spec, Bound(2 * edges, nodes))
    walked = bialgebra.stump_grafts(second, candidates, nodes - second.nodes, edges, memo)
    alone = bialgebra.stump_grafts(second, candidates, nodes - second.nodes, edges)
    assert list(walked) == list(alone)
    assert all(by_key(walked[crown]) == by_key(grafts) for crown, grafts in alone.items())


@pytest.mark.parametrize("spec", [builtin("planar", 3), two_colour_spec()],
                         ids=["planar(3)", "two-colour"])
@pytest.mark.parametrize("sample", [1, 7, 200, 10**6, "n-1"])
def test_the_oracle_sample_is_the_evenly_spaced_slice(monkeypatch, spec, sample):
    # both spot-check samples, the oracle's of the listed pairs and the
    # zero-pair one of the mismatched candidates, hold the m = min(SAMPLE, n)
    # pairs at indices k·n // m of their population; at n = SAMPLE + 1 (the
    # "n-1" case) a stride rule would take only ⌈n / 2⌉ of them
    nodes, edges = 4, 6
    listed = listed_pairs(spec, nodes, edges)
    monkeypatch.setattr(bialgebra, "SAMPLE", 10**9)
    for population, sample_of in [
            ([(s.key, f.keys) for s, crowns in listed for f in crowns],
             lambda: [(s.key, f.keys) for s, f in bialgebra._evenly_spaced(listed)]),
            (zero_pair_sample(spec, nodes, edges),
             lambda: zero_pair_sample(spec, nodes, edges))]:
        n = len(population)
        size = n - 1 if sample == "n-1" else sample
        m = min(size, n)
        monkeypatch.setattr(bialgebra, "SAMPLE", size)
        assert n > 20
        assert sample_of() == [population[k * n // m] for k in range(m)]
    assert bialgebra._evenly_spaced([]) == []
    assert bialgebra._evenly_spaced([(s, []) for s, _ in listed]) == []


def test_rooted_mode_checks_every_accumulated_pair(monkeypatch, two_colour):
    # A pair the accumulation finds but no route checks is a cross failure
    # when its stump has the rooted colour.
    accumulate = bialgebra._direct_accumulation
    unchecked = (("_a", "_a"), "_a")

    def with_unchecked_pair(*args):
        acc = accumulate(*args)
        assert unchecked not in acc
        acc[unchecked] = Fraction(1)
        return acc

    monkeypatch.setattr(bialgebra, "_direct_accumulation", with_unchecked_pair)
    assert verify_fdb(two_colour, max_total_nodes=3, max_edges_side=4,
                      rooted="a").cross_failed >= 1
    assert verify_fdb(two_colour, max_total_nodes=3, max_edges_side=4,
                      rooted="b").cross_failed == 0


def test_route_three_weights_trees_by_their_own_aut(monkeypatch):
    # route 3 reads no class record's |Aut|: with every node stabiliser
    # doubled in the records, its accumulation is unchanged
    expected = bialgebra._direct_accumulation(builtin("exp", max_arity=3), 4, 6)
    init = TreeClass.__init__

    def doubled(self, spec, key, root, op=None, children=(), stabiliser=1):
        init(self, spec, key, root, op, children,
             stabiliser if op is None else 2 * stabiliser)

    monkeypatch.setattr(TreeClass, "__init__", doubled)
    spec = builtin("exp", max_arity=3)
    assert bialgebra._direct_accumulation(spec, 4, 6) == expected
    assert tree_class(spec, "(n2:__)").aut == 4  # the patch took effect


def test_route_three_frees_each_tree_once_it_is_counted(monkeypatch):
    # a tree's diagram is held by the tree alone, so a dead weak reference
    # to it shows the tree is freed
    spec = builtin("planar", 3)
    expected = bialgebra._direct_accumulation(spec, 4, 6)
    count, first, alive = bialgebra.flat_cut_summary, [], []

    def recording(t):
        if not first:
            assert t.node_count > 0  # no record keeps it
            first.append(weakref.ref(t.shape))
        alive.append(first[0]() is not None)
        return count(t)

    monkeypatch.setattr(bialgebra, "flat_cut_summary", recording)
    assert bialgebra._direct_accumulation(spec, 4, 6) == expected
    assert len(alive) > 100
    assert alive == [True] + [False] * (len(alive) - 1)


@pytest.mark.parametrize("template", [builtin("exp", max_arity=3),
                                      builtin("cyclic", max_arity=3),
                                      symmetric_two_colour_spec()],
                         ids=lambda s: s.name)
def test_integer_sums_equal_the_sums_of_fractions(template):
    # Both routes sum integer numerators over a common denominator; the
    # terms summed as fractions give the same coefficients.
    spec = fresh(template)
    forests = enumerate_pforests(spec, Bound(6, 4))
    mixed, table = 0, {}
    for s in enumerate_classes(spec, Bound(6, 4)):
        for f in (f for f in forests if f.root_profile() == s.leaf_profile):
            terms = [(m, c.aut) for c in bialgebra.graft_classes(f, s)
                     if (m := cuts_in(c, table).get((f.keys, s.key)))]
            mixed += len({aut for _, aut in terms}) > 1
            assert fdb_lhs_coefficient(f, s) == sum(
                (Fraction(m, aut) for m, aut in terms), Fraction(0))
    assert mixed  # some pair sums graft classes of unequal |Aut|
    expected = {}
    for t in enumerate_ptrees(spec, Bound(6, 4)):
        for pair, mult in flat_cut_summary(t).items():
            expected[pair] = expected.get(pair, 0) + Fraction(mult, aut_order(t))
    assert bialgebra._direct_accumulation(spec, 4, 6) == expected


def pruned_cut_summary(t):
    """The cut summary by pruning: each cut's parts are built as trees of
    their own and canonicalised from scratch."""
    counter = {}
    for cut in enumerate_cuts(t.shape):
        comps, stump, _ = prune_decorated(t, cut.kept)
        pair = (tuple(sorted(c.key() for c in comps)), stump.key())
        counter[pair] = counter.get(pair, 0) + 1
    return counter


FLAT_SPECS = all_builtin_specs() + [two_colour_spec(), symmetric_two_colour_spec(),
                                    cycle_generated_s3_spec()]


@pytest.mark.parametrize("spec", FLAT_SPECS, ids=lambda s: s.name)
def test_flat_cut_summary_equals_the_pruned_count(spec):
    trees = enumerate_ptrees(spec, Bound(7, 4))
    assert any(t.node_count == 0 for t in trees)
    for t in trees:
        assert flat_cut_summary(t) == pruned_cut_summary(t), t.key()


@pytest.mark.parametrize("spec", FLAT_SPECS, ids=lambda s: s.name)
def test_route_three_counts_the_kept_nodes_of_every_cut(spec):
    # the kept-node tuples route 3 codes are the cuts' tuples, as a
    # multiset, each top down as the coder needs
    for t in enumerate_ptrees(spec, Bound(7, 4)):
        tuples, cuts = cut_node_tuples(t.shape), enumerate_cuts(t.shape)
        assert Counter(tuples) == Counter(c.nodes for c in cuts), t.key()
        assert all(c.nodes == Cut(t.shape, c.kept).nodes for c in cuts)


def test_flat_cut_summary_of_a_trivial_tree_and_two_coloured_leaves(two_colour):
    trivial = trivial_ptree(two_colour, "b")
    assert flat_cut_summary(trivial) == pruned_cut_summary(trivial) == {
        (("_b",), "_b"): 1}
    t = parse_ptree(two_colour, "(g:(f:__)_)")
    assert flat_cut_summary(t) == pruned_cut_summary(t) == {
        (("(g:(f:__)_)",), "_b"): 1,
        (("(f:__)", "_b"), "(g:__)"): 1,
        (("_a", "_b", "_b"), "(g:(f:__)_)"): 1}


def test_flat_cut_count_reads_no_record(monkeypatch):
    # A wrong key on every enumerated tree and empty composed cut tables
    # leave the flat count, and route 3 built on it, unchanged.
    spec = builtin("cyclic", max_arity=3)
    trees = enumerate_ptrees(spec, Bound(6, 4))
    expected = [flat_cut_summary(t) for t in trees]
    accumulated = bialgebra._direct_accumulation(spec, 4, 6)
    for t in trees:
        t._key = "(wrong)"
    monkeypatch.setattr(bialgebra, "cuts_in", lambda c, table: {})
    assert cut_summary(trees[-1]) == {}  # the patch took effect
    assert [flat_cut_summary(t) for t in trees] == expected
    assert bialgebra._direct_accumulation(spec, 4, 6) == accumulated


def test_graft_oracle_catches_a_graft_on_the_wrong_leaf(monkeypatch):
    spec = builtin("planar", max_arity=3)
    stump = tree_class(spec, "(n2:__)")
    crown = PForest.from_keys(spec, ["(n2:__)", "_"])
    graft = bialgebra.graft_decorated

    def onto_the_wrong_leaf(stump, assignment):
        leaves = sorted(assignment)
        return graft(stump, {leaf: assignment[other]
                             for leaf, other in zip(leaves, leaves[::-1])})

    verdicts = []
    for empty_cuts in (False, True):
        with monkeypatch.context() as m:
            if empty_cuts:
                m.setattr(bialgebra, "cuts_in", lambda c, table: {})
            grafts = bialgebra.graft_classes(crown, stump)
            right = graft_oracle_agrees(stump, crown, grafts, {})
            m.setattr(bialgebra, "graft_decorated", onto_the_wrong_leaf)
            verdicts.append((right, graft_oracle_agrees(stump, crown, grafts, {})))
    assert verdicts == [(True, False), (True, False)]


def test_graft_oracle_rejects_a_record_whose_filling_is_wrong(monkeypatch):
    # The tree t is grafted onto the stump S = (n2:(n2:__)_) from the crown
    # F = {_, _, S} and from F2 = {A, A, _}, A = (n2:__).  The oracle of
    # (F, S) must reject t's record when its filling lands on the wrong
    # leaves (another tree is grafted), and when it is F2's filling: t is
    # grafted, and another cut of t gives (F, S), but its grafting cut gives
    # (F2, S).
    spec = builtin("exp", max_arity=2)
    a, b = "(n2:__)", "(n2:(n2:__)_)"
    stump, crown = tree_class(spec, b), PForest.from_keys(spec, ["_", "_", b])
    other = PForest.from_keys(spec, [a, a, "_"])
    t = "(n2:(n2:(n2:__)_)(n2:__))"
    honest = bialgebra.graft_classes
    fillings = {f.keys: {c.key: filling for c, filling in honest(f, stump).items()}
                for f in (crown, other)}
    right = fillings[crown.keys][t]
    assert t in fillings[other.keys] and right != right[::-1]
    monkeypatch.setattr(bialgebra, "SAMPLE", 10**6)  # every listed pair
    walk, verdicts = bialgebra.stump_grafts, []
    for forged in (None, right[::-1], fillings[other.keys][t]):
        def forging(s, *args, forged=forged):
            # the walk's map for the pair gives t's record the forged filling
            out = walk(s, *args)
            if forged is not None and s.key == stump.key and crown.keys in out:
                out[crown.keys] = {c: forged if c.key == t else filling
                                   for c, filling in out[crown.keys].items()}
            return out
        monkeypatch.setattr(bialgebra, "stump_grafts", forging)
        report = verify_fdb(spec, 4, 7)
        verdicts.append((graft_oracle_agrees(stump, crown, honest(crown, stump), {}),
                         report.failed, report.cross_failed))
    assert verdicts == [(True, 0, 0), (False, 0, 1), (False, 0, 1)]


@pytest.mark.parametrize("template", [builtin("planar", 3), builtin("binary")],
                         ids=lambda s: s.name)
def test_the_oracle_checks_the_records_the_lhs_summed(monkeypatch, template):
    # each sampled pair's oracle reads the records of its stump's walk, the
    # ones the LHS summed, so even a graft record that the class table
    # lacks, which only the walks' memo holds, is the very object both read
    spec, summed, checked = fresh(template), {}, {}
    lhs, oracle = bialgebra.fdb_lhs_ratio, bialgebra.graft_oracle_agrees

    def summing(crown, stump, grafts=None, memo=None):
        if grafts is not None:
            summed[crown.keys, stump.key] = list(grafts)
        return lhs(crown, stump, grafts, memo)

    def checking(stump, crown, *rest):
        checked[crown.keys, stump.key] = list(rest[0])
        return oracle(stump, crown, *rest)

    monkeypatch.setattr(bialgebra, "fdb_lhs_ratio", summing)
    monkeypatch.setattr(bialgebra, "graft_oracle_agrees", checking)
    assert verify_fdb(spec, 3, 4).passed
    assert checked
    for pair, records in checked.items():
        assert len(records) == len(summed[pair]), pair
        assert all(a is b for a, b in zip(records, summed[pair])), pair
    assert any(c.key not in spec.classes for records in checked.values() for c in records)


def test_a_records_tree_is_built_from_its_children_when_a_parse_of_its_key_is_interned():
    # enumeration composes the class with its children in the order
    # _, _, (n1:_); a parse of the key has them in the key's order, so a
    # tree taken from the parse would put the oracle's grafts on other
    # leaves than the composed record's
    spec = builtin("exp", max_arity=3)
    enumerate_classes(spec, Bound(6))
    k = "(n3:(n1:_)__)"
    record = spec.classes[k]
    assert [c.key for c in record.children] == ["_", "_", "(n1:_)"]
    parsed = parse_ptree(spec, k)
    assert bialgebra.intern(parsed) is record

    def leaf_slots(t):
        shape = t.shape
        return [e in shape.leaves for e in shape.node_inputs[shape.node_above[shape.root]]]
    assert leaf_slots(parsed) == [False, True, True]
    assert leaf_slots(tree_in(record, {})) == [True, True, False]
    fitting = [f for f in enumerate_pforests(spec, Bound(4))
               if f.root_profile() == record.leaf_profile]
    assert len(fitting) > 8
    for f in fitting:
        assert graft_oracle_agrees(record, f, bialgebra.graft_classes(f, record), {}), f


def test_graft_record_fills_leaves_in_slot_order_colour_by_colour(two_colour):
    # the stump's leaves, in slot order, have colours a, b, a, b
    stump = tree_class(two_colour, "(f:(f:__)(g:__))")
    crown = PForest.from_keys(two_colour, ["(f:__)", "_a", "_b", "(g:__)"])
    record = tree_class(two_colour, "(f:(f:(f:__)_)(g:_(g:__)))")
    assert bialgebra.graft_classes(crown, stump)[record] == (
        "(f:__)", "_b", "_a", "(g:__)")


def crown_candidates(spec, nodes, edges):
    """The walk's crown candidates in ``verify_fdb``: the classes within
    the side budget."""
    return bialgebra._crown_candidates(enumerate_classes(spec, Bound(edges, nodes)))


def listed_pairs(spec, nodes, edges):
    """Each stump of the pair space with its profile-matched fitting crowns."""
    return bialgebra._fdb_pair_space(spec, nodes, edges, None)[0]


def zero_pair_sample(spec, nodes, edges):
    """The (stump, crown) keys of the pair space's profile-mismatched sample."""
    return [(s.key, f.keys) for s, f in bialgebra._fdb_pair_space(spec, nodes, edges, None)[1]]


def by_key(grafts):
    """A walk's graft records of one crown as (key, filling), in order: two
    walks with memos of their own compose two records of a class the class
    table lacks."""
    return [(c.key, filling) for c, filling in grafts.items()]


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_stump_walk_reaches_the_listed_pairs_with_their_single_pair_grafts(template):
    # one walk per stump reaches exactly the stump's crowns of the
    # ``enumerate_pforests`` task list, each with the graft classes and
    # fillings of the walk restricted to that crown, so both give one LHS
    spec, nodes, edges = fresh(template), 4, 6
    candidates, listed = crown_candidates(spec, nodes, edges), 0
    for s, crowns in listed_pairs(spec, nodes, edges):
        grafts = bialgebra.stump_grafts(s, candidates, nodes - s.nodes, edges)
        assert set(grafts) == {f.keys for f in crowns}, s.key
        for f in crowns:
            assert by_key(grafts[f.keys]) == by_key(bialgebra.graft_classes(f, s)), \
                (f.keys, s.key)
            assert (fdb_lhs_coefficient(f, s, grafts[f.keys])
                    == fdb_lhs_coefficient(f, s)), (f.keys, s.key)
            listed += 1
    assert listed


@pytest.mark.parametrize("template", CUT_SPECS + [builtin("cyclic", max_arity=4)],
                         ids=lambda s: s.name)
def test_a_composite_memo_shared_by_every_walk_changes_no_walk(template):
    # each stump's walk with one memo kept across all stumps gives the map
    # of a walk with its own: the crowns in order, each with the same
    # records, in order, and their first fillings (the specs include
    # split-block, whose swapped slots are not adjacent)
    spec, nodes, edges = fresh(template), 4, 6
    candidates, memo = crown_candidates(spec, nodes, edges), defaultdict(dict)
    stumps = [s for s, _ in listed_pairs(spec, nodes, edges)]
    shared = [bialgebra.stump_grafts(s, candidates, nodes - s.nodes, edges, memo)
              for s in stumps]
    # only a stump with a node above a leaf composes; ``None`` keeps the
    # records that the class table lacks
    ops = [op for op in memo if op is not None]
    assert bool(ops) == any(s.op is not None and s.leaves for s in stumps)
    assert all(c.op == op and c is spec.compose(op, children, memo[None])
               for op in ops for children, c in memo[op].items())
    assert memo[None].keys().isdisjoint(spec.classes)
    for s, walked in zip(stumps, shared):
        alone = bialgebra.stump_grafts(s, candidates, nodes - s.nodes, edges)
        assert list(walked) == list(alone), s.key
        for crown, grafts in alone.items():
            assert by_key(walked[crown]) == by_key(grafts), (s.key, crown)
            # a record of the class table is the one both walks reach
            assert all(c is d for c, d in zip(walked[crown], grafts)
                       if d.key in spec.classes), (s.key, crown)


@pytest.mark.parametrize("name, shared, stumps, calls", [
    ("planar", True, 238, 985), ("planar", False, 238, 3852),
    ("exp", True, 87, 300), ("exp", False, 87, 985)],
    ids=["planar(3) one memo", "planar(3) a memo per walk",
         "exp(3) one memo", "exp(3) a memo per walk"])
def test_the_walks_compose_each_node_once_per_memo(name, shared, stumps, calls):
    # at (4, 6) a memo shared by the walks of all stumps composes a third to
    # a quarter of what a memo per walk does; under exp's symmetric ops a
    # walk meets one composite in several slot orders, each a hit
    spec, nodes, edges = fresh(builtin(name, 3)), 4, 6
    candidates = crown_candidates(spec, nodes, edges)
    listed = [s for s, _ in listed_pairs(spec, nodes, edges)]
    composed, compose = [], spec.compose
    spec.compose = lambda op, children, table: composed.append(
        (op, children)) or compose(op, children, table)
    memo = defaultdict(dict) if shared else None
    for s in listed:
        bialgebra.stump_grafts(s, candidates, nodes - s.nodes, edges, memo)
    assert (len(listed), len(composed)) == (stumps, calls)
    if shared:
        assert len(set(composed)) == calls == sum(
            len(by_children) for op, by_children in memo.items() if op is not None)


def test_a_pair_only_one_side_reaches_fails_and_is_named(monkeypatch):
    spec, nodes, edges = builtin("exp", max_arity=3), 3, 4
    assert verify_fdb(spec, nodes, edges).passed
    walk, pair = bialgebra.stump_grafts, (("(n2:__)",), "_")

    def dropping_one_filling(stump, *args):
        out = walk(stump, *args)
        if stump.key == pair[1] and pair[0] in out:
            assert len(out.pop(pair[0])) == 1  # the pair's one filling
        return out

    with monkeypatch.context() as m:
        m.setattr(bialgebra, "stump_grafts", dropping_one_filling)
        report = verify_fdb(spec, nodes, edges)
    assert report.failed == 1
    assert [(p.crown, p.stump) for p in report.pairs if not p.passed] == [pair]
    # the other side: the forest enumeration misses the crown, so each walk
    # that reaches it names a pair the task list does not have
    forests = bialgebra.enumerate_pforests
    monkeypatch.setattr(bialgebra, "enumerate_pforests", lambda *args: [
        f for f in forests(*args) if f.keys != pair[0]])
    report = verify_fdb(spec, nodes, edges)
    named = [(p.crown, p.stump) for p in report.pairs if not p.passed]
    assert report.failed == len(named) > 1
    assert {crown for crown, _ in named} == {pair[0]}
    assert pair in named and not report.passed


@pytest.mark.parametrize("name, fillings, results", [
    ("exp", 6872, 6714), ("stable", 132, 126), ("cyclic", 12231, 9149),
    ("partial-blocks", 2041, 2041)])
def test_symmetric_leaf_slots_take_nondecreasing_picks(monkeypatch, name, fillings, results):
    # The leaf slots of one block of an op take their candidates in
    # nondecreasing order, so exp(3) and stable(3) compose far fewer
    # fillings than the 12,689 and 229 orderings of their crown keys, and
    # partial-blocks, whose blocks do not fill its one colour, reaches each
    # class once (3,151 fillings when only whole colours were blocks).
    # cyclic(3)'s rotations of three slots have no blocks: only its binary
    # op's leaves are constrained, and some classes are still reached twice.
    spec = partial_blocks_spec() if name == "partial-blocks" else builtin(name, max_arity=3)
    nodes, edges = 5, 8
    fill, finished = bialgebra._fill, []

    def counted(slots, j, *args):
        finished.append(j == len(slots))
        return fill(slots, j, *args)

    monkeypatch.setattr(bialgebra, "_fill", counted)
    candidates, distinct = crown_candidates(spec, nodes, edges), 0
    for s, _ in listed_pairs(spec, nodes, edges):
        grafts = bialgebra.stump_grafts(s, candidates, nodes - s.nodes, edges)
        distinct += sum(map(len, grafts.values()))
    assert (sum(finished), distinct) == (fillings, results)


@pytest.mark.parametrize("template", [builtin("exp", max_arity=3), two_colour_spec()],
                         ids=lambda s: s.name)
def test_the_lhs_leaves_no_cyclic_garbage(template):
    spec, nodes, edges = fresh(template), 4, 6
    candidates, pairs = crown_candidates(spec, nodes, edges), listed_pairs(spec, nodes, edges)
    gc.disable()
    try:
        gc.collect()
        for s, crowns in pairs:
            grafts = bialgebra.stump_grafts(s, candidates, nodes - s.nodes, edges)
            for f in crowns:
                fdb_lhs_coefficient(f, s, grafts[f.keys])
                fdb_lhs_coefficient(f, s)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("template", [
    builtin("planar", 3), builtin("exp", 3), builtin("cyclic", 3), two_colour_spec(),
    partial_blocks_spec()], ids=lambda s: s.name)
def test_a_check_on_a_fresh_spec_leaves_no_cyclic_garbage(template):
    # the check runs with the collector paused, so what it leaves is only
    # freed by reference counts: the recursive walks must leave no cycle
    spec = fresh(template)
    gc.disable()
    try:
        gc.collect()
        assert verify_fdb(spec, 4, 6).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def fdb_check_gen(spec=None):
    spec = builtin("planar", 3) if spec is None else spec
    return bialgebra.fdb_checks(spec, FdbReport(spec.name, 3, 4, None))


def test_the_check_pauses_the_collector_and_restores_it_when_exhausted():
    checks = fdb_check_gen()
    assert gc.isenabled()
    next(checks)
    assert not gc.isenabled()
    assert list(checks) and gc.isenabled()


def test_the_collector_is_restored_when_a_stage_raises(monkeypatch):
    def broken(*args):
        assert not gc.isenabled()
        raise RuntimeError("stage failed")

    monkeypatch.setattr(bialgebra, "_fdb_pair_space", broken)
    with pytest.raises(RuntimeError, match="stage failed"):
        list(fdb_check_gen())
    assert gc.isenabled()


def test_the_collector_is_restored_when_a_half_read_check_is_closed():
    checks = fdb_check_gen()
    next(checks)
    assert not gc.isenabled()
    checks.close()
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off():
    gc.disable()
    try:
        assert list(fdb_check_gen())
        assert not gc.isenabled()
        checks = fdb_check_gen()
        next(checks)
        checks.close()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", [builtin("planar", 3), two_colour_spec()],
                         ids=["planar(3)", "two-colour"])
def test_fdb_pairs_and_phi_build_no_tree(monkeypatch, spec):
    built = []
    real = pfunctor.build_ptree
    monkeypatch.setattr(pfunctor, "build_ptree",
                        lambda *args: built.append(args) or real(*args))
    nodes, edges = 4, 6
    total = bialgebra._fdb_pair_space(spec, nodes, edges, None)[2]
    stumps = enumerate_classes(spec, Bound(edges, nodes))
    forests = enumerate_pforests(spec, Bound(edges, nodes))
    powers = profile_powers(spec, Bound(edges, nodes), {s.leaf_profile for s in stumps})
    # every in-budget pair: the listed (profile-matched) and the sampled ones
    checks = [bialgebra.check_fdb_pair(f, s, powers) for s in stumps
              for f in forests if f.node_count() <= nodes - s.nodes]
    assert len(checks) == total
    assert all(p.passed for p in checks) and any(p.lhs for p in checks)
    assert verify_phi(builtin("effective", 3), 4, Bound(8)).passed
    assert built == []
    tree_in(max(stumps, key=lambda s: s.nodes), {})  # the count sees trees when they are built
    assert built


# -- green functions -----------------------------------------------------------

def test_green_injections():
    spec = builtin("constant")
    g = green(spec, Bound(6))
    x = trivial_ptree(spec)
    y = parse_ptree(spec, "(c)")
    assert g.coeffs == {key1(x): 1, key1(y): 1}
    g0 = green(spec, Bound(6), leaf_profile=())
    g1 = green(spec, Bound(6), leaf_profile=(("o", 1),))
    assert g0.coeffs == {key1(y): 1}
    assert g1.coeffs == {key1(x): 1}


def test_green_exp_cherry_weight(exp3):
    g = green(exp3, Bound(3))
    cherry = parse_ptree(exp3, "(n2:__)")
    assert g.coeffs[key1(cherry)] == Fraction(1, 2)


def test_green_trivial_spec_grouplike():
    spec = builtin("trivial")
    g = green(spec, Bound(3))
    assert len(g.coeffs) == 1
    ds = delta_series(g)
    key = next(iter(g.coeffs))
    assert ds.coeffs == {(key, key): 1}


def test_green_root_selector(two_colour):
    for colour in two_colour.colours:
        g = green(two_colour, Bound(5), root_colour=colour)
        for k in g.coeffs:
            assert tree_class(two_colour, k[0]).root == colour


# -- series arithmetic -----------------------------------------------------------

def test_series_pow_zero_is_unit(exp3):
    g = green(exp3, Bound(4))
    assert series_powers(g, 0)[0].coeffs == {EMPTY: 1}


def test_injections_g1_coefficient():
    spec = builtin("constant")
    g = green(spec, Bound(4))
    x = trivial_ptree(spec)
    assert series_powers(g, 1)[1].coeffs[key1(x)] == 1


def test_exp_square_cherry_coefficient(exp3):
    # oracle: ordered pairs (T1, T2) with multiset {cherry, cherry} reduce
    # to the single pair (cherry, cherry), weight (1/2)*(1/2); equivalently
    # |matchings| / |Aut(cherry^2)| = 2/8
    g = green(exp3, Bound(6))
    sq = series_mul(g, g)
    cherry = parse_ptree(exp3, "(n2:__)")
    mono = tuple(sorted([cherry.key(), cherry.key()]))
    assert sq.coeffs[mono] == Fraction(1, 4)
    distinct = tuple(sorted([cherry.key(), trivial_ptree(exp3).key()]))
    assert sq.coeffs[distinct] == 2 * Fraction(1, 2) * Fraction(1, 1)


def test_bound_mismatch_rejected(exp3):
    with pytest.raises(BoundMismatch):
        series_mul(green(exp3, Bound(3)), green(exp3, Bound(4)))


def test_bound_messages_keep_their_text(exp3):
    with pytest.raises(BoundMismatch) as info:
        series_mul(green(exp3, Bound(3)), green(exp3, Bound(4)))
    assert str(info.value) == ("bounds differ: Bound(max_edges=3, max_nodes=None) "
                               "vs Bound(max_edges=4, max_nodes=None)")
    crown = PForest.from_keys(exp3, ["(n2:__)", "_"])
    powers = profile_powers(exp3, Bound(3), [(("o", 2),)])
    with pytest.raises(BoundMismatch) as info:
        fdb_rhs_coefficient(crown, tree_class(exp3, "(n2:__)"), powers)
    assert str(info.value) == ("crown (n2:__)·_ exceeds the power's bound "
                               "Bound(max_edges=3, max_nodes=None)")


def test_series_and_report_records(exp3):
    # series drop zero terms and compare by spec and terms
    one = Fraction(1)
    a = Series(exp3, Bound(3), {("_",): one, ("(n2:__)",): Fraction(0)})
    assert a.coeffs == {("_",): one}
    assert a == Series(spec=exp3, bound=Bound(3), coeffs={("_",): one})
    assert a != Series(exp3, Bound(3), {("_",): Fraction(2)})
    t = TensorSeries(exp3, Bound(3), {(EMPTY, ("_",)): one, (("_",), EMPTY): 0})
    assert t.coeffs == {(EMPTY, ("_",)): one} and t != TensorSeries(exp3, Bound(3), {})
    report = FdbReport("exp(3)", 4, 6, None, checked=5, zero_pairs=3)
    assert report.pairs == [] and report.passed
    assert report.frame() == {
        "spec": "exp(3)", "bound": {"max_total_nodes": 4, "max_edges_side": 6},
        "rooted": None, "summary": {"checked": 5, "failed": 0, "zero_pairs": 3,
                                    "cross_checked": 0, "cross_failed": 0}}
    check = PairCheck(("_",), "(n2:__)", (1, 2), (2, 4))
    assert check.reached and check.passed and not hasattr(check, "__dict__")
    assert (check.lhs, check.rhs) == (Fraction(1, 2), Fraction(1, 2))
    assert not PairCheck(("_",), "_", (1, 1), (2, 1)).passed
    assert not PairCheck(("_",), "_", (1, 1), (1, 1), reached=False).passed


def test_series_text_and_equality(exp3):
    # "0" without terms, "1" for the empty monomial, a coefficient written
    # unless it is 1, " ⊗ " between the sides; a series never equals a
    # tensor series, even with equal terms
    bound = Bound(3)
    s = Series(exp3, bound, {EMPTY: 1, ("_",): Fraction(1, 2), ("_", "_"): 1,
                             ("(n2:__)",): Fraction(2)})
    assert s.terms_str() == "1 + 2/1 (n2:__) + 1/2 _ + _·_"
    t = TensorSeries(exp3, bound, {(EMPTY, ("_",)): 1, (("_", "_"), EMPTY): 1,
                                   (("_",), ("(n2:__)",)): Fraction(2, 3)})
    assert t.terms_str() == "1 ⊗ _ + 2/3 _ ⊗ (n2:__) + _·_ ⊗ 1"
    assert Series(exp3, bound, {}).terms_str() == TensorSeries(exp3, bound, {}).terms_str() == "0"
    for terms in ({}, {("_",): 1}):
        a, b = Series(exp3, bound, terms), TensorSeries(exp3, bound, terms)
        assert a != b and b != a and not a == b and not b == a


def random_terms(rng, forests, count):
    """``count`` distinct forests from ``forests`` with random nonzero
    rational coefficients."""
    return {f.keys: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
            for f in rng.sample(forests, min(count, len(forests)))}


@pytest.mark.parametrize("template", [builtin("planar", max_arity=3),
                                      two_colour_spec()],
                         ids=["planar3", "two-colour"])
@pytest.mark.parametrize("seed", range(4))
def test_truncated_products_equal_the_filtered_full_products(template, seed):
    spec = EndofunctorSpec(template.colours, template.ops, name=template.name)
    rng = random.Random(seed)
    forests = enumerate_pforests(spec, Bound(4, 3))
    bound = Bound(rng.randint(5, 7), rng.choice([None, 3, 4]))

    def admitted(left, right):
        return bound.admits_forest(PForest(spec, left)) and (
            right is None or bound.admits_forest(PForest(spec, right)))

    def merge(a, b):
        return tuple(sorted(a + b))

    a, b = (Series(spec, bound, random_terms(rng, forests, 40))
            for _ in range(2))
    full, dropped = {}, 0
    for (k1, c1), (k2, c2) in itertools.product(a.coeffs.items(), b.coeffs.items()):
        key = merge(k1, k2)
        if admitted(key, None):
            full[key] = full.get(key, 0) + c1 * c2
        else:
            dropped += 1
    assert series_mul(a, b) == Series(spec, bound, full)

    ta, tb = (TensorSeries(spec, bound, {
        (left, right): c for (left, c), right in zip(
            random_terms(rng, forests, 30).items(),
            rng.choices([f.keys for f in forests], k=30))}) for _ in range(2))
    full = {}
    for ((l1, r1), c1), ((l2, r2), c2) in itertools.product(
            ta.coeffs.items(), tb.coeffs.items()):
        key = (merge(l1, l2), merge(r1, r2))
        if admitted(*key):
            full[key] = full.get(key, 0) + c1 * c2
        else:
            dropped += 1
    product = tensor_mul(ta, tb)
    assert product == TensorSeries(spec, bound, full)
    assert product.coeffs and dropped  # the bound both keeps and drops terms


def test_series_mul_stops_at_the_edge_bound_and_drops_by_nodes(exp3):
    bound = Bound(6, 3)
    g = green(exp3, bound)
    a = series_add(g, series_mul(g, g))
    dropped_by = set()
    full = {}
    for (k1, c1), (k2, c2) in itertools.product(a.coeffs.items(), g.coeffs.items()):
        f = PForest(exp3, tuple(sorted(k1 + k2)))
        if bound.admits_forest(f):
            full[f.keys] = full.get(f.keys, 0) + c1 * c2
        else:
            dropped_by.add("edges" if f.edge_count() > 6 else "nodes")
    assert dropped_by == {"edges", "nodes"}
    assert series_mul(a, g) == Series(exp3, bound, full)
    assert series_mul(g, a) == Series(exp3, bound, full)


@pytest.mark.parametrize("spec, nodes, edges", [
    (builtin("exp", max_arity=3), 4, 6), (two_colour_spec(), 5, 8)],
    ids=["exp(3)", "two-colour"])
def test_profile_powers_give_the_standalone_rhs(monkeypatch, spec, nodes, edges):
    # every RHS of the check, listed or sampled, is read by ``fdb_rhs_ratio``
    ratio, calls = bialgebra.fdb_rhs_ratio, []

    def recorded(crown, stump, powers):
        value = ratio(crown, stump, powers)
        calls.append((crown, stump, value))
        return value

    monkeypatch.setattr(bialgebra, "fdb_rhs_ratio", recorded)
    report = verify_fdb(spec, nodes, edges)
    monkeypatch.undo()  # the standalone RHS reads the ratio too
    assert report.passed
    listed = sum(s.leaf_profile == f.root_profile() for f, s, _ in calls)
    assert listed and len(calls) > listed  # listed and sampled pairs
    for crown, stump, (num, den) in calls:
        assert standalone_rhs(crown, stump) == Fraction(num, den)


@pytest.mark.parametrize("name, nodes, edges", [("exp", 5, 6), ("planar", 4, 5)])
def test_verify_fdb_sums_each_crowns_sizes_once(monkeypatch, name, nodes, edges):
    # the pair space sums each crown's nodes and route 3 its edges, once per
    # crown; the RHS reads a listed pair's term without summing sizes, so
    # with one sampled pair the size sums follow the crowns, not the pairs
    spec = builtin(name, max_arity=3)
    sized, checked = [], []
    check = bialgebra.check_fdb_pair

    def recorded_check(crown, stump, powers, *rest):
        checked.append((crown.keys, stump.key))
        return check(crown, stump, powers, *rest)

    for size in ("edge_count", "node_count"):
        monkeypatch.setattr(PForest, size, lambda f, real=getattr(PForest, size):
                            sized.append(f.keys) or real(f))
    monkeypatch.setattr(bialgebra, "check_fdb_pair", recorded_check)
    monkeypatch.setattr(bialgebra, "SAMPLE", 1)
    assert verify_fdb(spec, nodes, edges).passed
    crowns = len(enumerate_pforests(spec, Bound(edges, nodes)))
    assert len(checked) > 3 * crowns
    assert len(sized) <= 2 * crowns + 8


def test_rhs_rejects_a_power_that_cuts_the_crown(exp3):
    stump = tree_class(exp3, "(n2:__)")
    crown = PForest.from_keys(exp3, ["(n2:__)", "_"])
    powers = profile_powers(exp3, Bound(3), [(("o", 2),)])
    with pytest.raises(BoundMismatch):
        fdb_rhs_coefficient(crown, stump, powers)
    # 2 orders of the two classes, each weighted 1/2, over |Aut stump| = 2
    assert standalone_rhs(crown, stump) == Fraction(1, 2)
    assert fdb_lhs_coefficient(crown, stump) == Fraction(1, 2)


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_integer_profile_powers_equal_the_fraction_products(template):
    spec, bound = fresh(template), Bound(6, 4)
    profiles = {c.leaf_profile for c in enumerate_classes(spec, bound)} | {()}
    if len(spec.colours) > 1:
        profiles.add(((spec.colours[0], 1), (spec.colours[1], 2)))
    powers = profile_powers(spec, bound, profiles)
    assert set(powers) == profiles
    for profile in profiles:
        expected = series_one(spec, bound)
        for colour, m in profile:
            g = green(spec, bound, root_colour=colour)
            expected = series_mul(expected, series_powers(g, m)[m])
        assert powers[profile].coeffs == expected.coeffs, profile
        assert {type(q) for q in powers[profile].coeffs.values()} <= {Fraction}
    assert powers[()].coeffs == {EMPTY: 1}


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_series_mul_of_integer_scaled_series_is_the_scaled_product(template):
    spec, bound = fresh(template), Bound(6, 4)
    greens = [green(spec, bound, root_colour=c) for c in spec.colours]
    greens.append(series_add(greens[0], series_mul(greens[-1], greens[-1])))
    for a, b in itertools.product(greens, repeat=2):
        da = math.lcm(*(q.denominator for q in a.coeffs.values()))
        db = math.lcm(*(q.denominator for q in b.coeffs.values()))
        product = series_mul(
            Series(spec, bound, {k: int(q * da) for k, q in a.coeffs.items()}),
            Series(spec, bound, {k: int(q * db) for k, q in b.coeffs.items()}))
        assert {type(v) for v in product.coeffs.values()} <= {int}
        assert product.coeffs == {k: q * da * db
                                  for k, q in series_mul(a, b).coeffs.items()}


def test_power_profile_matches_plain_power(exp3):
    bound = Bound(5)
    g = green(exp3, bound)
    for n in range(3):
        a = series_powers(g, n)[n]
        b = profile_powers(exp3, bound, [(("o", n),)])[(("o", n),)]
        assert a.coeffs == b.coeffs


# -- the coefficient identity ---------------------------------------------------

def test_lhs_examples(exp3):
    triv = tree_class(exp3, "_")
    cherry = tree_class(exp3, "(n2:__)")
    crown = PForest.from_keys(exp3, ["_", "_"])
    assert fdb_lhs_coefficient(crown, cherry) == Fraction(1, 2)
    nested = PForest.from_keys(exp3, ["(n2:(n2:__)(n2:__))"])
    assert fdb_lhs_coefficient(nested, triv) == Fraction(1, 8)


def test_lhs_ladder():
    spec = builtin("identity")
    x1 = tree_class(spec, "(n1:_)")
    crown = PForest.from_keys(spec, ["(n1:_)"])
    assert fdb_lhs_coefficient(crown, x1) == 1
    assert standalone_rhs(crown, x1) == 1


def test_rhs_equals_tuple_enumeration_oracle(exp3):
    # independent route: ordered tuples of tree classes with given roots
    trees = enumerate_ptrees(exp3, Bound(4))
    forests = [f for f in enumerate_pforests(exp3, Bound(4))
               if len(f.keys) <= 3]
    assert len(forests) > 30
    for crown in forests:
        n = len(crown.keys)
        by_tuple = Fraction(0)
        for combo in itertools.product(trees, repeat=n):
            if tuple(sorted(t.key() for t in combo)) == crown.keys:
                w = Fraction(1)
                for t in combo:
                    w /= aut_order(t)
                by_tuple += w
        power = series_powers(green(exp3, Bound(max(crown.edge_count(), 1))), n)[n]
        assert power.coefficient(crown.keys) == by_tuple


def test_verify_fdb_small_specs():
    for name in ("constant", "identity", "trivial"):
        rep = verify_fdb(builtin(name), max_total_nodes=4, max_edges_side=6)
        assert rep.passed and rep.failed == 0
        assert rep.checked > 0


def matching_cardinality(crown, stump):
    """The cardinality of the fibre over (crown F, stump S) of the prune
    functor, which maps a tree with a cut to (S, F, a colour-keeping
    matching of S's leaves to F's roots): Π_c m_c(S)! matchings, with m_c(S)
    the leaves of S of colour c, over |Aut F| · |Aut S|; none when F's root
    profile is not S's leaf profile."""
    if crown.root_profile() != stump.leaf_profile:
        return Fraction(0)
    return Fraction(math.prod(math.factorial(m) for _, m in stump.leaf_profile),
                    aut_order_forest(crown) * stump.aut)


@pytest.mark.parametrize("spec, rooted", [
    (builtin("planar", 3), None), (builtin("exp", 3), None), (builtin("stable", 3), None),
    (builtin("cyclic", 3), None), (builtin("binary"), None), (builtin("identity"), None),
    (two_colour_spec(), None), (two_colour_spec(), "a"), (split_block_spec(), None),
    (split_block_spec(), "a"), (partial_blocks_spec(), None)],
    ids=lambda x: getattr(x, "name", f"rooted-{x}" if x else "unrooted"))
def test_every_listed_pair_is_the_cardinality_of_its_matchings(spec, rooted):
    # a third vote, with no walk, cut or series: it also covers the pairs
    # whose grafts exceed the side budget, which the accumulation does not
    report, wrong = verify_fdb(spec, 4, 6, rooted), []
    for p in report.pairs:
        vote = matching_cardinality(PForest(spec, p.crown), tree_class(spec, p.stump))
        if not p.lhs == p.rhs == vote:
            wrong.append((p.crown, p.stump, p.lhs, p.rhs, vote))
    assert report.pairs and wrong == []


@pytest.mark.parametrize("spec", [
    builtin("planar", 3), builtin("exp", 3), builtin("stable", 3), builtin("cyclic", 3),
    builtin("binary"), two_colour_spec(), partial_blocks_spec(), split_block_spec()],
    ids=lambda s: s.name)
def test_each_stumps_lhs_sums_to_its_leaf_profile_power_of_cardinalities(spec):
    # counting is a ring map, so over a stump S's listed crowns F,
    # Σ lhs(F, S) x^edges(F) y^nodes(F) = Π_c g_c^{m_c(S)} / |Aut S| within
    # the crown budget, where g_c counts the trees rooted at c by groupoid
    # cardinality (``cardinality_series``: op colours and group orders only)
    nodes, edges = 4, 6
    report = verify_fdb(spec, nodes, edges)
    lhs = {(p.crown, p.stump): p.lhs for p in report.pairs}
    g = {c: {} for c in spec.colours}
    for (c, e, n), x in cardinality_series(spec, Bound(edges, nodes)).items():
        g[c][e, n] = x
    wrong, leafless = [], 0
    for s, crowns in bialgebra._fdb_pair_space(spec, nodes, edges, None)[0]:
        summed, power = {}, {(0, 0): Fraction(1, s.aut)}
        for f in crowns:
            cell = (f.edge_count(), f.node_count())
            summed[cell] = summed.get(cell, 0) + lhs.get((f.keys, s.key), 0)
        for c, m in s.leaf_profile:
            for _ in range(m):
                power = truncated_product(power, g[c], edges, nodes - s.nodes)
        if {k: v for k, v in summed.items() if v} != {k: v for k, v in power.items() if v}:
            wrong.append(s.key)
        leafless += not s.leaves
    assert report.passed and wrong == []
    assert bool(leafless) == any(not op.ins for op in spec.ops)  # a nullary op's stumps


@pytest.mark.parametrize("spec", [builtin("planar", 3), two_colour_spec()],
                         ids=["planar(3)", "two-colour"])
def test_verify_fdb_lists_pairs_by_stump_then_crown(monkeypatch, spec):
    # the listed pairs, and with them the graft-oracle sample, follow the
    # stumps in order and each stump's fitting crowns in enumeration order
    nodes, edges = 4, 6
    forests = enumerate_pforests(spec, Bound(edges, nodes))
    expected = [(s.key, f.keys) for s in enumerate_classes(spec, Bound(edges, nodes))
                for f in forests if f.root_profile() == s.leaf_profile
                and f.node_count() <= nodes - s.nodes]
    checked, sampled = [], []
    check, oracle = bialgebra.check_fdb_pair, bialgebra.graft_oracle_agrees

    def recorded_check(crown, stump, powers, *rest):
        checked.append((stump.key, crown.keys))
        return check(crown, stump, powers, *rest)

    def recorded_oracle(stump, crown, *rest):
        sampled.append((stump.key, crown.keys))
        return oracle(stump, crown, *rest)

    monkeypatch.setattr(bialgebra, "check_fdb_pair", recorded_check)
    monkeypatch.setattr(bialgebra, "graft_oracle_agrees", recorded_oracle)
    assert verify_fdb(spec, nodes, edges).passed
    assert checked[:len(expected)] == expected
    m = min(bialgebra.SAMPLE, len(expected))
    assert sampled == [expected[k * len(expected) // m] for k in range(m)]


@pytest.mark.parametrize("spec, nodes, edges, sha256", [
    (builtin("cyclic", 3), 5, 8,
     "bc41379361ea70530d38c5947e9dff52484ddc68ad5b0eb51022b693903af470"),
    (two_colour_spec(), 4, 6,
     "46ce1acfa7e7c643362005b3d2eeebe02a77c25968bc1e6ecac809dcfa4ffd12"),
], ids=["cyclic(3)", "two-colour"])
def test_verify_fdb_report_bytes_are_pinned(spec, nodes, edges, sha256):
    doc = verify_fdb(spec, nodes, edges).as_doc()
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_verify_fdb_report_doc():
    rep = verify_fdb(builtin("binary"), max_total_nodes=3, max_edges_side=5)
    doc = rep.as_doc()
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["checked"] >= len(doc["pairs"])
    for p in doc["pairs"]:
        assert set(p) == {"F", "S", "lhs", "rhs", "pass"}
        assert "/" in p["lhs"]


def test_verify_fdb_rooted_two_colour(two_colour):
    for colour in two_colour.colours:
        rep = verify_fdb(two_colour, max_total_nodes=4, max_edges_side=6,
                         rooted=colour)
        assert rep.passed
        for p in rep.pairs:
            assert tree_class(two_colour, p.stump).root == colour


def test_leaf_marked_summand_relation():
    # The leaf-marked summand equals |Aut profile| times the plain leaf
    # summand: for each tree the orbit sum over explicit leaf markings of
    # 1/|stabiliser| must equal |Aut profile| / |Aut T|.
    for spec in [builtin("exp", max_arity=3), two_colour_spec()]:
        bound = Bound(6)
        for t in enumerate_ptrees(spec, bound):
            profile = t.leaf_profile()
            aut_n = 1
            for _, m in profile:
                aut_n *= math.factorial(m)
            leaves = sorted(t.shape.leaves)
            by_colour = {}
            for e in leaves:
                by_colour.setdefault(t.edge_colour[e], []).append(e)
            # markings: per colour, a bijection to marks 0..m-1
            pools = [itertools.permutations(range(len(es)))
                     for es in by_colour.values()]
            markings = []
            groups = list(by_colour.values())
            for combo in itertools.product(*pools):
                mu = {}
                for es, perm in zip(groups, combo):
                    for e, lab in zip(es, perm):
                        mu[e] = (t.edge_colour[e], lab)
                markings.append(mu)
            assert len(markings) == aut_n
            auts = automorphisms(t)
            seen = set()
            orbit_sum = Fraction(0)
            for mu in markings:
                key = frozenset(mu.items())
                if key in seen:
                    continue
                orbit = {frozenset({m[e]: lab for e, lab in mu.items()}.items())
                         for m in auts}
                seen |= orbit
                stab = len(auts) // len(orbit)
                # stabiliser really is the leaf-pointwise-fixing subgroup size
                fixing = sum(1 for m in auts
                             if all(mu[m[e]] == mu[e] for e in leaves))
                assert stab == fixing
                orbit_sum += Fraction(1, stab)
            g = green(spec, bound, leaf_profile=profile)
            assert orbit_sum == aut_n * g.coefficient((t.key(),))


def test_power_profile_multicolour_oracle(two_colour):
    bound, table = Bound(6), {}
    trees_a = [tree_in(c, table) for c in enumerate_classes(two_colour, bound, root_colour="a")]
    trees_b = [tree_in(c, table) for c in enumerate_classes(two_colour, bound, root_colour="b")]
    profile = (("a", 1), ("b", 1))
    power = profile_powers(two_colour, bound, [profile])[profile]
    for ta in trees_a:
        for tb in trees_b:
            if ta.edge_count + tb.edge_count > bound.max_edges:
                continue
            mono = tuple(sorted([ta.key(), tb.key()]))
            expect = Fraction(1, aut_order(ta) * aut_order(tb))
            assert power.coefficient(mono) == expect


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(0)) == "0/1"


# (checked, zero_pairs, cross_checked, listed pairs, oracle-sampled pairs,
# zero-pair-sampled pairs) of verify_fdb at (4, 7) on the six specs of
# acceptance criterion 1.  A faster check must still cover as many pairs by
# every route.
FDB_SIX_COVERAGE = {
    ("identity", None): (117, 102, 15, 15, 15, 35),
    ("constant", None): (56, 53, 3, 3, 3, 14),
    ("binary", None): (159, 125, 23, 34, 34, 63),
    ("planar", 3): (13325, 10799, 1790, 2526, 200, 200),
    ("exp", 3): (4853, 4002, 625, 851, 200, 200),
    ("stable", 3): (236, 195, 24, 41, 41, 63),
}


@pytest.mark.parametrize("name, arity", FDB_SIX_COVERAGE,
                         ids=[n if a is None else f"{n}({a})" for n, a in FDB_SIX_COVERAGE])
def test_fdb_coverage_per_route_is_pinned(monkeypatch, name, arity):
    oracle, lhs, sampled, zero_sampled = (bialgebra.graft_oracle_agrees,
                                          bialgebra.fdb_lhs_coefficient, [], [])

    def counted(*args):
        sampled.append(args[:2])
        return oracle(*args)

    def counted_lhs(crown, stump):  # only the zero-pair spot check calls it
        zero_sampled.append((stump, crown))
        return lhs(crown, stump)

    monkeypatch.setattr(bialgebra, "graft_oracle_agrees", counted)
    monkeypatch.setattr(bialgebra, "fdb_lhs_coefficient", counted_lhs)
    rep = verify_fdb(builtin(name, arity), 4, 7)
    assert rep.failed == rep.cross_failed == 0
    assert (rep.checked, rep.zero_pairs, rep.cross_checked, len(rep.pairs),
            len(set(sampled)), len(set(zero_sampled))) == FDB_SIX_COVERAGE[(name, arity)]


def test_a_fault_only_a_late_stump_shows_fails_the_check(monkeypatch):
    # planar(3) at (4, 7) has 511 stumps; a wrong RHS on the mismatched
    # pairs of the last 100 in key order is seen only if the zero-pair
    # sample reaches them, and each sample holds min(SAMPLE, n) pairs
    spec, nodes, edges = builtin("planar", 3), 4, 7
    stumps = enumerate_classes(spec, Bound(edges, nodes))
    forests = enumerate_pforests(spec, Bound(edges, nodes))
    late = {s.key for s in stumps[-100:]}
    # the fitting crowns of each room, counted by root profile
    fitting = {room: Counter(f.root_profile() for f in forests if f.node_count() <= room)
               for room in {nodes - s.nodes for s in stumps}}
    matched = sum(fitting[nodes - s.nodes][s.leaf_profile] for s in stumps)
    mismatched = sum(len(fitting[nodes - s.nodes].keys() - {s.leaf_profile}) for s in stumps)
    rhs, oracle, oracle_sampled, zero_sampled = (bialgebra.fdb_rhs_coefficient,
                                                 bialgebra.graft_oracle_agrees, [], [])

    def planted(crown, stump, powers):
        zero_sampled.append((stump.key, crown.keys))
        if crown.root_profile() != stump.leaf_profile and stump.key in late:
            return Fraction(1)
        return rhs(crown, stump, powers)

    def counted(stump, crown, *rest):
        oracle_sampled.append((stump.key, crown.keys))
        return oracle(stump, crown, *rest)

    monkeypatch.setattr(bialgebra, "fdb_rhs_coefficient", planted)
    monkeypatch.setattr(bialgebra, "graft_oracle_agrees", counted)
    rep = verify_fdb(spec, nodes, edges)
    assert not rep.passed and rep.failed > 0 and rep.cross_failed == 0
    assert len(stumps) == 511 and mismatched > matched > bialgebra.SAMPLE
    assert len(set(zero_sampled)) == len(zero_sampled) == bialgebra.SAMPLE
    assert len(set(oracle_sampled)) == len(oracle_sampled) == bialgebra.SAMPLE
    kept = len(rep.pairs) - rep.failed
    assert all(p.passed for p in rep.pairs[:kept]) and rep.pairs[:kept] != []
    assert all(not p.passed and p.stump in late for p in rep.pairs[kept:])
