import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (all_builtin_specs, cycle_generated_s3_spec,
                      symmetric_two_colour_spec, triple_left, triple_right,
                      two_colour_spec)
from optrees import bialgebra
from optrees.bialgebra import (Bound, BoundMismatch, Series, TensorSeries,
                               counit, counit_left,
                               counit_right, cut_summary, delta_monomial,
                               delta_series, delta_tree, fdb_lhs_coefficient,
                               fdb_rhs_coefficient, flat_cut_summary,
                               format_rational, graft_oracle_agrees, green,
                               profile_powers, series_add, series_mul,
                               series_powers, tensor_mul, verify_fdb)
from optrees.enumeration import (Bound, enumerate_classes, enumerate_pforests,
                                 enumerate_ptrees)
from optrees.pfunctor import (EMPTY_FOREST_KEY, EndofunctorSpec, PForest,
                              TreeClass, aut_order, automorphisms, builtin,
                              parse_ptree, prune_decorated, representative,
                              tree_class, trivial_ptree)
from optrees.trees import enumerate_cuts

EMPTY = EMPTY_FOREST_KEY


def key1(t):
    return (t.key(),)


def standalone_rhs(crown, stump):
    """The RHS read from a leaf-profile power built under the crown's sizes."""
    bound = Bound(max(crown.edge_count(), 1), crown.node_count())
    profile = stump.leaf_profile()
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
        if sum(representative(exp3, k).edge_count for k in f1 + f2) > 8:
            continue
        lhs = delta_monomial(exp3, tuple(sorted(f1 + f2)), bound)
        rhs = tensor_mul(delta_monomial(exp3, f1, bound),
                         delta_monomial(exp3, f2, bound))
        assert lhs.coeffs == rhs.coeffs


def test_node_grading_preserved(exp3):
    for t in enumerate_ptrees(exp3, Bound(6)):
        ts = delta_tree(t)
        for (left, right) in ts.coeffs:
            nodes = sum(representative(exp3, k).node_count for k in left)
            nodes += sum(representative(exp3, k).node_count for k in right)
            assert nodes == t.node_count


CUT_SPECS = all_builtin_specs() + [two_colour_spec(), symmetric_two_colour_spec()]


@pytest.mark.parametrize("template", CUT_SPECS, ids=lambda s: s.name)
def test_recursive_cut_summary_equals_flat_count(template):
    # A fresh copy of the spec, so no class record holds a summary yet.  The
    # largest trees go first: their summaries fill those of their subtree
    # classes, which the smaller trees then read.
    spec = EndofunctorSpec(template.colours, template.ops, name=template.name)
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


def test_cross_check_detects_a_wrong_recursive_count():
    # The accumulation route counts cuts flat, so a wrong multiplicity in
    # the recursive summary read by the LHS route shows as a cross failure.
    spec = builtin("binary")
    t = parse_ptree(spec, "(n2:(n2:__)_)")
    pair = (("(n2:__)", "_"), "(n2:__)")
    summary = cut_summary(t)
    assert summary[pair] == 1
    summary[pair] += 1
    rep = verify_fdb(spec, max_total_nodes=3, max_edges_side=5)
    assert rep.cross_failed > 0
    assert any(p.crown == pair[0] and p.stump == pair[1] and not p.passed
               for p in rep.pairs)


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
    monkeypatch.setattr(TreeClass, "cuts", property(lambda self: {}))
    assert cut_summary(trees[-1]) == {}  # the patch took effect
    assert [flat_cut_summary(t) for t in trees] == expected
    assert bialgebra._direct_accumulation(spec, 4, 6) == accumulated


def test_graft_oracle_catches_a_graft_on_the_wrong_leaf(monkeypatch):
    spec = builtin("planar", max_arity=3)
    stump = parse_ptree(spec, "(n2:__)")
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
                m.setattr(TreeClass, "cuts", property(lambda self: {}))
            right = graft_oracle_agrees(stump, crown)
            m.setattr(bialgebra, "graft_decorated", onto_the_wrong_leaf)
            verdicts.append((right, graft_oracle_agrees(stump, crown)))
    assert verdicts == [(True, False), (True, False)]


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
            assert representative(two_colour, k[0]).root_colour == colour


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
    standalone, calls = bialgebra.fdb_rhs_coefficient, []

    def recorded(crown, stump, powers):
        value = standalone(crown, stump, powers)
        calls.append((crown, stump, value))
        return value

    monkeypatch.setattr(bialgebra, "fdb_rhs_coefficient", recorded)
    report = verify_fdb(spec, nodes, edges)
    assert report.passed
    listed = sum(s.leaf_profile() == f.root_profile() for f, s, _ in calls)
    assert listed and len(calls) > listed  # listed and sampled pairs
    for crown, stump, value in calls:
        assert standalone_rhs(crown, stump) == value


def test_rhs_rejects_a_power_that_cuts_the_crown(exp3):
    stump = parse_ptree(exp3, "(n2:__)")
    crown = PForest.from_keys(exp3, ["(n2:__)", "_"])
    powers = profile_powers(exp3, Bound(3), [(("o", 2),)])
    with pytest.raises(BoundMismatch):
        fdb_rhs_coefficient(crown, stump, powers)
    # 2 orders of the two classes, each weighted 1/2, over |Aut stump| = 2
    assert standalone_rhs(crown, stump) == Fraction(1, 2)
    assert fdb_lhs_coefficient(crown, stump) == Fraction(1, 2)


def test_power_profile_matches_plain_power(exp3):
    bound = Bound(5)
    g = green(exp3, bound)
    for n in range(3):
        a = series_powers(g, n)[n]
        b = profile_powers(exp3, bound, [(("o", n),)])[(("o", n),)]
        assert a.coeffs == b.coeffs


# -- the coefficient identity ---------------------------------------------------

def test_lhs_examples(exp3):
    triv = trivial_ptree(exp3)
    cherry = parse_ptree(exp3, "(n2:__)")
    crown = PForest.from_trees(exp3, [triv, triv])
    assert fdb_lhs_coefficient(crown, cherry) == Fraction(1, 2)
    nested = parse_ptree(exp3, "(n2:(n2:__)(n2:__))")
    assert fdb_lhs_coefficient(
        PForest.from_trees(exp3, [nested]), triv) == Fraction(1, 8)


def test_lhs_ladder():
    spec = builtin("identity")
    x1 = parse_ptree(spec, "(n1:_)")
    crown = PForest.from_trees(spec, [x1])
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


@pytest.mark.parametrize("spec", [builtin("planar", 3), two_colour_spec()],
                         ids=["planar(3)", "two-colour"])
def test_verify_fdb_lists_pairs_by_stump_then_crown(monkeypatch, spec):
    # the listed pairs, and with them the graft-oracle sample, follow the
    # stumps in order and each stump's fitting crowns in enumeration order
    nodes, edges = 4, 6
    stumps, by_profile, _ = bialgebra._fdb_pair_space(spec, nodes, edges, None)
    expected = [(s.key, f.keys) for s in stumps
                for n, f in by_profile.get(s.leaf_profile, ())
                if n <= nodes - s.nodes]
    checked, sampled = [], []
    check, oracle = bialgebra.check_fdb_pair, bialgebra.graft_oracle_agrees

    def recorded_check(crown, stump, powers):
        checked.append((stump.key(), crown.keys))
        return check(crown, stump, powers)

    def recorded_oracle(stump, crown):
        sampled.append((stump.key(), crown.keys))
        return oracle(stump, crown)

    monkeypatch.setattr(bialgebra, "check_fdb_pair", recorded_check)
    monkeypatch.setattr(bialgebra, "graft_oracle_agrees", recorded_oracle)
    assert verify_fdb(spec, nodes, edges).passed
    assert checked[:len(expected)] == expected
    stride = max(1, -(-len(expected) // bialgebra.SAMPLE))
    assert sampled == expected[::stride][:bialgebra.SAMPLE]


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
            assert representative(two_colour, p.stump).root_colour == colour


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
    bound = Bound(6)
    trees_a = [c.tree for c in enumerate_classes(two_colour, bound, root_colour="a")]
    trees_b = [c.tree for c in enumerate_classes(two_colour, bound, root_colour="b")]
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
