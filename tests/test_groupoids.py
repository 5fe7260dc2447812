import gc
import json
import math
import random
import weakref
from fractions import Fraction

import pytest

from optrees import groupoid_suite, groupoids
from optrees.cli import main
from optrees.groupoid_suite import (GROUP_CATALOG, all_homs, build_groupoid,
                                    coloured_set_groupoid, random_action,
                                    random_components, random_groupoid,
                                    random_map, run_suite)
from optrees.groupoids import (FiniteGroupoid, Group, GroupAction,
                               GroupoidError, GroupoidMap, compose_maps,
                               constant_map, discrete,
                               disjoint_union_groupoids, fibre_family,
                               groupoid_from_doc, groupoid_to_doc,
                               groth_equivalence, homotopy_fiber,
                               homotopy_pullback, homotopy_quotient,
                               homotopy_sum, identity_map, is_equivalence,
                               name_map, one_object, product_groupoid,
                               pushforward_cardinality, relative_cardinality,
                               standard_component, sum_projection, terminal,
                               vector_scale, vectors_equal)


# -- groups ---------------------------------------------------------------------

def test_group_catalog_valid():
    for g in GROUP_CATALOG:
        g.check()
    assert Group.symmetric(3).order == 6
    assert Group.klein().order == 4


def test_bad_group_rejected():
    g = Group((0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, 0)
    with pytest.raises(GroupoidError):
        g.check()  # 1 has no inverse


def test_non_total_group_rejected():
    g = Group((0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 1}, 0)
    with pytest.raises(GroupoidError, match="not total"):
        g.check()


def test_all_homs_counts():
    c2, c3, c4 = Group.cyclic(2), Group.cyclic(3), Group.cyclic(4)
    s3 = Group.symmetric(3)
    assert len(all_homs(c2, c3)) == 1      # only trivial
    assert len(all_homs(c2, c4)) == 2      # trivial and 1 -> 2
    assert len(all_homs(c3, s3)) == 3      # trivial and two embeddings
    assert len(all_homs(s3, c2)) == 2      # trivial and sign
    for hom in all_homs(s3, c2):
        for a in s3.elements:
            for b in s3.elements:
                assert hom[s3.mul[(a, b)]] == c2.mul[(hom[a], hom[b])]


def test_all_homs_never_answers_for_a_freed_group():
    # freed groups give their ids to the next ones built; the cache must
    # not hand one group's homomorphisms to another
    c4 = Group.cyclic(4)
    for i in range(200):
        n = 2 + i % 3
        assert len(all_homs(Group.cyclic(n), c4)) == math.gcd(n, 4)


# -- basic groupoids -------------------------------------------------------------

def test_pi0_examples():
    d = discrete([0, 1, 2]).check()
    assert len(d.pi0()) == 3
    bs3 = one_object(Group.symmetric(3)).check()
    assert len(bs3.pi0()) == 1
    both = disjoint_union_groupoids([d, bs3]).check()
    assert len(both.pi0()) == 4


def test_aut_group_examples():
    d = discrete([0, 1]).check()
    assert d.aut_group(0).order == 1
    bs3 = one_object(Group.symmetric(3))
    g = bs3.aut_group("*")
    g.check()
    assert g.order == 6
    with pytest.raises(GroupoidError):
        bs3.aut_group("missing")


def test_aut_group_of_quotients_read_from_arrows():
    # Swap action on two points is free, so the quotient is connected and
    # contractible: vertex groups are trivial and the cardinality is 2/2.
    # The trivial action gives two components with vertex group C2 each.
    c2 = Group.cyclic(2)
    space = discrete([0, 1])
    obj_act = {((x), g): (x + g) % 2 for x in (0, 1) for g in (0, 1)}
    arrow_act = {(("id", x), g): ("id", (x + g) % 2)
                 for x in (0, 1) for g in (0, 1)}
    action = GroupAction(c2, space, obj_act, arrow_act).check()
    quot, proj = homotopy_quotient(action)
    quot.check()
    proj.check()
    assert len(quot.pi0()) == 1
    assert quot.cardinality() == 1
    for x in quot.objects:
        aut = quot.aut_group(x)
        aut.check()
        assert aut.order == 1

    triv_obj = {(x, g): x for x in (0, 1) for g in (0, 1)}
    triv_arr = {(("id", x), g): ("id", x) for x in (0, 1) for g in (0, 1)}
    action2 = GroupAction(c2, space, triv_obj, triv_arr).check()
    quot2, _ = homotopy_quotient(action2)
    quot2.check()
    assert len(quot2.pi0()) == 2
    for x in quot2.objects:
        assert quot2.aut_group(x).order == 2
    assert quot2.cardinality() == 1


def test_cardinality_examples():
    assert discrete(range(5)).cardinality() == 5
    for g in GROUP_CATALOG:
        assert one_object(g).cardinality() == Fraction(1, g.order)
    prod = product_groupoid(discrete(range(5)), one_object(Group.symmetric(3)))
    assert prod.check().cardinality() == Fraction(5, 6)


_C3 = one_object(Group.cyclic(3))


def _skewed_c3(f, g):
    # C3 with 1 then 1 sent to 0: units and endpoints hold, but
    # (1 then 1) then 2 = 2 while 1 then (1 then 2) = 1
    return ("g", 0) if f == g == ("g", 1) else _C3.mul(f, g)


@pytest.mark.parametrize("groupoid, rule, message", [
    (discrete([0]), lambda f, g: None, "wrong endpoints"),
    (standard_component([0, 1], Group.cyclic(2)), lambda f, g: f,
     "wrong endpoints"),
    (_C3, _skewed_c3, "associativity"),
], ids=["rule-returns-none", "wrong-endpoints", "not-associative"])
def test_check_catches_broken_composition(groupoid, rule, message):
    broken = FiniteGroupoid(groupoid.objects, dict(groupoid.arrows), rule,
                            dict(groupoid.identities))
    with pytest.raises(GroupoidError, match=message):
        broken.check()


def test_functor_check_composes_every_composable_pair_once_in_order():
    dom = disjoint_union_groupoids([
        standard_component([0, 1], Group.cyclic(3)), one_object(Group.cyclic(2))])
    seen = []
    cod = FiniteGroupoid(dom.objects, dict(dom.arrows),
                         lambda f, g: seen.append((f, g)) or dom.mul(f, g),
                         dict(dom.identities))
    GroupoidMap(dom, cod, {x: x for x in dom.objects},
                {a: a for a in dom.arrows}).check()
    assert seen == list(dom.composable_pairs())


def test_functor_check_catches_broken_composition():
    c3 = one_object(Group.cyclic(3))
    squash = GroupoidMap(c3, c3, {"*": "*"},
                         {("g", 0): ("g", 0), ("g", 1): ("g", 1),
                          ("g", 2): ("g", 1)})
    with pytest.raises(GroupoidError, match="composition not preserved"):
        squash.check()


def test_functor_check_names_the_failing_pair():
    # images 0, 1, 1: the first pair in order whose composite's image
    # differs is (1, 1), with 1 then 1 = 2 sent to 1 but 1 then 1 = 2
    c3 = one_object(Group.cyclic(3))
    squash = GroupoidMap(c3, c3, {"*": "*"},
                         {("g", 0): ("g", 0), ("g", 1): ("g", 1),
                          ("g", 2): ("g", 1)})
    with pytest.raises(GroupoidError, match=r"^composition not preserved at "
                       r"\(\('g', 1\), \('g', 1\)\)$"):
        squash.check()


def test_a_map_out_of_one_arrow_rows_keeps_every_verdict():
    # every object of a discrete groupoid or of terminal() has one arrow
    # out, so each row and each read of the check has one entry
    c3 = standard_component([0, 1], Group.cyclic(3))
    dots = discrete(range(3))
    assert GroupoidMap(dots, c3, {x: x % 2 for x in dots.objects},
                       {("id", x): c3.identities[x % 2] for x in dots.objects}).check()
    assert name_map(c3, 1).check()
    # one arrow e, named as no identity, with e then e = e, sent to
    # ("g", 1), whose square is ("g", 0)
    loop = FiniteGroupoid(("*",), {"e": ("*", "*")}, lambda f, g: "e", {})
    with pytest.raises(GroupoidError, match=r"^composition not preserved at "
                       r"\('e', 'e'\)$"):
        GroupoidMap(loop, one_object(Group.cyclic(2)), {"*": "*"},
                    {"e": ("g", 1)}).check()
    # and no arrow out of b, whose identity is not named: f's row is empty
    ends = {"e": ("a", "a"), "f": ("a", "b")}
    stub = FiniteGroupoid(("a", "b"), ends, lambda f, g: g, {"a": "e"})
    assert GroupoidMap(stub, terminal(), {"a": "*", "b": "*"},
                       dict.fromkeys(ends, ("id", "*"))).check()


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_a_corrupted_arrow_map_on_a_total_is_named_by_the_map_check(seed):
    # the comparison functor of a Grothendieck total (of a map whose domain
    # has a hom-set of two arrows or more) with one arrow sent to another
    # arrow with the same endpoints: the check names the first pair,
    # in composable-pair order, whose composite's image is not the
    # composite of the images
    p = _random_map(seed)
    _, fw, _ = groth_equivalence(p)
    assert fw.check()
    units = set(fw.dom.identities.values())
    arrow, twin = next((a, t) for a in fw.dom.arrows if a not in units
                       for t in fw.cod.hom(*fw.cod.arrows[fw.arrow_map[a]])
                       if t != fw.arrow_map[a])
    bad = GroupoidMap(fw.dom, fw.cod, fw.obj_map, {**fw.arrow_map, arrow: twin})
    first = next((f, g) for f, g in fw.dom.composable_pairs()
                 if bad.arrow_map[fw.dom.mul(f, g)]
                 != fw.cod.mul(bad.arrow_map[f], bad.arrow_map[g]))
    with pytest.raises(GroupoidError) as err:
        bad.check()
    assert str(err.value) == f"composition not preserved at ({first[0]!r}, {first[1]!r})"


def _component_into_bg(objects, group, dom_mul=None):
    # the standard component on the objects, sent to BG by its labels
    dom = standard_component(objects, group)
    if dom_mul is not None:
        dom = FiniteGroupoid(dom.objects, dict(dom.arrows), dom_mul,
                             dict(dom.identities))
    bg = one_object(group)
    return GroupoidMap(dom, bg, {x: "*" for x in dom.objects},
                       {a: ("g", a[2]) for a in dom.arrows})


def test_functor_check_runs_the_domain_rule_on_every_pair():
    # 243 composable pairs share 9 image pairs; the domain rule is broken
    # on the last pair only, whose image pair has been met before
    good = _component_into_bg([0, 1, 2], Group.cyclic(3))
    pairs = list(good.dom.composable_pairs())
    last = pairs[-1]
    assert len(pairs) == 243
    assert {(good.arrow_map[f], good.arrow_map[g]) for f, g in pairs[:-1]} \
        == {(good.arrow_map[f], good.arrow_map[g]) for f, g in pairs}

    def broken(f, g):
        fg = good.dom.mul(f, g)
        return (fg[0], fg[1], (fg[2] + 1) % 3) if (f, g) == last else fg

    good.check()
    with pytest.raises(GroupoidError, match="composition not preserved") as err:
        _component_into_bg([0, 1, 2], Group.cyclic(3), broken).check()
    assert str(err.value).endswith(f"at ({last[0]!r}, {last[1]!r})")


def test_functor_check_calls_the_codomain_rule_once_per_image_pair():
    # C2 on one object with arrows None and 1, so the rule returns None
    # on two of the four image pairs
    seen = []

    def xor(f, g):
        seen.append((f, g))
        return 1 if (f is None) != (g is None) else None

    bg = FiniteGroupoid(("*",), {None: ("*", "*"), 1: ("*", "*")}, xor,
                        {"*": None})
    dom = standard_component([0, 1, 2], Group.cyclic(2))
    m = GroupoidMap(dom, bg, {x: "*" for x in dom.objects},
                    {a: a[2] or None for a in dom.arrows}).check()
    images = [(m.arrow_map[f], m.arrow_map[g]) for f, g in dom.composable_pairs()]
    assert len(images) == 108
    assert seen == list(dict.fromkeys(images))
    assert len(seen) == 4


# -- pullbacks and fibres ---------------------------------------------------------

def test_pullback_of_two_points_into_bg():
    for group in (Group.cyclic(3), Group.symmetric(3)):
        bg = one_object(group)
        f = name_map(bg, "*")
        g = constant_map(discrete(["q"]), bg, "*")
        pb, p1, p2 = homotopy_pullback(f, g)
        pb.check(), p1.check(), p2.check()
        assert len(pb.objects) == group.order
        assert len(pb.pi0()) == group.order
        assert pb.cardinality() == group.order


def test_pullback_along_identity_is_equivalent_to_domain():
    rng = random.Random(0)
    for _ in range(5):
        comps = random_components(rng)
        f = random_map(rng, comps, random_components(rng)).check()
        pb, p1, _ = homotopy_pullback(f, identity_map(f.cod))
        p1.check()
        assert is_equivalence(p1)
        assert pb.cardinality() == f.dom.cardinality()


def test_pullback_of_sets_over_point_is_product():
    x = discrete(range(3))
    y = discrete(range(4))
    pt = terminal()
    pb, _, _ = homotopy_pullback(constant_map(x, pt, "*"),
                                 constant_map(y, pt, "*"))
    assert pb.check().cardinality() == 12


def test_pullback_requires_common_codomain():
    with pytest.raises(GroupoidError):
        homotopy_pullback(identity_map(discrete([0])),
                          identity_map(discrete([1])))


def test_fiber_of_identity_is_contractible():
    g = one_object(Group.symmetric(3))
    fib, incl = homotopy_fiber(identity_map(g), "*")
    fib.check(), incl.check()
    assert fib.cardinality() == 1
    assert len(fib.pi0()) == 1


def test_fiber_of_constant_map_is_domain():
    x = discrete(range(4))
    fib, _ = homotopy_fiber(constant_map(x, terminal(), "*"), "*")
    assert fib.check().cardinality() == 4


def test_fiber_of_unknown_object_rejected():
    with pytest.raises(GroupoidError):
        homotopy_fiber(identity_map(discrete([0])), 99)


@pytest.mark.parametrize("seed", range(3))
def test_fibre_is_the_search_over_the_point(seed):
    # an arrow (e, phi) -> (e2, phi2) over b is an arrow alpha: e -> e2 with
    # phi == p(alpha) then phi2, found here by a search of all such triples
    rng = random.Random(seed)
    p = random_map(rng, random_components(rng, max_group_order=3),
                   random_components(rng, max_group_order=3)).check()
    E, B = p.dom, p.cod
    for b in B.objects:
        fib, incl = homotopy_fiber(p, b)
        incl.check()
        assert list(fib.objects) == [(e, "*", phi) for e in E.objects
                                     for phi in B.hom(p.obj_map[e], b)]
        assert set(fib.arrows) == {
            ((e, "*", phi), (e2, "*", phi2), (alpha, ("id", "*")))
            for alpha, (e, e2) in E.arrows.items()
            for phi in B.hom(p.obj_map[e], b)
            for phi2 in B.hom(p.obj_map[e2], b)
            if B.mul(p.arrow_map[alpha], phi2) == phi}


def test_fiber_of_quotient_projection_measures_orbit():
    # swap action on 2 points plus a fixed point
    c2 = Group.cyclic(2)
    space = discrete([0, 1, 2])
    swap = {0: 1, 1: 0, 2: 2}
    obj_act = {(x, 0): x for x in space.objects}
    obj_act.update({(x, 1): swap[x] for x in space.objects})
    arrow_act = {(("id", x), g): ("id", obj_act[(x, g)])
                 for x in space.objects for g in (0, 1)}
    action = GroupAction(c2, space, obj_act, arrow_act).check()
    quot, proj = homotopy_quotient(action)
    # a fibre of the quotient projection has |G| objects (orbit points with
    # stabiliser multiplicity); its cardinality over the vertex group of the
    # base point is the orbit size, as the fibre/total-space relation states
    fib0, _ = homotopy_fiber(proj, ("*", 0))
    fib2, _ = homotopy_fiber(proj, ("*", 2))
    for fib, base, orbit in ((fib0, ("*", 0), 2), (fib2, ("*", 2), 1)):
        fib.check()
        assert len(fib.objects) == c2.order
        stab = len(quot.hom(base, base))
        assert fib.cardinality() == Fraction(c2.order)
        assert fib.cardinality() / stab == orbit


# -- quotients ---------------------------------------------------------------------

def test_point_quotient_is_group():
    for group in (Group.cyclic(4), Group.symmetric(3)):
        pt = discrete(["p"])
        obj_act = {(("p"), g): "p" for g in group.elements}
        arrow_act = {(("id", "p"), g): ("id", "p") for g in group.elements}
        action = GroupAction(group, pt, obj_act, arrow_act).check()
        quot, _ = homotopy_quotient(action)
        quot.check()
        assert len(quot.pi0()) == 1
        assert quot.aut_group(("*", "p")).order == group.order
        assert quot.cardinality() == Fraction(1, group.order)


def test_translation_action_is_contractible():
    group = Group.symmetric(3)
    space = discrete(list(group.elements))
    obj_act = {((x), g): group.mul[(x, g)] for x in group.elements
               for g in group.elements}
    arrow_act = {(("id", x), g): ("id", group.mul[(x, g)])
                 for x in group.elements for g in group.elements}
    action = GroupAction(group, space, obj_act, arrow_act).check()
    quot, _ = homotopy_quotient(action)
    assert quot.check().cardinality() == 1
    assert len(quot.pi0()) == 1


def test_trivial_action_keeps_discrete_space():
    space = discrete([0, 1])
    c1 = Group.cyclic(1)
    action = GroupAction(c1, space, {(x, 0): x for x in (0, 1)},
                         {(("id", x), 0): ("id", x) for x in (0, 1)}).check()
    quot, _ = homotopy_quotient(action)
    assert quot.check().cardinality() == 2
    assert len(quot.pi0()) == 2


def test_invalid_action_rejected():
    c2 = Group.cyclic(2)
    space = discrete([0, 1])
    bad = GroupAction(c2, space,
                      {(x, g): x if g == 0 else 0 for x in (0, 1) for g in (0, 1)},
                      {(("id", x), g): ("id", x if g == 0 else 0)
                       for x in (0, 1) for g in (0, 1)})
    with pytest.raises(GroupoidError):
        bad.check()


def test_action_law_checked_on_arrows():
    # C3 on BC3: 1 acts by inversion, 0 and 2 trivially.  Each element acts
    # by a functor and the objects satisfy the action law, but acting by 1
    # then by 2 inverts arrows, while acting by their product 0 does not
    c3 = Group.cyclic(3)
    space = one_object(c3)
    arrow_act = {(("g", k), g): ("g", -k % 3 if g == 1 else k)
                 for k in c3.elements for g in c3.elements}
    action = GroupAction(c3, space, {("*", g): "*" for g in c3.elements},
                         arrow_act)
    with pytest.raises(GroupoidError, match="strictly functorial on arrows"):
        action.check()


def test_identity_must_act_as_identity_on_fibre_arrows():
    base = one_object(Group.cyclic(1))
    fib = one_object(Group.cyclic(2))
    homotopy_sum(base, {"*": fib}, {("g", 0): identity_map(fib)})
    # identical on objects, not on arrows
    bad = GroupoidMap(fib, fib, {"*": "*"}, {("g", 0): ("g", 1),
                                             ("g", 1): ("g", 0)})
    with pytest.raises(GroupoidError, match="identity functors"):
        homotopy_sum(base, {"*": fib}, {("g", 0): bad})


# -- homotopy sums -----------------------------------------------------------------

def test_constant_point_family_gives_base():
    base, fam, act = _point_family()
    total = homotopy_sum(base, fam, act)[0]
    proj = sum_projection(total, base)
    total.check(), proj.check()
    assert is_equivalence(proj)
    assert total.cardinality() == base.cardinality()


def test_bg_family_matches_quotient():
    # family over BG with fibre X and G permuting two copies of a point
    action = random_action(random.Random(3)).check()
    group, space = action.group, action.space
    bg = one_object(group)
    fam = {"*": space}
    act = {}
    for lab in bg.arrows:
        g = lab[1]
        act[lab] = GroupoidMap(space, space,
                               {x: action.obj_act[(x, g)] for x in space.objects},
                               {a: action.arrow_act[(a, g)] for a in space.arrows})
    base, fam2, act2 = action.family()
    assert (base.objects, base.arrows, base.identities) == \
        (bg.objects, bg.arrows, bg.identities)
    assert list(fam2) == ["*"] and fam2["*"] is space
    assert {lab: (m.obj_map, m.arrow_map) for lab, m in act2.items()} == \
        {lab: (m.obj_map, m.arrow_map) for lab, m in act.items()}
    total = homotopy_sum(bg, fam, act)[0]
    quot, _ = homotopy_quotient(action)
    # the two constructions carry literally the same data
    assert set(total.objects) == set(quot.objects)
    assert total.arrows == quot.arrows
    assert total.check().cardinality() == quot.cardinality()
    assert len(total.pi0()) == len(quot.pi0())
    assert sorted(len(c) for c in total.pi0()) == \
        sorted(len(c) for c in quot.pi0())


def test_homotopy_sum_rejects_non_functorial_family():
    base = one_object(Group.cyclic(2))
    pt = terminal()
    fam = {"*": discrete([0, 1])}
    flip = GroupoidMap(fam["*"], fam["*"], {0: 1, 1: 0},
                       {("id", 0): ("id", 1), ("id", 1): ("id", 0)})
    act = {("g", 0): identity_map(fam["*"]), ("g", 1): flip}
    # flip . flip = identity holds, so this one is fine
    homotopy_sum(base, fam, act)
    ident = identity_map(fam["*"])
    bad = {("g", 0): ident, ("g", 1): ident}
    # then g.g = identity forces identity, still functorial; break identity law
    bad2 = {("g", 0): flip, ("g", 1): ident}
    with pytest.raises(GroupoidError):
        homotopy_sum(base, fam, bad2)


@pytest.mark.parametrize("seed", range(4))
def test_fibre_family_constructions_are_groupoids(seed):
    # endpoints, composites on composable pairs only, identities,
    # associativity and inverses of the groupoids built from a random map
    rng = random.Random(seed)
    p = random_map(rng, random_components(rng, max_group_order=3),
                   random_components(rng, max_group_order=3)).check()
    total = homotopy_sum(p.cod, *fibre_family(p))[0]
    proj = sum_projection(total, p.cod)
    total.check(), proj.check()
    pb, p1, p2 = homotopy_pullback(p, p)
    pb.check(), p1.check(), p2.check()
    groth_equivalence(p)[0].check()


def _sum_instances():
    # (base, family, transport) of the sums built in this file
    yield _point_family()
    action = random_action(random.Random(3)).check()
    yield action.family()
    for seed in range(4):
        p = _random_map(seed)
        yield (p.cod, *fibre_family(p))
    fibre = standard_component([0, 1], Group.cyclic(3))
    c2 = one_object(Group.cyclic(2))
    yield c2, {"*": fibre}, {a: identity_map(fibre) for a in c2.arrows}


def _point_family():
    base = random_groupoid(random.Random(1))
    pt = terminal()
    return base, {b: pt for b in base.objects}, {a: identity_map(pt) for a in base.arrows}


def test_sum_projection_sends_each_pair_to_its_base_part():
    # the maps the sum once built with its total, stated from the family:
    # (b, x) -> b, and the arrows (sigma, phi) out of (b, x), with phi out of
    # x transported along sigma, -> sigma
    for base, fam, act in _sum_instances():
        total = homotopy_sum(base, fam, act)[0]
        proj = sum_projection(total, base)
        assert proj.dom is total and proj.cod is base
        assert proj.obj_map == {(b, x): b for b in base.objects for x in fam[b].objects}
        arrows = {((b, x), (b2, fam[b2].target(phi)), (sigma, phi)): sigma
                  for sigma, (b, b2) in base.arrows.items() for x in fam[b].objects
                  for phi in fam[b2].arrows_from(act[sigma].obj_map[x])}
        assert proj.arrow_map == arrows
        assert proj.check()


def test_groth_equivalence_randomized():
    rng = random.Random(5)
    for _ in range(8):
        p = random_map(rng, random_components(rng), random_components(rng)).check()
        assert len(p.dom.objects) <= 8
        total, fw, bw = groth_equivalence(p)
        fw.check(), bw.check()
        assert is_equivalence(fw)
        assert is_equivalence(bw)
        rt = compose_maps(bw, fw)
        for comp in p.dom.pi0():
            assert p.dom.class_of(rt.obj_map[comp[0]]) == comp[0]


@pytest.mark.parametrize("seed", range(3))
def test_hom_sets_sorted_whatever_the_order_of_queries(seed):
    rng = random.Random(seed)
    p = random_map(rng, random_components(rng), random_components(rng)).check()
    total = groth_equivalence(p)[0]
    shuffled = list(total.arrows.items())
    rng.shuffle(shuffled)
    queries = [(x, y) for x in total.objects for y in total.objects]
    for g in (total, FiniteGroupoid(total.objects, dict(shuffled), total.mul,
                                    total.identities)):
        rng.shuffle(queries)
        for x, y in queries + queries:
            assert g.hom(x, y) == tuple(sorted(
                (a for a, ends in g.arrows.items() if ends == (x, y)), key=repr))


@pytest.mark.parametrize("seed", range(3))
def test_homotopy_sum_composes_by_base_and_transported_fibre(seed):
    rng = random.Random(seed)
    p = random_map(rng, random_components(rng, max_group_order=3),
                   random_components(rng, max_group_order=3)).check()
    fibres, arrowact = fibre_family(p)
    base = p.cod
    total = homotopy_sum(base, fibres, arrowact)[0]
    for f, g in total.composable_pairs():
        (sigma1, phi1), (sigma2, phi2) = f[2], g[2]
        fibre = fibres[base.target(sigma2)]
        assert total.mul(f, g) == (f[0], g[1], (
            base.mul(sigma1, sigma2),
            fibre.mul(arrowact[sigma2].arrow_map[phi1], phi2)))


# -- arrow numbers -----------------------------------------------------------------

def _family_rule(base, fam, act):
    # "f then g" of a Grothendieck sum, from the base and fibre label rules
    def mul(f, g):
        (sigma1, phi1), (sigma2, phi2) = f[2], g[2]
        return (f[0], g[1], (base.mul(sigma1, sigma2),
                             fam[base.target(sigma2)].mul(
                                 act[sigma2].arrow_map[phi1], phi2)))
    return mul


def _random_map(seed):
    rng = random.Random(seed)
    return random_map(rng, random_components(rng, max_group_order=3),
                      random_components(rng, max_group_order=3)).check()


def _fibre_sum(seed):
    p = _random_map(seed)
    fibres, act = fibre_family(p)
    return homotopy_sum(p.cod, fibres, act)[0], _family_rule(p.cod, fibres, act)


def _random_quotient(seed):
    action = random_action(random.Random(seed)).check()
    return homotopy_quotient(action)[0], _family_rule(*action.family())


def _relabelled(build):
    def relabelled():
        g, rule = build()
        rule = rule or g.mul
        copy, _, amap = g.relabel()
        back = {i: a for a, i in amap.items()}
        return copy, lambda f, h: amap[rule(back[f], back[h])]
    return relabelled


def _from_doc():
    doc = groupoid_to_doc(_swap_quotient().relabel()[0])
    table = {(f, h): k for f, h, k in doc["compose"]}
    return groupoid_from_doc(doc), lambda f, h: table[(f, h)]


def _own_rule(build):
    return lambda: (build(), None)


@pytest.mark.parametrize("build", [
    _own_rule(lambda: discrete([0, 1, 2])),
    _own_rule(lambda: one_object(Group.symmetric(3))),
    _own_rule(lambda: standard_component([0, 1], Group.klein())),
    _own_rule(lambda: disjoint_union_groupoids([
        one_object(Group.cyclic(2)), standard_component([0, 1], Group.cyclic(3))])),
    _own_rule(lambda: product_groupoid(one_object(Group.cyclic(2)),
                                       standard_component([0, 1], Group.cyclic(2)))),
    _own_rule(lambda: (lambda p: homotopy_fiber(p, p.cod.objects[0])[0])(
        _random_map(1))),
    _own_rule(lambda: (lambda p: homotopy_pullback(p, p)[0])(_random_map(2))),
    _own_rule(lambda: _loop_pullback()),
    lambda: _fibre_sum(0),
    lambda: _fibre_sum(3),
    lambda: _random_quotient(3),
    lambda: _random_quotient(11),
    _from_doc,
    _relabelled(_own_rule(lambda: product_groupoid(
        one_object(Group.cyclic(3)), standard_component([0, 1], Group.cyclic(2))))),
    _relabelled(lambda: _fibre_sum(2)),
], ids=["discrete", "one-object", "standard-component", "disjoint-union",
        "product", "fibre", "pullback", "loop-pullback", "sum-0", "sum-3",
        "quotient-3", "quotient-11", "from-doc", "relabel", "relabel-sum"])
def test_numbers_and_labels_agree(build):
    # the number rule and the label rule name the same composite on every
    # composable pair, and a sum composes as its base and fibres say
    g, expected = build()
    n = g.numbering()
    assert n.labels == list(g.arrows)
    assert n.number == {a: i for i, a in enumerate(g.arrows)}
    pairs = list(g.composable_pairs())
    assert pairs
    for f, h in pairs:
        fh = g.mul(f, h)
        assert n.labels[g.mul_n(n.number[f], n.number[h])] == fh
        if expected is not None:
            assert fh == expected(f, h)
    g.check()


def test_a_groupoid_has_exactly_one_rule():
    c2 = one_object(Group.cyclic(2))
    with pytest.raises(GroupoidError, match="one rule"):
        FiniteGroupoid(c2.objects, dict(c2.arrows), None, dict(c2.identities))
    with pytest.raises(GroupoidError, match="one rule"):
        FiniteGroupoid(c2.objects, dict(c2.arrows), c2.mul, dict(c2.identities),
                       c2.numbering().mul_n)


def test_sum_with_a_corrupted_transport_fails_the_map_check(monkeypatch):
    # BK -> BC2 by the first coordinate of the Klein group: each hom-set of
    # the fibre has two arrows, so one transported arrow can be swapped for
    # the other one with the same endpoints
    klein = Group.klein()
    p = GroupoidMap(one_object(klein), one_object(Group.cyclic(2)), {"*": "*"},
                    {("g", k): ("g", k[0]) for k in klein.elements}).check()
    _, fw, bw = groth_equivalence(p)
    fw.check(), bw.check()
    honest = groupoids.check_family

    def corrupted(base, fam, arrowact):
        moves = honest(base, fam, arrowact)
        fibre = fam["*"].numbering()
        transport = moves[base.numbering().number[("g", 1)]][1]
        moved = fibre.labels[transport[0]]
        twin = next(a for a in fam["*"].hom(*fam["*"].arrows[moved])
                    if a != moved)
        transport[0] = fibre.number[twin]
        return moves

    monkeypatch.setattr(groupoids, "check_family", corrupted)
    _, fw, _ = groth_equivalence(p)
    with pytest.raises(GroupoidError, match="composition not preserved at"):
        fw.check()


def test_fibres_with_equal_arrow_numbers_share_no_product():
    # C4 and the Klein group both number their arrows 0..3, but 1 then 1 is
    # 2 in C4 and 0 in the Klein group
    c4, klein = one_object(Group.cyclic(4)), one_object(Group.klein())
    base = discrete([0, 1])
    fam = {0: c4, 1: klein}
    act = {("id", 0): identity_map(c4), ("id", 1): identity_map(klein)}
    assert c4.mul_n(1, 1) == 2 and klein.mul_n(1, 1) == 0
    total = homotopy_sum(base, fam, act)[0]
    rule = _family_rule(base, fam, act)
    for f, h in list(total.composable_pairs()) * 2:
        assert total.mul(f, h) == rule(f, h)
    total.check()


def _counting(g, calls):
    def mul(f, h):
        calls.append((f, h))
        return g.mul(f, h)
    return FiniteGroupoid(g.objects, dict(g.arrows), mul, dict(g.identities))


def test_a_sum_calls_each_fibre_rule_once_per_number_pair():
    # C2 acting trivially on a component with group C3: every pair of fibre
    # arrows comes back under each of the four pairs of base arrows
    calls: list = []
    fibre = _counting(standard_component([0, 1], Group.cyclic(3)), calls)
    base = one_object(Group.cyclic(2))
    act = {a: identity_map(fibre) for a in base.arrows}
    total = homotopy_sum(base, {"*": fibre}, act)[0]
    proj = sum_projection(total, base)
    total.check()
    proj.check()
    assert calls
    assert len(calls) == len(set(calls))
    assert set(calls) == set(fibre.composable_pairs())


def test_a_total_is_freed_without_the_cycle_collector():
    # a total's rules hold its pieces, not the total itself
    p = _random_map(0)
    gc.disable()
    try:
        total, fw, bw = groth_equivalence(p)
        fw.check(), bw.check()
        total.mul(*next(total.composable_pairs()))
        ref = weakref.ref(total)
        del total, fw, bw
        assert ref() is None
    finally:
        gc.enable()


# -- rows ------------------------------------------------------------------------

def _sum_over_a_fibre_of_a_sum(seed):
    # the base F is the homotopy fibre of a sum's projection (an action's
    # quotient onto BG), and the family over F is the action's family
    # pulled back along F -> quotient -> BG
    action = random_action(random.Random(seed)).check()
    bg, fam, act = action.family()
    proj = sum_projection(homotopy_sum(bg, fam, act)[0], bg)
    base = homotopy_fiber(proj, "*")[0]
    fam = {o: action.space for o in base.objects}
    pulled = {a: act[proj.arrow_map[a[2][0]]] for a in base.arrows}
    return homotopy_sum(base, fam, pulled)[0], _family_rule(base, fam, pulled)


def _inversion_quotient(seed):
    # C2 acting on B(C_n) by inversion moves arrows within their hom-set,
    # so a transported arrow's composites sit at other places than its own
    n = 3 + seed
    cn, space = Group.cyclic(n), one_object(Group.cyclic(n))
    action = GroupAction(Group.cyclic(2), space, {("*", g): "*" for g in (0, 1)},
                         {(("g", a), g): ("g", -a % n if g else a)
                          for a in cn.elements for g in (0, 1)}).check()
    return homotopy_quotient(action)[0], _family_rule(*action.family())


def _seeded_rng(seed):
    return random.Random(1000 + seed)


_ROW_BUILDS = {
    "discrete": lambda seed: (discrete(range(seed + 2)), None),
    "one-object": lambda seed: (one_object(GROUP_CATALOG[3 + seed]), None),
    "standard-component": lambda seed: (
        standard_component(range(seed + 2), GROUP_CATALOG[2 + seed]), None),
    "union": lambda seed: (random_groupoid(_seeded_rng(seed)), None),
    "product": lambda seed: (product_groupoid(
        random_groupoid(_seeded_rng(seed), max_group_order=3),
        random_groupoid(_seeded_rng(seed + 7), max_group_order=3)), None),
    "pullback": lambda seed: (
        (lambda p: homotopy_pullback(p, p)[0])(_random_map(seed)), None),
    "fibre": lambda seed: (
        (lambda p: homotopy_fiber(p, p.obj_map[p.dom.objects[-1]])[0])(
            _random_map(seed)), None),
    "quotient": lambda seed: _random_quotient(seed + 3),
    "inversion-quotient": _inversion_quotient,
    "sum": lambda seed: _fibre_sum(seed),
    "sum-over-a-fibre-of-a-sum": _sum_over_a_fibre_of_a_sum,
    "relabel": lambda seed: _relabelled(lambda: _fibre_sum(seed + 1))(),
    "document": lambda seed: _from_doc(),
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", list(_ROW_BUILDS))
def test_rows_agree_with_pairwise_composition(name, seed):
    # every row lists the pairwise composites, in outgoing order, and names
    # the arrows an independent rule on labels gives
    g, rule = _ROW_BUILDS[name](seed)
    rule = rule or g.mul
    n = g.numbering()
    rows = [g.row_n(i) for i in range(len(n.labels))]
    incoming = [[] for _ in n.outgoing]
    for i, t in enumerate(n.target):
        incoming[t].append(i)
    # pairwise, with the first arrow changing on every call
    for j, s in enumerate(n.source):
        for i in incoming[s]:
            assert g.mul_n(i, j) == rows[i][n.place[j]]
    for i, t in enumerate(n.target):
        assert rows[i] == [g.mul_n(i, j) for j in n.outgoing[t]]
        assert rows[i] == [n.number[rule(n.labels[i], n.labels[j])]
                           for j in n.outgoing[t]]
    assert sum(map(len, rows)) == len(list(g.composable_pairs())) > 0


@pytest.mark.parametrize("seed", range(3))
def test_a_relabelled_total_round_trips_through_a_document(seed):
    total = _fibre_sum(seed)[0]
    back = groupoid_from_doc(groupoid_to_doc(total.relabel()[0]))
    assert back.check() is back
    assert back.cardinality() == total.cardinality()
    assert len(back.pi0()) == len(total.pi0())


def test_a_corrupted_transport_is_named_by_the_map_check(monkeypatch):
    # BK -> BC2 as above; the transport along ("g", 1) sends fibre arrow 0
    # to the other arrow with the same endpoints, so exactly the pairs whose
    # first arrow carries fibre arrow 0 and whose second lies over ("g", 1)
    # compose wrongly; the check names the first of them
    klein = Group.klein()
    p = GroupoidMap(one_object(klein), one_object(Group.cyclic(2)), {"*": "*"},
                    {("g", k): ("g", k[0]) for k in klein.elements}).check()
    honest, spots = groupoids.check_family, []

    def corrupted(base, fam, arrowact):
        moves = honest(base, fam, arrowact)
        fibre = fam["*"].numbering()
        transport = moves[base.numbering().number[("g", 1)]][1]
        moved = fibre.labels[transport[0]]
        twin = next(a for a in fam["*"].hom(*fam["*"].arrows[moved])
                    if a != moved)
        transport[0] = fibre.number[twin]
        spots.append(fibre.labels[0])
        return moves

    monkeypatch.setattr(groupoids, "check_family", corrupted)
    total, fw, _ = groth_equivalence(p)
    pairs = list(total.composable_pairs())
    first = next((f, g) for f, g in pairs
                 if f[2][1] == spots[0] and g[2][0] == ("g", 1))
    assert pairs.index(first) > 0
    with pytest.raises(GroupoidError) as err:
        fw.check()
    assert str(err.value) == f"composition not preserved at ({first[0]!r}, {first[1]!r})"


def test_check_finds_one_wrong_composite_deep_inside_a_row():
    # a copy of a total whose row rule is honest but for one entry in the
    # middle of a long row, swapped for an arrow with the same endpoints
    total = _sum_over_a_fibre_of_a_sum(0)[0]
    n = total.numbering()
    units = {n.number[e] for e in total.identities.values()}

    def twins(k):
        return [a for a in total.hom(*total.arrows[n.labels[k]])
                if a != n.labels[k]]

    # no unit among i, the second arrow and their composite, so only the
    # associativity of the triples through the entry can catch it
    i, q = next((i, q) for i in range(len(n.labels) // 2, len(n.labels))
                if i not in units for q, (j, k) in enumerate(
                    zip(n.outgoing[n.target[i]], n.row_n(i)))
                if len(n.row_n(i)) // 2 <= q < len(n.row_n(i)) - 1
                and j not in units and k not in units and twins(k))
    twin = twins(n.row_n(i)[q])[0]

    def broken(m):
        got = n.row_n(m)
        return got[:q] + [n.number[twin]] + got[q + 1:] if m == i else got

    def copy(rule):
        return FiniteGroupoid(total.objects, dict(total.arrows), None,
                              dict(total.identities), rule)

    assert copy(n.row_n).check()
    with pytest.raises(GroupoidError, match="associativity fails"):
        copy(broken).check()


# -- relative cardinality -----------------------------------------------------------

def test_relative_cardinality_of_identity():
    g = build_groupoid(random_components(random.Random(7)))
    vec = relative_cardinality(identity_map(g))
    for comp in g.pi0():
        assert vec[comp[0]] == Fraction(1, len(g.hom(comp[0], comp[0])))


def test_relative_cardinality_of_name_is_delta():
    bg = one_object(Group.cyclic(3))
    vec = relative_cardinality(name_map(bg, "*"))
    assert vec == {"*": 1}


def test_relative_cardinality_through_quotient():
    action = random_action(random.Random(11)).check()
    quot, proj = homotopy_quotient(action)
    lhs = relative_cardinality(identity_map(quot))
    rhs = vector_scale(relative_cardinality(proj),
                       Fraction(1, action.group.order))
    assert vectors_equal(lhs, rhs)


def test_pushforward_examples():
    rng = random.Random(13)
    comps = random_components(rng)
    g = build_groupoid(comps)
    vec = relative_cardinality(identity_map(g))
    assert pushforward_cardinality(vec, identity_map(g)) == vec
    pt = terminal()
    merged = pushforward_cardinality(vec, constant_map(g, pt, "*"))
    assert merged["*"] == g.cardinality()


def test_pushforward_composite_vs_direct_six_objects():
    rng = random.Random(17)
    a = [c for c in [random_components(rng, max_components=3, max_objects=2)]][0]
    g = build_groupoid(a)
    assert len(g.objects) <= 6
    p = random_map(rng, a, random_components(rng))
    t = random_map(rng, random_components(rng), random_components(rng))
    # rebuild t over p's codomain
    t = random_map(rng, random_components(rng), random_components(rng))
    # simpler: compose p with a constant map and compare
    pt = terminal()
    const = constant_map(p.cod, pt, "*")
    direct = relative_cardinality(compose_maps(p, const))
    pushed = pushforward_cardinality(relative_cardinality(p), const)
    assert vectors_equal(direct, pushed)


# -- equivalence witness --------------------------------------------------------------

def test_is_equivalence_positive_and_negative():
    bg = one_object(Group.cyclic(2))
    assert is_equivalence(identity_map(bg))
    two = disjoint_union_groupoids([terminal(), terminal()])
    merge = constant_map(two, terminal(), "*")
    assert not is_equivalence(merge)  # not injective on components
    incl = name_map(bg, "*")
    assert not is_equivalence(incl)   # vertex groups differ


# -- interchange documents -------------------------------------------------------------

def _swap_quotient():
    c2 = Group.cyclic(2)
    space = discrete([0, 1, 2])
    swap = {0: 1, 1: 0, 2: 2}
    obj_act = {(x, g): swap[x] if g else x for x in space.objects for g in (0, 1)}
    arrow_act = {(("id", x), g): ("id", obj_act[(x, g)])
                 for x in space.objects for g in (0, 1)}
    return homotopy_quotient(GroupAction(c2, space, obj_act, arrow_act).check())[0]


def _loop_pullback():
    bg = one_object(Group.cyclic(3))
    return homotopy_pullback(name_map(bg, "*"), name_map(bg, "*"))[0]


def _groth_total():
    # the C2-labelled arrows of a two-object component, sent to BC2
    c2 = Group.cyclic(2)
    dom = standard_component([0, 1], c2)
    p = GroupoidMap(dom, one_object(c2), {x: "*" for x in dom.objects},
                    {a: ("g", a[2]) for a in dom.arrows}).check()
    return groth_equivalence(p)[0]


@pytest.mark.parametrize("build", [
    lambda: disjoint_union_groupoids([one_object(Group.cyclic(2)),
                                      discrete([0])]),
    lambda: product_groupoid(one_object(Group.cyclic(2)),
                             standard_component([0, 1], Group.cyclic(2))),
    _swap_quotient,
    _loop_pullback,
    _groth_total,
    lambda: coloured_set_groupoid({"a": 2, "b": 1}),
], ids=["disjoint-union", "product", "quotient", "pullback", "groth-total",
        "coloured-set"])
def test_interchange_roundtrip(build):
    g = build().relabel()[0]
    assert len(g.objects) <= 4
    doc = groupoid_to_doc(g)
    back = groupoid_from_doc(doc)
    back.check()
    assert back.cardinality() == g.cardinality()
    assert len(back.pi0()) == len(g.pi0())
    # one row per composable pair: sum over objects of (arrows in) x (arrows out)
    ends = list(g.arrows.values())
    assert len(doc["compose"]) == sum(
        sum(t == x for _, t in ends) * sum(s == x for s, _ in ends)
        for x in g.objects)
    assert groupoid_to_doc(back) == doc


_E = {"src": 0, "dst": 0, "label": "e"}


@pytest.mark.parametrize("doc, message", [
    ({"objects": [0], "arrows": [_E, _E], "compose": [["e", "e", "e"]]},
     "duplicate arrow label"),
    ({"objects": [0], "arrows": [_E], "compose": [["e", "e", "zz"],
                                                  ["e", "e", "e"]]},
     "duplicate compose row"),
    ({"objects": [0], "arrows": [_E], "compose": [["e", "e", "e"],
                                                  ["e", "x", "e"]]},
     "not a composable pair"),
    ({"objects": [0, 1], "arrows": [_E, {"src": 1, "dst": 1, "label": "u"}],
      "compose": [["e", "e", "e"], ["u", "u", "u"], ["e", "u", "e"]]},
     "not a composable pair"),
], ids=["duplicate-label", "duplicate-row", "unknown-label", "not-composable"])
def test_interchange_rejects_contradictory_docs(doc, message):
    with pytest.raises(GroupoidError, match=message):
        groupoid_from_doc(doc)


@pytest.mark.parametrize("doc, message", [
    ({"objects": [1, 1], "arrows": [], "compose": []}, "^duplicate object ids$"),
    ({"objects": [0], "arrows": [_E], "compose": [["e", "e", "x"]]},
     r"^composite 'x' of \('e', 'e'\) is not an arrow 0 -> 0$"),
    ({"objects": [0, 1], "arrows": [_E, {"src": 1, "dst": 1, "label": "u"}],
      "compose": [["e", "e", "u"], ["u", "u", "u"]]},
     r"^composite 'u' of \('e', 'e'\) is not an arrow 0 -> 0$"),
], ids=["duplicate-object", "unknown-composite", "composite-endpoints"])
def test_interchange_names_row_errors_before_looking_for_units(doc, message):
    with pytest.raises(GroupoidError, match=message):
        groupoid_from_doc(doc)


@pytest.mark.parametrize("doc, message", [
    ({"objects": [1, True], "arrows": [
        {"src": 1, "dst": 1, "label": "a"},
        {"src": True, "dst": True, "label": "b"}],
      "compose": [["a", "a", "a"], ["b", "b", "b"]]}, "ids 1 and true collide"),
    ({"objects": [0], "arrows": [
        {"src": 0, "dst": 0, "label": 0}, {"src": 0, "dst": 0, "label": False}],
      "compose": [[0, 0, 0], [0, False, False], [False, 0, False],
                  [False, False, 0]]}, "ids 0 and false collide"),
    ({"objects": [0], "arrows": [{"src": 0, "dst": False, "label": "e"}],
      "compose": [["e", "e", "e"]]}, "ids 0 and false collide"),
], ids=["objects", "labels", "endpoint"])
def test_interchange_refuses_a_boolean_beside_its_number(doc, message):
    with pytest.raises(GroupoidError, match=message):
        groupoid_from_doc(doc)


def test_interchange_keeps_object_ids_apart_from_labels():
    # object true and arrow label 1 are ids of different kinds
    g = groupoid_from_doc({"objects": [True], "arrows": [
        {"src": True, "dst": True, "label": 1}], "compose": [[1, 1, 1]]})
    assert g.objects == (True,) and g.identities == {True: 1}
    assert g.cardinality() == 1


def test_interchange_rejects_bad_docs():
    with pytest.raises(GroupoidError):
        groupoid_from_doc({"objects": [0]})
    # a composable pair without a compose row
    with pytest.raises(GroupoidError):
        groupoid_from_doc({"objects": [0], "arrows": [
            {"src": 0, "dst": 0, "label": "e"}], "compose": []})
    # an arrow to an object that is not listed
    with pytest.raises(GroupoidError, match="arrow 'e' has unknown endpoint"):
        groupoid_from_doc({"objects": [0], "arrows": [
            {"src": 0, "dst": 1, "label": "e"}], "compose": []})


@pytest.mark.parametrize("doc", [
    {"objects": [[0]], "arrows": [{"src": [0], "dst": [0], "label": "e"}],
     "compose": [["e", "e", "e"]]},
    {"objects": [0], "arrows": [{"src": 0, "dst": 0, "label": {"e": 1}}],
     "compose": [[{"e": 1}, {"e": 1}, {"e": 1}]]},
    {"objects": [0], "arrows": [{"src": 0, "dst": 0, "label": "e"}],
     "compose": [["e", "e", ["e"]]]},
], ids=["array-object", "object-label", "array-composite"])
def test_interchange_rejects_non_scalar_ids(doc):
    with pytest.raises(GroupoidError, match="not a JSON scalar"):
        groupoid_from_doc(doc)


# scalars, wrong kinds and near misses that a mutation writes into a document
_FUZZ_VALUES = [0, 1, 2, -1, 1.0, 2.5, True, False, None, "", "e", "*", "0",
                [], [0], [0, 0, 0], {}, {"src": 0}, "abc"]


def _mutated(doc, rng):
    """A copy of the document with one random change at a random place: a
    value replaced (by one of the document's own scalars as often as by a
    value of ``_FUZZ_VALUES``), an entry dropped, duplicated or added, or
    two entries swapped."""
    doc = json.loads(json.dumps(doc))
    paths, scalars, stack = [()], [], [((), doc)]
    while stack:  # every container in the document, by its path
        path, node = stack.pop()
        keys = range(len(node)) if isinstance(node, list) else list(node)
        for k in keys:
            if isinstance(node[k], (list, dict)):
                paths.append(path + (k,))
                stack.append((path + (k,), node[k]))
            else:
                scalars.append(node[k])
    path = rng.choice(paths)
    node = doc
    for k in path:
        node = node[k]
    keys = list(range(len(node))) if isinstance(node, list) else list(node)
    kind = rng.randrange(5) if keys else 3
    if kind == 0:
        node[rng.choice(keys)] = rng.choice(rng.choice([scalars, _FUZZ_VALUES]))
    elif kind == 1:
        del node[rng.choice(keys)]
    elif kind == 2 and isinstance(node, list):
        node.insert(rng.randrange(len(node) + 1), node[rng.choice(keys)])
    elif kind == 3:
        value = rng.choice(_FUZZ_VALUES)
        if isinstance(node, list):
            node.insert(rng.randrange(len(node) + 1), value)
        else:
            node[rng.choice(["objects", "arrows", "compose", "src", "dst", "label"])] = value
    else:
        a, b = rng.choice(keys), rng.choice(keys)
        node[a], node[b] = node[b], node[a]
    return doc


def test_mutated_documents_exit_cleanly(tmp_path, capsys):
    # a mutation of a constructed groupoid's document is either a groupoid
    # (exit 0) or a document error (exit 2), never an internal error (3)
    bases = [groupoid_to_doc(g.relabel()[0]) for g in (
        standard_component([0, 1, 2], Group.cyclic(2)),
        one_object(Group.symmetric(3)),
        disjoint_union_groupoids([one_object(Group.cyclic(2)), discrete([0, 1])]))]
    rng, path, codes = random.Random(20240607), tmp_path / "g.json", set()
    for i in range(120):
        doc = _mutated(bases[i % len(bases)], rng)
        path.write_text(json.dumps(doc))
        for fmt in ("table", "structured"):
            code = main(["groupoid", "--file", str(path), "--format", fmt])
            err = capsys.readouterr().err
            assert code in (0, 2), (doc, err)
            codes.add(code)
    assert codes == {0, 2}


# -- the family groupoid ---------------------------------------------------------------

def test_coloured_set_vertex_groups():
    cases = [({"a": 3}, 6), ({"a": 2, "b": 2}, 4), ({"a": 1, "b": 2, "c": 2}, 4),
             ({"a": 5}, 120), ({"a": 1}, 1)]
    for profile, expected in cases:
        g = coloured_set_groupoid(profile)
        x = g.objects[0]
        assert len(g.hom(x, x)) == expected
        assert len(g.pi0()) == 1
        if sum(profile.values()) <= 4:
            g.check()


# -- the randomized suite ---------------------------------------------------------------

def test_suite_passes_briefly():
    rep = run_suite(count=30, seed=123)
    assert rep.passed
    assert rep.instances == 30
    doc = rep.as_doc()
    assert doc["summary"]["failed"] == 0


def test_suite_is_deterministic():
    a = run_suite(count=20, seed=5).as_doc()
    b = run_suite(count=20, seed=5).as_doc()
    assert a == b


def test_the_suite_leaves_no_cyclic_garbage(monkeypatch):
    # the suite runs with the collector paused, so what it leaves is only
    # freed by reference counts; with an empty cache every homomorphism
    # search runs again
    monkeypatch.setattr(groupoid_suite, "_HOM_CACHE", {})
    gc.disable()
    try:
        gc.collect()
        assert run_suite(200, 0).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def _paused_law(rng):
    assert not gc.isenabled()
    return True


class _Escape(BaseException):
    pass


def _escaping_law(rng):
    raise _Escape


def test_the_suite_pauses_the_collector_and_restores_it_on_return(monkeypatch):
    monkeypatch.setattr(groupoid_suite, "LAWS", [("paused", _paused_law)])
    assert gc.isenabled()
    assert run_suite(3, 0).results == {"paused": (3, 0)}
    assert gc.isenabled()


def test_a_law_that_raises_still_fails_its_instance_under_the_pause(monkeypatch, capsys):
    def raising(rng):
        assert not gc.isenabled()
        raise ZeroDivisionError("broken law")

    monkeypatch.setattr(groupoid_suite, "LAWS",
                        [("paused", _paused_law), ("raises", raising)])
    report = run_suite(4, 0)
    assert gc.isenabled()
    assert report.results == {"paused": (2, 0), "raises": (2, 2)}
    assert capsys.readouterr().err.splitlines() == [
        "law raises: instance 1 raised ZeroDivisionError: broken law",
        "law raises: instance 3 raised ZeroDivisionError: broken law"]


def test_the_collector_is_restored_when_a_base_exception_escapes_a_law(monkeypatch):
    monkeypatch.setattr(groupoid_suite, "LAWS",
                        [("paused", _paused_law), ("escapes", _escaping_law)])
    with pytest.raises(_Escape):
        run_suite(5, 0)
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off_over_the_suite(monkeypatch):
    monkeypatch.setattr(groupoid_suite, "LAWS",
                        [("paused", _paused_law), ("escapes", _escaping_law)])
    gc.disable()
    try:
        assert run_suite(1, 0).passed
        assert not gc.isenabled()
        with pytest.raises(_Escape):
            run_suite(2, 0)
        assert not gc.isenabled()
    finally:
        gc.enable()
