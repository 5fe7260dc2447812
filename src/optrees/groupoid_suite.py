"""Randomized property suite for the groupoid calculus.

Instances are built from connected standard components (a set of objects
with a common vertex group), random functors between them (a group
homomorphism conjugated by per-object units), and permutation actions.
Every law is an exact rational identity; a failure is reported, never
tolerated.  The generator is deterministic in the seed.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .groupoids import (FiniteGroupoid, Group, GroupAction, GroupoidMap,
                        compose_maps, constant_map,
                        disjoint_union_groupoids, fibre_family,
                        groth_equivalence, groupoid_from_labels,
                        homotopy_fiber, homotopy_quotient,
                        homotopy_sum, identity_map, is_equivalence,
                        product_groupoid, pushforward_cardinality,
                        relative_cardinality, standard_component, terminal,
                        vector_scale, vectors_equal)

GROUP_CATALOG: list[Group] = [
    Group.cyclic(1),
    Group.cyclic(2),
    Group.cyclic(3),
    Group.cyclic(4),
    Group.klein(),
    Group.symmetric(3),
]

# Keyed by object ids; each entry keeps its groups alive, so an id in the
# key cannot be reused by another group while the entry exists.
_HOM_CACHE: dict[tuple[int, int], tuple[Group, Group, list[dict]]] = {}


def all_homs(g: Group, h: Group) -> list[dict]:
    """All group homomorphisms g -> h, by exhaustive search (cached)."""
    key = (id(g), id(h))
    got = _HOM_CACHE.get(key)
    if got is not None:
        return got[2]
    out: list[dict] = []
    els = list(g.elements)

    def rec(i: int, hom: dict):
        if i == len(els):
            out.append(dict(hom))
            return
        a = els[i]
        for img in h.elements:
            hom[a] = img
            ok = True
            for b in list(hom):
                ab = g.mul[(a, b)]
                ba = g.mul[(b, a)]
                if ab in hom and h.mul[(hom[a], hom[b])] != hom[ab]:
                    ok = False
                    break
                if ba in hom and h.mul[(hom[b], hom[a])] != hom[ba]:
                    ok = False
                    break
            if ok:
                rec(i + 1, hom)
        del hom[a]

    rec(0, {})
    _HOM_CACHE[key] = (g, h, out)
    return out


@dataclass
class ComponentData:
    objects: tuple
    group: Group


def random_components(rng: random.Random, max_components=2, max_objects=2,
                      max_group_order=6) -> list[ComponentData]:
    comps = []
    for i in range(rng.randint(1, max_components)):
        n = rng.randint(1, max_objects)
        group = rng.choice([g for g in GROUP_CATALOG if g.order <= max_group_order])
        comps.append(ComponentData(tuple(range(n)), group))
    return comps


def build_groupoid(comps: list[ComponentData]) -> FiniteGroupoid:
    return disjoint_union_groupoids(
        [standard_component(c.objects, c.group) for c in comps])


def random_groupoid(rng: random.Random, **kw) -> FiniteGroupoid:
    return build_groupoid(random_components(rng, **kw))


def random_map(rng: random.Random, dom_comps: list[ComponentData],
               cod_comps: list[ComponentData]) -> GroupoidMap:
    """A functor between disjoint unions of standard components.

    Each domain component goes to a random codomain component through a
    random group homomorphism conjugated by random per-object units.
    """
    dom = build_groupoid(dom_comps)
    cod = build_groupoid(cod_comps)
    obj_map: dict = {}
    arrow_map: dict = {}
    for i, c in enumerate(dom_comps):
        j = rng.randrange(len(cod_comps))
        d = cod_comps[j]
        homs = all_homs(c.group, d.group)
        hom = rng.choice(homs)
        f_obj = {x: rng.choice(d.objects) for x in c.objects}
        units = {x: rng.choice(d.group.elements) for x in c.objects}
        inv = {x: d.group.inverse(units[x]) for x in c.objects}
        for x in c.objects:
            obj_map[(i, x)] = (j, f_obj[x])
        mul = d.group.mul
        for x in c.objects:
            for y in c.objects:
                for g in c.group.elements:
                    lab = mul[(inv[x], mul[(hom[g], units[y])])]
                    arrow_map[(i, (x, y, g))] = (j, (f_obj[x], f_obj[y], lab))
    return GroupoidMap(dom, cod, obj_map, arrow_map)


def random_action(rng: random.Random) -> GroupAction:
    """A permutation action: the group permutes identical copies of one
    standard component (plus optional fixed copies)."""
    group = rng.choice([GROUP_CATALOG[1], GROUP_CATALOG[2], GROUP_CATALOG[5]])
    if group.order == 2:
        degree, perm_of = 2, lambda g: (lambda i: (i + g) % 2)
    elif isinstance(group.elements[0], int):
        degree, perm_of = 3, lambda g: (lambda i: (i + g) % 3)
    else:
        degree, perm_of = 3, lambda g: (lambda i: g[i])
    fixed = rng.randint(0, 1)
    shape = ComponentData(tuple(range(rng.randint(1, 2))),
                          rng.choice(GROUP_CATALOG[:3]))
    parts = [standard_component(shape.objects, shape.group)
             for _ in range(degree + fixed)]
    space = disjoint_union_groupoids(parts)
    obj_act = {}
    arrow_act = {}
    for g in group.elements:
        move = perm_of(g)
        for (i, x) in space.objects:
            i2 = move(i) if i < degree else i
            obj_act[((i, x), g)] = (i2, x)
        for (i, a) in space.arrows:
            i2 = move(i) if i < degree else i
            arrow_act[((i, a), g)] = (i2, a)
    return GroupAction(group, space, obj_act, arrow_act)


def coloured_set_groupoid(profile: dict[str, int]) -> FiniteGroupoid:
    """Colourings of a finite set with a given colour profile; arrows are
    colour-preserving bijections."""
    m = sum(profile.values())
    pool = []
    for c in sorted(profile):
        pool.extend([c] * profile[c])
    objects = sorted(set(itertools.permutations(pool)))
    # perm moves the point at position i of src to position perm[i] of dst
    return groupoid_from_labels(
        objects, [(src, tuple(src[perm.index(j)] for j in range(m)), perm)
                  for src in objects for perm in itertools.permutations(range(m))],
        lambda a1, a2: tuple(a2[2][a1[2][i]] for i in range(m)),
        lambda o: tuple(range(m)))


# ---------------------------------------------------------------------------
# the laws


def law_sum_cardinality(rng) -> bool:
    x = random_groupoid(rng)
    y = random_groupoid(rng)
    both = disjoint_union_groupoids([x, y])
    return both.cardinality() == x.cardinality() + y.cardinality()


def law_product_cardinality(rng) -> bool:
    x = random_groupoid(rng)
    y = random_groupoid(rng)
    prod = product_groupoid(x, y)
    return prod.cardinality() == x.cardinality() * y.cardinality()


def law_quotient_cardinality(rng) -> bool:
    action = random_action(rng).check()
    quot, _ = homotopy_quotient(action)
    return quot.cardinality() == action.space.cardinality() / action.group.order


def law_groth(rng) -> bool:
    dom = random_components(rng)
    cod = random_components(rng)
    p = random_map(rng, dom, cod).check()
    _, fw, bw = groth_equivalence(p)
    fw.check()
    bw.check()
    if not (is_equivalence(fw) and is_equivalence(bw)):
        return False
    # composites act as the identity on components
    rt = compose_maps(bw, fw)
    for comp in p.dom.pi0():
        if p.dom.class_of(rt.obj_map[comp[0]]) != comp[0]:
            return False
    # componentwise cardinality match
    return vectors_equal(relative_cardinality(fw),
                         relative_cardinality(identity_map(p.dom)))


def law_relrel(rng) -> bool:
    a = random_components(rng)
    b = random_components(rng)
    c = random_components(rng)
    p = random_map(rng, a, b).check()
    t = random_map(rng, b, c).check()
    t = GroupoidMap(p.cod, t.cod,
                    {x: t.obj_map[x] for x in p.cod.objects},
                    {ar: t.arrow_map[ar] for ar in p.cod.arrows})
    direct = relative_cardinality(compose_maps(p, t))
    pushed = pushforward_cardinality(relative_cardinality(p), t)
    return vectors_equal(direct, pushed)


def law_doublecounting(rng) -> bool:
    u = random_components(rng)
    a = random_components(rng)
    b = random_components(rng)
    left = random_map(rng, u, b).check()
    right = random_map(rng, u, a).check()
    right = GroupoidMap(left.dom, right.cod,
                        {x: right.obj_map[x] for x in left.dom.objects},
                        {ar: right.arrow_map[ar] for ar in left.dom.arrows})
    card = left.dom.cardinality()
    lhs = sum(relative_cardinality(left).values(), Fraction(0))
    rhs = sum(relative_cardinality(right).values(), Fraction(0))
    return lhs == card == rhs


def law_action_cardinality(rng) -> bool:
    action = random_action(rng).check()
    quot, proj = homotopy_quotient(action)
    over_self = relative_cardinality(identity_map(quot))
    through = relative_cardinality(proj)
    if not vectors_equal(over_self, vector_scale(through,
                                                 Fraction(1, action.group.order))):
        return False
    to_point = constant_map(quot, terminal(), "*")
    lhs = relative_cardinality(to_point)
    rhs = vector_scale(relative_cardinality(compose_maps(proj, to_point)),
                       Fraction(1, action.group.order))
    return vectors_equal(lhs, rhs)


def law_fibre_formula(rng) -> bool:
    dom = random_components(rng)
    cod = random_components(rng)
    p = random_map(rng, dom, cod).check()
    quick = relative_cardinality(p)
    slow: dict = {}
    fibres, _, _ = fibre_family(p)
    for comp in p.cod.pi0():
        b = comp[0]
        val = fibres[b].cardinality() / len(p.cod.hom(b, b))
        if val:
            slow[b] = val
    return vectors_equal(quick, slow)


def law_fubini(rng) -> bool:
    a = random_components(rng, max_components=2, max_objects=2)
    b = random_components(rng, max_components=2, max_objects=2)
    c = random_components(rng, max_components=2, max_objects=2)
    p = random_map(rng, a, b).check()
    t = random_map(rng, b, c).check()
    t = GroupoidMap(p.cod, t.cod,
                    {x: t.obj_map[x] for x in p.cod.objects},
                    {ar: t.arrow_map[ar] for ar in p.cod.arrows})
    direct = relative_cardinality(compose_maps(p, t))
    fibres, _, arrowact = fibre_family(p)
    iterated: dict = {}
    for comp in t.cod.pi0():
        i = comp[0]
        bi, _ = homotopy_fiber(t, i)
        fam2 = {o: fibres[o[0]] for o in bi.objects}
        act2 = {arr: arrowact[arr[2]] for arr in bi.arrows}
        inner, _ = homotopy_sum(bi, fam2, act2)
        val = inner.cardinality() / len(t.cod.hom(i, i))
        if val:
            iterated[i] = val
    return vectors_equal(direct, iterated)


def law_family_aut(rng) -> bool:
    colours = ("a", "b", "c")[:rng.randint(1, 3)]
    profile = {}
    budget = 5
    for c in colours:
        n = rng.randint(0, budget)
        if n:
            profile[c] = n
        budget -= n
    if not profile:
        profile = {colours[0]: 1}
    g = coloured_set_groupoid(profile)
    expected = 1
    for n in profile.values():
        for i in range(2, n + 1):
            expected *= i
    x = g.objects[0]
    if len(g.hom(x, x)) != expected:
        return False
    return len(g.pi0()) == 1


LAWS = [
    ("sum-cardinality", law_sum_cardinality),
    ("product-cardinality", law_product_cardinality),
    ("quotient-cardinality", law_quotient_cardinality),
    ("grothendieck-equivalence", law_groth),
    ("relative-transitivity", law_relrel),
    ("double-counting", law_doublecounting),
    ("action-relative-cardinality", law_action_cardinality),
    ("fibrewise-formula", law_fibre_formula),
    ("fubini", law_fubini),
    ("family-vertex-group", law_family_aut),
]


@dataclass
class SuiteReport:
    seed: int
    count: int
    results: dict  # law name -> (instances, failed)

    @property
    def passed(self) -> bool:
        return all(f == 0 for _, f in self.results.values())

    @property
    def instances(self) -> int:
        return sum(i for i, _ in self.results.values())

    def as_doc(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "laws": [{"law": name, "instances": i, "failed": f}
                     for name, (i, f) in sorted(self.results.items())],
            "summary": {"instances": self.instances,
                        "failed": sum(f for _, f in self.results.values())},
        }


def run_suite(count: int = 200, seed: int = 0) -> SuiteReport:
    """Run every law on ``count`` random instances (spread over the laws).

    An instance whose law raises counts as failed; the law and the
    exception are named on standard error.
    """
    rng = random.Random(seed)
    results = {name: [0, 0] for name, _ in LAWS}
    for k in range(count):
        name, law = LAWS[k % len(LAWS)]
        results[name][0] += 1
        try:
            held = law(rng)
        except Exception as exc:
            print(f"law {name}: instance {k} raised {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            held = False
        if not held:
            results[name][1] += 1
    return SuiteReport(seed, count, {n: (i, f) for n, (i, f) in results.items()})
