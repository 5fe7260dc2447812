"""A calculus of explicitly finite groupoids.

Objects and labelled arrows with source and target are stored
extensionally; composition is a rule, ``mul(f, g)`` = "f then g", defined
exactly when ``target(f) == source(g)``; each object names its identity
arrow.  No table of composites is kept: components, vertex groups and
cardinality read only the arrows, and each hom-set is sorted when it is
first asked for.  Every arrow must be invertible and composition
associative; ``check`` verifies all of it by calling the rule on every
composable pair and triple, found through ``composable_pairs``.  A map's
``check`` calls the domain rule on every composable pair and the codomain
rule once per distinct pair of images.

Arrow convention of the constructions: ``standard_component``, pullbacks,
fibres and Grothendieck sums name each arrow by a triple
``(src, dst, label)``, and ``groupoid_from_labels`` builds all of them.  A
construction states its arrows, the label of "a1 then a2" and the label of
an identity once.  A homotopy quotient X//G is the Grothendieck sum of the
action's family over BG, and ``check_family`` is the one check of a strict
family, for sums and actions alike.  A sum's rule composes each pair of
base arrows once, in a table that lives with the total.  ``relabel`` maps
any groupoid's ids to plain integers.

Cardinality is the sum over components of the inverse vertex-group order,
an exact rational.  The relative cardinality of a map p: X -> B is the
vector over the components of B with coefficient ``1/|Aut x|`` at the
class of ``p(x)``, summed over components x of X; the equivalent fibrewise
formula ``|X_b| / |Aut b|`` is exercised by the tests.

Equivalences are checked by witness: a functor is an equivalence iff it
induces a bijection on components and isomorphisms of vertex groups at one
representative per component.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

ObjId = Hashable
ArrId = Hashable


class GroupoidError(ValueError):
    pass


@dataclass
class Group:
    """Finite group by multiplication table; ``mul[(a, b)]`` is "a then b"."""

    elements: tuple
    mul: dict
    identity: Hashable

    def check(self) -> "Group":
        """The table must be total on the elements; the group laws are then
        the groupoid laws of BG (``one_object``)."""
        els = set(self.elements)
        for a in els:
            for b in els:
                if (a, b) not in self.mul or self.mul[(a, b)] not in els:
                    raise GroupoidError("multiplication not total")
        one_object(self).check()
        return self

    @property
    def order(self) -> int:
        return len(self.elements)

    def inverse(self, a):
        for b in self.elements:
            if self.mul[(a, b)] == self.identity:
                return b
        raise GroupoidError(f"no inverse for {a!r}")

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        return cls(tuple(range(n)), {(a, b): (a + b) % n
                                     for a in range(n) for b in range(n)}, 0)

    @classmethod
    def from_permutations(cls, perms: Iterable[tuple[int, ...]]) -> "Group":
        els = tuple(sorted(set(perms)))
        mul = {}
        for a in els:
            for b in els:
                mul[(a, b)] = tuple(b[a[i]] for i in range(len(a)))  # a then b
        ident = tuple(range(len(els[0])))
        return cls(els, mul, ident)

    @classmethod
    def symmetric(cls, n: int) -> "Group":
        return cls.from_permutations(itertools.permutations(range(n)))

    @classmethod
    def klein(cls) -> "Group":
        els = [(0, 0), (0, 1), (1, 0), (1, 1)]
        mul = {(a, b): ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
               for a in els for b in els}
        return cls(tuple(els), mul, (0, 0))


@dataclass
class FiniteGroupoid:
    objects: tuple
    arrows: dict  # label -> (src, dst)
    mul: Callable  # mul(f, g) is "f then g", for target(f) == source(g)
    identities: dict  # object -> label

    _hom: dict = field(default_factory=dict, repr=False)
    _from: dict = field(default_factory=dict, repr=False)
    _pi0: list | None = field(default=None, repr=False)
    _class_of: dict | None = field(default=None, repr=False)

    def source(self, a) -> ObjId:
        return self.arrows[a][0]

    def target(self, a) -> ObjId:
        return self.arrows[a][1]

    def hom(self, x, y) -> tuple:
        """Arrows x -> y, sorted by ``repr``; a hom-set is sorted when it is
        first asked for."""
        index = self._hom
        if not index:
            for a, (s, t) in self.arrows.items():
                index.setdefault((s, t), []).append(a)
        arrows = index.get((x, y), ())
        if isinstance(arrows, list):
            arrows = index[(x, y)] = tuple(sorted(arrows, key=repr))
        return arrows

    def arrows_from(self, x) -> list:
        """Arrows with source x, in the order of ``arrows``."""
        index = self._from
        if not index:
            for a, (s, _) in self.arrows.items():
                index.setdefault(s, []).append(a)
        return index.get(x, [])

    def composable_pairs(self) -> Iterable[tuple]:
        """Every pair (f, g) with target(f) == source(g)."""
        for f, (_, t) in self.arrows.items():
            for g in self.arrows_from(t):
                yield f, g

    def inverse(self, a):
        s, t = self.arrows[a]
        for b in self.hom(t, s):
            if self.mul(a, b) == self.identities[s]:
                return b
        raise GroupoidError(f"arrow {a!r} has no inverse")

    # -- validation ---------------------------------------------------------
    def check(self) -> "FiniteGroupoid":
        objs = set(self.objects)
        if len(objs) != len(self.objects):
            raise GroupoidError("duplicate object ids")
        for a, (s, t) in self.arrows.items():
            if s not in objs or t not in objs:
                raise GroupoidError(f"arrow {a!r} has unknown endpoint")
        if set(self.identities) != objs:
            raise GroupoidError("identities must cover exactly the objects")
        for x, e in self.identities.items():
            if self.arrows.get(e) != (x, x):
                raise GroupoidError(f"identity of {x!r} is not an endo-arrow")
        for f, g in self.composable_pairs():
            if self.arrows.get(self.mul(f, g)) != (self.arrows[f][0],
                                                   self.arrows[g][1]):
                raise GroupoidError(
                    f"composite of ({f!r}, {g!r}) has wrong endpoints")
        for a, (s, t) in self.arrows.items():
            if self.mul(self.identities[s], a) != a:
                raise GroupoidError("left identity law fails")
            if self.mul(a, self.identities[t]) != a:
                raise GroupoidError("right identity law fails")
        for f, g in self.composable_pairs():
            fg = self.mul(f, g)
            for h in self.arrows_from(self.arrows[g][1]):
                if self.mul(fg, h) != self.mul(f, self.mul(g, h)):
                    raise GroupoidError("associativity fails")
        for a in self.arrows:
            self.inverse(a)  # raises when not invertible
        return self

    # -- components and vertex groups ---------------------------------------
    def pi0(self) -> list[tuple]:
        """Components as sorted object tuples, sorted by representative."""
        if self._pi0 is not None:
            return self._pi0
        parent = {x: x for x in self.objects}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (s, t) in self.arrows.values():
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
        comps: dict = {}
        for x in self.objects:
            comps.setdefault(find(x), []).append(x)
        out = sorted((tuple(sorted(c, key=repr)) for c in comps.values()),
                     key=lambda c: repr(c[0]))
        self._pi0 = out
        self._class_of = {x: c[0] for c in out for x in c}
        return out

    def class_of(self, x) -> ObjId:
        """Canonical representative (minimal object) of the class of x."""
        self.pi0()
        return self._class_of[x]

    def aut_group(self, x) -> Group:
        if x not in set(self.objects):
            raise GroupoidError(f"unknown object {x!r}")
        els = self.hom(x, x)
        mul = {(a, b): self.mul(a, b) for a in els for b in els}
        return Group(els, mul, self.identities[x])

    def cardinality(self) -> Fraction:
        total = Fraction(0)
        for comp in self.pi0():
            total += Fraction(1, len(self.hom(comp[0], comp[0])))
        return total

    def relabel(self) -> tuple["FiniteGroupoid", dict, dict]:
        """Copy with integer object/arrow ids; returns (copy, obj map, arrow map)."""
        omap = {x: i for i, x in enumerate(sorted(self.objects, key=repr))}
        labels = sorted(self.arrows, key=repr)
        amap = {a: i for i, a in enumerate(labels)}
        return (FiniteGroupoid(
            tuple(range(len(self.objects))),
            {amap[a]: (omap[s], omap[t]) for a, (s, t) in self.arrows.items()},
            lambda f, g: amap.get(self.mul(labels[f], labels[g])),
            {omap[x]: amap[e] for x, e in self.identities.items()}), omap, amap)


def groupoid_from_labels(objects: Iterable, arrows: Iterable[tuple],
                         mul, identity_label) -> FiniteGroupoid:
    """The groupoid whose arrows are ``(src, dst, label)`` triples.

    "a1 then a2" is ``(a1[0], a2[1], mul(a1, a2))``; the identity of x is
    ``(x, x, identity_label(x))``, which must be among the arrows.
    """
    objects = tuple(objects)
    return FiniteGroupoid(objects, {a: (a[0], a[1]) for a in arrows},
                          lambda a1, a2: (a1[0], a2[1], mul(a1, a2)),
                          {x: (x, x, identity_label(x)) for x in objects})


# ---------------------------------------------------------------------------
# basic constructors


def discrete(objects: Iterable) -> FiniteGroupoid:
    objects = tuple(objects)
    return FiniteGroupoid(objects, {("id", x): (x, x) for x in objects},
                          lambda f, g: f, {x: ("id", x) for x in objects})


def one_object(group: Group, obj="*") -> FiniteGroupoid:
    return FiniteGroupoid((obj,), {("g", g): (obj, obj) for g in group.elements},
                          lambda f, g: ("g", group.mul[(f[1], g[1])]),
                          {obj: ("g", group.identity)})


def standard_component(objects: Sequence, group: Group) -> FiniteGroupoid:
    """Connected groupoid on the given objects with the given vertex group:
    arrows x -> y are group elements, composed by multiplying labels."""
    return groupoid_from_labels(
        objects, [(x, y, g) for x in objects for y in objects
                  for g in group.elements],
        lambda a1, a2: group.mul[(a1[2], a2[2])], lambda x: group.identity)


def disjoint_union_groupoids(parts: Sequence[FiniteGroupoid]) -> FiniteGroupoid:
    parts = tuple(parts)
    objects = []
    arrows = {}
    idents = {}
    for i, g in enumerate(parts):
        objects.extend((i, x) for x in g.objects)
        for a, (s, t) in g.arrows.items():
            arrows[(i, a)] = ((i, s), (i, t))
        for x, e in g.identities.items():
            idents[(i, x)] = (i, e)
    return FiniteGroupoid(tuple(objects), arrows,
                          lambda f, g: (f[0], parts[f[0]].mul(f[1], g[1])),
                          idents)


def product_groupoid(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    objects = tuple((x, y) for x in a.objects for y in b.objects)
    arrows = {(f, g): ((sf, sg), (tf, tg))
              for f, (sf, tf) in a.arrows.items()
              for g, (sg, tg) in b.arrows.items()}
    idents = {(x, y): (a.identities[x], b.identities[y])
              for x in a.objects for y in b.objects}
    return FiniteGroupoid(objects, arrows,
                          lambda f, g: (a.mul(f[0], g[0]), b.mul(f[1], g[1])),
                          idents)


def terminal() -> FiniteGroupoid:
    return discrete(("*",))


# ---------------------------------------------------------------------------
# maps


@dataclass
class GroupoidMap:
    dom: FiniteGroupoid
    cod: FiniteGroupoid
    obj_map: dict
    arrow_map: dict

    def check(self) -> "GroupoidMap":
        if set(self.obj_map) != set(self.dom.objects):
            raise GroupoidError("object map must cover the domain")
        if set(self.arrow_map) != set(self.dom.arrows):
            raise GroupoidError("arrow map must cover the domain arrows")
        cod_objs = set(self.cod.objects)
        for x, y in self.obj_map.items():
            if y not in cod_objs:
                raise GroupoidError(f"object {x!r} maps outside the codomain")
        for a, b in self.arrow_map.items():
            s, t = self.dom.arrows[a]
            if self.cod.arrows.get(b) != (self.obj_map[s], self.obj_map[t]):
                raise GroupoidError(f"arrow {a!r} endpoints not preserved")
        for x, e in self.dom.identities.items():
            if self.arrow_map[e] != self.cod.identities[self.obj_map[x]]:
                raise GroupoidError("identities not preserved")
        # the pairs of composable_pairs(), in its order, with each arrow's
        # image looked up once; the domain rule runs on every pair, the
        # codomain rule once per distinct pair of images, kept under the
        # images' numbers (small ints hash faster than nested labels)
        amap, dom_mul, cod_mul = self.arrow_map, self.dom.mul, self.cod.mul
        number: dict = {}
        images: list = []
        images_from: dict = {}
        for g, (s, _) in self.dom.arrows.items():
            image = amap[g]
            images.append((image, number.setdefault(image, len(number))))
            images_from.setdefault(s, []).append((g, *images[-1]))
        composites: dict = {}
        for (f, (_, t)), (image_f, i) in zip(self.dom.arrows.items(), images):
            row = i * len(number)
            for g, image_g, j in images_from.get(t, ()):
                k = row + j
                if k in composites:
                    fg = composites[k]
                else:
                    fg = composites[k] = cod_mul(image_f, image_g)
                if fg != amap[dom_mul(f, g)]:
                    raise GroupoidError("composition not preserved")
        return self


def identity_map(g: FiniteGroupoid) -> GroupoidMap:
    return GroupoidMap(g, g, {x: x for x in g.objects},
                       {a: a for a in g.arrows})


def compose_maps(f: GroupoidMap, g: GroupoidMap) -> GroupoidMap:
    """f then g."""
    if f.cod is not g.dom:
        raise GroupoidError("maps not composable")
    return GroupoidMap(f.dom, g.cod,
                       {x: g.obj_map[y] for x, y in f.obj_map.items()},
                       {a: g.arrow_map[b] for a, b in f.arrow_map.items()})


def constant_map(dom: FiniteGroupoid, cod: FiniteGroupoid, obj) -> GroupoidMap:
    e = cod.identities[obj]
    return GroupoidMap(dom, cod, {x: obj for x in dom.objects},
                       {a: e for a in dom.arrows})


def name_map(g: FiniteGroupoid, obj, point: FiniteGroupoid | None = None) -> GroupoidMap:
    """The inclusion of a point hitting ``obj``."""
    pt = point if point is not None else terminal()
    return GroupoidMap(pt, g, {x: obj for x in pt.objects},
                       {a: g.identities[obj] for a in pt.arrows})


# ---------------------------------------------------------------------------
# homotopy constructions


def homotopy_pullback(f: GroupoidMap, g: GroupoidMap
                      ) -> tuple[FiniteGroupoid, GroupoidMap, GroupoidMap]:
    """Objects (x, y, phi: f x -> g y); arrows are pairs acting on both legs
    that conjugate the connecting arrow correctly."""
    if f.cod is not g.cod:
        raise GroupoidError("pullback needs a common codomain")
    X, Y, S = f.dom, g.dom, f.cod
    objects = [(x, y, phi) for x in X.objects for y in Y.objects
               for phi in S.hom(f.obj_map[x], g.obj_map[y])]
    arrows = []
    for o in objects:
        x, y, phi = o
        for alpha in X.arrows_from(x):
            x2, fa = X.target(alpha), f.arrow_map[alpha]
            for beta in Y.arrows_from(y):
                y2, pg = Y.target(beta), S.mul(phi, g.arrow_map[beta])
                # phi then g(beta) == f(alpha) then phi2
                for phi2 in S.hom(f.obj_map[x2], g.obj_map[y2]):
                    if S.mul(fa, phi2) == pg:
                        arrows.append((o, (x2, y2, phi2), (alpha, beta)))
    pb = groupoid_from_labels(
        objects, arrows,
        lambda a1, a2: (X.mul(a1[2][0], a2[2][0]), Y.mul(a1[2][1], a2[2][1])),
        lambda o: (X.identities[o[0]], Y.identities[o[1]]))
    p1 = GroupoidMap(pb, X, {o: o[0] for o in objects},
                     {a: a[2][0] for a in arrows})
    p2 = GroupoidMap(pb, Y, {o: o[1] for o in objects},
                     {a: a[2][1] for a in arrows})
    return pb, p1, p2


def homotopy_fiber(p: GroupoidMap, b) -> tuple[FiniteGroupoid, GroupoidMap]:
    """Pullback of p against the name of b: objects (e, phi: p e -> b)."""
    if b not in set(p.cod.objects):
        raise GroupoidError(f"unknown object {b!r}")
    E, B = p.dom, p.cod
    objects = [(e, phi) for e in E.objects for phi in B.hom(p.obj_map[e], b)]
    arrows = []
    for o in objects:
        for alpha in E.arrows_from(o[0]):
            e2 = E.target(alpha)
            # phi == p(alpha) then phi2
            for phi2 in B.hom(p.obj_map[e2], b):
                if B.mul(p.arrow_map[alpha], phi2) == o[1]:
                    arrows.append((o, (e2, phi2), alpha))
    fib = groupoid_from_labels(objects, arrows,
                               lambda a1, a2: E.mul(a1[2], a2[2]),
                               lambda o: E.identities[o[0]])
    incl = GroupoidMap(fib, E, {o: o[0] for o in objects},
                       {a: a[2] for a in arrows})
    return fib, incl


@dataclass
class GroupAction:
    """Right action of a finite group on a groupoid, by tables: g acts by
    the functor x -> ``obj_act[(x, g)]``, a -> ``arrow_act[(a, g)]``."""

    group: Group
    space: FiniteGroupoid
    obj_act: dict  # (object, group element) -> object
    arrow_act: dict  # (arrow, group element) -> arrow

    def family(self) -> tuple[FiniteGroupoid, dict, dict]:
        """The action as a strict family over BG: the space over the one
        object, and the functor of g over the arrow ("g", g)."""
        G, X = self.group, self.space
        return one_object(G), {"*": X}, {
            ("g", g): GroupoidMap(
                X, X, {x: self.obj_act[(x, g)] for x in X.objects},
                {a: self.arrow_act[(a, g)] for a in X.arrows})
            for g in G.elements}

    def check(self) -> "GroupAction":
        for g in self.group.elements:
            if any((x, g) not in self.obj_act for x in self.space.objects) \
                    or any((a, g) not in self.arrow_act for a in self.space.arrows):
                raise GroupoidError("action not total")
        base, fam, arrowact = self.family()
        for m in arrowact.values():
            m.check()
        check_family(base, fam, arrowact)
        return self


def homotopy_quotient(action: GroupAction) -> tuple[FiniteGroupoid, GroupoidMap]:
    """X//G, the Grothendieck sum of the action's family over BG: objects
    ("*", x); an arrow ("*", x) -> ("*", y) is (("g", g), phi: x.g -> y).
    Returns it with the projection x -> ("*", x)."""
    quot, _ = homotopy_sum(*action.family())
    X, e = action.space, ("g", action.group.identity)
    proj = GroupoidMap(X, quot, {x: ("*", x) for x in X.objects},
                       {a: (("*", s), ("*", t), (e, a))
                        for a, (s, t) in X.arrows.items()})
    return quot, proj


def check_family(base: FiniteGroupoid, fam: Mapping[ObjId, FiniteGroupoid],
                 arrowact: Mapping[ArrId, GroupoidMap]) -> None:
    """Raise unless ``fam`` with ``arrowact`` is a strictly functorial
    family over ``base``: a fibre over every object, a map between fibres
    over every arrow, identity functors over identities, and the map over
    "f then g" equal to the map over f then the map over g."""
    for b in base.objects:
        if b not in fam:
            raise GroupoidError("family must cover the base objects")
    for a, (s, t) in base.arrows.items():
        m = arrowact.get(a)
        if m is None or m.dom is not fam[s] or m.cod is not fam[t]:
            raise GroupoidError("arrow action must give maps between fibres")
    for x, e in base.identities.items():
        m = arrowact[e]
        if m.obj_map != {o: o for o in fam[x].objects} \
                or m.arrow_map != {a: a for a in fam[x].arrows}:
            raise GroupoidError("identity arrows must act as identity functors")
    for f, g in base.composable_pairs():
        mf, mg, mh = arrowact[f], arrowact[g], arrowact[base.mul(f, g)]
        for o in fam[base.arrows[f][0]].objects:
            if mg.obj_map[mf.obj_map[o]] != mh.obj_map[o]:
                raise GroupoidError("family is not strictly functorial")
        for a in fam[base.arrows[f][0]].arrows:
            if mg.arrow_map[mf.arrow_map[a]] != mh.arrow_map[a]:
                raise GroupoidError("family is not strictly functorial on arrows")


def homotopy_sum(base: FiniteGroupoid,
                 fam: Mapping[ObjId, FiniteGroupoid],
                 arrowact: Mapping[ArrId, GroupoidMap]
                 ) -> tuple[FiniteGroupoid, GroupoidMap]:
    """Total groupoid of a strictly functorial family over the base.

    Objects are pairs (b, x); an arrow (b, x) -> (b2, x2) is a pair
    (sigma: b -> b2, phi: sigma.x -> x2 in the fibre over b2).
    """
    check_family(base, fam, arrowact)
    # per base arrow: the rule of its target fibre and its transport map;
    # per composable pair of base arrows met so far: their composite and
    # the second arrow's entry of that table
    over = {sigma: (fam[t].mul, arrowact[sigma].arrow_map)
            for sigma, (_, t) in base.arrows.items()}
    over_pair: dict = {}

    def mul(a1, a2):
        (sigma1, phi1), (sigma2, phi2) = a1[2], a2[2]
        got = over_pair.get((sigma1, sigma2))
        if got is None:
            got = over_pair[(sigma1, sigma2)] = (base.mul(sigma1, sigma2),
                                                 *over[sigma2])
        sigma, fib_mul, transport = got
        return sigma, fib_mul(transport[phi1], phi2)

    objects = [(b, x) for b in base.objects for x in fam[b].objects]
    arrows = []
    for (b, x) in objects:
        for sigma in base.arrows_from(b):
            tb = base.arrows[sigma][1]
            for phi in fam[tb].arrows_from(arrowact[sigma].obj_map[x]):
                arrows.append(((b, x), (tb, fam[tb].target(phi)), (sigma, phi)))
    total = groupoid_from_labels(
        objects, arrows, mul,
        lambda o: (base.identities[o[0]], fam[o[0]].identities[o[1]]))
    proj = GroupoidMap(total, base, {o: o[0] for o in objects},
                       {a: a[2][0] for a in arrows})
    return total, proj


def fibre_family(p: GroupoidMap) -> tuple[dict, dict, dict]:
    """The strict family of homotopy fibres of a map, with arrow transport.

    Returns (fibres, inclusions, arrowact) indexed by codomain objects and
    arrows; transport along sigma: b -> b2 sends (e, phi) to
    (e, phi then sigma).
    """
    B = p.cod
    fibres = {}
    inclusions = {}
    for b in B.objects:
        fib, incl = homotopy_fiber(p, b)
        fibres[b] = fib
        inclusions[b] = incl
    arrowact = {}
    for sigma, (b, b2) in B.arrows.items():
        src, dst = fibres[b], fibres[b2]
        omap = {}
        for (e, phi) in src.objects:
            omap[(e, phi)] = (e, B.mul(phi, sigma))
        amap = {}
        for a in src.arrows:
            (e, phi), (e2, phi2), alpha = a
            amap[a] = (omap[(e, phi)], omap[(e2, phi2)], alpha)
        arrowact[sigma] = GroupoidMap(src, dst, omap, amap)
    return fibres, inclusions, arrowact


# ---------------------------------------------------------------------------
# cardinality


RationalVector = dict  # component representative -> Fraction


def relative_cardinality(p: GroupoidMap) -> RationalVector:
    """Vector over the codomain components: 1/|Aut x| at the class of p(x),
    summed over components x of the domain."""
    X, B = p.dom, p.cod
    out: dict = {c[0]: Fraction(0) for c in B.pi0()}
    for comp in X.pi0():
        x = comp[0]
        out[B.class_of(p.obj_map[x])] += Fraction(1, len(X.hom(x, x)))
    return {k: v for k, v in out.items() if v}


def pushforward_cardinality(vec: RationalVector, t: GroupoidMap) -> RationalVector:
    """Sum coefficients along the map induced on components."""
    B, I = t.dom, t.cod
    out: dict = {}
    for b_class, v in vec.items():
        i_class = I.class_of(t.obj_map[b_class])
        out[i_class] = out.get(i_class, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def vector_scale(vec: RationalVector, c: Fraction) -> RationalVector:
    return {k: c * v for k, v in vec.items() if c * v}


def vectors_equal(a: RationalVector, b: RationalVector) -> bool:
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


# ---------------------------------------------------------------------------
# equivalences


def is_equivalence(m: GroupoidMap) -> bool:
    """Witness check: bijective on components, vertex-group isomorphism at a
    representative of every component."""
    dom_comps = m.dom.pi0()
    cod_comps = m.cod.pi0()
    image_classes = {m.cod.class_of(m.obj_map[c[0]]) for c in dom_comps}
    if len(image_classes) != len(dom_comps) or len(dom_comps) != len(cod_comps):
        return False
    for comp in dom_comps:
        x = comp[0]
        fx = m.obj_map[x]
        auts = m.dom.hom(x, x)
        images = {m.arrow_map[a] for a in auts}
        if len(images) != len(auts):
            return False
        if len(auts) != len(m.cod.hom(fx, fx)):
            return False
    return True


# ---------------------------------------------------------------------------
# interchange documents
#
# {"objects": [id...], "arrows": [{"src","dst","label"}...],
#  "compose": [[f, g, "f then g"]...]}
# Identity arrows are not stored; they are recognised as two-sided units.


def groupoid_to_doc(g: FiniteGroupoid) -> dict:
    return {
        "objects": sorted(g.objects, key=repr),
        "arrows": [{"src": s, "dst": t, "label": a}
                   for a, (s, t) in sorted(g.arrows.items(), key=lambda kv: repr(kv[0]))],
        "compose": sorted(([f, h, g.mul(f, h)] for f, h in g.composable_pairs()),
                          key=repr),
    }


def groupoid_from_doc(doc: Mapping) -> FiniteGroupoid:
    """Groupoid from an interchange document; every object id, endpoint and
    arrow label must be a JSON scalar (not an array or object).  Arrow
    labels are unique, and the compose rows name each composable pair of
    arrows exactly once and no other pair."""
    try:
        objects = tuple(map(_doc_id, doc["objects"]))
        arrows = {_doc_id(a["label"]): (_doc_id(a["src"]), _doc_id(a["dst"]))
                  for a in doc["arrows"]}
        table = {(_doc_id(f), _doc_id(h)): _doc_id(k)
                 for f, h, k in doc["compose"]}
        if len(arrows) != len(doc["arrows"]):
            raise GroupoidError("duplicate arrow label")
        if len(table) != len(doc["compose"]):
            raise GroupoidError("duplicate compose row")
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupoidError(f"malformed groupoid document: {exc}") from None
    known = set(objects)
    for a, (s, t) in arrows.items():
        if s not in known or t not in known:
            raise GroupoidError(f"arrow {a!r} has unknown endpoint")
    g = FiniteGroupoid(objects, arrows, lambda f, h: table[(f, h)], {})
    pairs = set(g.composable_pairs())
    stray = sorted(table.keys() - pairs, key=repr)
    if stray:
        raise GroupoidError(f"compose row {stray[0]!r} is not a composable pair")
    missing = sorted(pairs - table.keys(), key=repr)
    if missing:
        raise GroupoidError(f"composition missing on {missing[0]!r}")
    by_dst: dict = {}
    for a, (s, t) in arrows.items():
        by_dst.setdefault(t, []).append(a)
    for x in objects:
        out = g.arrows_from(x)
        units = [e for e in out if arrows[e] == (x, x)
                 and all(table[(e, a)] == a for a in out)
                 and all(table[(a, e)] == a for a in by_dst.get(x, ()))]
        if len(units) != 1:
            raise GroupoidError(f"object {x!r} has {len(units)} two-sided units")
        g.identities[x] = units[0]
    return g.check()


def _doc_id(value):
    if isinstance(value, (list, dict)):
        raise GroupoidError(f"id {value!r} is not a JSON scalar")
    return value


def groth_equivalence(p: GroupoidMap) -> tuple[FiniteGroupoid, GroupoidMap, GroupoidMap]:
    """The total groupoid of the fibre family of p, with the comparison
    functor to the domain and its quasi-inverse."""
    E, B = p.dom, p.cod
    fibres, _, arrowact = fibre_family(p)
    total, _ = homotopy_sum(B, fibres, arrowact)
    # (b, (e, phi)) -> e ; (sigma, fibre arrow alpha) -> alpha
    fw = GroupoidMap(total, E, {o: o[1][0] for o in total.objects},
                     {a: a[2][1][2] for a in total.arrows})
    # e -> (p e, (e, id)) ; alpha -> (p alpha, transported fibre arrow)
    obj_map = {}
    for e in E.objects:
        obj_map[e] = (p.obj_map[e], (e, B.identities[p.obj_map[e]]))
    arrow_map = {}
    for alpha, (e, e2) in E.arrows.items():
        sigma = p.arrow_map[alpha]
        b2 = p.obj_map[e2]
        src_in_fibre = (e, sigma)  # transport of (e, id) along sigma
        fib_arrow = (src_in_fibre, (e2, B.identities[b2]), alpha)
        arrow_map[alpha] = (obj_map[e], obj_map[e2], (sigma, fib_arrow))
    bw = GroupoidMap(E, total, obj_map, arrow_map)
    return total, fw, bw
