"""A calculus of explicitly finite groupoids.

Objects and labelled arrows with source and target are stored
extensionally; composition is a rule, ``mul(f, g)`` = "f then g", defined
exactly when ``target(f) == source(g)``; each object names its identity
arrow.  No table of composites is kept: components, vertex groups and
cardinality read only the arrows, and each hom-set is sorted when it is
first asked for.

Every groupoid also numbers its arrows 0, 1, ... in ``arrows`` order
(``numbering()``, built on first use, with endpoints and outgoing arrows as
numbers) and composes numbers: ``mul_n(i, j)`` is the number of "arrow i
then arrow j".  A groupoid is given one of the two rules and derives the
other: a rule on labels gives ``mul_n(i, j) = number[mul(labels[i],
labels[j])]``; a rule on numbers gives ``mul(f, g) = labels[mul_n(number[f],
number[g])]``.  Documents, standard components, unions, products, fibres
and pullbacks state a label rule; Grothendieck sums, quotients and
``relabel`` copies state a number rule.  The checks call the number rule
only: ``check`` on every composable pair and triple, and a map's ``check``
on every composable pair of the domain, and once per distinct pair of
images in the codomain, comparing images kept as a list of numbers.

Arrow convention of the constructions: ``standard_component``, pullbacks,
fibres and Grothendieck sums name each arrow by a triple
``(src, dst, label)``, and ``groupoid_from_labels`` builds the label-rule
ones.  A homotopy quotient X//G is the Grothendieck sum of the action's
family over BG, and ``check_family`` is the one check of a strict family,
for sums and actions alike; it hands the sum each base arrow's transport as
a list of fibre arrow numbers.  A sum composes on numbers from its
structure: the base composite, the transported fibre arrow, the fibre
composite and the composite's number from (source object, base arrow,
fibre arrow); the total's rule keeps each base composite per pair of base
arrows and each fibre composite per fibre and pair of fibre arrows.
``relabel`` maps any groupoid's ids to plain integers.

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


@dataclass(frozen=True)
class ArrowNumbering:
    """A groupoid's arrows numbered 0, 1, ... in ``arrows`` order.

    Arrow i is ``labels[i]``; objects are numbered in ``objects`` order
    (an endpoint outside ``objects`` after them), and each arrow's endpoints
    and each object's outgoing arrows are kept as numbers.  ``mul_n(i, j)``
    is the number of "i then j", or None when that is not an arrow.
    """

    labels: list
    number: dict  # arrow label -> number
    object_number: dict  # object -> number
    source: list  # arrow number -> object number
    target: list
    outgoing: list  # object number -> arrow numbers, in ``arrows`` order
    mul_n: Callable

    @classmethod
    def build(cls, objects, arrows: dict, mul, mul_n) -> "ArrowNumbering":
        """Number the arrows; without ``mul_n``, derive it from ``mul``."""
        labels = list(arrows)
        number = {a: i for i, a in enumerate(labels)}
        onum = {x: i for i, x in enumerate(objects)}
        source, target = [], []
        for s, t in arrows.values():
            source.append(onum.setdefault(s, len(onum)))
            target.append(onum.setdefault(t, len(onum)))
        outgoing: list = [[] for _ in onum]
        for i, s in enumerate(source):
            outgoing[s].append(i)
        if mul_n is None:
            find = number.get

            def mul_n(i, j):
                return find(mul(labels[i], labels[j]))
        return cls(labels, number, onum, source, target, outgoing, mul_n)


@dataclass
class FiniteGroupoid:
    objects: tuple
    arrows: dict  # label -> (src, dst)
    mul: Callable | None  # mul(f, g) is "f then g", for target(f) == source(g)
    identities: dict  # object -> label
    # the same on arrow numbers; a groupoid is given exactly one of the two
    # rules, and the other is derived from it
    rule_n: Callable | None = field(default=None, repr=False)
    # numbering() -> ArrowNumbering, built on first call
    numbering: Callable = field(init=False, repr=False, compare=False)

    _hom: dict = field(default_factory=dict, repr=False)
    _from: dict = field(default_factory=dict, repr=False)
    _pi0: list | None = field(default=None, repr=False)
    _class_of: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.mul is None) == (self.rule_n is None):
            raise GroupoidError("a groupoid needs one rule: on labels or on numbers")
        # closures over the fields, not over the groupoid: a reference cycle
        # would keep a large total alive until the cyclic collector runs
        objects, arrows, mul, mul_n = (self.objects, self.arrows, self.mul,
                                       self.rule_n)
        built: list = []

        def numbering() -> ArrowNumbering:
            if not built:
                built.append(ArrowNumbering.build(objects, arrows, mul, mul_n))
            return built[0]
        self.numbering = numbering
        if mul is None:
            def label_mul(f, g):
                n = numbering()
                k = n.mul_n(n.number[f], n.number[g])
                return None if k is None else n.labels[k]
            self.mul = label_mul

    def mul_n(self, i: int, j: int) -> int | None:
        """The number of "arrow i then arrow j"."""
        return self.numbering().mul_n(i, j)

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
        n = self.numbering()
        i = n.number[a]
        s, e = n.source[i], n.number[self.identities[self.arrows[a][0]]]
        for j in n.outgoing[n.target[i]]:
            if n.target[j] == s and n.mul_n(i, j) == e:
                return n.labels[j]
        raise GroupoidError(f"arrow {a!r} has no inverse")

    # -- validation ---------------------------------------------------------
    def check(self) -> "FiniteGroupoid":
        """Endpoints, identities, then on arrow numbers: the endpoints of
        every composite, both unit laws, associativity on every composable
        triple and an inverse of every arrow."""
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
        n = self.numbering()
        labels, source, target, outgoing, mul = (
            n.labels, n.source, n.target, n.outgoing, n.mul_n)
        unit = [n.number[self.identities[x]] for x in self.objects]
        for i, t in enumerate(target):
            for j in outgoing[t]:
                k = mul(i, j)
                if k is None or source[k] != source[i] or target[k] != target[j]:
                    raise GroupoidError(f"composite of ({labels[i]!r}, "
                                        f"{labels[j]!r}) has wrong endpoints")
        for i, (s, t) in enumerate(zip(source, target)):
            if mul(unit[s], i) != i:
                raise GroupoidError("left identity law fails")
            if mul(i, unit[t]) != i:
                raise GroupoidError("right identity law fails")
        for i, t in enumerate(target):
            for j in outgoing[t]:
                ij = mul(i, j)
                for h in outgoing[target[j]]:
                    if mul(ij, h) != mul(i, mul(j, h)):
                        raise GroupoidError("associativity fails")
        for a in labels:
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
        # the copy lists its arrows in this groupoid's order, so the two
        # share arrow numbers and the copy's rule is this one's
        return (FiniteGroupoid(
            tuple(range(len(self.objects))),
            {amap[a]: (omap[s], omap[t]) for a, (s, t) in self.arrows.items()},
            None, {omap[x]: amap[e] for x, e in self.identities.items()},
            self.numbering().mul_n), omap, amap)


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


def one_object(group: Group) -> FiniteGroupoid:
    """BG: the one object ``"*"``, with an arrow ``("g", g)`` per element."""
    return FiniteGroupoid(("*",), {("g", g): ("*", "*") for g in group.elements},
                          lambda f, g: ("g", group.mul[(f[1], g[1])]),
                          {"*": ("g", group.identity)})


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
        dom, cod = self.dom.numbering(), self.cod.numbering()
        # the image of every domain object and arrow, as codomain numbers
        obj_image = [cod.object_number[self.obj_map[x]]
                     for x in self.dom.objects]
        image = []
        for a, s, t in zip(dom.labels, dom.source, dom.target):
            b = cod.number.get(self.arrow_map[a])
            if b is None or cod.source[b] != obj_image[s] \
                    or cod.target[b] != obj_image[t]:
                raise GroupoidError(f"arrow {a!r} endpoints not preserved")
            image.append(b)
        for x, e in self.dom.identities.items():
            if self.arrow_map[e] != self.cod.identities[self.obj_map[x]]:
                raise GroupoidError("identities not preserved")
        # the pairs of composable_pairs(), in its order: the domain rule runs
        # on every pair, the codomain rule once per distinct pair of images
        dom_mul, cod_mul, outgoing = dom.mul_n, cod.mul_n, dom.outgoing
        width = len(cod.labels)
        composites: dict = {}
        for i, t in enumerate(dom.target):
            image_i = image[i]
            row = image_i * width
            for j in outgoing[t]:
                image_j = image[j]
                fg = composites.get(row + image_j, _UNSET)
                if fg is _UNSET:
                    fg = composites[row + image_j] = cod_mul(image_i, image_j)
                k = dom_mul(i, j)
                if k is None or fg != image[k]:
                    raise GroupoidError(
                        "composition not preserved at "
                        f"({dom.labels[i]!r}, {dom.labels[j]!r})")
        return self


_UNSET = object()


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


def name_map(g: FiniteGroupoid, obj) -> GroupoidMap:
    """The inclusion of a point hitting ``obj``."""
    return constant_map(terminal(), g, obj)


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
                 arrowact: Mapping[ArrId, GroupoidMap]) -> list[tuple[list, list]]:
    """Raise unless ``fam`` with ``arrowact`` is a strictly functorial
    family over ``base``: a fibre over every object, a map between fibres
    over every arrow, identity functors over identities, and the map over
    "f then g" equal to the map over f then the map over g.

    Returns the map over base arrow number s as ``moves[s]``: the images of
    its source fibre's objects and arrows, as numbers of the target fibre.
    """
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
    moves = []
    for a, (s, t) in base.arrows.items():
        m, dst = arrowact[a], fam[t].numbering()
        moves.append(([dst.object_number[m.obj_map[o]] for o in fam[s].objects],
                      [dst.number[m.arrow_map[phi]]
                       for phi in fam[s].numbering().labels]))
    bn = base.numbering()
    for f, t in enumerate(bn.target):
        objects_f, arrows_f = moves[f]
        for g in bn.outgoing[t]:
            objects_g, arrows_g = moves[g]
            objects_h, arrows_h = moves[bn.mul_n(f, g)]
            if [objects_g[o] for o in objects_f] != objects_h:
                raise GroupoidError("family is not strictly functorial")
            if [arrows_g[phi] for phi in arrows_f] != arrows_h:
                raise GroupoidError("family is not strictly functorial on arrows")
    return moves


def homotopy_sum(base: FiniteGroupoid,
                 fam: Mapping[ObjId, FiniteGroupoid],
                 arrowact: Mapping[ArrId, GroupoidMap]
                 ) -> tuple[FiniteGroupoid, GroupoidMap]:
    """Total groupoid of a strictly functorial family over the base.

    Objects are pairs (b, x); an arrow (b, x) -> (b2, x2) is a pair
    (sigma: b -> b2, phi: sigma.x -> x2 in the fibre over b2).
    """
    moves = check_family(base, fam, arrowact)
    bn = base.numbering()
    nb, base_mul = len(bn.labels), bn.mul_n
    # per fibre: its rule on numbers, its products met so far, its arrow
    # count and each arrow's place among the arrows out of its source;
    # and its objects in number order
    fibre_data: dict = {}
    fibre_ends: dict = {}
    for fib in fam.values():
        if id(fib) not in fibre_data:
            fn = fib.numbering()
            place = [0] * len(fn.labels)
            for out in fn.outgoing:
                for p, k in enumerate(out):
                    place[k] = p
            fibre_data[id(fib)] = (fn.mul_n, {}, len(fn.labels), place)
            fibre_ends[id(fib)] = list(fn.object_number)
    # per base arrow: the above for its target fibre, with the transport
    # of the source fibre's arrows
    over = [(*fibre_data[id(fam[b2])], move[1])
            for (_, b2), move in zip(base.arrows.values(), moves)]

    objects = [(b, x) for b in base.objects for x in fam[b].objects]
    in_fibre = [y for b in base.objects for y in range(len(fam[b].objects))]
    # arrow i of the total goes out of object number o, with
    # row[i] = o * nb, over base arrow over_base[i], and is fibre arrow
    # fibre_arrow[i]; the arrows out of object o over base arrow s are
    # numbered from first[o * nb + s], in the order of the fibre's arrows
    # out of the transported object
    arrows, first = [], {}
    row, over_base, fibre_arrow = [], [], []
    for o, (b, x) in enumerate(objects):
        o_nb = o * nb
        for s in bn.outgoing[bn.object_number[b]]:
            sigma = bn.labels[s]
            tb = base.arrows[sigma][1]
            fn, ends = fam[tb].numbering(), fibre_ends[id(fam[tb])]
            first[o_nb + s] = len(arrows)
            for p in fn.outgoing[moves[s][0][in_fibre[o]]]:
                arrows.append(((b, x), (tb, ends[fn.target[p]]),
                               (sigma, fn.labels[p])))
                row.append(o_nb)
                over_base.append(s)
                fibre_arrow.append(p)
    base_products: dict = {}

    def mul_n(i, j):
        s1, s2, p2 = over_base[i], over_base[j], fibre_arrow[j]
        s = base_products.get(s1 * nb + s2)
        if s is None:
            s = base_products[s1 * nb + s2] = base_mul(s1, s2)
        fib_mul, products, width, place, transport = over[s2]
        q = transport[fibre_arrow[i]]
        k = products.get(q * width + p2)
        if k is None:
            k = fib_mul(q, p2)
            if k is None:
                return None
            products[q * width + p2] = k
        return first[row[i] + s] + place[k]

    total = FiniteGroupoid(
        tuple(objects), {a: (a[0], a[1]) for a in arrows}, None,
        {o: (o, o, (base.identities[o[0]], fam[o[0]].identities[o[1]]))
         for o in objects}, mul_n)
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
