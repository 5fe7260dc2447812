"""A calculus of explicitly finite groupoids.

Objects and labelled arrows with source and target are stored
extensionally; composition is a rule, ``mul(f, g)`` = "f then g", defined
exactly when ``target(f) == source(g)``; each object names its identity
arrow.  No table of composites is kept, and each hom-set is sorted when it
is first asked for.

Every groupoid also numbers its arrows 0, 1, ... in ``arrows`` order
(``numbering()``, built on first use, with endpoints, outgoing arrows and
each arrow's place among its source's as numbers); components and
``arrows_from`` read it.  A groupoid composes a row at a time:
``row_n(i)`` lists "arrow i then j" for every j out of the target of i, in
``outgoing`` order, and ``mul_n(i, j)`` reads ``row_n(i)[place[j]]``
(keeping the last row).  A groupoid is given a rule on labels, which gives
each entry as ``number[mul(labels[i], labels[j])]``, or a row rule, which
gives ``mul`` through the numbers.  Documents, standard components,
unions, products, fibres and pullbacks state a label rule; Grothendieck
sums, quotients and ``relabel`` copies a row rule.  The checks compare
whole rows, and search a row for the first failing pair only when it
disagrees: ``check`` holds each row against the endpoints, the units, an
inverse and, for associativity, the row of each composite; a map's
``check`` maps each domain row through the images and compares it with the
codomain row of the image (one per distinct image), read at the images'
places, both reads by ``operator.itemgetter`` (one getter per domain object
for the places, one per row for the images).

Arrow convention of the constructions: ``standard_component``, pullbacks
and Grothendieck sums name each arrow by a triple ``(src, dst, label)``,
and ``groupoid_from_labels`` builds the label-rule ones.  The homotopy
fibre of p over b is the pullback of p against the point b, with objects
``(e, "*", phi: p e -> b)`` and arrow labels ``(alpha, ("id", "*"))``.  A
homotopy quotient X//G is the Grothendieck sum of the action's family over
BG, and ``check_family`` is the one check of a strict family, for sums and
actions alike; it hands the sum each base arrow's transport as a list of
fibre arrow numbers.  A sum's row of arrow (sigma, phi) has one stretch per
base arrow tau out of the target of sigma: phi transported along tau, that
fibre arrow's row as places (kept per fibre and arrow), offset by the first
arrow over the base composite of sigma and tau.  A sum's arrows share the
total's object tuples as endpoints.  ``homotopy_sum`` builds the total
alone, as ``(total,)``, and ``sum_projection`` gives its projection onto
the base; ``homotopy_quotient`` returns X//G with its map from X.
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
import json
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

ObjId = Hashable
ArrId = Hashable


class GroupoidError(ValueError):
    pass


class Group:
    """Finite group by multiplication table; ``mul[(a, b)]`` is "a then b"."""

    def __init__(self, elements: tuple, mul: dict, identity: Hashable):
        self.elements, self.mul, self.identity = elements, mul, identity

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


class ArrowNumbering:
    """A groupoid's arrows numbered 0, 1, ... in ``arrows`` order, with
    objects numbered in ``objects`` order (an endpoint outside ``objects``
    after them).  ``row_n(i)`` lists "i then j" for each j in
    ``outgoing[target[i]]``, and ``mul_n(i, j)`` is one entry of it; an
    entry is None when that composite is not an arrow; rows come from
    ``mul`` unless ``row_n`` is given.  ``number`` and ``object_number`` map
    labels and objects to numbers, ``source`` and ``target`` arrow numbers
    to object numbers, ``outgoing`` an object number to its arrow numbers
    in ``arrows`` order, and ``place`` an arrow to its index there.
    """

    def __init__(self, objects, arrows: dict, mul, row_n):
        labels = list(arrows)
        number = {a: i for i, a in enumerate(labels)}
        onum = {x: i for i, x in enumerate(dict.fromkeys(objects))}
        source, target = [], []
        for s, t in arrows.values():
            source.append(onum.setdefault(s, len(onum)))
            target.append(onum.setdefault(t, len(onum)))
        outgoing: list = [[] for _ in onum]
        place = []
        for i, s in enumerate(source):
            place.append(len(outgoing[s]))
            outgoing[s].append(i)
        if row_n is None:
            find = number.get

            def row_n(i):
                f = labels[i]
                return [find(mul(f, labels[j])) for j in outgoing[target[i]]]
        rows, last = row_n, [None, None]

        def mul_n(i, j):
            # the last row asked for is kept, so a run of pairs with one
            # first arrow builds one row
            if source[j] != target[i]:
                return None
            if last[0] != i:
                last[:] = i, rows(i)
            return last[1][place[j]]
        self.labels, self.number, self.object_number = labels, number, onum
        self.source, self.target, self.outgoing = source, target, outgoing
        self.place, self.row_n, self.mul_n = place, row_n, mul_n


class FiniteGroupoid:
    """``arrows`` maps a label to (src, dst), ``mul(f, g)`` is "f then g" for
    target(f) == source(g), and ``identities`` maps an object to a label.
    ``row_n`` gives rows on arrow numbers (see ``ArrowNumbering``); a
    groupoid is given exactly one of ``mul`` and ``row_n``."""

    def __init__(self, objects: tuple, arrows: dict, mul: Callable | None,
                 identities: dict, row_n: Callable | None = None):
        if (mul is None) == (row_n is None):
            raise GroupoidError("a groupoid needs one rule: on labels or on numbers")
        self.objects, self.arrows, self.identities = objects, arrows, identities
        self._hom: dict = {}
        self._pi0: list | None = None
        self._class_of: list | None = None
        # closures over the arguments, not over the groupoid: a reference
        # cycle would keep a large total alive until the cyclic collector runs
        built: list = []

        def numbering() -> ArrowNumbering:
            """The ``ArrowNumbering``, built on first call."""
            if not built:
                built.append(ArrowNumbering(objects, arrows, mul, row_n))
            return built[0]
        self.numbering, self.mul = numbering, mul
        if mul is None:
            def label_mul(f, g):
                n = numbering()
                k = n.mul_n(n.number[f], n.number[g])
                return None if k is None else n.labels[k]
            self.mul = label_mul

    def row_n(self, i: int) -> list:
        """The numbers of "arrow i then j", for j out of the target of i."""
        return self.numbering().row_n(i)

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
        n = self.numbering()
        o = n.object_number.get(x)
        return [] if o is None else [n.labels[i] for i in n.outgoing[o]]

    def composable_pairs(self) -> Iterable[tuple]:
        """Every pair (f, g) with target(f) == source(g)."""
        n = self.numbering()
        for f, t in zip(n.labels, n.target):
            for j in n.outgoing[t]:
                yield f, n.labels[j]

    # -- validation ---------------------------------------------------------
    def check(self) -> "FiniteGroupoid":
        """Endpoints, identities, then on the rows of arrow numbers: the
        endpoints of every composite, both unit laws, associativity on every
        composable triple and an inverse of every arrow."""
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
        labels, source, target, outgoing, place = (
            n.labels, n.source, n.target, n.outgoing, n.place)
        unit = [n.number[self.identities[x]] for x in self.objects]
        rows = [n.row_n(i) for i in range(len(labels))]
        # the targets a row's composites must have, per object
        ends = [[target[j] for j in out] for out in outgoing]
        for i, (s, t, row) in enumerate(zip(source, target, rows)):
            try:
                if [target[k] for k in row] == ends[t] \
                        and [source[k] for k in row].count(s) == len(row):
                    continue
            except TypeError:  # a composite that is not an arrow
                pass
            j = next(j for j, k in zip(outgoing[t], row) if k is None
                     or source[k] != s or target[k] != target[j])
            raise GroupoidError(f"composite of ({labels[i]!r}, "
                                f"{labels[j]!r}) has wrong endpoints")
        for x, e in enumerate(unit):
            if rows[e] != outgoing[x]:
                raise GroupoidError("left identity law fails")
        for i, row in enumerate(rows):
            if row[place[unit[target[i]]]] != i:
                raise GroupoidError("right identity law fails")
        # (i then j) then h against i then (j then h), for every h: the row
        # of i then j against the row of j read through the row of i
        placed = [[place[k] for k in row] for row in rows]
        for i, row in enumerate(rows):
            read = row.__getitem__
            for j, ij in zip(outgoing[target[i]], row):
                if rows[ij] != list(map(read, placed[j])):
                    raise GroupoidError("associativity fails")
        for i, row in enumerate(rows):
            if unit[source[i]] not in row:
                raise GroupoidError(f"arrow {labels[i]!r} has no inverse")
        return self

    # -- components and vertex groups ---------------------------------------
    def pi0(self) -> list[tuple]:
        """Components as sorted object tuples, sorted by representative."""
        if self._pi0 is not None:
            return self._pi0
        n = self.numbering()
        onum = n.object_number
        parent = list(range(len(onum)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, t in zip(n.source, n.target):
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
        comps: dict = {}
        for x, i in onum.items():
            comps.setdefault(find(i), []).append(x)
        comps = {r: tuple(sorted(c, key=repr)) for r, c in comps.items()}
        self._class_of = [comps[find(i)][0] for i in range(len(onum))]
        self._pi0 = sorted(comps.values(), key=lambda c: repr(c[0]))
        return self._pi0

    def class_of(self, x) -> ObjId:
        """Canonical representative (minimal object) of the class of x."""
        self.pi0()
        return self._class_of[self.numbering().object_number[x]]

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
            self.numbering().row_n), omap, amap)


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


class GroupoidMap:
    def __init__(self, dom: FiniteGroupoid, cod: FiniteGroupoid, obj_map: dict,
                 arrow_map: dict):
        self.dom, self.cod, self.obj_map, self.arrow_map = dom, cod, obj_map, arrow_map

    def check(self) -> "GroupoidMap":
        """Coverage, endpoints and identities, then composition a row at a
        time: each domain row, read through the arrow images, must equal the
        codomain row of its arrow's image read at the places of those
        images.  Both reads are ``operator.itemgetter`` calls: one getter
        per domain object, built once, for the places, and one per row for
        the images.  A failure names the first pair, in row order, whose
        composite is not preserved."""
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
        # a getter of one index gives the entry itself, on both sides alike;
        # of no index (an object with no arrow out) there is no getter
        dom_row, cod_row = dom.row_n, cod.row_n
        reads = [itemgetter(*[cod.place[image[j]] for j in out]) if out else _no_entries
                 for out in dom.outgoing]
        cod_rows: dict = {}  # image -> its codomain row
        for i, t in enumerate(dom.target):
            row = cod_rows.get(image[i])
            if row is None:
                row = cod_rows[image[i]] = cod_row(image[i])
            got = dom_row(i)
            try:
                if reads[t](row) == (itemgetter(*got)(image) if got else ()):
                    continue
            except TypeError:  # a domain composite that is not an arrow
                pass
            expected = [row[cod.place[image[j]]] for j in dom.outgoing[t]]
            j = next(j for j, k, fg in zip(dom.outgoing[t], got, expected)
                     if k is None or image[k] != fg)
            raise GroupoidError("composition not preserved at "
                                f"({dom.labels[i]!r}, {dom.labels[j]!r})")
        return self


def _no_entries(row) -> tuple:
    """The reading of a row at no place."""
    return ()


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
    """The pullback of p against the name of b, with its leg to the domain:
    objects (e, "*", phi: p e -> b), arrows labelled (alpha, ("id", "*"))."""
    if b not in set(p.cod.objects):
        raise GroupoidError(f"unknown object {b!r}")
    fib, incl, _ = homotopy_pullback(p, name_map(p.cod, b))
    return fib, incl


class GroupAction:
    """Right action of a finite group on a groupoid, by tables: g acts by
    the functor x -> ``obj_act[(x, g)]``, a -> ``arrow_act[(a, g)]``."""

    def __init__(self, group: Group, space: FiniteGroupoid, obj_act: dict,
                 arrow_act: dict):
        self.group, self.space = group, space
        self.obj_act, self.arrow_act = obj_act, arrow_act

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
    quot = homotopy_sum(*action.family())[0]
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
        for g, h in zip(bn.outgoing[t], bn.row_n(f)):
            objects_g, arrows_g = moves[g]
            objects_h, arrows_h = moves[h]
            if [objects_g[o] for o in objects_f] != objects_h:
                raise GroupoidError("family is not strictly functorial")
            if [arrows_g[phi] for phi in arrows_f] != arrows_h:
                raise GroupoidError("family is not strictly functorial on arrows")
    return moves


def homotopy_sum(base: FiniteGroupoid,
                 fam: Mapping[ObjId, FiniteGroupoid],
                 arrowact: Mapping[ArrId, GroupoidMap]
                 ) -> tuple[FiniteGroupoid]:
    """Total groupoid of a strictly functorial family over the base.

    Objects are pairs (b, x); an arrow (b, x) -> (b2, x2) is a pair
    (sigma: b -> b2, phi: sigma.x -> x2 in the fibre over b2).  Returns
    ``(total,)``, a tuple led by the groupoid it builds like the other
    homotopy constructions (``perfbench``'s tracer counts the arrows of
    that first item).  No caller in the package reads the projection onto
    the base, so none is built; ``sum_projection`` gives it.
    """
    moves = check_family(base, fam, arrowact)
    bn = base.numbering()
    nb = len(bn.labels)
    # per fibre: each arrow's row as places, built when first asked for,
    # with the fibre's row rule and places
    fibre_data: dict = {}
    for fib in fam.values():
        if id(fib) not in fibre_data:
            fn = fib.numbering()
            fibre_data[id(fib)] = ([None] * len(fn.labels), fn.row_n, fn.place)
    # per base arrow tau: its transport and its target fibre's data; per
    # base arrow sigma, when first asked for: each tau out of its target
    # with the composite of sigma and tau
    over = [(move[1], *fibre_data[id(fam[b2])])
            for (_, b2), move in zip(base.arrows.values(), moves)]
    steps: list = [None] * nb

    objects = [(b, x) for b in base.objects for x in fam[b].objects]
    in_fibre = [y for b in base.objects for y in range(len(fam[b].objects))]
    # per base object b, the objects (b, y) in the numbering of its fibre's
    # objects: the arrows share these tuples as targets and the objects'
    # own as sources, instead of two new pairs per arrow
    ends = {b: [(b, y) for y in fam[b].numbering().object_number]
            for b in base.objects}
    # arrow i of the total goes out of object number o, with
    # row[i] = o * nb, over base arrow over_base[i], and is fibre arrow
    # fibre_arrow[i]; the arrows out of object o over base arrow s are
    # numbered from first[o * nb + s], in the order of the fibre's arrows
    # out of the transported object
    arrows, first = [], {}
    row, over_base, fibre_arrow = [], [], []
    for o, source in enumerate(objects):
        o_nb = o * nb
        for s in bn.outgoing[bn.object_number[source[0]]]:
            sigma = bn.labels[s]
            tb = base.arrows[sigma][1]
            fn, targets = fam[tb].numbering(), ends[tb]
            first[o_nb + s] = len(arrows)
            for p in fn.outgoing[moves[s][0][in_fibre[o]]]:
                arrows.append((source, targets[fn.target[p]], (sigma, fn.labels[p])))
                row.append(o_nb)
                over_base.append(s)
                fibre_arrow.append(p)

    def row_n(i):
        o_nb, sigma, phi = row[i], over_base[i], fibre_arrow[i]
        if steps[sigma] is None:
            steps[sigma] = [(s, over[tau]) for tau, s in zip(
                bn.outgoing[bn.target[sigma]], bn.row_n(sigma))]
        out: list = []
        for s, (transport, places, fibre_row, place) in steps[sigma]:
            q = transport[phi]
            stretch = places[q]
            if stretch is None:
                composites = fibre_row(q)
                if None in composites:
                    raise GroupoidError("a fibre composite is not an arrow")
                stretch = places[q] = [place[k] for k in composites]
            out += map(first[o_nb + s].__add__, stretch)
        return out

    total = FiniteGroupoid(
        tuple(objects), {a: (a[0], a[1]) for a in arrows}, None,
        {o: (o, o, (base.identities[o[0]], fam[o[0]].identities[o[1]]))
         for o in objects}, row_n)
    return (total,)


def sum_projection(total: FiniteGroupoid, base: FiniteGroupoid) -> GroupoidMap:
    """The projection of a Grothendieck sum over ``base`` onto it:
    (b, x) -> b and (sigma, phi) -> sigma."""
    return GroupoidMap(total, base, {o: o[0] for o in total.objects},
                       {a: a[2][0] for a in total.arrows})


def fibre_family(p: GroupoidMap) -> tuple[dict, dict]:
    """The strict family of homotopy fibres of a map, with arrow transport.

    Returns (fibres, arrowact) indexed by codomain objects and arrows;
    transport along sigma: b -> b2 sends (e, "*", phi) to
    (e, "*", phi then sigma) and keeps each arrow's label.
    """
    B = p.cod
    fibres = {b: homotopy_fiber(p, b)[0] for b in B.objects}
    arrowact = {}
    for sigma, (b, b2) in B.arrows.items():
        src = fibres[b]
        omap = {o: (o[0], "*", B.mul(o[2], sigma)) for o in src.objects}
        amap = {a: (omap[a[0]], omap[a[1]], a[2]) for a in src.arrows}
        arrowact[sigma] = GroupoidMap(src, fibres[b2], omap, amap)
    return fibres, arrowact


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
    n = g.numbering()
    return {
        "objects": sorted(g.objects, key=repr),
        "arrows": [{"src": s, "dst": t, "label": a}
                   for a, (s, t) in sorted(g.arrows.items(), key=lambda kv: repr(kv[0]))],
        "compose": sorted(([n.labels[i], n.labels[j], n.labels[k]]
                           for i, t in enumerate(n.target)
                           for j, k in zip(n.outgoing[t], n.row_n(i))), key=repr),
    }


def groupoid_from_doc(doc: Mapping) -> FiniteGroupoid:
    """Groupoid from an interchange document; every object id, endpoint and
    arrow label must be a JSON scalar (not an array or object), and neither
    the object ids nor the labels may hold a boolean and the number Python
    takes it for.  Object ids and arrow labels are unique, and the compose
    rows name each composable pair of arrows exactly once and no other
    pair, with an arrow between the pair's outer endpoints as composite."""
    obj_ids, labels = {}, {}  # id -> its first spelling, per kind
    try:
        objects = tuple(_doc_id(x, obj_ids) for x in doc["objects"])
        arrows = {_doc_id(a["label"], labels): (_doc_id(a["src"], obj_ids),
                                                _doc_id(a["dst"], obj_ids))
                  for a in doc["arrows"]}
        table = {(_doc_id(f, labels), _doc_id(h, labels)): _doc_id(k, labels)
                 for f, h, k in doc["compose"]}
        if len(arrows) != len(doc["arrows"]):
            raise GroupoidError("duplicate arrow label")
        if len(table) != len(doc["compose"]):
            raise GroupoidError("duplicate compose row")
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupoidError(f"malformed groupoid document: {exc}") from None
    known = set(objects)
    if len(known) != len(objects):
        raise GroupoidError("duplicate object ids")
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
    for (f, h), k in table.items():
        if arrows.get(k) != (arrows[f][0], arrows[h][1]):
            raise GroupoidError(f"composite {k!r} of ({f!r}, {h!r}) is not an "
                                f"arrow {arrows[f][0]!r} -> {arrows[h][1]!r}")
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


def _doc_id(value, seen: dict):
    if isinstance(value, (list, dict)):
        raise GroupoidError(f"id {value!r} is not a JSON scalar")
    # Python takes true for 1 and false for 0
    first = seen.setdefault(value, value)
    if isinstance(first, bool) != isinstance(value, bool):
        raise GroupoidError(f"ids {json.dumps(first)} and {json.dumps(value)} "
                            "collide")
    return value


def groth_equivalence(p: GroupoidMap) -> tuple[FiniteGroupoid, GroupoidMap, GroupoidMap]:
    """The total groupoid of the fibre family of p, with the comparison
    functor to the domain and its quasi-inverse."""
    E, B = p.dom, p.cod
    total = homotopy_sum(B, *fibre_family(p))[0]
    # (b, (e, "*", phi)) -> e ; (sigma, fibre arrow over alpha) -> alpha
    fw = GroupoidMap(total, E, {o: o[1][0] for o in total.objects},
                     {a: a[2][1][2][0] for a in total.arrows})
    # e -> (p e, (e, "*", id)) ; alpha -> (p alpha, transported fibre arrow)
    obj_map = {}
    for e in E.objects:
        obj_map[e] = (p.obj_map[e], (e, "*", B.identities[p.obj_map[e]]))
    arrow_map = {}
    for alpha, (e, e2) in E.arrows.items():
        sigma = p.arrow_map[alpha]
        b2 = p.obj_map[e2]
        src_in_fibre = (e, "*", sigma)  # transport of (e, "*", id) along sigma
        fib_arrow = (src_in_fibre, (e2, "*", B.identities[b2]),
                     (alpha, ("id", "*")))
        arrow_map[alpha] = (obj_map[e], obj_map[e2], (sigma, fib_arrow))
    bw = GroupoidMap(E, total, obj_map, arrow_map)
    return total, fw, bw
