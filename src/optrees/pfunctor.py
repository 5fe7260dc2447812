"""Polynomial endofunctor specifications and decorated trees.

An :class:`EndofunctorSpec` is a finite set of colours together with typed
operations; each operation has an output colour, an ordered list of input
colours, and a symmetry group acting on its input positions (given by
permutation generators that must preserve input colours).

A :class:`PTree` is a tree diagram whose edges carry colours and whose
nodes carry operations, with the node's input-edge tuple giving the slot
assignment.  Isomorphisms of decorated trees are tree isomorphisms that
match colours and operations and permute each node's slots by an element
of that operation's symmetry group.

Canonical form
--------------
``PTree.key`` is a complete isomorphism invariant computed bottom-up by one
rule, ``EndofunctorSpec.node_code``: the code of a node is its operation name
followed by the lexicographically least arrangement of its children's codes
over the op's symmetry group.  An op is *block-symmetric* when, within each
block of equally coloured input slots, its transposition generators connect
every slot; its group is then all colour-preserving permutations, the least
arrangement sorts the codes within each block, and the stabiliser of the
codes has order ∏ m! over the runs of m equal codes in a block.  A rigid
op (trivial group) keeps the codes in slot order, with stabiliser 1.  Any
other group is closed from its generators, and one scan of it collects the
whole orbit of the child codes: the orbit's least element is the
arrangement, and the stabiliser has order |group| / |orbit|
(orbit–stabiliser).  Since
|Aut op(T₁…T_k)| = |stabiliser| · ∏ |Aut T_i|, the automorphism order of a
tree is the product of its node stabiliser orders, kept by the same pass
that codes the nodes.  The canonical key doubles as the canonical string of
the textual grammar

    ptree  := "_" colour? | "(" opname (":" ptree*)? ")"

so keys can be parsed back into representative trees.  On the trivial tree
the colour annotation is printed only when the spec has several colours;
leaf children inside an operation never need one (the slot fixes it).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .trees import (MAX_PARSE_DEPTH, Cut, GrammarError, MatchingNotBijective,
                    TreeDiagram, _Scanner, ideal_subtree, prune)


class SpecError(ValueError):
    """Invalid endofunctor specification or decorated tree."""


class UnknownBuiltin(SpecError):
    pass


class UnknownOp(SpecError):
    pass


class ArityMismatch(SpecError):
    pass


class ColourMismatch(SpecError):
    pass


Perm = tuple[int, ...]


def _perm_mul(p: Perm, q: Perm) -> Perm:
    # (p*q)[i] = p[q[i]]: apply q first
    return tuple(p[q[i]] for i in range(len(p)))


# Largest group closed from generators (9!); a larger block-symmetric group
# is coded by sorting, given its transpositions.
MAX_GROUP_ORDER = 362_880


def group_order(op: OpType) -> int:
    """Order of the op's symmetry group, found from its generators without
    listing the group; SpecError once it is known to exceed MAX_GROUP_ORDER.

    Schreier–Sims in Knuth's form, with base points taken as needed: level
    k keeps generators ``gens[k]`` fixing the earlier base points and a
    transversal ``reps[k]`` (image of the base point -> an element taking
    the base point there).  The product of the transversal sizes never
    exceeds the order, and equals it when the table is complete.
    """
    n = op.arity
    ident = tuple(range(n))
    base: list[int] = []
    gens: list[list[Perm]] = []
    reps: list[dict[int, Perm]] = []

    def inverse(p: Perm) -> Perm:
        q = [0] * n
        for i, x in enumerate(p):
            q[x] = i
        return tuple(q)

    def member(k: int, g: Perm) -> bool:
        for j in range(k, len(base)):
            u = reps[j].get(g[base[j]])
            if u is None:
                return False
            g = _perm_mul(inverse(u), g)
        return g == ident

    def add(k: int, g: Perm):
        if member(k, g):
            return
        if k == len(base):
            base.append(next(i for i in range(n) if g[i] != i))
            gens.append([])
            reps.append({base[-1]: ident})
        gens[k].append(g)
        todo = [_perm_mul(g, u) for u in list(reps[k].values())]
        while todo:
            h = todo.pop()
            u = reps[k].get(h[base[k]])
            if u is not None:
                add(k + 1, _perm_mul(inverse(u), h))
                continue
            reps[k][h[base[k]]] = h
            if math.prod(map(len, reps)) > MAX_GROUP_ORDER:
                raise SpecError(
                    f"op {op.name!r}: symmetry group has more than "
                    f"{MAX_GROUP_ORDER} elements; give a "
                    f"block-symmetric group by transpositions")
            todo.extend(_perm_mul(s, h) for s in gens[k])

    for g in op.sym_gens:
        add(0, g)
    return math.prod(map(len, reps))


def _close_group(op: OpType) -> tuple[Perm, ...]:
    group_order(op)  # refuses a group too large to list
    els = [tuple(range(op.arity))]
    seen = set(els)
    for h in els:  # grows while it is walked
        for g in op.sym_gens:
            gh = _perm_mul(g, h)
            if gh not in seen:
                seen.add(gh)
                els.append(gh)
    return tuple(sorted(els))


def _symmetric_blocks(op: OpType) -> tuple[tuple[int, ...], ...] | None:
    """The slots of each input colour with two or more slots, when the
    transposition generators connect every such block; otherwise None.

    Every generator preserves colours, so in the first case the group is
    exactly the group of all colour-preserving permutations.
    """
    parent = list(range(op.arity))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in op.sym_gens:
        moved = [i for i in range(op.arity) if g[i] != i]
        if len(moved) == 2:
            parent[find(moved[0])] = find(moved[1])
    blocks: dict[str, list[int]] = {}
    for i, c in enumerate(op.ins):
        blocks.setdefault(c, []).append(i)
    plan = tuple(tuple(slots) for slots in blocks.values() if len(slots) > 1)
    if any(len({find(i) for i in slots}) > 1 for slots in plan):
        return None
    return plan


@dataclass(frozen=True)
class OpType:
    name: str
    out: str
    ins: tuple[str, ...]
    sym_gens: tuple[Perm, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.ins)


class EndofunctorSpec:
    """Colours plus typed operations with input symmetry groups.

    Immutable after construction apart from caches: the closures of the
    groups that are neither trivial nor block-symmetric, the enumeration
    strata, and ``classes``, the class table.  The table maps each
    canonical key to its :class:`TreeClass` record; a trivial class's record
    is made with the spec, any other once, by ``compose`` from the records
    on its slots.
    """

    def __init__(self, colours: Sequence[str], ops: Sequence[OpType], name: str = "custom"):
        self.name = name
        self.colours = tuple(colours)
        if len(set(self.colours)) != len(self.colours):
            raise SpecError("duplicate colour ids")
        if not self.colours:
            raise SpecError("a spec needs at least one colour")
        self.ops = tuple(ops)
        for what, name in [("colour", c) for c in self.colours] + \
                [("op", op.name) for op in self.ops]:
            if not (isinstance(name, str) and name and set(name) <= _IDENT_CHARS):
                raise SpecError(f"{what} {name!r}: names are nonempty strings of "
                                "ASCII letters, digits, '-' and '*'")
        self.by_name: dict[str, OpType] = {}
        colour_set = set(self.colours)
        for op in self.ops:
            if op.name in self.by_name:
                raise SpecError(f"duplicate op name {op.name!r}")
            if op.out not in colour_set:
                raise SpecError(f"op {op.name!r} has unknown output colour {op.out!r}")
            for c in op.ins:
                if c not in colour_set:
                    raise SpecError(f"op {op.name!r} has unknown input colour {c!r}")
            for g in op.sym_gens:
                if sorted(g) != list(range(op.arity)):
                    raise SpecError(f"op {op.name!r}: generator {g} is not a permutation")
                for i, c in enumerate(op.ins):
                    if op.ins[g[i]] != c:
                        raise SpecError(f"op {op.name!r}: generator {g} breaks input colours")
            self.by_name[op.name] = op
        self._blocks = {op.name: _symmetric_blocks(op) for op in self.ops}
        self._rigid = {op.name for op in self.ops
                       if all(g == tuple(range(op.arity)) for g in op.sym_gens)}
        self._groups: dict[str, tuple[Perm, ...]] = {}
        self._enum_cache: dict = {}
        self.trivial_classes = {c: TreeClass(self, self.trivial_key(c), c)
                                for c in self.colours}
        self.classes = {c.key: c for c in self.trivial_classes.values()}

    @property
    def one_colour(self) -> bool:
        return len(self.colours) == 1

    def op(self, name: str) -> OpType:
        try:
            return self.by_name[name]
        except KeyError:
            raise UnknownOp(f"unknown op {name!r}") from None

    def sym_group(self, name: str) -> tuple[Perm, ...]:
        g = self._groups.get(name)
        if g is None:
            g = self._groups[name] = _close_group(self.op(name))
        return g

    def group_is_block_symmetric(self, name: str) -> bool:
        """True when the op's transposition generators connect each block of
        equally coloured slots, so its group is all colour-preserving
        permutations."""
        return self._blocks[self.op(name).name] is not None

    def node_code(self, name: str, codes: Sequence[str]) -> tuple[str, int]:
        """Code of a node of op ``name`` whose slots hold subtrees with the
        given codes, and the order of the stabiliser of those codes.

        A rigid op (trivial group) keeps the codes in slot order, with
        stabiliser 1.  A block-symmetric op sorts the codes within each
        block of equally coloured slots; the stabiliser has ∏ m! elements
        over the runs of m equal codes in a block.  Any other op scans its
        group once for the orbit of the code tuple: its least element is the
        canonical arrangement, and by orbit–stabiliser the stabiliser has
        |group| / |orbit| elements.
        """
        if name in self._rigid:
            return ("(" + name + (":" + "".join(codes) if codes else "") + ")", 1)
        blocks = self._blocks.get(name)
        if blocks is None:
            group = self.sym_group(name)
            orbit = {tuple(map(codes.__getitem__, g)) for g in group}
            least = min(orbit)
            stabiliser = len(group) // len(orbit)
        else:
            least = list(codes)
            stabiliser = 1
            for slots in blocks:
                run, prev = 0, None
                for i, code in zip(slots, sorted(codes[s] for s in slots)):
                    least[i] = code
                    run = run + 1 if code == prev else 1
                    prev = code
                    stabiliser *= run
        return ("(" + name + (":" + "".join(least) if least else "") + ")",
                stabiliser)

    def compose(self, op: str, children: Sequence[TreeClass]) -> TreeClass:
        """The record of op with trees of the given classes on its slots,
        interned by its code.  The children must fit the op's slots."""
        code, stabiliser = self.node_code(
            op, [c.key if c.nodes else "_" for c in children])
        c = self.classes.get(code)
        if c is None:
            c = self.classes[code] = TreeClass(
                self, code, self.by_name[op].out, op, tuple(children), stabiliser)
        return c

    def trivial_key(self, colour: str) -> str:
        """Key of the trivial tree of a colour; the colour is written only
        when the spec has several."""
        return "_" if self.one_colour else "_" + colour

    def to_dict(self) -> dict:
        return {
            "colours": list(self.colours),
            "ops": [{"name": op.name, "out": op.out, "in": list(op.ins),
                     "sym": [list(g) for g in op.sym_gens]} for op in self.ops],
        }

    @classmethod
    def from_dict(cls, doc: Mapping, name: str = "custom") -> "EndofunctorSpec":
        """Spec from a JSON document: colours, op names and input colours are
        strings, ``sym`` entries integers; anything else is a SpecError."""
        try:
            colours = _checked(doc["colours"], list, "colours", str)
            ops = [OpType(_checked(o["name"], str, "op name"),
                          _checked(o["out"], str, "op output colour"),
                          _checked(o["in"], list, "op inputs", str),
                          tuple(_checked(g, list, "sym entry", int)
                                for g in _checked(o.get("sym", []), list, "sym")))
                   for o in doc["ops"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed spec document: {exc}") from None
        return cls(colours, ops, name=name)


def _checked(value, kind: type, what: str, item: type | None = None):
    """``value`` if its type is ``kind`` (a bool is not an int here), as a
    tuple of items of type ``item`` when one is given."""
    if type(value) is not kind:
        raise SpecError(f"{what} {value!r}: expected {kind.__name__}, "
                        f"got {type(value).__name__}")
    return value if item is None else tuple(_checked(v, item, what) for v in value)


def load_spec(path: str) -> EndofunctorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return EndofunctorSpec.from_dict(doc, name=path)


def save_spec(spec: EndofunctorSpec, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


_ROT = lambda k: (tuple((i + 1) % k for i in range(k)),) if k >= 2 else ()
_ADJ = lambda k: tuple((*range(i), i + 1, i, *range(i + 2, k)) for i in range(k - 1))

BUILTIN_NAMES = ("exp", "planar", "binary", "identity", "constant",
                 "trivial", "effective", "stable", "cyclic")

_UNBOUNDED = {"exp", "planar", "effective", "stable", "cyclic"}


def builtin(name: str, max_arity: int | None = None) -> EndofunctorSpec:
    """Standard endofunctor specs on one colour.

    ``exp`` (all arities, full symmetric groups), ``planar`` (all arities,
    no symmetry), ``cyclic`` (rotation symmetry), ``binary`` (one rigid
    binary op), ``identity`` (one unary op), ``constant`` (one nullary op),
    ``trivial`` (no ops), ``effective`` (exp without the nullary op) and
    ``stable`` (exp without nullary and unary ops).  Arity-unbounded
    families require ``max_arity``; the others refuse it.
    """
    if name not in BUILTIN_NAMES:
        raise UnknownBuiltin(f"unknown builtin spec {name!r}")
    if name in _UNBOUNDED:
        if max_arity is None:
            raise SpecError(f"builtin {name!r} requires max_arity")
        if max_arity < 0:
            raise SpecError("max_arity must be nonnegative")
    elif max_arity is not None:
        raise SpecError(f"builtin {name!r} has fixed arities and takes no max_arity")
    c = "o"
    label = name if max_arity is None else f"{name}({max_arity})"

    def fam(arities, sym) -> EndofunctorSpec:
        ops = [OpType(f"n{k}", c, (c,) * k, sym(k)) for k in arities]
        return EndofunctorSpec([c], ops, name=label)

    if name == "exp":
        return fam(range(0, max_arity + 1), _ADJ)
    if name == "planar":
        return fam(range(0, max_arity + 1), lambda k: ())
    if name == "cyclic":
        return fam(range(0, max_arity + 1), _ROT)
    if name == "effective":
        return fam(range(1, max_arity + 1), _ADJ)
    if name == "stable":
        return fam(range(2, max_arity + 1), _ADJ)
    if name == "binary":
        return EndofunctorSpec([c], [OpType("n2", c, (c, c))], name=label)
    if name == "identity":
        return EndofunctorSpec([c], [OpType("n1", c, (c,))], name=label)
    if name == "constant":
        return EndofunctorSpec([c], [OpType("c", c, ())], name=label)
    return EndofunctorSpec([c], [], name=label)  # trivial


# ---------------------------------------------------------------------------
# decorated trees


# Canonical keys identify isomorphism classes of decorated trees over a
# fixed spec; they are also valid strings of the decorated grammar.
CanonKey = str


class PTree:
    """A decorated tree over a fixed spec.  Immutable by convention."""

    __slots__ = ("spec", "shape", "edge_colour", "node_op", "_key", "_codes",
                 "_aut")

    def __init__(self, spec: EndofunctorSpec, shape: TreeDiagram,
                 edge_colour: dict[int, str], node_op: dict[int, str]):
        self.spec = spec
        self.shape = shape
        self.edge_colour = edge_colour
        self.node_op = node_op
        self._key: str | None = None
        self._codes: dict[int, str] | None = None
        self._aut: int | None = None

    # basic views -----------------------------------------------------------
    @property
    def root_colour(self) -> str:
        return self.edge_colour[self.shape.root]

    @property
    def edge_count(self) -> int:
        return self.shape.edge_count

    @property
    def node_count(self) -> int:
        return self.shape.node_count

    def leaf_profile(self) -> tuple[tuple[str, int], ...]:
        counts: dict[str, int] = {}
        for e in self.shape.leaves:
            c = self.edge_colour[e]
            counts[c] = counts.get(c, 0) + 1
        return tuple(sorted(counts.items()))

    def leaf_count(self) -> int:
        return len(self.shape.leaves)

    # canonical form --------------------------------------------------------
    def edge_codes(self) -> dict[int, str]:
        """Canonical code of the subtree above each edge (leaf code is '_').

        One pass over the nodes, children first, with
        ``EndofunctorSpec.node_code``; the pass also keeps the product of
        the node stabiliser orders, which ``aut_order`` reads.
        """
        if self._codes is None:
            node_code = self.spec.node_code
            shape = self.shape
            codes: dict[int, str] = {}
            aut = 1
            for n in reversed(shape.nodes_top_down):
                code, stabiliser = node_code(self.node_op[n], tuple(
                    codes.get(e, "_") for e in shape.node_inputs[n]))
                codes[shape.node_output[n]] = code
                aut *= stabiliser
            self._codes, self._aut = codes, aut
        return self._codes

    def key(self) -> str:
        if self._key is None:
            root = self.shape.root
            code = self.edge_codes().get(root)
            self._key = (code if code is not None
                         else self.spec.trivial_key(self.edge_colour[root]))
        return self._key

    def __repr__(self):
        return f"PTree({self.key()!r})"


def validate_ptree(spec: EndofunctorSpec, shape: TreeDiagram,
                   edge_colour: Mapping[int, str],
                   node_op: Mapping[int, str]) -> PTree:
    """Check colour/arity compatibility of a raw decoration."""
    edge_colour = dict(edge_colour)
    node_op = dict(node_op)
    colour_set = set(spec.colours)
    if set(edge_colour) != set(shape.edges):
        raise ColourMismatch("edge colouring must cover exactly the edges")
    for e, c in edge_colour.items():
        if c not in colour_set:
            raise ColourMismatch(f"unknown colour {c!r} on edge {e}")
    if set(node_op) != set(shape.node_inputs):
        raise SpecError("node decoration must cover exactly the nodes")
    for n, opname in node_op.items():
        op = spec.op(opname)
        ins = shape.node_inputs[n]
        if len(ins) != op.arity:
            raise ArityMismatch(
                f"node {n}: op {opname!r} has arity {op.arity}, got {len(ins)} inputs")
        if edge_colour[shape.node_output[n]] != op.out:
            raise ColourMismatch(f"node {n}: output colour must be {op.out!r}")
        for i, e in enumerate(ins):
            if edge_colour[e] != op.ins[i]:
                raise ColourMismatch(
                    f"node {n}: slot {i} must have colour {op.ins[i]!r}")
    return PTree(spec, shape, edge_colour, node_op)


def trivial_ptree(spec: EndofunctorSpec, colour: str | None = None) -> PTree:
    if colour is None:
        if not spec.one_colour:
            raise ColourMismatch("colour required for multi-colour specs")
        colour = spec.colours[0]
    if colour not in spec.colours:
        raise ColourMismatch(f"unknown colour {colour!r}")
    return PTree(spec, TreeDiagram((0,), {}, {}), {0: colour}, {})


def build_ptree(spec: EndofunctorSpec, opname: str, children: Sequence[PTree]) -> PTree:
    """Tree with a root node ``opname`` and the given subtrees on its slots."""
    op = spec.op(opname)
    if len(children) != op.arity:
        raise ArityMismatch(f"op {opname!r} needs {op.arity} children")
    edges = [0]
    edge_colour = {0: op.out}
    node_inputs: dict[int, tuple[int, ...]] = {}
    node_output: dict[int, int] = {}
    node_op: dict[int, str] = {}
    e_off, n_off = 1, 0
    ins = []
    for i, ch in enumerate(children):
        if ch.root_colour != op.ins[i]:
            raise ColourMismatch(
                f"slot {i} of {opname!r} needs colour {op.ins[i]!r}, got {ch.root_colour!r}")
        e_map = {e: e_off + j for j, e in enumerate(sorted(ch.shape.edges))}
        n_map = {n: n_off + j for j, n in enumerate(sorted(ch.shape.node_inputs))}
        for e in ch.shape.edges:
            edge_colour[e_map[e]] = ch.edge_colour[e]
        for n in ch.shape.node_inputs:
            node_inputs[n_map[n]] = tuple(e_map[e] for e in ch.shape.node_inputs[n])
            node_output[n_map[n]] = e_map[ch.shape.node_output[n]]
            node_op[n_map[n]] = ch.node_op[n]
        ins.append(e_map[ch.shape.root])
        edges.extend(e_map.values())
        e_off += len(ch.shape.edges)
        n_off += len(ch.shape.node_inputs)
    root_node = n_off
    node_inputs[root_node] = tuple(ins)
    node_output[root_node] = 0
    node_op[root_node] = opname
    shape = TreeDiagram(tuple(sorted(edges)), node_inputs, node_output)
    return PTree(spec, shape, edge_colour, node_op)


# ---------------------------------------------------------------------------
# automorphism order


def aut_order(t: PTree) -> int:
    """Order of the decorated automorphism group: the product of the node
    stabiliser orders (see the module docstring), kept by the pass of
    ``PTree.edge_codes``."""
    t.edge_codes()
    return t._aut


def decorated_automorphism(t1: PTree, t2: PTree, edge_map: Mapping[int, int]) -> bool:
    """Flat check that an edge bijection is a decorated isomorphism t1 -> t2."""
    s1, s2 = t1.shape, t2.shape
    if set(edge_map) != set(s1.edges) or set(edge_map.values()) != set(s2.edges):
        return False
    if edge_map[s1.root] != s2.root:
        return False
    for e in s1.edges:
        if t1.edge_colour[e] != t2.edge_colour[edge_map[e]]:
            return False
    node_map = {}
    for n, e in s1.node_output.items():
        n2 = s2.node_above.get(edge_map[e])
        if n2 is None:
            return False
        node_map[n] = n2
    if set(node_map.values()) != set(s2.node_inputs):
        return False
    for n, n2 in node_map.items():
        if t1.node_op[n] != t2.node_op[n2]:
            return False
        ins1 = s1.node_inputs[n]
        ins2 = s2.node_inputs[n2]
        if len(ins1) != len(ins2):
            return False
        pos2 = {e: i for i, e in enumerate(ins2)}
        perm = []
        for e in ins1:
            i2 = pos2.get(edge_map[e])
            if i2 is None:
                return False
            perm.append(i2)
        if tuple(perm) not in t1.spec.sym_group(t1.node_op[n]):
            return False
    return True


def isomorphisms_brute(t1: PTree, t2: PTree) -> list[dict[int, int]]:
    """All decorated isomorphisms t1 -> t2 as explicit edge bijections.

    Recursive structural search; intended as an oracle for canonical keys
    and automorphism orders on small trees, and for orbit computations.
    """
    if (t1.edge_count != t2.edge_count or t1.node_count != t2.node_count):
        return []
    s1, s2 = t1.shape, t2.shape

    def maps_from(e1: int, e2: int) -> list[dict[int, int]]:
        if t1.edge_colour[e1] != t2.edge_colour[e2]:
            return []
        n1 = s1.node_above.get(e1)
        n2 = s2.node_above.get(e2)
        if (n1 is None) != (n2 is None):
            return []
        if n1 is None:
            return [{e1: e2}]
        if t1.node_op[n1] != t2.node_op[n2]:
            return []
        ins1 = s1.node_inputs[n1]
        ins2 = s2.node_inputs[n2]
        out: list[dict[int, int]] = []
        for g in t1.spec.sym_group(t1.node_op[n1]):
            partials: list[dict[int, int]] = [{e1: e2}]
            for i in range(len(ins1)):
                if not partials:
                    break
                subs = maps_from(ins1[i], ins2[g[i]])
                if not subs:
                    partials = []
                    break
                partials = [{**p, **s} for p in partials for s in subs]
            out.extend(partials)
        return out

    return maps_from(s1.root, s2.root)


def automorphisms(t: PTree) -> list[dict[int, int]]:
    return isomorphisms_brute(t, t)


# ---------------------------------------------------------------------------
# decorated grammar


_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-*")


def _scan_ident(sc: _Scanner) -> str:
    chars = []
    while sc.peek() is not None and sc.peek() in _IDENT_CHARS:
        chars.append(sc.advance())
    if not chars:
        raise sc.error("expected an identifier")
    return "".join(chars)


def _parse_decorated(spec: EndofunctorSpec, sc: _Scanner,
                     expect_colour: str | None, depth: int = 0) -> PTree:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "_":
        sc.advance()
        colour = None
        if sc.peek() is not None and sc.peek() in _IDENT_CHARS:
            colour = _scan_ident(sc)
        if colour is None:
            if expect_colour is not None:
                colour = expect_colour
            elif spec.one_colour:
                colour = spec.colours[0]
            else:
                raise sc.error("leaf colour required for multi-colour specs")
        if colour not in spec.colours:
            raise sc.error(f"unknown colour {colour!r}")
        if expect_colour is not None and colour != expect_colour:
            raise sc.error(f"colour {colour!r} does not match slot colour {expect_colour!r}")
        return trivial_ptree(spec, colour)
    if ch == "(":
        if depth >= MAX_PARSE_DEPTH:
            raise sc.error(f"nodes nested deeper than {MAX_PARSE_DEPTH}")
        sc.advance()
        sc.skip_ws()
        opname = _scan_ident(sc)
        op = spec.by_name.get(opname)
        if op is None:
            raise sc.error(f"unknown op {opname!r}")
        children: list[PTree] = []
        sc.skip_ws()
        if sc.peek() == ":":
            sc.advance()
            while True:
                sc.skip_ws()
                if sc.peek() == ")":
                    break
                if sc.peek() is None:
                    raise sc.error("unexpected end of input, expected ')'")
                i = len(children)
                want = op.ins[i] if i < op.arity else None
                children.append(_parse_decorated(spec, sc, want, depth + 1))
        sc.skip_ws()
        if sc.peek() != ")":
            raise sc.error("expected ')'")
        sc.advance()
        if len(children) != op.arity:
            raise sc.error(
                f"op {opname!r} has arity {op.arity}, got {len(children)} children")
        if expect_colour is not None and op.out != expect_colour:
            raise sc.error(f"op {opname!r} output {op.out!r} does not match "
                           f"slot colour {expect_colour!r}")
        return build_ptree(spec, opname, children)
    if ch is None:
        raise sc.error("unexpected end of input")
    raise sc.error(f"unexpected character {ch!r}")


def parse_ptree(spec: EndofunctorSpec, text: str) -> PTree:
    sc = _Scanner(text)
    t = _parse_decorated(spec, sc, None)
    sc.skip_ws()
    if sc.peek() is not None:
        raise sc.error("trailing input after tree")
    return t


def decorate_shape(spec: EndofunctorSpec, shape: TreeDiagram) -> PTree:
    """Decorate a bare tree shape when the spec leaves no choice.

    Each node must have exactly one op of its arity; edge colours are then
    forced (and must be consistent).  Lets the undecorated grammar be used
    with specs like the arity-indexed builtins.
    """
    by_arity: dict[int, list[OpType]] = {}
    for op in spec.ops:
        by_arity.setdefault(op.arity, []).append(op)
    node_op: dict[int, str] = {}
    for n, ins in shape.node_inputs.items():
        cands = by_arity.get(len(ins), [])
        if len(cands) != 1:
            raise SpecError(
                f"cannot infer decoration: {len(cands)} ops of arity {len(ins)}")
        node_op[n] = cands[0].name
    edge_colour: dict[int, str] = {}
    for n, opname in node_op.items():
        op = spec.by_name[opname]
        edge_colour[shape.node_output[n]] = op.out
        for i, e in enumerate(shape.node_inputs[n]):
            prev = edge_colour.get(e)
            if prev is not None and prev != op.ins[i]:
                raise ColourMismatch(f"inferred colours clash on edge {e}")
            edge_colour[e] = op.ins[i]
    for e in shape.edges:
        if e not in edge_colour:
            if not spec.one_colour:
                raise ColourMismatch("cannot infer colours for a bare edge")
            edge_colour[e] = spec.colours[0]
    return validate_ptree(spec, shape, edge_colour, node_op)


def parse_ptree_or_shape(spec: EndofunctorSpec, text: str) -> PTree:
    """Parse the decorated grammar, falling back to the bare-shape grammar
    with inferred decorations."""
    from .trees import parse_tree
    try:
        return parse_ptree(spec, text)
    except GrammarError as exc:
        try:
            shape = parse_tree(text)
        except GrammarError:
            raise exc from None
        return decorate_shape(spec, shape)


# ---------------------------------------------------------------------------
# the class table


class TreeClass:
    """One isomorphism class of decorated trees, as a record: trivial (no
    ``op``) or ``op`` with the ``children`` records on its slots.  Every
    invariant is a function of the op and of the children's; ``tree`` and
    ``cuts`` are filled in on first use, from the children's."""

    __slots__ = ("spec", "key", "op", "children", "edges", "nodes", "leaves",
                 "root", "leaf_profile", "aut", "_tree", "_cuts")

    def __init__(self, spec: EndofunctorSpec, key: str, root: str,
                 op: str | None = None, children: tuple = (), stabiliser: int = 1):
        self.spec, self.key, self.root, self.op, self.children = spec, key, root, op, children
        self.edges = 1 + sum(c.edges for c in children)
        self.nodes = (op is not None) + sum(c.nodes for c in children)
        self.leaves = 1 if op is None else sum(c.leaves for c in children)
        self.aut = stabiliser * math.prod(c.aut for c in children)
        counts = {root: 1} if op is None else {}
        for colour, m in itertools.chain.from_iterable(c.leaf_profile for c in children):
            counts[colour] = counts.get(colour, 0) + m
        self.leaf_profile = tuple(sorted(counts.items()))
        self._tree = self._cuts = None
        if op is None:
            self._tree = trivial_ptree(spec, root)
            self._tree._key = key
            self._cuts = {((key,), key): 1}

    @property
    def tree(self) -> PTree:
        """A tree of the class, built from the children's trees."""
        if self._tree is not None:
            return self._tree
        for c in _unfilled(self, "_tree"):
            c._tree = build_ptree(c.spec, c.op, [d._tree for d in c.children])
            c._tree._key = c.key
        return self._tree

    @property
    def cuts(self) -> dict[tuple[ForestKey, str], int]:
        """Multiplicity of each (crown class, stump class) over the cuts of
        the class, from the children's (see ``optrees.bialgebra``)."""
        if self._cuts is not None:
            return self._cuts
        for c in _unfilled(self, "_cuts"):
            spec, kept = c.spec, {}
            for combo in itertools.product(*(
                    [(crown, stump if stump[0] == "(" else "_", m)
                     for (crown, stump), m in d._cuts.items()]
                    for d in c.children)):
                pair = (tuple(sorted(itertools.chain(*(cr for cr, _, _ in combo)))),
                        spec.node_code(c.op, [st for _, st, _ in combo])[0])
                kept[pair] = kept.get(pair, 0) + math.prod(m for _, _, m in combo)
            c._cuts = {((c.key,), spec.trivial_key(c.root)): 1, **kept}
        return self._cuts


def _unfilled(record: TreeClass, slot: str) -> list[TreeClass]:
    """Records under ``record``, itself too, whose ``slot`` is unset, each
    once and after its children."""
    order, stack = {}, [record]
    while stack:
        c = stack.pop()
        if getattr(c, slot) is None:
            order.pop(c.key, None)  # keep the last visit, below every parent
            order[c.key] = c
            stack.extend(c.children)
    return list(order.values())[::-1]


def compose_along(t: PTree, leaf_records: Mapping[int, TreeClass]) -> TreeClass:
    """The record of t with the given records on its leaves, composed along t."""
    spec, shape, records = t.spec, t.shape, dict(leaf_records)
    for n in reversed(shape.nodes_top_down):
        records[shape.node_output[n]] = spec.compose(
            t.node_op[n], [records[e] for e in shape.node_inputs[n]])
    return records[shape.root]


def intern(t: PTree) -> TreeClass:
    """The record of t's class; a record with no tree yet takes t."""
    c = t.spec.classes.get(t._key)
    if c is None:
        c = compose_along(t, {e: t.spec.trivial_classes[t.edge_colour[e]]
                              for e in t.shape.leaves})
        t._key = c.key
    if c._tree is None:
        c._tree = t
    return c


def tree_class(spec: EndofunctorSpec, key: str) -> TreeClass:
    """The record of a canonical key's class, parsing the key on first sight."""
    c = spec.classes.get(key)
    return c if c is not None else intern(parse_ptree(spec, key))


def representative(spec: EndofunctorSpec, key: str) -> PTree:
    """The tree of a canonical key's class."""
    return tree_class(spec, key).tree


# ---------------------------------------------------------------------------
# forests of decorated trees


ForestKey = tuple[str, ...]

EMPTY_FOREST_KEY: ForestKey = ()


def forest_key_of(trees: Iterable[PTree]) -> ForestKey:
    return tuple(sorted(t.key() for t in trees))


def forest_key_str(key: ForestKey) -> str:
    return "·".join(key) if key else "ε"


@dataclass(frozen=True)
class PForest:
    """Multiset of decorated-tree classes, as a sorted key tuple."""

    spec: EndofunctorSpec
    keys: ForestKey

    @classmethod
    def from_trees(cls, spec: EndofunctorSpec, trees: Iterable[PTree]) -> "PForest":
        return cls(spec, forest_key_of(trees))

    @classmethod
    def from_keys(cls, spec: EndofunctorSpec, keys: Iterable[str]) -> "PForest":
        return cls(spec, tuple(sorted(keys)))

    def __str__(self):
        return forest_key_str(self.keys)

    @property
    def items(self) -> tuple[tuple[str, int], ...]:
        out: list[tuple[str, int]] = []
        for k in self.keys:
            if out and out[-1][0] == k:
                out[-1] = (k, out[-1][1] + 1)
            else:
                out.append((k, 1))
        return tuple(out)

    def classes(self) -> list[TreeClass]:
        return [tree_class(self.spec, k) for k in self.keys]

    def trees(self) -> list[PTree]:
        return [c.tree for c in self.classes()]

    def edge_count(self) -> int:
        return sum(c.edges for c in self.classes())

    def node_count(self) -> int:
        return sum(c.nodes for c in self.classes())

    def root_profile(self) -> tuple[tuple[str, int], ...]:
        counts: dict[str, int] = {}
        for c in self.classes():
            counts[c.root] = counts.get(c.root, 0) + 1
        return tuple(sorted(counts.items()))

    def leaf_profile(self) -> tuple[tuple[str, int], ...]:
        counts: dict[str, int] = {}
        for c in self.classes():
            for colour, m in c.leaf_profile:
                counts[colour] = counts.get(colour, 0) + m
        return tuple(sorted(counts.items()))


def forest_mul(a: PForest, b: PForest) -> PForest:
    if a.spec is not b.spec:
        raise SpecError("forests over different specs")
    return PForest(a.spec, tuple(sorted(a.keys + b.keys)))


def aut_order_forest(f: PForest) -> int:
    """Product over classes of mult! times the tree orders to that power."""
    total = 1
    for key, mult in f.items:
        a = tree_class(f.spec, key).aut
        for i in range(2, mult + 1):
            total *= i
        total *= a ** mult
    return total


def parse_pforest(spec: EndofunctorSpec, text: str) -> PForest:
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "ε":
        sc.advance()
        sc.skip_ws()
        if sc.peek() is not None:
            raise sc.error("trailing input after empty forest")
        return PForest(spec, ())
    trees = []
    while True:
        trees.append(_parse_decorated(spec, sc, None))
        sc.skip_ws()
        if sc.peek() == "·":
            sc.advance()
            continue
        if sc.peek() is None:
            break
        raise sc.error("expected '·' between forest components")
    return PForest.from_trees(spec, trees)


# ---------------------------------------------------------------------------
# decorated pruning and grafting


def prune_decorated(t: PTree, kept: frozenset[int]) -> tuple[list[PTree], PTree, dict[int, int]]:
    """Prune a decorated tree along a cut.

    Returns (crown components ordered by root edge id, stump, matching).
    Ids of the original tree are preserved in both parts; the matching from
    stump leaves to crown roots is the identity.
    """
    crown, stump, matching = prune(Cut(t.shape, kept))
    stump_p = PTree(t.spec, stump,
                    {e: t.edge_colour[e] for e in stump.edges},
                    {n: t.node_op[n] for n in stump.node_inputs})
    comps = []
    for r in crown.roots:
        sub = ideal_subtree(t.shape, r)  # all of it lies in the crown
        comps.append(PTree(t.spec, sub,
                           {e: t.edge_colour[e] for e in sub.edges},
                           {n: t.node_op[n] for n in sub.node_inputs}))
    return comps, stump_p, matching


def graft_decorated(stump: PTree, assignment: Mapping[int, PTree]) -> PTree:
    """Graft a tree onto each leaf of the stump (leaf edge id -> tree).

    Root colours must match leaf colours.  Crown ids are renamed away from
    the stump's ids; glued edges keep the stump's leaf ids.
    """
    spec = stump.spec
    s = stump.shape
    if sorted(assignment) != sorted(s.leaves):
        raise MatchingNotBijective("assignment must cover exactly the stump leaves")
    edges = set(s.edges)
    node_inputs = dict(s.node_inputs)
    node_output = dict(s.node_output)
    edge_colour = dict(stump.edge_colour)
    node_op = dict(stump.node_op)
    fresh = max(edges | set(node_inputs), default=-1) + 1
    for leaf in sorted(assignment):
        part = assignment[leaf]
        if part.root_colour != stump.edge_colour[leaf]:
            raise ColourMismatch(
                f"leaf {leaf} has colour {stump.edge_colour[leaf]!r}, "
                f"crown root has {part.root_colour!r}")
        ps = part.shape
        e_map = {ps.root: leaf}
        for e in sorted(ps.edges):
            if e == ps.root:
                continue
            e_map[e] = fresh
            fresh += 1
        n_map = {}
        for n in sorted(ps.node_inputs):
            n_map[n] = fresh
            fresh += 1
        for e in ps.edges:
            edges.add(e_map[e])
            edge_colour[e_map[e]] = part.edge_colour[e]
        for n in ps.node_inputs:
            node_inputs[n_map[n]] = tuple(e_map[e] for e in ps.node_inputs[n])
            node_output[n_map[n]] = e_map[ps.node_output[n]]
            node_op[n_map[n]] = part.node_op[n]
    shape = TreeDiagram(tuple(sorted(edges)), node_inputs, node_output)
    return PTree(spec, shape, edge_colour, node_op)
