"""Rooted operadic trees and forests as finite-set diagrams.

An operadic tree is a finite diagram of edges and nodes in which every node
carries an ordered tuple of input edges (drawn above it) and a single output
edge (below it).  Edges are open-ended: the unique edge with no node below
it is the *root*, edges with no node above them are *leaves*.  The trivial
tree is a single edge and no nodes.

A diagram is stored as

  * ``edges``        sorted tuple of integer edge ids,
  * ``node_inputs``  node id -> ordered tuple of input edge ids,
  * ``node_output``  node id -> output edge id,

so the usual node/marked-input-slot set is the set of pairs ``(n, i)`` with
marked edge ``node_inputs[n][i]``.  A forest is the same data with any
number of root edges; a tree has exactly one.  Validity means: output edges
are pairwise distinct, every edge is the input of at most one node (in one
slot), and walking from any edge towards the roots terminates.

Ids are arbitrary integers.  ``prune`` keeps the ids of the original tree
in both output parts, which makes ``graft`` a strict inverse rather than an
inverse up to isomorphism.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping


class DiagramError(ValueError):
    """A raw diagram violates the tree/forest axioms."""


class NonInjectiveT(DiagramError):
    """Two nodes share an output edge."""


class NonInjectiveS(DiagramError):
    """An edge is the input of more than one node slot."""


class NoRoot(DiagramError):
    """A tree diagram has no root edge."""


class MultipleRoots(DiagramError):
    """A tree diagram has more than one root edge."""


class CycleDetected(DiagramError):
    """Walking towards the roots does not terminate."""


class MatchingNotBijective(DiagramError):
    """A graft matching is not a bijection from stump leaves to crown roots."""


class GrammarError(ValueError):
    """Parse error in the textual tree grammar, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class view:
    """A view of a diagram computed on first access and kept in the
    instance's ``__dict__``, where later lookups find it before the
    descriptor.  Like ``functools.cached_property``, but it takes no lock:
    diagrams are immutable, so two threads filling a view compute equal
    values."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# A matching is a bijection from the leaf edges of a stump tree to the root
# edges of a crown forest, stored as a plain mapping.
Matching = dict[int, int]


class ForestDiagram:
    """Finite forest diagram; treat instances as immutable after creation."""

    def __init__(self, edges: tuple[int, ...], node_inputs: dict[int, tuple[int, ...]],
                 node_output: dict[int, int]):
        self.edges, self.node_inputs, self.node_output = edges, node_inputs, node_output

    def __eq__(self, other):
        if not isinstance(other, ForestDiagram):
            return NotImplemented
        return (set(self.edges) == set(other.edges)
                and self.node_inputs == other.node_inputs
                and self.node_output == other.node_output)

    @view
    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    @view
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.node_inputs))

    @view
    def roots(self) -> tuple[int, ...]:
        inputs = {e for ins in self.node_inputs.values() for e in ins}
        return tuple(sorted(e for e in self.edges if e not in inputs))

    @view
    def leaves(self) -> tuple[int, ...]:
        outputs = set(self.node_output.values())
        return tuple(sorted(e for e in self.edges if e not in outputs))

    @view
    def node_above(self) -> dict[int, int]:
        """Edge -> node whose output it is (absent for leaves)."""
        return {e: n for n, e in self.node_output.items()}

    @view
    def node_below(self) -> dict[int, int]:
        """Edge -> node that has it as an input (absent for roots)."""
        below = {}
        for n, ins in self.node_inputs.items():
            for e in ins:
                below[e] = n
        return below

    @view
    def walk_down(self) -> dict[int, int]:
        """One step of the walk-to-the-roots function on edges."""
        step = {}
        for e in self.edges:
            n = self.node_below.get(e)
            step[e] = e if n is None else self.node_output[n]
        return step

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def node_count(self) -> int:
        return len(self.node_inputs)

    def parent_node(self, n: int) -> int | None:
        """Node directly below ``n`` (towards the roots), if any."""
        return self.node_below.get(self.node_output[n])

    @view
    def nodes_top_down(self) -> tuple[int, ...]:
        """Nodes breadth first from the roots: each after the node below it."""
        above = self.node_above
        order = [above[r] for r in self.roots if r in above]
        for n in order:  # grows while it is walked
            order.extend(above[e] for e in self.node_inputs[n] if e in above)
        return tuple(order)


class TreeDiagram(ForestDiagram):
    """Forest diagram with exactly one root edge."""

    @property
    def root(self) -> int:
        return self.roots[0]


def _check_raw(edges, node_inputs, node_output):
    edges = tuple(sorted(edges))
    edge_set = set(edges)
    if len(edge_set) != len(edges):
        raise DiagramError("duplicate edge ids")
    node_inputs = {n: tuple(ins) for n, ins in node_inputs.items()}
    node_output = dict(node_output)
    if set(node_inputs) != set(node_output):
        raise DiagramError("node_inputs and node_output must have the same node set")
    for n, e in node_output.items():
        if e not in edge_set:
            raise DiagramError(f"output edge {e} of node {n} is not an edge")
    seen_inputs = set()
    for n, ins in node_inputs.items():
        for e in ins:
            if e not in edge_set:
                raise DiagramError(f"input edge {e} of node {n} is not an edge")
            if e in seen_inputs:
                raise NonInjectiveS(f"edge {e} is the input of more than one slot")
            seen_inputs.add(e)
    outputs = list(node_output.values())
    if len(set(outputs)) != len(outputs):
        raise NonInjectiveT("two nodes share an output edge")
    return edges, node_inputs, node_output, seen_inputs


def _check_walk(diagram: ForestDiagram, inputs: set[int]):
    """Walk down from each edge to a root (an edge not in ``inputs``)."""
    below, output = diagram.node_below, diagram.node_output
    state: dict[int, int] = {}  # 0 visiting, 1 done
    for start in diagram.edges:
        e = start
        trail = []
        while e in inputs and state.get(e) != 1:
            if state.get(e) == 0:
                raise CycleDetected(f"walk from edge {start} cycles at edge {e}")
            state[e] = 0
            trail.append(e)
            e = output[below[e]]
        for t in trail:
            state[t] = 1


def validate_forest(edges: Iterable[int],
                    node_inputs: Mapping[int, Iterable[int]],
                    node_output: Mapping[int, int]) -> ForestDiagram:
    """Check the forest axioms on raw data and return a ForestDiagram."""
    edges, node_inputs, node_output, seen_inputs = _check_raw(edges, node_inputs, node_output)
    d = ForestDiagram(edges, node_inputs, node_output)
    _check_walk(d, seen_inputs)
    return d


def validate_tree(edges: Iterable[int],
                  node_inputs: Mapping[int, Iterable[int]],
                  node_output: Mapping[int, int]) -> TreeDiagram:
    """Check the tree axioms (single root) on raw data and return a TreeDiagram."""
    edges, node_inputs, node_output, seen_inputs = _check_raw(edges, node_inputs, node_output)
    roots = [e for e in edges if e not in seen_inputs]
    if len(roots) == 0:
        raise NoRoot("tree diagram has no root edge")
    if len(roots) > 1:
        raise MultipleRoots(f"tree diagram has several root edges: {roots}")
    d = TreeDiagram(edges, node_inputs, node_output)
    _check_walk(d, seen_inputs)
    return d


def trivial_tree(edge_id: int = 0) -> TreeDiagram:
    return TreeDiagram((edge_id,), {}, {})


def empty_forest() -> ForestDiagram:
    return ForestDiagram((), {}, {})


# ---------------------------------------------------------------------------
# cuts, pruning, grafting


class Cut:
    """A root-containing subtree of ``tree``, given by the kept node set.

    The kept set must be closed towards the root: if a node is kept and
    there is a node below its output edge, that node is kept too.
    """

    def __init__(self, tree: TreeDiagram, kept: Iterable[int]):
        self.tree, self.kept = tree, frozenset(kept)
        for n in self.kept:
            if n not in tree.node_inputs:
                raise DiagramError(f"kept node {n} not in tree")
            p = tree.parent_node(n)
            if p is not None and p not in self.kept:
                raise DiagramError(f"kept set not closed towards the root at node {n}")

    def __eq__(self, other):
        if not isinstance(other, Cut):
            return NotImplemented
        return self.tree == other.tree and self.kept == other.kept

    @view
    def nodes(self) -> tuple[int, ...]:
        """The kept nodes in the tree's top-down order."""
        return tuple(n for n in self.tree.nodes_top_down if n in self.kept)


def cut_node_tuples(tree: TreeDiagram) -> list[tuple[int, ...]]:
    """The kept nodes of every cut of a tree, each tuple in the tree's
    top-down order, the tuples in no particular order.  A kept set grows as
    its nodes with their bit mask, so it is closed and not checked again."""
    kept_sets, bit = [((), 1)], {None: 1}  # every set holds bit 1, the root edge's
    for n in tree.nodes_top_down:  # a node may join the sets holding its parent
        held, bit[n] = bit[tree.parent_node(n)], 1 << len(bit)
        kept_sets += [(s + (n,), m | bit[n]) for s, m in kept_sets if m & held]
    return [s for s, _ in kept_sets]


def enumerate_cuts(tree: TreeDiagram) -> list[Cut]:
    """All cuts of a tree, ordered by kept-set size then sorted node ids.

    The empty kept set (the root-edge cut) and the full node set are always
    included; the trivial tree has exactly one cut.  The kept sets are
    those of ``cut_node_tuples``, so they are closed and not checked again.
    """
    kept_sets = sorted(cut_node_tuples(tree), key=lambda s: (len(s), sorted(s)))
    cuts = [object.__new__(Cut) for _ in kept_sets]  # no __init__ check
    for cut, nodes in zip(cuts, kept_sets):
        cut.__dict__.update(tree=tree, kept=frozenset(nodes), nodes=nodes)
    return cuts


def subtree_of_cut(cut: Cut) -> TreeDiagram:
    """The kept subtree (containing the root) of a cut."""
    t = cut.tree
    kept = cut.kept
    s_edges = {t.root}
    for n in kept:
        s_edges.add(t.node_output[n])
        s_edges.update(t.node_inputs[n])
    return TreeDiagram(tuple(sorted(s_edges)),
                       {n: t.node_inputs[n] for n in kept},
                       {n: t.node_output[n] for n in kept})


def ideal_subtree(d: ForestDiagram, edge: int) -> TreeDiagram:
    """The subtree of everything above ``edge``; ``edge`` becomes the root.

    Ids are preserved.  Whenever an edge is included so are the node above
    it and all of that node's input edges, so the result is upward closed.
    """
    if edge not in d.edge_set:
        raise DiagramError(f"unknown edge {edge}")
    sub_edges = {edge}
    sub_nodes = set()
    stack = [edge]
    while stack:
        e = stack.pop()
        n = d.node_above.get(e)
        if n is None or n in sub_nodes:
            continue
        sub_nodes.add(n)
        for e2 in d.node_inputs[n]:
            sub_edges.add(e2)
            stack.append(e2)
    return TreeDiagram(tuple(sorted(sub_edges)),
                       {n: d.node_inputs[n] for n in sub_nodes},
                       {n: d.node_output[n] for n in sub_nodes})


def prune(cut: Cut) -> tuple[ForestDiagram, TreeDiagram, dict[int, int]]:
    """Split a tree along a cut into (crown forest, stump tree, matching).

    The stump is the kept subtree; the crown is the forest of ideal subtrees
    generated by the stump's leaves.  A cut edge is not removed: it occurs
    in the stump (as a leaf) and in the crown (as a root), with the same id,
    so the returned matching leaf -> root is the identity.
    """
    t = cut.tree
    stump = subtree_of_cut(cut)
    stump_edges = stump.edge_set
    stump_leaves = set(stump.leaves)
    crown_edges = stump_leaves | (t.edge_set - stump_edges)
    crown_nodes = [n for n in t.node_inputs if n not in cut.kept]
    crown = ForestDiagram(tuple(sorted(crown_edges)),
                          {n: t.node_inputs[n] for n in crown_nodes},
                          {n: t.node_output[n] for n in crown_nodes})
    matching = {e: e for e in sorted(stump_leaves)}
    return crown, stump, matching


def graft(crown: ForestDiagram, stump: TreeDiagram,
          matching: Mapping[int, int]) -> Cut:
    """Glue a crown forest onto the leaves of a stump tree.

    ``matching`` must be a bijection from the stump's leaves to the crown's
    roots.  The glued edges take the stump's leaf ids; any other crown ids
    colliding with stump ids are renamed to fresh ones, deterministically.
    Returns the glued tree together with the cut remembering the stump.
    """
    s_leaves = tuple(sorted(stump.leaves))
    c_roots = set(crown.roots)
    m = dict(matching)
    if (sorted(m) != list(s_leaves) or sorted(m.values()) != sorted(c_roots)
            or len(set(m.values())) != len(m)):
        raise MatchingNotBijective(
            "matching must be a bijection from stump leaves to crown roots")

    rename: dict[int, int] = {r: leaf for leaf, r in m.items()}
    used_edges = set(stump.edges)
    used_nodes = set(stump.node_inputs)
    fresh = max(used_edges | used_nodes
                | set(crown.edges) | set(crown.node_inputs), default=-1) + 1
    for e in crown.edges:
        if e in c_roots:
            continue
        if e in used_edges:
            rename[e] = fresh
            fresh += 1
        else:
            rename[e] = e
    node_rename: dict[int, int] = {}
    for n in sorted(crown.node_inputs):
        if n in used_nodes:
            node_rename[n] = fresh
            fresh += 1
        else:
            node_rename[n] = n

    edges = set(stump.edges)
    edges.update(rename[e] for e in crown.edges if e not in c_roots)
    node_inputs = dict(stump.node_inputs)
    node_output = dict(stump.node_output)
    for n in crown.node_inputs:
        n2 = node_rename[n]
        node_inputs[n2] = tuple(rename[e] for e in crown.node_inputs[n])
        node_output[n2] = rename[crown.node_output[n]]
    tree = TreeDiagram(tuple(sorted(edges)), node_inputs, node_output)
    return Cut(tree, frozenset(stump.node_inputs))


def forest_components(d: ForestDiagram) -> list[TreeDiagram]:
    """Split a forest into its trees, ordered by root edge id (ids kept)."""
    return [ideal_subtree(d, r) for r in d.roots]


def disjoint_union(parts: Iterable[ForestDiagram]) -> ForestDiagram:
    """Disjoint union of forests, relabelling ids by deterministic offsets."""
    edges: list[int] = []
    node_inputs: dict[int, tuple[int, ...]] = {}
    node_output: dict[int, int] = {}
    e_off = n_off = 0
    for part in parts:
        e_map = {e: e_off + i for i, e in enumerate(sorted(part.edges))}
        n_map = {n: n_off + i for i, n in enumerate(sorted(part.node_inputs))}
        edges.extend(e_map[e] for e in part.edges)
        for n, ins in part.node_inputs.items():
            node_inputs[n_map[n]] = tuple(e_map[e] for e in ins)
            node_output[n_map[n]] = e_map[part.node_output[n]]
        e_off += len(part.edges)
        n_off += len(part.node_inputs)
    return ForestDiagram(tuple(sorted(edges)), node_inputs, node_output)


# ---------------------------------------------------------------------------
# textual grammar
#
#   tree   := "_" | "(" tree* ")"
#   forest := "ε" | tree ("·" tree)*
#
# "_" is a leaf edge, "( ... )" a node whose children are its input edges in
# slot order; the root edge is implicit.  Printing preserves slot order, so
# print(parse(s)) == s for canonical input.


class _Scanner:
    """A position in the text; an error counts its line and column."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> GrammarError:
        text, pos = self.text, self.pos
        return GrammarError(msg, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1


def _read_tree_text(text: str, read: Callable[[_Scanner], object]):
    """The one tree ``read`` reads from the text, then no trailing input."""
    sc = _Scanner(text)
    t = read(sc)
    sc.skip_ws()
    if sc.peek() is not None:
        raise sc.error("trailing input after tree")
    return t


def _read_forest_text(text: str, read: Callable[[_Scanner], object]) -> list:
    """The trees ``read`` reads from ``"ε" | tree ("·" tree)*``, none for ε."""
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "ε":
        sc.advance()
        sc.skip_ws()
        if sc.peek() is not None:
            raise sc.error("trailing input after empty forest")
        return []
    trees = []
    while True:
        trees.append(read(sc))
        sc.skip_ws()
        if sc.peek() == "·":
            sc.advance()
            continue
        if sc.peek() is None:
            return trees
        raise sc.error("expected '·' between forest components")


# Deepest node nesting the parsers accept.  The two parsers (this one and
# ``pfunctor._parse_decorated``) recurse once per level, so much deeper input
# would exhaust Python's default recursion limit of 1000; it is a
# GrammarError.  Printing, cuts, codes and automorphism orders are iterative.
MAX_PARSE_DEPTH = 500


def _parse_subtree(sc: _Scanner, parts: tuple[list, dict, dict], depth: int = 0) -> int:
    """Read one tree into ``parts`` (edges, node inputs, node outputs) and
    return its root edge.  Edges are numbered as they are read and nodes as
    they open."""
    edges, node_inputs, node_output = parts
    e = len(edges)
    edges.append(e)
    sc.skip_ws()
    ch = sc.peek()
    if ch == "_":
        sc.advance()
        return e
    if ch == "(":
        if depth >= MAX_PARSE_DEPTH:
            raise sc.error(f"nodes nested deeper than {MAX_PARSE_DEPTH}")
        sc.advance()
        node = len(node_output)
        node_output[node] = e
        ins = []
        while True:
            sc.skip_ws()
            ch = sc.peek()
            if ch == ")":
                sc.advance()
                break
            if ch is None:
                raise sc.error("unexpected end of input, expected ')'")
            if ch not in "_(":
                raise sc.error(f"unexpected character {ch!r}")
            ins.append(_parse_subtree(sc, parts, depth + 1))
        node_inputs[node] = tuple(ins)
        return e
    if ch is None:
        raise sc.error("unexpected end of input")
    raise sc.error(f"unexpected character {ch!r}")


def parse_tree(text: str) -> TreeDiagram:
    parts = [], {}, {}
    _read_tree_text(text, lambda sc: _parse_subtree(sc, parts))
    return validate_tree(*parts)


def parse_forest(text: str) -> ForestDiagram:
    parts = [], {}, {}
    _read_forest_text(text, lambda sc: _parse_subtree(sc, parts))
    return validate_forest(*parts)


def _print_from_edge(d: ForestDiagram, edge: int) -> str:
    out, stack = [], [edge]  # the stack holds edges and ")" to close nodes
    while stack:
        e = stack.pop()
        n = d.node_above.get(e)
        if n is not None:
            out.append("(")
            stack += [")", *reversed(d.node_inputs[n])]
        else:  # a leaf, or the end of a node
            out.append(")" if e == ")" else "_")
    return "".join(out)


def print_tree(t: TreeDiagram) -> str:
    return _print_from_edge(t, t.root)


def print_forest(d: ForestDiagram) -> str:
    if not d.edges:
        return "ε"
    return "·".join(_print_from_edge(d, r) for r in d.roots)
