"""Exhaustive generation of decorated trees and forests up to isomorphism.

Trees are graded by edge count, which is finite for every spec even when
node arities are unbounded.  Each stratum is composed from the occupied
(edges, nodes) cells of the smaller ones, within the edges and nodes left;
a class is one orbit of child tuples under the op's group.
``enumerate_classes`` hands out one class record (:class:`TreeClass`) per
canonical key, in key order, each composed from its children's records,
so no tree is built.  ``enumerate_ptrees`` builds a representative tree
per record, each from its children's, in a table of its own; forests are
multisets of the records' keys.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Iterator

from .pfunctor import (EndofunctorSpec, ForestKey, OpType, PForest, PTree,
                       SpecError, TreeClass, tree_in)
from .trees import ForestDiagram, disjoint_union

Profile = tuple[tuple[str, int], ...]  # (colour, count) pairs, sorted by colour


def profile_str(profile: Profile) -> str:
    return ",".join(f"{c}:{m}" for c, m in profile) if profile else "-"


class BoundError(ValueError):
    """A bound out of range."""


class Bound:
    """Resource bounds for enumeration and series truncation."""

    def __init__(self, max_edges: int, max_nodes: int | None = None):
        if max_edges < 1:
            raise BoundError("max_edges must be >= 1")
        if max_nodes is not None and max_nodes < 0:
            raise BoundError("max_nodes must be >= 0")
        self.max_edges, self.max_nodes = max_edges, max_nodes

    def __eq__(self, other):
        if not isinstance(other, Bound):
            return NotImplemented
        return (self.max_edges, self.max_nodes) == (other.max_edges, other.max_nodes)

    def __hash__(self):
        return hash((self.max_edges, self.max_nodes))

    def __repr__(self):
        return f"Bound(max_edges={self.max_edges!r}, max_nodes={self.max_nodes!r})"

    def admits(self, edges: int, nodes: int) -> bool:
        return edges <= self.max_edges and (self.max_nodes is None
                                            or nodes <= self.max_nodes)

    def admits_forest(self, f: PForest) -> bool:
        return self.admits(f.edge_count(), f.node_count())

    def label(self) -> str:
        if self.max_nodes is None:
            return f"edges<={self.max_edges}"
        return f"edges<={self.max_edges},nodes<={self.max_nodes}"


def _strata(spec: EndofunctorSpec, bound: Bound) -> list[dict[str, TreeClass]]:
    """Classes grouped by exact edge count: strata[e] maps key -> record.

    The spec keeps one table per node cap and grows it by edge count on
    demand.  A finished stratum enters the table, and its occupied cells
    enter ``cells``: per colour, (edges, nodes, records sorted by key) in
    (edges, nodes) order.  A class met twice keeps its first record.
    """
    max_nodes = bound.max_nodes
    strata, cells = spec._enum_cache.setdefault(("strata", max_nodes), ([{}], {}))
    for e in range(len(strata), bound.max_edges + 1):
        level = {c.key: c for c in spec.trivial_classes.values()} if e == 1 else {}
        room = (e if max_nodes is None else max_nodes) - 1  # nodes never exceed edges
        for op in spec.ops:
            for children in _slot_fillings(spec, op, cells, e - 1, room):
                c = spec.compose(op.name, children)
                level.setdefault(c.key, c)
        strata.append(level)
        for (root, n), cell in itertools.groupby(
                sorted(level.values(), key=lambda c: (c.root, c.nodes, c.key)),
                lambda c: (c.root, c.nodes)):
            cells.setdefault(root, []).append((e, n, list(cell)))
    return strata[:bound.max_edges + 1]


def _slot_fillings(spec: EndofunctorSpec, op: OpType, cells: dict, edges: int,
                   nodes: int) -> Iterator[tuple[TreeClass, ...]]:
    """Records for the slots of ``op`` with ``edges`` edges and at most
    ``nodes`` nodes in all, filled slot by slot from the occupied cells and
    pruned on the edges left (one per slot left) and the nodes left.

    The slots of one block of the op (``EndofunctorSpec.node_code``) take
    nondecreasing cells, and the m slots of a block on one cell a multiset
    of m records: one arrangement per orbit when the group permutes the
    slots within blocks.  An op whose group is scanned may meet a class
    twice.
    """
    k = op.arity
    rows = [cells.get(c, []) for c in op.ins]
    # each slot's previous slot and first slot in its block, or itself
    prev, lead = list(range(k)), list(range(k))
    for slots in spec._blocks[op.name] or ():
        for a, b in zip(slots, slots[1:]):
            prev[b], lead[b] = a, slots[0]
    found: list[tuple[int, ...]] = []  # the cell picked for each slot

    def walk(i: int, edges_left: int, nodes_left: int, picks: tuple):
        if i == k:
            if edges_left == 0 <= nodes_left:
                found.append(picks)
            return
        rest = k - 1 - i
        # the last slot takes the edges left
        first = 0 if rest else bisect.bisect_left(rows[i], (edges_left,))
        for j in range(max(first, picks[prev[i]] if prev[i] < i else 0), len(rows[i])):
            ce, cn, _ = rows[i][j]
            if ce > edges_left - rest:
                break
            if cn <= nodes_left:
                walk(i + 1, edges_left - ce, nodes_left - cn, picks + (j,))

    walk(0, edges, nodes, ())
    del walk  # it calls itself: empty its cell, or it is a cycle
    for picks in found:
        if all(prev[i] == i or picks[i] != picks[prev[i]] for i in range(1, k)):
            yield from itertools.product(*(rows[i][j][2] for i, j in enumerate(picks)))
            continue
        runs: dict[tuple[int, int], list[int]] = {}  # the slots of a block on a cell
        for i in range(k):
            runs.setdefault((lead[i], picks[i]), []).append(i)
        order = [i for run in runs.values() for i in run]  # the slots run by run
        arrange = operator.itemgetter(*sorted(range(k), key=order.__getitem__))  # to slot order
        for combo in itertools.product(*(itertools.combinations_with_replacement(
                rows[run[0]][picks[run[0]]][2], len(run)) for run in runs.values())):
            yield arrange(tuple(itertools.chain.from_iterable(combo)))


def enumerate_classes(spec: EndofunctorSpec, bound: Bound, root_colour: str | None = None,
                      leaf_profile: Profile | None = None) -> list[TreeClass]:
    """The record of every tree class within the bound, sorted by key; no
    tree is built.  A leaf profile names colours of the spec, each once,
    with counts at least 0; a zero count is dropped."""
    for colour, m in leaf_profile or ():
        if colour not in spec.colours:
            raise SpecError(f"leaf profile: unknown colour {colour!r}; spec has "
                            f"{', '.join(spec.colours)}")
        if [c for c, _ in leaf_profile].count(colour) > 1:
            raise SpecError(f"leaf profile: colour {colour!r} named twice")
        if m < 0:
            raise SpecError(f"leaf profile: count of {colour!r} must be at least 0, got {m}")
    out = [c for stratum in _strata(spec, bound)[1:] for c in stratum.values()]
    if root_colour is not None:
        out = [c for c in out if c.root == root_colour]
    if leaf_profile is not None:
        want = tuple(sorted((c, m) for c, m in leaf_profile if m))
        out = [c for c in out if c.leaf_profile == want]
    out.sort(key=lambda c: c.key)
    return out


def enumerate_ptrees(spec: EndofunctorSpec, bound: Bound) -> list[PTree]:
    """One representative per tree class within the bound, sorted by key.
    Each is built from its children's in a table that lives for this call
    (``tree_in``), so no record keeps one; the caller holds the trees."""
    table: dict[str, PTree] = {}
    return [tree_in(c, table) for c in enumerate_classes(spec, bound)]


def enumerate_pforests(spec: EndofunctorSpec, bound: Bound) -> list[PForest]:
    """All multisets of tree classes within the total bound, sorted by key.
    The walk keeps its own stack, so a forest may have more trees than the
    recursion limit."""
    classes = sorted((c.edges, c.nodes, c.key) for c in enumerate_classes(spec, bound))

    def fitting(start: int, edges: int, nodes: int):
        """Each class from index ``start`` that fits, with what is left."""
        for i in range(start, len(classes)):
            e, n, _ = classes[i]
            if e > edges:
                break
            if n <= nodes:
                yield i, edges - e, nodes - n

    # classes come in edge order and indices never decrease, so every
    # multiset is produced exactly once; ``stack`` has a level per class in
    # ``chosen`` and one below them.  Nodes never exceed edges, so the edge
    # bound also bounds the nodes.
    out: list[ForestKey] = [()]
    chosen: list[str] = []
    nodes = bound.max_edges if bound.max_nodes is None else bound.max_nodes
    stack = [fitting(0, bound.max_edges, nodes)]
    while stack:
        if (step := next(stack[-1], None)) is None:
            stack.pop()
            del chosen[-1:]  # the class that opened the level
            continue
        chosen.append(classes[step[0]][2])
        out.append(tuple(sorted(chosen)))
        stack.append(fitting(*step))
    out.sort()
    return [PForest(spec, keys) for keys in out]


def instantiate_forest(f: PForest) -> tuple[list[PTree], ForestDiagram, list[int]]:
    """Component instances, their disjoint-union diagram, and the root edge
    id of each component inside the union (components in key order)."""
    table: dict[str, PTree] = {}
    comps = [tree_in(c, table) for c in f.classes()]
    diagram = disjoint_union([t.shape for t in comps])
    roots = []
    e_off = 0
    for t in comps:
        roots.append(e_off + sorted(t.shape.edges).index(t.shape.root))
        e_off += t.edge_count
    return comps, diagram, roots


def matchings(stump: PTree, crown: PForest) -> list[dict[int, int]]:
    """All colour-respecting bijections from stump leaves to crown roots.

    Roots are the edge ids of the instantiated crown forest (components in
    key order, ids offset in that order); empty when profiles differ.
    """
    if stump.leaf_profile() != crown.root_profile():
        return []
    comps, _, comp_roots = instantiate_forest(crown)
    roots: dict[str, list[int]] = {}
    leaves: dict[str, list[int]] = {}
    for r, t in zip(comp_roots, comps):
        roots.setdefault(t.root_colour, []).append(r)
    for e in sorted(stump.shape.leaves):
        leaves.setdefault(stump.edge_colour[e], []).append(e)
    return sorted(({leaf: r for c, perm in zip(leaves, combo)
                    for leaf, r in zip(leaves[c], perm)}
                   for combo in itertools.product(*(
                       itertools.permutations(roots[c]) for c in leaves))),
                  key=lambda m: tuple(sorted(m.items())))
