"""Exhaustive generation of decorated trees and forests up to isomorphism.

Trees are graded by edge count, which is finite for every spec even when
node arities are unbounded; optional node-count caps prune the generation
without changing the admitted set.  ``enumerate_classes`` hands out one
class record (:class:`TreeClass`) per canonical key, in key order, each
composed from its children's records, so no tree is built.
``enumerate_ptrees`` reads the records' representative trees, which are
built on first use; forests are multisets of the records' keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .pfunctor import EndofunctorSpec, ForestKey, PForest, PTree, TreeClass
from .trees import ForestDiagram, disjoint_union

Profile = tuple[tuple[str, int], ...]  # (colour, count) pairs, sorted by colour


class BoundError(ValueError):
    """A bound out of range."""


@dataclass(frozen=True)
class Bound:
    """Resource bounds for enumeration and series truncation."""

    max_edges: int
    max_nodes: int | None = None

    def __post_init__(self):
        if self.max_edges < 1:
            raise BoundError("max_edges must be >= 1")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise BoundError("max_nodes must be >= 0")

    def admits(self, edges: int, nodes: int) -> bool:
        return edges <= self.max_edges and (self.max_nodes is None
                                            or nodes <= self.max_nodes)

    def admits_forest(self, f: PForest) -> bool:
        return self.admits(f.edge_count(), f.node_count())

    def label(self) -> str:
        if self.max_nodes is None:
            return f"edges<={self.max_edges}"
        return f"edges<={self.max_edges},nodes<={self.max_nodes}"


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` parts, each >= minimum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _strata(spec: EndofunctorSpec, bound: Bound) -> list[dict[str, TreeClass]]:
    """Classes grouped by exact edge count: strata[e] maps key -> record.

    The spec keeps one table per node cap and grows it by edge count on
    demand; a stratum enters the table once it is complete.  A candidate
    op(children) is composed from its children's records; no tree is built.
    A class already in the table keeps its record.
    """
    max_nodes = bound.max_nodes
    strata, by_colour = spec._enum_cache.setdefault(("strata", max_nodes),
                                                    ([{}], [{}]))
    for e in range(len(strata), bound.max_edges + 1):
        level: dict[str, TreeClass] = {}
        if e == 1:
            for colour in spec.colours:
                c = spec.trivial_classes[colour]
                level[c.key] = c
        for op in spec.ops:
            k = op.arity
            if k > e - 1:
                continue
            block_sorted = spec.group_is_block_symmetric(op.name)
            for comp in _compositions(e - 1, k, 1):
                pools = [by_colour[comp[i]].get(op.ins[i], ()) for i in range(k)]
                if any(not p for p in pools):
                    continue
                for children in itertools.product(*pools):
                    if block_sorted and not _block_nondecreasing(op.ins, comp, children):
                        continue
                    if max_nodes is not None and \
                            1 + sum(c.nodes for c in children) > max_nodes:
                        continue  # too many nodes
                    c = spec.compose(op.name, children)
                    level.setdefault(c.key, c)
        colours: dict[str, list[TreeClass]] = {}
        for c in level.values():
            colours.setdefault(c.root, []).append(c)
        strata.append(level)
        by_colour.append(colours)
    return strata[:bound.max_edges + 1]


def _block_nondecreasing(ins: Sequence[str], comp: Sequence[int],
                         children: Sequence[TreeClass]) -> bool:
    """Skip slot arrangements a fully symmetric group would identify.

    Within each maximal run of slots with equal colour and equal child edge
    count, only the arrangement with nondecreasing child keys is kept.
    """
    for i in range(1, len(children)):
        if ins[i] == ins[i - 1] and comp[i] == comp[i - 1]:
            if children[i].key < children[i - 1].key:
                return False
    return True


def enumerate_classes(spec: EndofunctorSpec, bound: Bound, root_colour: str | None = None,
                      leaf_profile: Profile | None = None) -> list[TreeClass]:
    """The record of every tree class within the bound, sorted by key; no
    tree is built."""
    out = [c for stratum in _strata(spec, bound)[1:] for c in stratum.values()]
    if root_colour is not None:
        out = [c for c in out if c.root == root_colour]
    if leaf_profile is not None:
        want = tuple(sorted((c, m) for c, m in leaf_profile if m))
        out = [c for c in out if c.leaf_profile == want]
    out.sort(key=lambda c: c.key)
    return out


def enumerate_ptrees(spec: EndofunctorSpec, bound: Bound) -> list[PTree]:
    """One representative per tree class within the bound, sorted by key."""
    return [c.tree for c in enumerate_classes(spec, bound)]


def enumerate_pforests(spec: EndofunctorSpec, bound: Bound) -> list[PForest]:
    """All multisets of tree classes within the total bound, sorted by key."""
    classes = sorted((c.edges, c.nodes, c.key) for c in enumerate_classes(spec, bound))
    out: list[ForestKey] = []
    chosen: list[str] = []

    def rec(start: int, edges_left: int, nodes_left: int | None):
        out.append(tuple(sorted(chosen)))
        for i in range(start, len(classes)):
            e, n, key = classes[i]
            if e > edges_left:
                break
            if nodes_left is not None and n > nodes_left:
                continue
            chosen.append(key)
            rec(i, edges_left - e,
                None if nodes_left is None else nodes_left - n)
            chosen.pop()

    # classes come in edge order and indices never decrease, so every
    # multiset is produced exactly once
    rec(0, bound.max_edges, bound.max_nodes)
    out.sort()
    return [PForest(spec, keys) for keys in out]


def instantiate_forest(f: PForest) -> tuple[list[PTree], ForestDiagram, list[int]]:
    """Component instances, their disjoint-union diagram, and the root edge
    id of each component inside the union (components in key order)."""
    comps = f.trees()
    diagram = disjoint_union([t.shape for t in comps])
    roots = []
    e_off = 0
    for t in comps:
        roots.append(e_off + sorted(t.shape.edges).index(t.shape.root))
        e_off += t.edge_count
    return comps, diagram, roots


def _fillings(stump: PTree, items: Iterable[tuple[str, object]],
              arrangements: Callable[[list], Iterable]) -> Iterator[dict[int, object]]:
    """Maps from stump leaves to the (colour, item) items that fill each leaf
    with an item of its colour, in every combination of one of
    ``arrangements(items of colour c)`` per colour; none when the profiles
    differ."""
    by_colour: dict[str, list] = {}
    for colour, item in items:
        by_colour.setdefault(colour, []).append(item)
    leaves_by_colour: dict[str, list[int]] = {}
    for e in sorted(stump.shape.leaves):
        leaves_by_colour.setdefault(stump.edge_colour[e], []).append(e)
    if {c: len(v) for c, v in by_colour.items()} != \
            {c: len(v) for c, v in leaves_by_colour.items()}:
        return
    colour_list = sorted(leaves_by_colour)
    for combo in itertools.product(*(list(arrangements(by_colour[c]))
                                     for c in colour_list)):
        yield {leaf: item for c, arranged in zip(colour_list, combo)
               for leaf, item in zip(leaves_by_colour[c], arranged)}


def matchings(stump: PTree, crown: PForest) -> list[dict[int, int]]:
    """All colour-respecting bijections from stump leaves to crown roots.

    Roots are the edge ids of the instantiated crown forest (components in
    key order, ids offset in that order); empty when profiles differ.
    """
    comps, _, comp_roots = instantiate_forest(crown)
    return sorted(_fillings(stump, [(t.root_colour, r) for r, t in zip(comp_roots, comps)],
                            itertools.permutations),
                  key=lambda m: tuple(sorted(m.items())))


def multiset_arrangements(items: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Distinct orderings of a multiset, in lexicographic order.

    Knuth's Algorithm L (TAOCP 7.2.1.2): from the sorted items, each next
    ordering swaps the rightmost ascent a[j] < a[j+1] with the last item
    above a[j] and reverses the tail after j.
    """
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def graft_class_assignments(stump: PTree, crown: PForest) -> Iterator[dict[int, str]]:
    """Assignments of crown component keys to stump leaves, up to permuting
    equal classes (enough to reach every graft class)."""
    return _fillings(stump, [(c.root, c.key) for c in crown.classes()],
                     multiset_arrangements)
