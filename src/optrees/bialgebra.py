"""The bialgebra of decorated trees: coproduct, Green functions, and the
substitution identity for their coefficients.

Basis and series
----------------
The algebra is free on isomorphism classes of decorated trees; a forest
class (a multiset of tree keys) is a monomial.  A :class:`Series` maps
forest monomials to exact rationals and records the truncation bound it
was computed under; binary operations insist on equal bounds so that a
truncated convolution is never silently wrong.  Sizes only add under the
product, so a monomial's coefficient is the same under every bound that
admits it.

Coproduct
---------
On a tree class, the coproduct sums ``crown ⊗ stump`` over all cuts, where
the stump is a root-containing subtree and the crown is the forest of
ideal subtrees over the stump's leaves.  It is multiplicative on forest
monomials.  The counit sends a monomial to 1 when all its trees are
trivial, else 0 (forced by the counit laws, which the tests verify).

``cut_summary`` reads it from the class record, which composes it from
its children's by the Hochschild 1-cocycle property of grafting:

    Δ(op(T₁…T_k)) = T ⊗ | + op(ΔT₁, …, ΔT_k),   Δ(|) = | ⊗ |.

A cut either cuts the root edge (crown T, trivial stump) or keeps the root
node and cuts each child independently.  In the second case the crown is
the union of the children's crowns, and the stump is ``op`` on their
stumps, coded by ``EndofunctorSpec.node_code``, the one rule that also
codes every node of a tree.  The multiplicity is the product of the
children's.  ``flat_cut_summary`` is the brute-force count: every cut is
enumerated and its parts coded from the tree's own pass, pruning none off.

Green functions
---------------
``green`` is the series with coefficient ``1/|Aut T|`` on each single-tree
monomial, optionally restricted by root colour or leaf profile.  The
coefficient of ``crown ⊗ stump`` in the coproduct of the total Green
function can be computed two independent ways:

* ``fdb_lhs_coefficient``: sum over graft classes ``T`` of (number of cuts
  of ``T`` pruning to the pair) divided by ``|Aut T|``, where ``T`` is a
  record composed along the stump's nodes with a crown record on each
  leaf (``graft_record``): no graft tree is built and no key parsed;
* ``fdb_rhs_coefficient``: coefficient of the crown in the product of
  root-coloured Green functions indexed by the stump's leaf profile,
  divided by ``|Aut stump|``.  ``verify_fdb`` builds that power once per
  leaf profile from the whole truncated Green functions (``profile_powers``)
  and reads every pair's coefficient from it.

``verify_fdb`` checks exact equality over every pair within a budget of
(max total nodes, max edges per side).  A third route builds every tree
within the budget and counts its cuts flat, so it shares no composed
record with the first; the graft records of a sample of pairs are also
checked against grafted trees, their flat cut counts and parsed keys.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .enumeration import (Bound, Profile, enumerate_classes, enumerate_pforests,
                          enumerate_ptrees, graft_class_assignments)
from .pfunctor import (EMPTY_FOREST_KEY, EndofunctorSpec, ForestKey, PForest,
                       PTree, TreeClass, aut_order, compose_along, forest_key_str,
                       graft_decorated, intern, parse_ptree, representative,
                       tree_class)
from .trees import enumerate_cuts

ZERO = Fraction(0)
ONE = Fraction(1)
SAMPLE = 200  # pairs in each spot-check sample of ``verify_fdb``


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def profile_str(profile: Profile) -> str:
    return ",".join(f"{c}:{m}" for c, m in profile) if profile else "-"


class BoundMismatch(ValueError):
    """Binary series operation on series with different bounds."""


@dataclass
class Series:
    """Finitely supported map forest-monomial -> rational, with its bound."""

    spec: EndofunctorSpec
    bound: Bound
    coeffs: dict[ForestKey, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {k: v for k, v in self.coeffs.items() if v}

    def coefficient(self, key: ForestKey) -> Fraction:
        return self.coeffs.get(tuple(key), ZERO)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.spec is other.spec and self.coeffs == other.coeffs

    def terms_str(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            c = self.coeffs[key]
            mono = forest_key_str(key) if key else "1"
            parts.append(mono if c == 1 else f"{format_rational(c)} {mono}")
        return " + ".join(parts)


@dataclass
class TensorSeries:
    """Finitely supported map (forest, forest) -> rational."""

    spec: EndofunctorSpec
    bound: Bound
    coeffs: dict[tuple[ForestKey, ForestKey], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {k: v for k, v in self.coeffs.items() if v}

    def coefficient(self, left: ForestKey, right: ForestKey) -> Fraction:
        return self.coeffs.get((tuple(left), tuple(right)), ZERO)

    def __eq__(self, other):
        if not isinstance(other, TensorSeries):
            return NotImplemented
        return self.spec is other.spec and self.coeffs == other.coeffs

    def terms_str(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for left, right in sorted(self.coeffs):
            c = self.coeffs[(left, right)]
            mono = f"{forest_key_str(left) if left else '1'} ⊗ " \
                   f"{forest_key_str(right) if right else '1'}"
            parts.append(mono if c == 1 else f"{format_rational(c)} {mono}")
        return " + ".join(parts)


def _require_same_bound(a, b):
    if a.bound != b.bound:
        raise BoundMismatch(f"bounds differ: {a.bound} vs {b.bound}")
    if a.spec is not b.spec:
        raise BoundMismatch("series over different specs")


def _merge_key(a: ForestKey, b: ForestKey) -> ForestKey:
    return tuple(sorted(a + b))


# ---------------------------------------------------------------------------
# coproduct and counit


def cut_summary(t: PTree) -> dict[tuple[ForestKey, str], int]:
    """Multiplicity of each (crown class, stump class) over the cuts of t:
    the cuts of t's class record, composed from its children's."""
    return intern(t).cuts


def flat_cut_summary(t: PTree) -> dict[tuple[ForestKey, str], int]:
    """Cut summary counted cut by cut from t's own canonical pass, reading
    no class record: the flat oracle for ``cut_summary``, and the cut count
    of the accumulation route and the graft oracle.  A crown part is keyed
    by the code of its root edge (the trivial key at a leaf of t); the stump
    is coded over the kept nodes by ``node_code``, with ``_`` on its leaves."""
    spec, shape, colour = t.spec, t.shape, t.edge_colour
    codes, node_code, trivial_key = t.edge_codes(), spec.node_code, spec.trivial_key
    above, inputs, output = shape.node_above, shape.node_inputs, shape.node_output
    bottom_up, root = shape.nodes_top_down[::-1], shape.root
    counter: dict[tuple[ForestKey, str], int] = {}
    for cut in enumerate_cuts(shape):
        kept = cut.kept
        if not kept:
            stump = trivial_key(colour[root])
            pair = ((codes.get(root, stump),), stump)
        else:
            crown, stump_codes = [], {}
            for n in bottom_up:
                if n in kept:
                    ins = inputs[n]
                    crown += [codes.get(e) or trivial_key(colour[e])
                              for e in ins if above.get(e) not in kept]
                    stump_codes[output[n]] = node_code(
                        t.node_op[n], [stump_codes.get(e, "_") for e in ins])[0]
            pair = (tuple(sorted(crown)), stump_codes[root])
        counter[pair] = counter.get(pair, 0) + 1
    return counter


def delta_tree(t: PTree, bound: Bound | None = None) -> TensorSeries:
    """Coproduct of a single tree class: one term per cut."""
    if bound is None:
        bound = Bound(t.edge_count)
    coeffs = {(crown, (stump,)): Fraction(mult)
              for (crown, stump), mult in cut_summary(t).items()}
    return TensorSeries(t.spec, bound, coeffs)


def _sizes(spec: EndofunctorSpec, key: ForestKey) -> tuple[int, int]:
    """(edges, nodes) of a forest monomial."""
    classes = [tree_class(spec, k) for k in key]
    return sum(c.edges for c in classes), sum(c.nodes for c in classes)


def tensor_mul(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Componentwise product, truncating each side by the common bound.

    Sizes add under the product, so each factor term's sides are measured
    once and the bound is tested on the sums before the keys are merged."""
    _require_same_bound(a, b)
    spec, admits = a.spec, a.bound.admits
    terms_b = [(l2, r2, c2, _sizes(spec, l2), _sizes(spec, r2))
               for (l2, r2), c2 in b.coeffs.items()]
    out: dict[tuple[ForestKey, ForestKey], Fraction] = {}
    for (l1, r1), c1 in a.coeffs.items():
        (le1, ln1), (re1, rn1) = _sizes(spec, l1), _sizes(spec, r1)
        for l2, r2, c2, (le2, ln2), (re2, rn2) in terms_b:
            if not (admits(le1 + le2, ln1 + ln2) and admits(re1 + re2, rn1 + rn2)):
                continue
            key = (_merge_key(l1, l2), _merge_key(r1, r2))
            out[key] = out.get(key, ZERO) + c1 * c2
    return TensorSeries(spec, a.bound, out)


def delta_monomial(spec: EndofunctorSpec, key: ForestKey, bound: Bound) -> TensorSeries:
    """Coproduct of a forest monomial: product of the tree coproducts."""
    acc = TensorSeries(spec, bound, {(EMPTY_FOREST_KEY, EMPTY_FOREST_KEY): ONE})
    for k in key:
        acc = tensor_mul(acc, delta_tree(representative(spec, k), bound))
    return acc


def delta_series(s: Series) -> TensorSeries:
    """Coproduct of a series, term by term (exact: cuts never grow sides)."""
    out = TensorSeries(s.spec, s.bound, {})
    for key, c in s.coeffs.items():
        part = delta_monomial(s.spec, key, s.bound)
        for pair, m in part.coeffs.items():
            out.coeffs[pair] = out.coeffs.get(pair, ZERO) + c * m
    out.coeffs = {k: v for k, v in out.coeffs.items() if v}
    return out


def counit(spec: EndofunctorSpec, key: ForestKey) -> Fraction:
    """1 when every tree in the monomial is trivial, else 0."""
    for k in key:
        if tree_class(spec, k).nodes != 0:
            return ZERO
    return ONE


def counit_left(ts: TensorSeries) -> Series:
    """(counit ⊗ id) applied to a tensor series."""
    out: dict[ForestKey, Fraction] = {}
    for (left, right), c in ts.coeffs.items():
        if counit(ts.spec, left):
            out[right] = out.get(right, ZERO) + c
    return Series(ts.spec, ts.bound, out)


def counit_right(ts: TensorSeries) -> Series:
    """(id ⊗ counit) applied to a tensor series."""
    out: dict[ForestKey, Fraction] = {}
    for (left, right), c in ts.coeffs.items():
        if counit(ts.spec, right):
            out[left] = out.get(left, ZERO) + c
    return Series(ts.spec, ts.bound, out)


# ---------------------------------------------------------------------------
# Green functions and series arithmetic


def green(spec: EndofunctorSpec, bound: Bound,
          root_colour: str | None = None,
          leaf_profile: Profile | None = None) -> Series:
    """Sum of 1/|Aut T| times the single-tree monomial over tree classes.

    Selectors restrict to a root colour or a leaf profile before weighting.
    """
    classes = enumerate_classes(spec, bound, root_colour, leaf_profile)
    return Series(spec, bound, {(c.key,): Fraction(1, c.aut) for c in classes})


def series_mul(a: Series, b: Series) -> Series:
    """Exact convolution on forest monomials, truncated by the common bound
    (tested on the summed sizes of the factor terms, as in ``tensor_mul``).
    b's terms are walked in edge order, up to the edge bound."""
    _require_same_bound(a, b)
    spec, admits, max_edges = a.spec, a.bound.admits, a.bound.max_edges
    terms_b = sorted(((*_sizes(spec, k2), k2, c2) for k2, c2 in b.coeffs.items()),
                     key=lambda term: term[0])
    out: dict[ForestKey, Fraction] = {}
    for k1, c1 in a.coeffs.items():
        e1, n1 = _sizes(spec, k1)
        for e2, n2, k2, c2 in terms_b:
            if e1 + e2 > max_edges:
                break
            if admits(e1 + e2, n1 + n2):
                key = _merge_key(k1, k2)
                out[key] = out.get(key, ZERO) + c1 * c2
    return Series(spec, a.bound, out)


def series_one(spec: EndofunctorSpec, bound: Bound) -> Series:
    return Series(spec, bound, {EMPTY_FOREST_KEY: ONE})


def series_powers(a: Series, n: int) -> list[Series]:
    """a⁰, a¹, …, aⁿ, each the product of the one before and a."""
    out = [series_one(a.spec, a.bound)]
    for _ in range(n):
        out.append(series_mul(out[-1], a))
    return out


def series_scale(a: Series, c: Fraction) -> Series:
    return Series(a.spec, a.bound, {k: c * v for k, v in a.coeffs.items()})


def series_add(a: Series, b: Series) -> Series:
    _require_same_bound(a, b)
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, ZERO) + v
    return Series(a.spec, a.bound, out)


def profile_powers(spec: EndofunctorSpec, bound: Bound,
                   profiles: Iterable[Profile]) -> dict[Profile, Series]:
    """For each leaf profile, the product over its colours c of G_c^{m_c},
    the powers of the root-coloured Green functions.  Each G_c^k is built
    once, as G_c^{k-1}·G_c."""
    profiles = set(profiles)
    top = dict(sorted(itertools.chain.from_iterable(profiles)))  # largest m per c
    chains = {colour: series_powers(green(spec, bound, root_colour=colour), m)
              for colour, m in top.items()}
    return {p: functools.reduce(series_mul, (chains[c][m] for c, m in p),
                                series_one(spec, bound)) for p in profiles}


# ---------------------------------------------------------------------------
# the coefficient identity, two ways


def fdb_rhs_coefficient(crown: PForest, stump: PTree,
                        powers: Mapping[Profile, Series]) -> Fraction:
    """Coefficient of crown in the leaf-profile power of Green functions,
    divided by the stump's automorphism order.  ``powers`` maps leaf
    profiles to their ``profile_powers`` under one bound, which must admit
    the crown (sizes only add, so any such bound gives the same
    coefficient)."""
    s = intern(stump)
    power = powers[s.leaf_profile]
    if not power.bound.admits_forest(crown):
        raise BoundMismatch(f"crown {crown} exceeds the power's bound {power.bound}")
    return power.coefficient(crown.keys) / s.aut


def graft_record(stump: PTree, assignment: Mapping[int, str]) -> TreeClass:
    """Record of the graft of the assigned crown classes (stump leaf ->
    key) onto the stump, composed along the stump's nodes."""
    return compose_along(stump, {leaf: tree_class(stump.spec, key)
                                 for leaf, key in assignment.items()})


def graft_classes(crown: PForest, stump: PTree) -> list[TreeClass]:
    """Records of all tree classes obtained by grafting crown onto stump
    along some matching, once each, in the order first reached."""
    out: dict[str, TreeClass] = {}
    for a in graft_class_assignments(stump, crown):
        c = graft_record(stump, a)
        out.setdefault(c.key, c)
    return list(out.values())


def fdb_lhs_coefficient(crown: PForest, stump: PTree) -> Fraction:
    """Sum over graft classes T of (#cuts of T pruning to the pair)/|Aut T|."""
    target = (crown.keys, stump.key())
    return sum((Fraction(m, c.aut) for c in graft_classes(crown, stump)
                if (m := c.cuts.get(target))), ZERO)


def graft_oracle_agrees(stump: PTree, crown: PForest) -> bool:
    """Check the pair's composed graft records against the tree oracles: the
    tree ``graft_decorated`` builds has the key and a cut giving the pair,
    counted flat on that tree; a parse of the key has the sizes, leaf
    profile and |Aut|."""
    spec, pair = stump.spec, (crown.keys, stump.key())
    for assignment in graft_class_assignments(stump, crown):
        c = graft_record(stump, assignment)
        g = graft_decorated(stump, {leaf: tree_class(spec, key).tree
                                    for leaf, key in assignment.items()})
        fresh = parse_ptree(spec, c.key)
        if (g.key() != c.key or fresh.key() != c.key
                or (fresh.edge_count, fresh.node_count, fresh.leaf_profile(),
                    aut_order(fresh)) != (c.edges, c.nodes, c.leaf_profile, c.aut)
                or not flat_cut_summary(g).get(pair)):
            return False
    return True


# ---------------------------------------------------------------------------
# verification report


@dataclass
class PairCheck:
    crown: ForestKey
    stump: str
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def as_doc(self) -> dict:
        return {"F": forest_key_str(self.crown), "S": self.stump,
                "lhs": format_rational(self.lhs), "rhs": format_rational(self.rhs),
                "pass": self.passed}


@dataclass
class FdbReport:
    spec_label: str
    max_total_nodes: int
    max_edges_side: int
    rooted: str | None
    pairs: list[PairCheck]
    checked: int
    failed: int
    zero_pairs: int
    cross_checked: int
    cross_failed: int

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.cross_failed == 0

    def as_doc(self) -> dict:
        return {
            "spec": self.spec_label,
            "bound": {"max_total_nodes": self.max_total_nodes,
                      "max_edges_side": self.max_edges_side},
            "rooted": self.rooted,
            "pairs": [p.as_doc() for p in self.pairs],
            "summary": {"checked": self.checked, "failed": self.failed,
                        "zero_pairs": self.zero_pairs,
                        "cross_checked": self.cross_checked,
                        "cross_failed": self.cross_failed},
        }


def _fdb_pair_space(spec: EndofunctorSpec, max_total_nodes: int,
                    max_edges_side: int, rooted: str | None):
    """Stump classes, (node count, crown) lists indexed by root profile, and
    the total number of in-budget pairs."""
    side_bound = Bound(max_edges_side, max_total_nodes)
    stumps = enumerate_classes(spec, side_bound, root_colour=rooted)
    by_profile: dict[Profile, list[tuple[int, PForest]]] = {}
    crowns_by_nodes: dict[int, int] = {}
    for f in enumerate_pforests(spec, side_bound):
        n = f.node_count()
        by_profile.setdefault(f.root_profile(), []).append((n, f))
        crowns_by_nodes[n] = crowns_by_nodes.get(n, 0) + 1
    total_pairs = 0
    for s in stumps:
        room = max_total_nodes - s.nodes
        total_pairs += sum(m for n, m in crowns_by_nodes.items() if n <= room)
    return stumps, by_profile, total_pairs


def check_fdb_pair(crown: PForest, stump: PTree,
                   powers: Mapping[Profile, Series]) -> PairCheck:
    lhs = fdb_lhs_coefficient(crown, stump)
    rhs = fdb_rhs_coefficient(crown, stump, powers)
    return PairCheck(crown.keys, stump.key(), lhs, rhs)


def _direct_accumulation(spec: EndofunctorSpec, max_total_nodes: int,
                         max_edges: int) -> dict[tuple[ForestKey, str], Fraction]:
    """Coproduct of the Green function accumulated tree by tree, with each
    tree's cuts counted flat and its weight from its own |Aut|."""
    acc: dict[tuple[ForestKey, str], Fraction] = {}
    for t in enumerate_ptrees(spec, Bound(max_edges, max_total_nodes)):
        w = Fraction(1, aut_order(t))
        for pair, mult in flat_cut_summary(t).items():
            acc[pair] = acc.get(pair, ZERO) + mult * w
    return acc


def verify_fdb(spec: EndofunctorSpec, max_total_nodes: int, max_edges_side: int,
               rooted: str | None = None) -> FdbReport:
    """Check the coefficient identity over every in-budget pair.

    Pairs whose crown root profile differs from the stump leaf profile have
    no grafts and no monomial in the profile power, so both sides vanish;
    they are counted in bulk (a deterministic sample of about ``SAMPLE`` of
    them is pushed through the full computation as a spot check).  Only
    profile-matched pairs with a nonzero side, and any failures, are listed.

    The LHS reads composed graft records.  A third route accumulates the
    coproducts of all trees within the budget, counting each tree's cuts
    flat (``flat_cut_summary``: enumerate, code from the tree's own pass)
    and weighting it by its own |Aut| (``aut_order``), so it tests the
    composition against the brute-force count.  It must agree with the
    listed pairs whose graft size stays within the budget, and every pair
    it finds must be listed; in rooted mode, every pair whose stump has the
    rooted colour.  An evenly spaced sample of at most ``SAMPLE`` listed
    pairs must pass ``graft_oracle_agrees``.  Both count in
    ``cross_failed``.
    """
    stumps, by_profile, total_pairs = _fdb_pair_space(
        spec, max_total_nodes, max_edges_side, rooted)
    tasks: list[tuple[PTree, PForest]] = []
    sampled: list[tuple[PTree, PForest]] = []
    per_stump = max(1, SAMPLE // max(len(stumps), 1))
    # the crowns of each leaf profile that fit in each room, in the order
    # of ``by_profile``; many stumps share both
    fitting: dict[tuple[Profile, int], list[PForest]] = {}
    for s in stumps:
        room = max_total_nodes - s.nodes
        crowns = fitting.get((s.leaf_profile, room))
        if crowns is None:
            crowns = fitting[(s.leaf_profile, room)] = [
                f for n, f in by_profile.get(s.leaf_profile, ()) if n <= room]
        tasks.extend((s.tree, f) for f in crowns)
        if len(sampled) < SAMPLE:
            taken = 0
            for other, fs in by_profile.items():
                if other == s.leaf_profile or taken >= per_stump:
                    continue
                for n, f in fs:
                    if n <= room:
                        sampled.append((s.tree, f))
                        taken += 1
                        break

    powers = profile_powers(spec, Bound(max_edges_side, max_total_nodes),
                            {s.leaf_profile for s in stumps})
    results = [check_fdb_pair(f, s, powers) for s, f in tasks]

    results.sort(key=lambda p: (p.stump, p.crown))
    failed = sum(1 for p in results if not p.passed)

    # spot-check that sampled profile-mismatched pairs really vanish
    for s, f in sampled:
        chk = check_fdb_pair(f, s, powers)
        if chk.lhs or chk.rhs or not chk.passed:
            failed += 1
            results.append(chk)

    # the graft records of an evenly spaced sample of listed pairs
    stride = max(1, -(-len(tasks) // SAMPLE))
    cross_failed = sum(not graft_oracle_agrees(s, f)
                       for s, f in tasks[::stride][:SAMPLE])

    # independent accumulation cross-check on the common support
    acc = _direct_accumulation(spec, max_total_nodes, max_edges_side)
    lhs_map = {(p.crown, p.stump): p.lhs for p in results}
    cross_checked = 0
    for p in results:
        s = tree_class(spec, p.stump)
        graft_edges = PForest(spec, p.crown).edge_count() + s.edges - s.leaves
        if graft_edges <= max_edges_side:
            cross_checked += 1
            if acc.get((p.crown, p.stump), ZERO) != p.lhs:
                cross_failed += 1
    # every accumulated pair (with a stump of the rooted colour) is checked
    for pair, val in acc.items():
        if val and pair not in lhs_map and (
                rooted is None or tree_class(spec, pair[1]).root == rooted):
            cross_failed += 1

    pairs = [p for p in results if not p.passed or p.lhs or p.rhs]
    return FdbReport(spec.name, max_total_nodes, max_edges_side, rooted,
                     pairs, total_pairs, failed,
                     total_pairs - len(results), cross_checked, cross_failed)
