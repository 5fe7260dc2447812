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

``cut_summary`` composes it from the class record's children's
(``cuts_in``) by the Hochschild 1-cocycle property of grafting:

    Δ(op(T₁…T_k)) = T ⊗ | + op(ΔT₁, …, ΔT_k),   Δ(|) = | ⊗ |.

A cut either cuts the root edge (crown T, trivial stump) or keeps the root
node and cuts each child independently.  In the second case the crown is
the union of the children's crowns, and the stump is ``op`` on their
stumps, coded by ``EndofunctorSpec.node_code``, the one rule that also
codes every node of a tree.  The multiplicity is the product of the
children's.  ``flat_cut_summary`` is the brute-force count: every cut is
enumerated and its kept nodes coded from the tree's own pass, pruning none
off.

Green functions
---------------
``green`` is the series with coefficient ``1/|Aut T|`` on each single-tree
monomial, optionally restricted by root colour or leaf profile.  The
coefficient of ``crown ⊗ stump`` in the coproduct of the total Green
function can be computed two independent ways:

* ``fdb_lhs_coefficient``: sum over graft classes ``T`` of (number of cuts
  of ``T`` with the crown and the stump) divided by ``|Aut T|``.  The graft
  classes come from one walk over class records per stump
  (``stump_grafts``) and their cuts are counted down the stump
  (``stump_cuts``), so no cut table is filled and no tree is built;
* ``fdb_rhs_coefficient``: coefficient of the crown in the product of
  root-coloured Green functions indexed by the stump's leaf profile,
  divided by ``|Aut stump|``.  ``fdb_checks`` builds that power once per
  leaf profile from the whole truncated Green functions, convolving
  integer numerators (``profile_powers``), and reads every pair's
  coefficient from it.

Each is the rational of an integer pair, ``fdb_lhs_ratio`` and
``fdb_rhs_ratio``, which ``fdb_checks`` compares as reduced numerators and
denominators over every pair within a budget of (max total nodes, max
edges per side), yielding the listed pairs; ``verify_fdb`` collects them.
A third route builds every tree within the budget and counts its cuts
flat, so it shares no composed record with the first; the graft records
of a sample of pairs are also checked against trees grafted from the
fillings that reached them, their grafting cuts and parsed keys.  The
docstring of ``fdb_checks`` lists the stages, each
of which frees what it built before the next starts.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .enumeration import (Bound, Profile, enumerate_classes, enumerate_pforests,
                          enumerate_ptrees, profile_str)
from .pfunctor import (EMPTY_FOREST_KEY, EndofunctorSpec, ForestKey, PForest,
                       PTree, TreeClass, aut_order, cuts_in, forest_key_str,
                       graft_decorated, intern, parse_ptree, tree_class,
                       tree_in)
from .trees import Cut, cut_node_tuples

ZERO = Fraction(0)
ONE = Fraction(1)
SAMPLE = 200  # pairs in each spot-check sample of ``verify_fdb``


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class BoundMismatch(ValueError):
    """Binary series operation on series with different bounds."""


class Series:
    """Finitely supported map forest-monomial -> rational, with its bound."""

    def __init__(self, spec: EndofunctorSpec, bound: Bound,
                 coeffs: Mapping[ForestKey, Fraction]):
        self.spec, self.bound = spec, bound
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def coefficient(self, key: ForestKey) -> Fraction:
        return self.coeffs.get(tuple(key), ZERO)

    def __eq__(self, other):
        # a series never equals a tensor series, even with equal coefficients
        if type(other) is not type(self):
            return NotImplemented
        return self.spec is other.spec and self.coeffs == other.coeffs

    @staticmethod
    def _monomial_str(key: ForestKey) -> str:
        return forest_key_str(key) if key else "1"

    def terms_str(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            c = self.coeffs[key]
            mono = self._monomial_str(key)
            parts.append(mono if c == 1 else f"{format_rational(c)} {mono}")
        return " + ".join(parts)


class TensorSeries(Series):
    """Finitely supported map (forest, forest) -> rational."""

    def coefficient(self, left: ForestKey, right: ForestKey) -> Fraction:
        return self.coeffs.get((tuple(left), tuple(right)), ZERO)

    @staticmethod
    def _monomial_str(key: tuple[ForestKey, ForestKey]) -> str:
        return " ⊗ ".join(map(Series._monomial_str, key))


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
    return cuts_in(intern(t), {})


def flat_cut_summary(t: PTree) -> dict[tuple[ForestKey, str], int]:
    """Cut summary counted cut by cut from t's own canonical pass, reading
    no class record: the flat oracle for ``cut_summary``, and the cut count
    of the accumulation route.  No ``Cut`` is built: a cut is its kept nodes."""
    return Counter(map(_cut_coder(t), cut_node_tuples(t.shape)))


def _cut_coder(t: PTree) -> Callable[[Sequence[int]], tuple[ForestKey, str]]:
    """The (crown, stump) pair of a cut of t, given its kept nodes top down,
    coded from t's own pass.  A crown part is keyed by its root edge's code
    (the trivial key at a leaf of t), both found once per tree; the stump is
    coded over the kept nodes, children first, by ``node_code``, with ``_`` on its leaves."""
    node_code, trivial_key, shape = t.spec.node_code, t.spec.trivial_key, t.shape
    keys = t.edge_codes() | {e: trivial_key(t.edge_colour[e]) for e in shape.leaves}
    root_cut = (keys[shape.root],), trivial_key(t.edge_colour[shape.root])

    def pair(nodes: Sequence[int]) -> tuple[ForestKey, str]:
        if not nodes:
            return root_cut
        crown, stump = [], {}
        for n in reversed(nodes):
            parts = []
            for e in shape.node_inputs[n]:
                code = stump.get(e)  # coded when the node above e is kept
                if code is None:
                    crown.append(keys[e])
                    code = "_"
                parts.append(code)
            stump[shape.node_output[n]] = node_code(t.node_op[n], parts)[0]
        return tuple(sorted(crown)), stump[shape.root]
    return pair


def _class_coproduct(c: TreeClass, bound: Bound, table: dict) -> TensorSeries:
    """Coproduct of a tree class: its cut pairs' integer multiplicities in ``table``."""
    return TensorSeries(c.spec, bound, {(crown, (stump,)): mult
                                        for (crown, stump), mult in cuts_in(c, table).items()})


def delta_tree(t: PTree, bound: Bound | None = None) -> TensorSeries:
    """Coproduct of a single tree class: one term per cut."""
    return _class_coproduct(intern(t), Bound(t.edge_count) if bound is None else bound, {})


def _sizes(spec: EndofunctorSpec, key: ForestKey) -> tuple[int, int]:
    """(edges, nodes) of a forest monomial."""
    classes = [tree_class(spec, k) for k in key]
    return sum(c.edges for c in classes), sum(c.nodes for c in classes)


def tensor_mul(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Componentwise product, truncating each side by the common bound.

    Sizes add under the product, so each factor term's sides are measured
    once and the bound is tested on the sums before the keys are merged;
    sums start from 0, as in ``series_mul``."""
    return _tensor_mul(a, b, {})


def _tensor_mul(a: TensorSeries, b: TensorSeries, sizes: dict) -> TensorSeries:
    """``tensor_mul``, measuring each side once in ``sizes``, the caller's
    map of forest key to (edges, nodes), which it fills."""
    _require_same_bound(a, b)
    spec, admits = a.spec, a.bound.admits

    def size(key: ForestKey) -> tuple[int, int]:
        found = sizes.get(key)
        if found is None:
            found = sizes[key] = _sizes(spec, key)
        return found

    terms_b = [(l2, r2, c2, size(l2), size(r2)) for (l2, r2), c2 in b.coeffs.items()]
    out: dict[tuple[ForestKey, ForestKey], Fraction] = {}
    for (l1, r1), c1 in a.coeffs.items():
        (le1, ln1), (re1, rn1) = size(l1), size(r1)
        for l2, r2, c2, (le2, ln2), (re2, rn2) in terms_b:
            if not (admits(le1 + le2, ln1 + ln2) and admits(re1 + re2, rn1 + rn2)):
                continue
            key = (_merge_key(l1, l2), _merge_key(r1, r2))
            out[key] = out.get(key, 0) + c1 * c2
    return TensorSeries(spec, a.bound, out)


def delta_monomial(spec: EndofunctorSpec, key: ForestKey, bound: Bound,
                   table: dict | None = None) -> TensorSeries:
    """Coproduct of a forest monomial: product of the tree coproducts, their
    cut tables filled in ``table`` (``cuts_in``), by default this call's, and
    the sizes of the product's sides in ``table[None]``."""
    table = {} if table is None else table
    sizes = table.setdefault(None, {})
    acc = TensorSeries(spec, bound, {(EMPTY_FOREST_KEY, EMPTY_FOREST_KEY): 1})
    for k in key:
        acc = _tensor_mul(acc, _class_coproduct(tree_class(spec, k), bound, table), sizes)
    return acc


def delta_series(s: Series) -> TensorSeries:
    """Coproduct of a series, term by term (exact: cuts never grow sides),
    its cut tables in one table for the call.  Each monomial's integer
    multiplicities meet its rational coefficient once per pair."""
    out: dict[tuple[ForestKey, ForestKey], Fraction] = {}
    table: dict = {}
    for key, c in s.coeffs.items():
        part = delta_monomial(s.spec, key, s.bound, table)
        for pair, m in part.coeffs.items():
            out[pair] = out.get(pair, ZERO) + c * m
    return TensorSeries(s.spec, s.bound, out)


def counit(spec: EndofunctorSpec, key: ForestKey) -> Fraction:
    """1 when every tree in the monomial is trivial, else 0."""
    for k in key:
        if tree_class(spec, k).nodes != 0:
            return ZERO
    return ONE


def _counit_side(ts: TensorSeries, side: int) -> Series:
    """The counit applied to one side (0 left, 1 right) of a tensor series."""
    out: dict[ForestKey, Fraction] = {}
    for pair, c in ts.coeffs.items():
        if counit(ts.spec, pair[side]):
            out[pair[1 - side]] = out.get(pair[1 - side], ZERO) + c
    return Series(ts.spec, ts.bound, out)


def counit_left(ts: TensorSeries) -> Series:
    """(counit ⊗ id) applied to a tensor series."""
    return _counit_side(ts, 0)


def counit_right(ts: TensorSeries) -> Series:
    """(id ⊗ counit) applied to a tensor series."""
    return _counit_side(ts, 1)


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
    b's terms are walked in edge order, up to the edge bound.  Sums start
    from 0, so integer coefficients give integer coefficients."""
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
                out[key] = out.get(key, 0) + c1 * c2
    return Series(spec, a.bound, out)


def series_one(spec: EndofunctorSpec, bound: Bound) -> Series:
    return Series(spec, bound, {EMPTY_FOREST_KEY: ONE})


def series_powers(a: Series, n: int) -> list[Series]:
    """a⁰, a¹ = a, …, aⁿ, each after a¹ the product of the one before and a."""
    out = [series_one(a.spec, a.bound), a][:n + 1]
    while len(out) <= n:
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
    the powers of the root-coloured Green functions.  They are convolved in
    integers: G_c is D_c·G_c over D_c, the lcm of its |Aut T|, each
    (D_c·G_c)^k is built once, as (D_c·G_c)^{k-1}·D_c·G_c, and a profile's
    product is divided by ∏ D_c^{m_c} once per term."""
    profiles, chains = set(profiles), {}  # colour -> (D_c, powers of D_c·G_c)
    for colour, m in dict(sorted(itertools.chain(*profiles))).items():  # top m
        g = green(spec, bound, root_colour=colour).coeffs
        den = math.lcm(*(q.denominator for q in g.values()))
        chains[colour] = den, series_powers(Series(spec, bound, {
            k: q.numerator * den // q.denominator for k, q in g.items()}), m)

    def power(p: Profile) -> Series:
        num = functools.reduce(series_mul, [chains[c][1][m] for c, m in p]
                               or [series_one(spec, bound)])
        den = math.prod(chains[c][0] ** m for c, m in p)
        return Series(spec, bound, {k: Fraction(v, den) for k, v in num.coeffs.items()})
    return {p: power(p) for p in profiles}


# ---------------------------------------------------------------------------
# the coefficient identity, two ways


def fdb_rhs_ratio(crown: PForest, stump: TreeClass,
                  powers: Mapping[Profile, Series]) -> tuple[int, int]:
    """Coefficient of crown in the leaf-profile power of Green functions,
    divided by the stump's automorphism order, as (numerator, denominator),
    not reduced: the power's coefficient's numerator over its denominator
    times |Aut stump|.  ``powers`` maps leaf profiles to their
    ``profile_powers`` under one bound, which must admit the crown (sizes
    only add, so any such bound gives the same coefficient).  A term of the
    power lies within its bound, so the crown's sizes are summed only when
    it has no term."""
    power = powers[stump.leaf_profile]
    coefficient = power.coeffs.get(crown.keys)
    if coefficient is None:  # a zero, unless the bound cut the crown off
        if not power.bound.admits_forest(crown):
            raise BoundMismatch(
                f"crown {crown} exceeds the power's bound {power.bound}")
        return 0, 1
    return coefficient.numerator, coefficient.denominator * stump.aut


def fdb_rhs_coefficient(crown: PForest, stump: TreeClass,
                        powers: Mapping[Profile, Series]) -> Fraction:
    """``fdb_rhs_ratio`` as a rational."""
    return Fraction(*fdb_rhs_ratio(crown, stump, powers))


def _plan(c: TreeClass, crowns: Mapping[str, Sequence[TreeClass]], prev: int,
          head: list, slots: list):
    """Append the steps that rebuild the record ``c`` on a stack, its leaves
    filled in slot order.  Each leaf is a slot (candidates, previous slot,
    steps after it): its colour's crown candidates, the last leaf slot
    before it of its block (or -1), whose pick it may not go below, and the
    steps run once it is filled, each ``(None, record)`` (push a leaf-free
    subtree) or ``(op, k)`` (compose op on the top k records).  Records
    pushed before the first leaf go to ``head``, the walk's first stack."""
    if not c.leaves:
        if slots:
            slots[-1][2].append((None, c))
        else:
            head.append(c)
        return
    if c.op is None:
        slots.append((crowns.get(c.root, ()), prev, []))
        return
    # the leaf slots of one block of the op are interchangeable
    block = {i: b[0] for b in c.spec._blocks[c.op] or () for i in b}
    last: dict[int, int] = {}  # per block, its last leaf slot so far
    for i, d in enumerate(c.children):
        before = -1
        if i in block and d.op is None:
            before = last.get(block[i], -1)
            last[block[i]] = len(slots)
        _plan(d, crowns, before, head, slots)
    slots[-1][2].append((c.op, len(c.children)))


def _fill(slots: list, j: int, stack: tuple, picks: tuple, filling: tuple,
          nodes_left: int, edges_left: int, compose, out: dict):
    """Fill slot j onwards with crown candidates within the nodes and edges
    left (each later slot keeps one edge), composing each node as soon as
    its last leaf is filled; record each finished graft in ``out``.
    ``picks`` are the candidate indices of the slots filled so far, and
    ``filling`` their keys."""
    if j == len(slots):
        crown = tuple(sorted(filling))
        grafts = out.get(crown)
        if grafts is None:
            grafts = out[crown] = {}
        grafts.setdefault(stack[0], filling)
        return
    candidates, prev, steps = slots[j]
    room = edges_left - (len(slots) - 1 - j)
    for i in range(picks[prev] if prev >= 0 else 0, len(candidates)):
        c = candidates[i]
        if c.nodes > nodes_left:
            break
        if c.edges > room:
            continue
        s = stack + (c,)
        for op, x in steps:
            s = s + (x,) if op is None else s[:-x] + (compose(op, s[-x:]),)
        _fill(slots, j + 1, s, picks + (i,), filling + (c.key,),
              nodes_left - c.nodes, edges_left - c.edges, compose, out)


def stump_grafts(stump: TreeClass, crowns: Mapping[str, Sequence[TreeClass]],
                 max_nodes: int, max_edges: int, memo: defaultdict | None = None
                 ) -> dict[ForestKey, dict[TreeClass, tuple[str, ...]]]:
    """Every graft onto the stump of crown forests with at most ``max_nodes``
    nodes and ``max_edges`` edges, in one walk: the stump's leaves are
    filled in slot order, each from ``crowns[colour]`` (records sorted by
    node count), and a stump node is composed once its last leaf is filled,
    so every later choice shares it.  The leaf slots of one block of a
    stump node take nondecreasing picks, one filling per orbit of theirs.
    Maps each crown (sorted keys) to its graft classes, each with
    the first filling (crown keys in slot order) that reached it.  ``memo``
    (a ``defaultdict(dict)``) keeps each composite by op, then by children;
    a new record keeps the children tuple that is its key.  Under ``None``
    it keeps by key the records that the class table lacked (``compose``'s
    ``table``), so no graft enters the class table and each lives as long
    as the memo.  The memo is the caller's, by default this walk's own."""
    head: list = []
    slots: list = []
    _plan(stump, crowns, -1, head, slots)
    out: dict = {}
    memo = defaultdict(dict) if memo is None else memo
    table, spec_compose = memo[None], stump.spec.compose

    def compose(op, children):
        c = (by_children := memo[op]).get(children)
        if c is None:
            c = by_children[children] = spec_compose(op, children, table)
        return c
    _fill(slots, 0, tuple(head), (), (), max_nodes, max_edges, compose, out)
    return out


def _crown_candidates(classes: Iterable[TreeClass]) -> dict[str, list[TreeClass]]:
    """The walk's crown candidates: the classes per root colour, sorted by
    node count (a stable sort, so key order stays within one count)."""
    out: dict[str, list[TreeClass]] = {}
    for c in sorted(classes, key=lambda c: c.nodes):
        out.setdefault(c.root, []).append(c)
    return out


def graft_classes(crown: PForest, stump: TreeClass) -> dict[TreeClass, tuple[str, ...]]:
    """Records of all tree classes obtained by grafting crown onto stump
    along some matching, once each, in the order first reached, each with
    the filling that reached it: the stump's walk restricted to the crown's
    classes and sizes.  A class that the class table lacks gets a record of
    this call's walk only.  Only the stand-alone coefficients read it."""
    return stump_grafts(stump, _crown_candidates(dict.fromkeys(crown.classes())),
                        crown.node_count(), crown.edge_count()).get(crown.keys, {})


def stump_cuts(t: TreeClass, s: TreeClass, memo: dict) -> dict[ForestKey, int]:
    """Multiplicity of each crown (sorted keys) over the cuts of t whose
    stump is the sub-stump s, counted down t and s together.  A trivial s
    is the cut at t's root edge, with crown t (when the colours agree).
    Otherwise t's op must be s's op, and a cut keeps t's root and cuts each
    child of t to the child of s that its slot holds in some arrangement
    of s's children over the op's group (``EndofunctorSpec.arrangements``):
    for each distinct arrangement, the product of the children's counts,
    their crowns merged.  A child whose op or node count cannot match is
    not counted down.  ``memo`` keeps the counts by (t, s) and each stump
    node's arrangements by s; it is the caller's, and lives as long as the
    caller keeps it."""
    if s.op is None:
        return {(t.key,): 1} if t.root == s.root else {}
    found = memo.get((t, s))
    if found is not None:
        return found
    out: dict[ForestKey, int] = {}
    if t.op == s.op and t.nodes >= s.nodes:
        arrangements = memo.get(s)
        if arrangements is None:
            arrangements = memo[s] = s.spec.arrangements(s.op, s.children)
        for arrangement in arrangements:
            # the parts with one crown fold into (crown, mult) at once
            crown, mult, parts = [], 1, []
            for d, a in zip(t.children, arrangement):
                if a.op is None:
                    crown.append(d.key)
                    continue
                if d.op != a.op or d.nodes < a.nodes:
                    break
                part = stump_cuts(d, a, memo)
                if len(part) == 1:
                    (keys, m), = part.items()
                    crown += keys
                    mult *= m
                elif part:
                    parts.append(part.items())
                else:
                    break
            else:
                if not parts:
                    key = tuple(sorted(crown))
                    out[key] = out.get(key, 0) + mult
                    continue
                for combo in itertools.product(*parts):
                    keys, m = list(crown), mult
                    for more, x in combo:
                        keys += more
                        m *= x
                    key = tuple(sorted(keys))
                    out[key] = out.get(key, 0) + m
    memo[(t, s)] = out
    return out


def fdb_lhs_ratio(crown: PForest, stump: TreeClass,
                  grafts: Iterable[TreeClass] | None = None,
                  memo: dict | None = None) -> tuple[int, int]:
    """Sum over graft classes T of (#cuts of T with the crown and the
    stump)/|Aut T|, summed in integers over a running lcm of the |Aut T|,
    as (numerator, that lcm), not reduced.  Each T's cuts are counted down
    the stump (``stump_cuts``), so no cut table is filled.  ``grafts`` are
    the pair's graft classes from its stump's walk (``stump_grafts``); by
    default ``graft_classes`` walks for them.  ``memo`` is the count's,
    shared by pairs of one stump; by default it lives for this pair."""
    num, den, memo = 0, 1, {} if memo is None else memo
    for c in graft_classes(crown, stump) if grafts is None else grafts:
        if m := stump_cuts(c, stump, memo).get(crown.keys):
            if den % c.aut:
                lcm = math.lcm(den, c.aut)
                num, den = num * (lcm // den), lcm
            num += m * (den // c.aut)
    return num, den


def fdb_lhs_coefficient(crown: PForest, stump: TreeClass,
                        grafts: Iterable[TreeClass] | None = None,
                        memo: dict | None = None) -> Fraction:
    """``fdb_lhs_ratio`` as a rational."""
    return Fraction(*fdb_lhs_ratio(crown, stump, grafts, memo))


def graft_oracle_agrees(stump: TreeClass, crown: PForest,
                        grafts: Mapping[TreeClass, tuple[str, ...]],
                        trees: dict[str, PTree]) -> bool:
    """Check the pair's graft records, as a walk of the stump gave them in
    ``grafts``, against the tree oracles: there is one, and for each, the
    tree ``graft_decorated`` builds on the stump's tree from the filling
    that reached it, in slot order, has the key, and its grafting cut (the
    stump tree's nodes, which the graft keeps) gives the pair, coded from
    that tree's own pass; a parse of the key has the sizes, leaf profile and
    |Aut|.  The stump's and the crown classes' trees are built from their
    records' children (``tree_in``) in the caller's table ``trees``, so no
    record is given one."""
    spec, pair = stump.spec, (crown.keys, stump.key)
    tree = tree_in(stump, trees)
    # ``build_ptree`` numbers a record's tree so leaf ids ascend in slot order
    leaves = sorted(tree.shape.leaves)
    for c, filling in grafts.items():
        g = graft_decorated(tree, {leaf: tree_in(tree_class(spec, key), trees)
                                   for leaf, key in zip(leaves, filling)})
        fresh = parse_ptree(spec, c.key)
        if (g.key() != c.key or fresh.key() != c.key
                or (fresh.edge_count, fresh.node_count, fresh.leaf_profile(),
                    aut_order(fresh)) != (c.edges, c.nodes, c.leaf_profile, c.aut)
                or _cut_coder(g)(Cut(g.shape, tree.shape.node_inputs).nodes) != pair):
            return False
    return bool(grafts)


# ---------------------------------------------------------------------------
# verification report


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


class PairCheck:
    """One pair's check: each side held as a reduced (numerator,
    denominator) pair of integers, as ``lhs_num``/``lhs_den`` and
    ``rhs_num``/``rhs_den``; ``lhs`` and ``rhs`` read them as rationals."""
    __slots__ = ("crown", "stump", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
                 "reached", "passed")

    def __init__(self, crown: ForestKey, stump: str, lhs: tuple[int, int],
                 rhs: tuple[int, int], reached: bool = True):
        # each side is given as (numerator, denominator > 0), not necessarily
        # reduced; ``reached`` is False when only one of the stump's walk and
        # the forest enumeration reaches the pair; ``passed`` is decided
        # once, when the check is made
        self.crown, self.stump = crown, stump
        self.lhs_num, self.lhs_den = _reduced(*lhs)
        self.rhs_num, self.rhs_den = _reduced(*rhs)
        self.reached = reached
        self.passed = (reached and self.lhs_num == self.rhs_num
                       and self.lhs_den == self.rhs_den)

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.lhs_den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.rhs_den)

    def as_doc(self) -> dict:
        return {"F": forest_key_str(self.crown), "S": self.stump,
                "lhs": f"{self.lhs_num}/{self.lhs_den}",
                "rhs": f"{self.rhs_num}/{self.rhs_den}", "pass": self.passed}


class FdbReport:
    def __init__(self, spec_label: str, max_total_nodes: int, max_edges_side: int,
                 rooted: str | None, pairs: list[PairCheck] | None = None,
                 checked: int = 0, failed: int = 0, zero_pairs: int = 0,
                 cross_checked: int = 0, cross_failed: int = 0):
        self.spec_label, self.rooted = spec_label, rooted
        self.max_total_nodes, self.max_edges_side = max_total_nodes, max_edges_side
        self.pairs = [] if pairs is None else pairs
        self.checked, self.failed, self.zero_pairs = checked, failed, zero_pairs
        self.cross_checked, self.cross_failed = cross_checked, cross_failed

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.cross_failed == 0

    def as_doc(self) -> dict:
        return {**self.frame(), "pairs": [p.as_doc() for p in self.pairs]}

    def frame(self) -> dict:
        """The document without its pairs."""
        return {
            "spec": self.spec_label,
            "bound": {"max_total_nodes": self.max_total_nodes,
                      "max_edges_side": self.max_edges_side},
            "rooted": self.rooted,
            "summary": {"checked": self.checked, "failed": self.failed,
                        "zero_pairs": self.zero_pairs,
                        "cross_checked": self.cross_checked,
                        "cross_failed": self.cross_failed},
        }


def _fdb_pair_space(spec: EndofunctorSpec, max_total_nodes: int,
                    max_edges_side: int, rooted: str | None):
    """Each stump class with its listed crowns (the fitting forests of its
    leaf profile, in enumeration order), the sampled profile-mismatched pairs,
    the number of in-budget pairs and each crown's edges, in one pass each.
    The mismatched pairs are sampled ``_evenly_spaced`` from the stumps in key
    order, each with the first fitting crown of every other root profile."""
    side_bound = Bound(max_edges_side, max_total_nodes)
    stumps = enumerate_classes(spec, side_bound, root_colour=rooted)
    by_profile: dict[Profile, list[tuple[int, PForest]]] = {}
    crowns_by_nodes: dict[int, int] = {}
    edges: dict[ForestKey, int] = {}
    for f in enumerate_pforests(spec, side_bound):
        n = f.node_count()
        by_profile.setdefault(f.root_profile(), []).append((n, f))
        crowns_by_nodes[n] = crowns_by_nodes.get(n, 0) + 1
        edges[f.keys] = f.edge_count()
    listed: list[tuple[TreeClass, list[PForest]]] = []
    mismatched: list[tuple[TreeClass, list[PForest]]] = []
    checked = 0
    # each room's fitting crowns by root profile (the profiles in the order the
    # enumeration first meets them), which many stumps share
    fitting: dict[int, dict[Profile, list[PForest]]] = {}
    for s in stumps:
        room = max_total_nodes - s.nodes
        checked += sum(m for n, m in crowns_by_nodes.items() if n <= room)
        if room not in fitting:
            fitting[room] = {p: [f for n, f in fs if n <= room]
                             for p, fs in by_profile.items()}
        listed.append((s, fitting[room].get(s.leaf_profile, [])))
        mismatched.append((s, [fs[0] for p, fs in fitting[room].items()
                               if fs and p != s.leaf_profile]))
    return listed, _evenly_spaced(mismatched), checked, edges


def check_fdb_pair(crown: PForest, stump: TreeClass, powers: Mapping[Profile, Series],
                   grafts: Iterable[TreeClass] | None = None,
                   memo: dict | None = None, reached: bool = True) -> PairCheck:
    """The pair's check, both sides in integers (``fdb_lhs_ratio``,
    ``fdb_rhs_ratio``)."""
    return PairCheck(crown.keys, stump.key, fdb_lhs_ratio(crown, stump, grafts, memo),
                     fdb_rhs_ratio(crown, stump, powers), reached)


def _direct_accumulation(spec: EndofunctorSpec, max_total_nodes: int,
                         max_edges: int) -> dict[tuple[ForestKey, str], Fraction]:
    """Coproduct of the Green function accumulated tree by tree, with each
    tree's cuts counted flat and its weight from its own |Aut|, summed in
    integers over a running lcm of those orders.  Each tree is dropped once
    its cuts are counted."""
    trees = enumerate_ptrees(spec, Bound(max_edges, max_total_nodes))[::-1]
    acc: dict[tuple[ForestKey, str], int] = {}
    den = 1
    while trees:
        t = trees.pop()
        aut = aut_order(t)
        if den % aut:
            scale = math.lcm(den, aut) // den
            for pair in acc:
                acc[pair] *= scale
            den *= scale
        w = den // aut
        for pair, mult in flat_cut_summary(t).items():
            acc[pair] = acc.get(pair, 0) + mult * w
    return {pair: Fraction(num, den) for pair, num in acc.items()}


def _stump_checks(s: TreeClass, crowns: list[PForest],
                  candidates: Mapping[str, Sequence[TreeClass]],
                  powers: Mapping[Profile, Series], max_nodes: int,
                  max_edges: int, composed: defaultdict, kept: dict) -> list[PairCheck]:
    """The checks of one stump's pairs, by crown: its listed crowns and the
    crowns only its walk reached.  One ``stump_cuts`` memo serves them all
    and is dropped on return; the walk keeps its composites, and the graft
    records that the class table lacks, in ``composed``.  A listed pair that
    is a key of ``kept`` gets its walk's graft records as its value there."""
    grafts = stump_grafts(s, candidates, max_nodes, max_edges, composed)
    memo: dict = {}
    out = []
    for f in crowns:
        found = grafts.pop(f.keys, None)
        if (s, f) in kept:
            kept[s, f] = found or {}
        out.append(check_fdb_pair(f, s, powers, found or (), memo, found is not None))
    for keys, found in grafts.items():  # reached by the walk alone
        out.append(check_fdb_pair(PForest(s.spec, keys), s, powers, found, memo, False))
    out.sort(key=lambda p: p.crown)
    return out


def _evenly_spaced(groups: Sequence[tuple[TreeClass, Sequence[PForest]]]
                   ) -> list[tuple[TreeClass, PForest]]:
    """The one sampling rule of both spot checks: of the n (stump, crown)
    pairs of ``groups``, in order, the m = min(``SAMPLE``, n) at indices
    k·n // m for k < m."""
    n = sum(len(crowns) for _, crowns in groups)
    m = min(SAMPLE, n)
    picks = {k * n // m for k in range(m)}
    pairs = ((s, f) for s, crowns in groups for f in crowns)
    return [pair for i, pair in enumerate(pairs) if i in picks]


def verify_fdb(spec: EndofunctorSpec, max_total_nodes: int, max_edges_side: int,
               rooted: str | None = None) -> FdbReport:
    """The report of ``fdb_checks``, its listed pairs kept in ``pairs``."""
    report = FdbReport(spec.name, max_total_nodes, max_edges_side, rooted)
    report.pairs = list(fdb_checks(spec, report))
    return report


def fdb_checks(spec: EndofunctorSpec, report: FdbReport) -> Iterator[PairCheck]:
    """Check the coefficient identity over every pair within the bound of
    ``report``, counting into ``report``.

    Pairs whose crown root profile differs from the stump leaf profile have
    no grafts and no monomial in the profile power, so both sides vanish;
    they are counted in bulk (an evenly spaced sample of at most ``SAMPLE``
    of them is pushed through the full computation as a spot check).  Only
    profile-matched pairs with a nonzero side, and any failures, are listed:
    they are yielded in report order, by stump key, then crown, then the
    failed spot checks, each stump's as soon as its stump is done.  The
    report's counts are final once the generator is exhausted.

    The stages run in this order, and each frees what it built before the
    next starts:

    1. The accumulation route (``_direct_accumulation``) builds every tree
       within the budget, counts each tree's cuts flat (``flat_cut_summary``:
       grow each cut's kept nodes, with no ``Cut`` built, and code them from
       the tree's own pass) and weights it by its own |Aut| (``aut_order``):
       it shares no record with the LHS.
       Each tree is dropped once its cuts are counted, and only the
       accumulated coefficient of each pair is kept.
    2. The pair space (``_fdb_pair_space``), its records composed from their
       children's: listed crowns, the mismatched sample (``_evenly_spaced``
       over each stump's first fitting crown of every other root profile),
       ``checked`` and crown edges.
    3. The RHS powers (``profile_powers``, integer numerators over one
       denominator per profile), and the LHS walk of each stump in key
       order (``stump_grafts``): it fills the stump's leaves in slot
       order from the crown classes within the budget and composes each
       node once its last leaf is filled, so one pass gives every pair of
       the stump with its graft records, and no tree is built.  The walks
       share one memo of their composites by op and children, so a node
       that several stumps fill alike is composed once; the memo also
       holds the graft records that the class table lacks, so the check
       adds none to it and they go with the memo.  Each graft's cuts
       with the stump are counted down the stump (``stump_cuts``), so no
       cut table is filled.  Only one stump's grafts and checks, and the
       memo of its counts, are held at a time.  Each check meets the
       accumulation at once, taking its coefficient out, before it is
       yielded.  A pair that only one of the walk and the forest
       enumeration reaches fails and is listed.
    4. The spot checks: the sampled profile-mismatched pairs must vanish,
       and the listed pairs' sample by the same rule (``_evenly_spaced``,
       taken before the walks) must pass
       ``graft_oracle_agrees`` on the records and first fillings that the
       LHS walk made, grafting a tree for each record the LHS summed: the
       grafting cut of each must give the pair, and a parse of each
       record's key (one pass, into one tree) must give its sizes, leaf
       profile and |Aut|.  The sample's trees share one table, which no
       record holds.
    5. Each nonzero pair left in the accumulation, which no route computed,
       fails; in rooted mode, each whose stump has the rooted colour.

    Oracle and accumulation failures count in ``cross_failed``.

    Each pair's votes are compared in integers: both sides are reduced
    (numerator, denominator) pairs (``PairCheck``), and the accumulation's
    coefficient is compared with the LHS by its numerator and denominator,
    so no rational is built per listed pair.  The stages make no cyclic
    garbage, so they run with the cyclic collector paused; the state found
    is restored when the generator is exhausted, raises or is closed, and
    a collector the caller had turned off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield from _fdb_stages(spec, report)
    finally:
        if enabled:
            gc.enable()


def _fdb_stages(spec: EndofunctorSpec, report: FdbReport) -> Iterator[PairCheck]:
    """The stages of ``fdb_checks``, in its order."""
    max_total_nodes, max_edges_side = report.max_total_nodes, report.max_edges_side
    rooted = report.rooted
    acc = _direct_accumulation(spec, max_total_nodes, max_edges_side)
    listed, sampled, report.checked, edges = _fdb_pair_space(
        spec, max_total_nodes, max_edges_side, rooted)
    report.zero_pairs = report.checked

    def settle(p: PairCheck, s: TreeClass, failed: bool) -> bool:
        """Count a computed pair and compare it with the accumulation, by
        numerator and denominator, when its grafts fit the budget; true if
        it is listed (failed or nonzero)."""
        report.zero_pairs -= 1
        report.failed += failed
        found = acc.pop((p.crown, p.stump), ZERO)
        crown_edges = edges.get(p.crown)
        if crown_edges is None:  # a crown only the walk reached
            crown_edges = PForest(spec, p.crown).edge_count()
        if crown_edges + s.edges - s.leaves <= max_edges_side:
            report.cross_checked += 1
            report.cross_failed += (found.numerator != p.lhs_num
                                    or found.denominator != p.lhs_den)
        return bool(failed or p.lhs_num or p.rhs_num)

    side_bound = Bound(max_edges_side, max_total_nodes)
    powers = profile_powers(spec, side_bound, {s.leaf_profile for s, _ in listed})
    candidates = _crown_candidates(enumerate_classes(spec, side_bound))
    kept = dict.fromkeys(_evenly_spaced(listed))  # the walks give each its records
    composed = defaultdict(dict)  # all walks' composites, and their records
    for s, crowns in listed:  # stumps in key order
        checks = _stump_checks(s, crowns, candidates, powers, max_total_nodes - s.nodes,
                               max_edges_side, composed, kept)
        yield from (p for p in checks if settle(p, s, not p.passed))
    del composed

    # spot-check, through the stand-alone coefficients (each LHS walks
    # ``graft_classes``), that sampled profile-mismatched pairs really vanish
    for s, f in sampled:
        lhs, rhs = fdb_lhs_coefficient(f, s), fdb_rhs_coefficient(f, s, powers)
        if lhs or rhs:
            chk = PairCheck(f.keys, s.key, lhs.as_integer_ratio(), rhs.as_integer_ratio())
            settle(chk, s, True)
            yield chk

    # the graft records that the walks gave an evenly spaced sample of
    # listed pairs, their trees in one table for the sample
    trees: dict[str, PTree] = {}
    report.cross_failed += sum(not graft_oracle_agrees(s, f, grafts, trees)
                               for (s, f), grafts in kept.items())
    del trees, kept

    report.cross_failed += sum(1 for (_, stump), val in acc.items() if val and (
        rooted is None or tree_class(spec, stump).root == rooted))
