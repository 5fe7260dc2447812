"""The classical bialgebra of surjections, and its map into tree series.

Basis and normalisation
-----------------------
The algebra is polynomial on generators ``a_k`` (k >= 1), where ``a_k``
stands for the isomorphism class of a connected surjection with a k-point
fibre; a monomial is the multiset ``{k: lam_k}``, encoded as a sorted
tuple of (k, lam_k) pairs.  On this class basis the coproduct of ``a_n``
sums over the set partitions of an n-point set:

    delta(a_n) = sum over partition types lam of
                 N_lam * (prod_k a_k^{lam_k}) (x) a_{#blocks},

with the integer multiplicity N_lam equal to the number of partitions of
that type, n! / prod_k((k!)^{lam_k} * lam_k!).  The coproduct extends
multiplicatively to monomials.

On this basis the substitution identity holds for the symmetry-weighted
series A = sum_k a_k / k! (the weight k! is the automorphism count of the
connected class):

    delta(A) = sum_k A^k (x) a_k / k!,

exactly parallel to the tree Green function, whose coefficients also carry
inverse automorphism orders.  ``classical_verify`` checks the partition
multiplicities against the closed form and this identity coefficientwise.

The homomorphism into trees sends ``a_n`` to ``n!`` times the leaf-indexed
summand of the Green function (so the weighted series A maps to the full
Green function); it requires a spec with one colour and no nullary ops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .bialgebra import (Bound, Series, TensorSeries, delta_series,
                        format_rational, green, series_add, series_mul,
                        series_one, series_scale)
from .pfunctor import EndofunctorSpec, PForest, SpecError, multiset

SurjClass = tuple[tuple[int, int], ...]  # sorted ((k, multiplicity), ...)

EMPTY: SurjClass = ()
ZERO = Fraction(0)
ONE = Fraction(1)


class NullaryOpsPresent(SpecError):
    """The tree-side spec has nullary operations, so the map is undefined."""


def surj_class(counts: Mapping[int, int] | Iterable[tuple[int, int]]) -> SurjClass:
    items = counts.items() if isinstance(counts, Mapping) else counts
    out = tuple(sorted((int(k), int(m)) for k, m in items if m))
    for k, m in out:
        if k < 1 or m < 1:
            raise ValueError("block sizes and multiplicities must be positive")
    return out


def generator(n: int) -> SurjClass:
    return ((n, 1),)


def class_mul(a: SurjClass, b: SurjClass) -> SurjClass:
    return multiset(a + b)


def weight(c: SurjClass) -> int:
    return sum(k * m for k, m in c)


def degree(c: SurjClass) -> int:
    return sum((k - 1) * m for k, m in c)


def factors(c: SurjClass) -> int:
    return sum(m for _, m in c)


def class_str(c: SurjClass) -> str:
    if not c:
        return "1"
    return "".join(f"a{k}" + (f"^{m}" if m > 1 else "") for k, m in c)


# ---------------------------------------------------------------------------
# set partitions


def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of a finite set, by the standard insertion recursion."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield part + [[first]]


def partition_type(part: list[list]) -> SurjClass:
    return multiset((len(block), 1) for block in part)


def type_count_closed_form(n: int, typ: SurjClass) -> int:
    """Number of partitions of an n-set with the given type."""
    if sum(k * m for k, m in typ) != n:
        return 0
    denom = 1
    for k, m in typ:
        denom *= math.factorial(k) ** m * math.factorial(m)
    return math.factorial(n) // denom


_DELTA_MEMO: dict[int, dict[tuple[SurjClass, SurjClass], int]] = {}


def delta_generator(n: int) -> dict[tuple[SurjClass, SurjClass], int]:
    """Coproduct of a_n by explicitly grouping the partitions of an n-set."""
    if n < 1:
        raise ValueError("generators are indexed by n >= 1")
    got = _DELTA_MEMO.get(n)
    if got is not None:
        return got
    out: dict[tuple[SurjClass, SurjClass], int] = {}
    for part in set_partitions(list(range(n))):
        typ = partition_type(part)
        key = (typ, generator(len(part)))
        out[key] = out.get(key, 0) + 1
    _DELTA_MEMO[n] = out
    return out


def surjection_delta(c: SurjClass) -> dict[tuple[SurjClass, SurjClass], int]:
    """Coproduct of a monomial: product of the generator coproducts."""
    acc: dict[tuple[SurjClass, SurjClass], int] = {(EMPTY, EMPTY): 1}
    for k, m in c:
        dk = delta_generator(k)
        for _ in range(m):
            nxt: dict[tuple[SurjClass, SurjClass], int] = {}
            for (l1, r1), c1 in acc.items():
                for (l2, r2), c2 in dk.items():
                    key = (class_mul(l1, l2), class_mul(r1, r2))
                    nxt[key] = nxt.get(key, 0) + c1 * c2
            acc = nxt
    return acc


# ---------------------------------------------------------------------------
# classical series arithmetic (weight-truncated)

ClassicalSeries = dict  # SurjClass -> Fraction


def classical_mul(a: ClassicalSeries, b: ClassicalSeries, max_weight: int) -> ClassicalSeries:
    out: dict[SurjClass, Fraction] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = class_mul(k1, k2)
            if weight(key) > max_weight:
                continue
            out[key] = out.get(key, ZERO) + c1 * c2
    return {k: v for k, v in out.items() if v}


def weighted_series(max_weight: int) -> ClassicalSeries:
    """The series sum_k a_k / k!, truncated by weight."""
    return {generator(k): Fraction(1, math.factorial(k))
            for k in range(1, max_weight + 1)}


class ClassicalRow:
    def __init__(self, monomial: SurjClass, k: int, lhs: Fraction, rhs: Fraction):
        self.monomial, self.k, self.lhs, self.rhs = monomial, k, lhs, rhs

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def as_doc(self) -> dict:
        return {"monomial": class_str(self.monomial), "k": self.k,
                "lhs": format_rational(self.lhs), "rhs": format_rational(self.rhs),
                "pass": self.passed}


class ClassicalReport:
    def __init__(self, max_degree: int, multiplicity_checked: int,
                 multiplicity_failed: int, rows: list[ClassicalRow], checked: int,
                 failed: int):
        self.max_degree, self.rows = max_degree, rows
        self.multiplicity_checked = multiplicity_checked
        self.multiplicity_failed = multiplicity_failed
        self.checked, self.failed = checked, failed

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.multiplicity_failed == 0

    def as_doc(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "multiplicities": {"checked": self.multiplicity_checked,
                               "failed": self.multiplicity_failed},
            "pairs": [r.as_doc() for r in self.rows if not r.passed or r.lhs],
            "summary": {"checked": self.checked, "failed": self.failed},
        }


def classical_verify(max_degree: int) -> ClassicalReport:
    """Check partition multiplicities and the weighted substitution identity.

    Pairs (monomial, generator index) of degree up to ``max_degree`` are in
    bijection with monomials of weight up to ``max_degree + 1``.  A
    coproduct term that breaks the grading counts as a failed pair.
    """
    w = max_degree + 1
    mult_checked = mult_failed = grading_failed = 0
    for n in range(1, w + 1):
        dn = delta_generator(n)
        by_type: dict[SurjClass, int] = {}
        for (typ, _), m in dn.items():
            by_type[typ] = by_type.get(typ, 0) + m
        for typ, m in by_type.items():
            mult_checked += 1
            if m != type_count_closed_form(n, typ):
                mult_failed += 1
        # grading: every term splits the degree n - 1
        for (typ, right), _ in dn.items():
            if degree(typ) + degree(right) != n - 1:
                grading_failed += 1

    # left side: delta(A) = sum_n delta(a_n)/n!
    lhs: dict[tuple[SurjClass, int], Fraction] = {}
    for n in range(1, w + 1):
        inv = Fraction(1, math.factorial(n))
        for (typ, right), m in delta_generator(n).items():
            k = right[0][0]
            key = (typ, k)
            lhs[key] = lhs.get(key, ZERO) + m * inv
    lhs = {k: v for k, v in lhs.items() if v}

    # right side: sum_k A^k (x) a_k/k!
    a = weighted_series(w)
    rhs: dict[tuple[SurjClass, int], Fraction] = {}
    power: ClassicalSeries = {EMPTY: ONE}
    for k in range(1, w + 1):
        power = classical_mul(power, a, w)
        inv = Fraction(1, math.factorial(k))
        for mono, c in power.items():
            if degree(mono) + (k - 1) <= max_degree:
                rhs[(mono, k)] = rhs.get((mono, k), ZERO) + c * inv
    rhs = {k: v for k, v in rhs.items() if v}

    rows = []
    for mono, k in sorted(set(lhs) | set(rhs)):
        if degree(mono) + (k - 1) > max_degree:
            continue
        rows.append(ClassicalRow(mono, k, lhs.get((mono, k), ZERO),
                                 rhs.get((mono, k), ZERO)))
    failed = grading_failed + sum(1 for r in rows if not r.passed)
    return ClassicalReport(max_degree, mult_checked, mult_failed,
                           rows, len(rows), failed)


# ---------------------------------------------------------------------------
# the homomorphism into tree series


def _require_effective(spec: EndofunctorSpec):
    if len(spec.colours) != 1:
        raise SpecError("the classical map needs a one-colour spec")
    for op in spec.ops:
        if op.arity == 0:
            raise NullaryOpsPresent(
                f"spec has nullary op {op.name!r}; trees must be leafed")


def leaf_green(spec: EndofunctorSpec, bound: Bound, n: int) -> Series:
    """Summand of the Green function over trees with exactly n leaves."""
    colour = spec.colours[0]
    return green(spec, bound, leaf_profile=((colour, n),))


def phi_generator(spec: EndofunctorSpec, n: int, bound: Bound) -> Series:
    """Image of a_n: n! times the n-leaf Green summand, truncated."""
    _require_effective(spec)
    return series_scale(leaf_green(spec, bound, n), Fraction(math.factorial(n)))


def phi(spec: EndofunctorSpec, element: ClassicalSeries | SurjClass,
        bound: Bound) -> Series:
    """Multiplicative linear extension of the generator map, truncated."""
    _require_effective(spec)
    if isinstance(element, tuple):
        element = {element: ONE}
    gens: dict[int, Series] = {}

    def gen(n: int) -> Series:
        s = gens.get(n)
        if s is None:
            s = phi_generator(spec, n, bound)
            gens[n] = s
        return s

    total = Series(spec, bound, {})
    for mono, coeff in element.items():
        acc = series_one(spec, bound)
        for k, m in mono:
            for _ in range(m):
                acc = series_mul(acc, gen(k))
        total = series_add(total, series_scale(acc, Fraction(coeff)))
    return total


class PhiRow:
    def __init__(self, n: int, checked: int, failed: int):
        self.n, self.checked, self.failed = n, checked, failed

    def as_doc(self) -> dict:
        return {"n": self.n, "checked": self.checked, "failed": self.failed,
                "pass": self.failed == 0}


class PhiReport:
    def __init__(self, spec_label: str, max_n: int, max_edges: int, rows: list[PhiRow],
                 green_match: bool):
        self.spec_label, self.max_n, self.max_edges = spec_label, max_n, max_edges
        self.rows, self.green_match = rows, green_match

    @property
    def passed(self) -> bool:
        return self.green_match and all(r.failed == 0 for r in self.rows)

    def as_doc(self) -> dict:
        return {"spec": self.spec_label, "max_n": self.max_n,
                "max_edges": self.max_edges,
                "generators": [r.as_doc() for r in self.rows],
                "green_match": self.green_match,
                "summary": {"checked": sum(r.checked for r in self.rows),
                            "failed": sum(r.failed for r in self.rows)}}


def verify_phi(spec: EndofunctorSpec, max_n: int, bound: Bound) -> PhiReport:
    """Check that the map intertwines the two coproducts on generators.

    Both routes are compared on every pair whose graft size fits the edge
    bound, where the truncated computation is exact; for specs whose ops
    all have arity at least two this covers the full support for small n.
    """
    _require_effective(spec)
    rows = []
    for n in range(1, max_n + 1):
        image = phi(spec, generator(n), bound)
        rhs = delta_series(image)
        terms: dict = {}
        for (left, right), m in delta_generator(n).items():
            left_s = phi(spec, left, bound)
            right_s = phi(spec, right, bound)
            for kf, cf in left_s.coeffs.items():
                for ks, cs in right_s.coeffs.items():
                    key = (kf, ks)
                    terms[key] = terms.get(key, ZERO) + m * cf * cs
        lhs = TensorSeries(spec, bound, terms)

        checked = failed = 0
        for key in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
            kf, ks = key
            graft_edges = PForest(spec, kf).edge_count() + sum(
                c.edges - c.leaves for c in PForest(spec, ks).classes())
            if graft_edges > bound.max_edges:
                continue
            checked += 1
            if lhs.coeffs.get(key, ZERO) != rhs.coeffs.get(key, ZERO):
                failed += 1
        rows.append(PhiRow(n, checked, failed))

    # the weighted series maps to the Green function
    w = bound.max_edges
    image_a = phi(spec, weighted_series(w), bound)
    green_match = image_a == green(spec, bound)
    return PhiReport(spec.name, max_n, bound.max_edges, rows, green_match)
