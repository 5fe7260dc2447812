import math
from fractions import Fraction

import pytest

from optrees.bialgebra import Bound, delta_series, green
from optrees.classical import (NullaryOpsPresent, class_mul, class_str,
                               classical_mul, classical_verify, degree,
                               delta_generator, factors, generator,
                               partition_type, phi, set_partitions, surj_class,
                               surjection_delta, type_count_closed_form,
                               verify_phi, weight, weighted_series)
from optrees.pfunctor import builtin, trivial_ptree


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_set_partitions_bell_counts():
    for n in range(0, 8):
        assert sum(1 for _ in set_partitions(list(range(n)))) == BELL[n]


def test_partition_type():
    assert partition_type([[1], [2, 3]]) == ((1, 1), (2, 1))
    assert partition_type([]) == ()


def test_delta_a1():
    assert delta_generator(1) == {(generator(1), generator(1)): 1}


def test_delta_a3_explicit():
    d = delta_generator(3)
    a = generator
    assert d == {
        (surj_class({1: 3}), a(3)): 1,
        (surj_class({1: 1, 2: 1}), a(2)): 3,
        (a(3), a(1)): 1,
    }


def test_multiplicities_match_closed_form():
    for n in range(1, 8):
        d = delta_generator(n)
        by_type = {}
        for (typ, _), m in d.items():
            by_type[typ] = by_type.get(typ, 0) + m
        for typ, m in by_type.items():
            assert m == type_count_closed_form(n, typ)
        assert sum(by_type.values()) == BELL[n]


def test_grading_additive():
    for n in range(1, 8):
        for (left, right), _ in delta_generator(n).items():
            assert degree(left) + degree(right) == n - 1


def test_monomial_delta_multiplicative():
    # delta(a1 a2) expanded by hand from the generator coproducts
    mono = class_mul(generator(1), generator(2))
    d = surjection_delta(mono)
    a = generator
    a1a1 = surj_class({1: 2})
    expected = {
        (class_mul(a(1), a1a1), class_mul(a(1), a(2))): 1,
        (class_mul(a(1), a(2)), class_mul(a(1), a(1))): 1,
    }
    assert d == expected


def test_class_helpers():
    c = surj_class({2: 2, 1: 1})
    assert weight(c) == 5
    assert degree(c) == 2
    assert factors(c) == 3
    assert class_str(c) == "a1a2^2"
    assert class_str(()) == "1"
    with pytest.raises(ValueError):
        surj_class({0: 1})


def test_classical_verify_passes():
    rep = classical_verify(7)
    assert rep.passed
    assert rep.multiplicity_failed == 0
    assert rep.failed == 0
    assert rep.checked > 50
    doc = rep.as_doc()
    assert doc["summary"]["failed"] == 0


def test_classical_verify_counts_a_grading_violation(monkeypatch):
    monkeypatch.setattr("optrees.classical.degree", lambda c: 0)
    rep = classical_verify(3)
    assert rep.passed is False
    assert rep.failed > 0


def test_classical_identity_fails_with_unweighted_series():
    # the substitution identity needs the 1/k! weights: the coefficient of
    # (a1 a2) (x) a2 is 3/3! on the left but would be 2/2! unweighted
    lhs = Fraction(3, math.factorial(3))
    a = weighted_series(3)
    sq = classical_mul(a, a, 3)
    assert sq[class_mul(generator(1), generator(2))] * Fraction(1, 2) == lhs
    # without weights the two sides disagree
    unweighted = {generator(k): Fraction(1) for k in (1, 2, 3)}
    sq_un = classical_mul(unweighted, unweighted, 3)
    assert sq_un[class_mul(generator(1), generator(2))] != 3


# -- the homomorphism -----------------------------------------------------------

def test_phi_requires_leafed_ops():
    with pytest.raises(NullaryOpsPresent):
        phi(builtin("exp", max_arity=2), generator(1), Bound(3))


def test_phi_generator_one_is_chain_sum():
    spec = builtin("effective", max_arity=3)
    bound = Bound(5)
    image = phi(spec, generator(1), bound)
    # 1-leaf trees for a spec with unary ops are the chains
    chains = set()
    text = "_"
    for n in range(0, 5):
        chains.add(text if n else "_")
        text = f"(n1:{text})"
    assert set(k[0] for k in image.coeffs) == {c for c in chains}
    assert all(v == 1 for v in image.coeffs.values())


def test_phi_stable_generator_one_is_trivial():
    spec = builtin("stable", max_arity=3)
    image = phi(spec, generator(1), Bound(8))
    assert image.coeffs == {(trivial_ptree(spec).key(),): 1}


def test_phi_weighted_series_is_green():
    for name in ("stable", "effective"):
        spec = builtin(name, max_arity=3)
        bound = Bound(6)
        image = phi(spec, weighted_series(6), bound)
        assert image == green(spec, bound)


def test_phi_intertwines_coproducts_n2_by_hand():
    spec = builtin("stable", max_arity=3)
    bound = Bound(8)
    image = phi(spec, generator(2), bound)
    # G_2 = the cherry class with weight 2 * 1/2 = 1
    assert list(image.coeffs.values()) == [Fraction(1)]
    rhs = delta_series(image)
    lhs = {}
    for (left, right), m in delta_generator(2).items():
        ls = phi(spec, left, bound)
        rs = phi(spec, right, bound)
        for kf, cf in ls.coeffs.items():
            for ks, cs in rs.coeffs.items():
                lhs[(kf, ks)] = lhs.get((kf, ks), Fraction(0)) + m * cf * cs
    assert lhs == rhs.coeffs


def test_verify_phi_stable():
    spec = builtin("stable", max_arity=3)
    rep = verify_phi(spec, max_n=4, bound=Bound(8))
    assert rep.passed
    assert rep.green_match
    assert all(r.failed == 0 for r in rep.rows)
    assert all(r.checked > 0 for r in rep.rows)


def test_verify_phi_effective_truncated():
    rep = verify_phi(builtin("effective", max_arity=3), max_n=3, bound=Bound(6))
    assert rep.passed
