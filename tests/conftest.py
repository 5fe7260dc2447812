from fractions import Fraction

import pytest

from optrees.bialgebra import delta_monomial
from optrees.pfunctor import EndofunctorSpec, OpType, builtin


def all_builtin_specs(max_arity=3):
    """One instance of every builtin spec (arity-unbounded ones capped)."""
    return [
        builtin("exp", max_arity=max_arity),
        builtin("planar", max_arity=max_arity),
        builtin("cyclic", max_arity=max_arity),
        builtin("effective", max_arity=max_arity),
        builtin("stable", max_arity=max_arity),
        builtin("binary"),
        builtin("identity"),
        builtin("constant"),
        builtin("trivial"),
    ]


def two_colour_spec():
    """Two colours with one rigid binary op of each output colour."""
    return EndofunctorSpec(
        ["a", "b"],
        [OpType("f", "a", ("a", "b")), OpType("g", "b", ("a", "b"))],
        name="two-colour",
    )


def symmetric_two_colour_spec():
    """Two colours, with a symmetric op whose group swaps two of its slots."""
    return EndofunctorSpec(
        ["a", "b"],
        [OpType("f", "a", ("a", "b")),
         OpType("g", "b", ("a", "a", "b"), ((1, 0, 2),)),
         OpType("h", "b", ())],
        name="symmetric-two-colour")


def split_block_spec():
    """Two colours, with an op whose two slots of colour a are swapped by its
    group but not adjacent: a slot of colour b sits between them."""
    return EndofunctorSpec(
        ["a", "b"],
        [OpType("f", "a", ("a", "b", "a"), ((2, 1, 0),)),
         OpType("g", "b", ("a",)),
         OpType("h", "a", ())],
        name="split-block")


def cycle_generated_s3_spec():
    """One colour, with a ternary op whose full S_3 is generated by a
    transposition and a 3-cycle, so its group is closed and scanned."""
    return EndofunctorSpec(
        ["o"],
        [OpType("n0", "o", ()), OpType("n1", "o", ("o",)),
         OpType("n3", "o", ("o", "o", "o"), ((1, 0, 2), (1, 2, 0)))],
        name="cycle-generated-s3")


def partial_blocks_spec():
    """One colour, with ops whose transpositions connect some of their slots
    but not all: p swaps slots 0 and 1 of three, q swaps 0 and 1 and swaps
    2 and 3 of four."""
    return EndofunctorSpec(
        ["o"],
        [OpType("n0", "o", ()),
         OpType("p", "o", ("o",) * 3, ((1, 0, 2),)),
         OpType("q", "o", ("o",) * 4, ((1, 0, 2, 3), (0, 1, 3, 2)))],
        name="partial-blocks")


def cut_specs():
    """Every builtin spec and the specs above: the specs the cut tests run on."""
    return all_builtin_specs() + [two_colour_spec(), symmetric_two_colour_spec(),
                                  split_block_spec(), cycle_generated_s3_spec(),
                                  partial_blocks_spec()]


def triple_left(spec, ts, bound):
    """(delta x id) applied to a tensor map."""
    out = {}
    for (left, right), c in ts.coeffs.items():
        inner = delta_monomial(spec, left, bound)
        for (a, b), m in inner.coeffs.items():
            key = (a, b, right)
            out[key] = out.get(key, Fraction(0)) + c * m
    return {k: v for k, v in out.items() if v}


def triple_right(spec, ts, bound):
    """(id x delta) applied to a tensor map."""
    out = {}
    for (left, right), c in ts.coeffs.items():
        inner = delta_monomial(spec, right, bound)
        for (a, b), m in inner.coeffs.items():
            key = (left, a, b)
            out[key] = out.get(key, Fraction(0)) + c * m
    return {k: v for k, v in out.items() if v}


@pytest.fixture
def exp3():
    return builtin("exp", max_arity=3)


@pytest.fixture
def planar3():
    return builtin("planar", max_arity=3)


@pytest.fixture
def two_colour():
    return two_colour_spec()
