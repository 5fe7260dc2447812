import functools
from fractions import Fraction

import pytest

from optrees.bialgebra import delta_monomial
from optrees.pfunctor import EndofunctorSpec, OpType, builtin, group_order


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


def truncated_product(a, b, max_edges, max_nodes):
    """The product of two {(edges, nodes): coefficient} series, truncated to
    at most ``max_edges`` edges and ``max_nodes`` nodes."""
    out = {}
    for (e, n), x in a.items():
        for (f, m), y in b.items():
            if e + f <= max_edges and n + m <= max_nodes:
                out[e + f, n + m] = out.get((e + f, n + m), 0) + x * y
    return out


def cardinality_series(spec, bound):
    """Per root colour, Σ x^edges y^nodes / |Aut T| over the trees T within
    the bound, as {(colour, edges, nodes): Fraction}: the fixed point of
    g_c = x + x·y·Σ_{op: out = c} Π_i g_{in_i} / |G_op|, truncated to the
    bound.  It reads each op's input colours and group order, and no slot
    rule, record or tree."""
    max_nodes = bound.max_edges if bound.max_nodes is None else bound.max_nodes
    orders = {op.name: group_order(op) for op in spec.ops}

    def times(a, b):
        return truncated_product(a, b, bound.max_edges, max_nodes)

    g = {c: {(1, 0): Fraction(1)} for c in spec.colours}
    for _ in range(bound.max_edges):  # each round fixes the next edge count
        new = {c: {(1, 0): Fraction(1)} for c in spec.colours}
        for op in spec.ops:
            term = functools.reduce(times, (g[c] for c in op.ins), {(0, 0): Fraction(1)})
            for (e, n), x in times({(1, 1): Fraction(1)}, term).items():
                new[op.out][e, n] = new[op.out].get((e, n), 0) + x / orders[op.name]
        g = new
    return {(c, e, n): x for c, terms in g.items() for (e, n), x in terms.items() if x}


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
