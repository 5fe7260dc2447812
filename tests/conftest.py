import pytest

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


@pytest.fixture
def exp3():
    return builtin("exp", max_arity=3)


@pytest.fixture
def planar3():
    return builtin("planar", max_arity=3)


@pytest.fixture
def two_colour():
    return two_colour_spec()
