"""Exact-arithmetic bialgebra of decorated operadic trees, Green functions
and a finite groupoid calculus.

A command compiles only the modules it runs.  Every submodule but ``cli``
is a lazy module: each is in ``sys.modules`` and bound here from the start,
and is compiled and run on its first attribute access.  The exported names
are served on the package by ``__getattr__`` from their module."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trees, pfunctor, enumeration, bialgebra, classical, groupoids, groupoid_suite = map(
    _lazy, ("trees", "pfunctor", "enumeration", "bialgebra", "classical", "groupoids",
            "groupoid_suite"))

_MODULE_OF = {
    **dict.fromkeys(("Cut", "CycleDetected", "DiagramError", "ForestDiagram",
                     "GrammarError", "MatchingNotBijective", "MultipleRoots", "NoRoot",
                     "NonInjectiveS", "NonInjectiveT", "TreeDiagram", "enumerate_cuts",
                     "graft", "ideal_subtree", "parse_forest", "parse_tree",
                     "print_forest", "print_tree", "prune", "trivial_tree",
                     "validate_forest", "validate_tree"),
                    "trees"),
    **dict.fromkeys(("ArityMismatch", "BUILTIN_NAMES", "ColourMismatch",
                     "EndofunctorSpec", "OpType", "PForest", "PTree", "SpecError",
                     "UnknownBuiltin", "UnknownOp", "aut_order", "aut_order_forest",
                     "automorphisms", "builtin", "forest_mul", "graft_decorated",
                     "isomorphisms_brute", "load_spec", "parse_pforest", "parse_ptree",
                     "prune_decorated", "save_spec", "trivial_ptree", "validate_ptree"),
                    "pfunctor"),
    **dict.fromkeys(("Bound", "enumerate_classes", "enumerate_pforests",
                     "enumerate_ptrees", "matchings"),
                    "enumeration"),
    **dict.fromkeys(("FdbReport", "Series", "TensorSeries", "counit", "delta_monomial",
                     "delta_series", "delta_tree", "fdb_lhs_coefficient",
                     "fdb_rhs_coefficient", "green", "series_mul", "verify_fdb"),
                    "bialgebra"),
    **dict.fromkeys(("ClassicalReport", "NullaryOpsPresent", "PhiReport",
                     "classical_verify", "delta_generator", "phi", "set_partitions",
                     "surjection_delta", "type_count_closed_form", "verify_phi"),
                    "classical"),
    **dict.fromkeys(("FiniteGroupoid", "Group", "GroupAction", "GroupoidError",
                     "GroupoidMap", "discrete", "homotopy_fiber", "homotopy_pullback",
                     "homotopy_quotient", "homotopy_sum", "is_equivalence",
                     "one_object", "pushforward_cardinality", "relative_cardinality",
                     "sum_projection"),
                    "groupoids"),
    "SuiteReport": "groupoid_suite", "run_suite": "groupoid_suite"}


def __getattr__(name: str):
    """An exported name, looked up on its module, which it loads on first
    access."""
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
