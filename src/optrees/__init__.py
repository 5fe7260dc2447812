"""Exact-arithmetic bialgebra of decorated operadic trees, Green functions
and a finite groupoid calculus."""

from .trees import (Cut, CycleDetected, DiagramError, ForestDiagram,
                    GrammarError, MatchingNotBijective, MultipleRoots,
                    NoRoot, NonInjectiveS, NonInjectiveT, TreeDiagram,
                    enumerate_cuts, graft, ideal_subtree, parse_forest,
                    parse_tree, print_forest, print_tree, prune, trivial_tree,
                    validate_forest, validate_tree)
from .pfunctor import (ArityMismatch, BUILTIN_NAMES, ColourMismatch,
                       EndofunctorSpec, OpType, PForest, PTree, SpecError,
                       UnknownBuiltin, UnknownOp, aut_order, aut_order_forest,
                       automorphisms, builtin, forest_mul, graft_decorated,
                       isomorphisms_brute, load_spec, parse_pforest,
                       parse_ptree, prune_decorated, representative, save_spec,
                       trivial_ptree, validate_ptree)
from .enumeration import (Bound, enumerate_classes, enumerate_pforests,
                          enumerate_ptrees, matchings)
from .bialgebra import (FdbReport, Series, TensorSeries, counit, delta_monomial,
                        delta_series, delta_tree, fdb_lhs_coefficient,
                        fdb_rhs_coefficient, green, series_mul, verify_fdb)
from .classical import (ClassicalReport, NullaryOpsPresent, PhiReport,
                        classical_verify, delta_generator, phi,
                        set_partitions, surjection_delta,
                        type_count_closed_form, verify_phi)
from .groupoids import (FiniteGroupoid, Group, GroupAction, GroupoidError,
                        GroupoidMap, discrete, homotopy_fiber,
                        homotopy_pullback, homotopy_quotient, homotopy_sum,
                        is_equivalence, one_object, pushforward_cardinality,
                        relative_cardinality)
from .groupoid_suite import SuiteReport, run_suite

__version__ = "0.1.0"
