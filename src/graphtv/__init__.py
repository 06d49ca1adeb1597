"""Total variation regularization and gradient flow on oriented graphs."""

from .bench import (EquivalenceReport, HarnessCheck, HarnessReport,
                    counterexample_harness, equivalence_report, jump_set,
                    taut_string_1d)
from .engine import (DEFAULT_TOL, BoxSpec, ConvexScalar, GroupBallSpec,
                     SolveReport, Tolerances, bisection_prox, min_norm_divergence,
                     min_separable_convex_over_polytope, project_onto_div_box)
from .errors import (ConvergenceError, GraphTVError, ParseError, PathError,
                     ValidationError)
from .flow import FlowTrajectory, flow_backward_euler, flow_solve
from .graph import (MembershipResult, OrientedGraph, SignPattern, divergence,
                    edge_differences, sign_pattern, subdifferential_membership,
                    total_variation)
from .instances import (SWITCHING_EDGE, cartesian_graph, flow_reference,
                        nonequivalence_instance, nonequivalence_variant_datum,
                        path_graph, random_connected_graph, random_vertex_field,
                        regularization_reference, two_vertex_graph,
                        variant_reference)
from .io import read_problem, write_problem, write_trajectory
from .minimality import (AnchorTrial, IsotropicFailureReport, PhiCatalog,
                         PhiReport, WitnessRecord, arclength_phi,
                         demonstrate_isotropic_failure,
                         empirical_invariant_phi_min_check,
                         piecewise_linear_phi, power_phi, shifted_exp_phi,
                         softabs_phi, verify_universal_minimality)
from .rof import (PiecewiseAffinePath, RofSolution, isotropic_rof_solve,
                  rof_path, rof_solve)

__version__ = "0.1.0"

__all__ = [
    "AnchorTrial", "BoxSpec", "ConvergenceError", "ConvexScalar",
    "DEFAULT_TOL", "EquivalenceReport", "FlowTrajectory", "GraphTVError",
    "GroupBallSpec", "HarnessCheck", "HarnessReport", "IsotropicFailureReport",
    "MembershipResult", "OrientedGraph", "ParseError", "PathError",
    "PhiCatalog", "PhiReport", "PiecewiseAffinePath", "RofSolution",
    "SWITCHING_EDGE", "SignPattern", "SolveReport", "Tolerances",
    "ValidationError", "WitnessRecord", "arclength_phi", "bisection_prox",
    "cartesian_graph", "counterexample_harness", "demonstrate_isotropic_failure",
    "divergence", "edge_differences", "empirical_invariant_phi_min_check",
    "equivalence_report", "flow_backward_euler", "flow_reference", "flow_solve",
    "isotropic_rof_solve", "jump_set", "min_norm_divergence",
    "min_separable_convex_over_polytope", "nonequivalence_instance",
    "nonequivalence_variant_datum", "path_graph", "piecewise_linear_phi",
    "power_phi", "project_onto_div_box",
    "random_connected_graph", "random_vertex_field",
    "read_problem", "regularization_reference", "rof_path", "rof_solve",
    "shifted_exp_phi", "sign_pattern", "softabs_phi",
    "subdifferential_membership", "taut_string_1d", "total_variation",
    "two_vertex_graph", "variant_reference", "verify_universal_minimality",
    "write_problem", "write_trajectory",
]
