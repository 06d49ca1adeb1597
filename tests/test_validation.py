import numpy as np
import pytest

from graphtv import (BoxSpec, OrientedGraph, PhiCatalog, ValidationError,
                     cartesian_graph, demonstrate_isotropic_failure,
                     empirical_invariant_phi_min_check, equivalence_report,
                     flow_reference, isotropic_rof_solve, nonequivalence_instance,
                     path_graph, piecewise_linear_phi, project_onto_div_box,
                     regularization_reference, rof_path, shifted_exp_phi,
                     softabs_phi, variant_reference, verify_universal_minimality)
from graphtv.engine import ensure_edge_field, ensure_vertex_field
from graphtv.instances import flow_dual_switching_reference, regularization_dual_reference

G, F = nonequivalence_instance()

# each public input check, as the call that fails it and the message it
# raises; every call fails before any solve
CHECKS = {
    "vertex field length": (lambda: ensure_vertex_field(G, F[:-1], "f"),
                            "f must be a length-9 vertex field"),
    "vertex field nan": (lambda: ensure_vertex_field(G, np.where(F > 100, np.nan, F), "f"),
                         "f must be finite"),
    "edge field length": (lambda: ensure_edge_field(G, np.zeros(11), "flow"),
                          "flow must be a length-12 edge field"),
    "edge field inf": (lambda: ensure_edge_field(G, np.full(12, np.inf), "flow"),
                       "flow must be finite"),
    "box lengths": (lambda: BoxSpec(np.zeros(2), np.zeros(3)),
                    "box bounds must be 1-D arrays of equal length"),
    "box inf": (lambda: BoxSpec([0.0, -np.inf], [1.0, 1.0]), "box bounds must be finite"),
    "box nan": (lambda: BoxSpec([0.0, 0.0], [1.0, np.nan]), "box bounds must be finite"),
    "box radius": (lambda: BoxSpec.uniform(3, -1.0), "radius must be nonnegative"),
    "spec size": (lambda: project_onto_div_box(G, F, BoxSpec.uniform(11, 1.0)),
                  "constraint set size 11 does not match edge count 12"),
    "no vertex": (lambda: OrientedGraph(0, []), "vertex_count must be at least 1"),
    "names": (lambda: OrientedGraph(2, [(1, 0)], names=["a"]),
              "names must have one entry per vertex"),
    "equivalence alpha": (lambda: equivalence_report(G, F, 0.0),
                          "alpha must be finite and positive"),
    "minimality alpha": (lambda: verify_universal_minimality(G, F, np.inf),
                         "alpha must be finite and positive"),
    "isotropic alpha": (lambda: demonstrate_isotropic_failure(G, [F], -1.0),
                        "alpha must be finite and positive"),
    "anchor alpha": (lambda: empirical_invariant_phi_min_check(G, np.nan),
                     "alpha must be finite and positive"),
    "softabs": (lambda: softabs_phi(0.0), "delta must be positive"),
    "shifted exp": (lambda: shifted_exp_phi(0.0, -1.0), "width must be positive"),
    "slopes count": (lambda: piecewise_linear_phi([0.0], [1.0]),
                     r"need len\(slopes\) == len\(knots\) \+ 1"),
    "no knot": (lambda: piecewise_linear_phi([], [1.0]), "need at least one knot"),
    "knot order": (lambda: piecewise_linear_phi([1.0, 0.0], [-1.0, 0.0, 1.0]),
                   "knots and slopes must be strictly increasing"),
    "slope order": (lambda: piecewise_linear_phi([0.0], [1.0, -1.0]),
                    "knots and slopes must be strictly increasing"),
    "catalog": (lambda: PhiCatalog.standard(1.0, 0.0), "need a finite interval lo <= hi"),
    "catalog inf": (lambda: PhiCatalog.standard(0.0, np.inf), "need a finite interval lo <= hi"),
    "path negative": (lambda: rof_path(G, F).value_at(-1.0),
                      "parameter must be finite and nonnegative"),
    "path nan": (lambda: rof_path(G, F).value_at(np.nan),
                 "parameter must be finite and nonnegative"),
    "regularization": (lambda: regularization_reference(4.5),
                       r"closed form is stated for alpha in \[0, 4\]"),
    "regularization dual": (lambda: regularization_dual_reference(-0.5),
                            r"closed form is stated for alpha in \[0, 4\]"),
    "flow": (lambda: flow_reference(np.nan), r"closed form is stated for t in \[0, 4\]"),
    "flow switching": (lambda: flow_dual_switching_reference(5.0),
                       r"closed form is stated for t in \[0, 4\]"),
    "variant": (lambda: variant_reference(-1.0), r"closed form is stated for alpha in \[0, 4\]"),
    "grid": (lambda: cartesian_graph(1, 1), "grid must have at least 2 vertices"),
    "grid side": (lambda: cartesian_graph(0, 3), "grid must have at least 2 vertices"),
    "path": (lambda: path_graph(1), "path needs at least 2 vertices"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_public_input_checks(case):
    call, message = CHECKS[case]
    with pytest.raises(ValidationError, match=message):
        call()


def test_isotropic_rof_at_alpha_zero_is_the_datum():
    sol = isotropic_rof_solve(G, F, 0.0)
    assert sol.u.tobytes() == F.tobytes() and not sol.dual_flow.any()
    assert sol.report.method == "identity"
