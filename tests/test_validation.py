import re

import numpy as np
import pytest

from graphtv import (BoxSpec, GroupBallSpec, OrientedGraph, PhiCatalog, Tolerances,
                     ValidationError, bisection_prox, cartesian_graph,
                     demonstrate_isotropic_failure, empirical_invariant_phi_min_check,
                     equivalence_report, flow_backward_euler, flow_reference, flow_solve,
                     isotropic_rof_solve, jump_set, nonequivalence_instance, path_graph,
                     piecewise_linear_phi, power_phi, project_onto_div_box,
                     random_connected_graph, random_vertex_field, regularization_reference,
                     rof_path, rof_solve, shifted_exp_phi, sign_pattern, softabs_phi,
                     taut_string_1d, variant_reference, verify_universal_minimality)
from graphtv.engine import ensure_edge_field, ensure_vertex_field
from graphtv.instances import flow_dual_switching_reference, regularization_dual_reference

G, F = nonequivalence_instance()
PATH, TRAJ = rof_path(G, F), flow_solve(G, F)

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
    "box radius": (lambda: BoxSpec.uniform(3, -1.0), "radius must be finite and nonnegative"),
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
    "softabs": (lambda: softabs_phi(0.0), "delta must be finite and positive"),
    "shifted exp": (lambda: shifted_exp_phi(0.0, -1.0), "width must be finite and positive"),
    "slopes count": (lambda: piecewise_linear_phi([0.0], [1.0]),
                     r"need len\(slopes\) == len\(knots\) \+ 1"),
    "no knot": (lambda: piecewise_linear_phi([], [1.0]), "need at least one knot"),
    "knot order": (lambda: piecewise_linear_phi([1.0, 0.0], [-1.0, 0.0, 1.0]),
                   "knots and slopes must be strictly increasing"),
    "slope order": (lambda: piecewise_linear_phi([0.0], [1.0, -1.0]),
                    "knots and slopes must be strictly increasing"),
    # comparisons with NaN are false, so the order check alone let these
    # through: phi read 0.0 and inf at x = -1
    "knot nan": (lambda: piecewise_linear_phi([0.0, np.nan], [0.0, 1.0, 2.0]),
                 "knots and slopes must be finite"),
    "slope inf": (lambda: piecewise_linear_phi([0.0], [-np.inf, 1.0]),
                  "knots and slopes must be finite"),
    "catalog": (lambda: PhiCatalog.standard(1.0, 0.0), "need an interval lo <= hi"),
    "catalog inf": (lambda: PhiCatalog.standard(0.0, np.inf), "hi must be finite"),
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
    "grid side": (lambda: cartesian_graph(0, 3), "grid side must be at least 1"),
    "path": (lambda: path_graph(1), "path length must be at least 2"),
    # it asked for 10^12 rof_solve calls and ran until it was killed
    "backward euler steps": (lambda: flow_backward_euler(G, F, 1.0, 1e-12),
                             "t_end / step asks for 1000000000000 steps, more than 1000000"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_public_input_checks(case):
    call, message = CHECKS[case]
    with pytest.raises(ValidationError, match=message):
        call()


# Every public scalar parameter, as a call that takes x in its place, the
# name its errors give, a value that passes and a value just past the
# bound, or None where there is no bound.  The value that passes is the
# bound itself; for a strict bound it is a value just above it (1e-300 for
# an alpha that a solve divides by, whose 1 / alpha must stay a float)
TINY = 5e-324  # the least positive float
POSITIVE_ALPHA = 1e-300
NUMBERS = {
    "rof_solve alpha": (lambda x: rof_solve(G, F, x), "alpha", 0.0, -TINY),
    "isotropic alpha": (lambda x: isotropic_rof_solve(G, F, x), "alpha", 0.0, -TINY),
    "equivalence alpha": (lambda x: equivalence_report(G, F, x, trajectory=TRAJ), "alpha",
                          POSITIVE_ALPHA, 0.0),
    "taut string alpha": (lambda x: taut_string_1d(F, x), "alpha", 0.0, -TINY),
    "minimality alpha": (lambda x: verify_universal_minimality(G, F, x), "alpha",
                         POSITIVE_ALPHA, 0.0),
    "isotropic failure alpha": (lambda x: demonstrate_isotropic_failure(G, [], x), "alpha",
                                TINY, 0.0),
    "anchor alpha": (lambda x: empirical_invariant_phi_min_check(G, x, 0), "alpha", TINY, 0.0),
    "backward euler t_end": (lambda x: flow_backward_euler(G, F, x, 1.0), "t_end", 0.0, -TINY),
    "backward euler step": (lambda x: flow_backward_euler(G, F, 0.0, x), "step", TINY, 0.0),
    "value_at": (lambda x: PATH.value_at(x), "parameter", 0.0, -TINY),
    "slope_at": (lambda x: PATH.slope_at(x), "parameter", 0.0, -TINY),
    "direction_at": (lambda x: TRAJ.direction_at(x), "parameter", 0.0, -TINY),
    "antiderivative_at": (lambda x: TRAJ.antiderivative_at(x), "parameter", 0.0, -TINY),
    "box radius": (lambda x: BoxSpec.uniform(3, x), "radius", 0.0, -TINY),
    "ball radius": (lambda x: GroupBallSpec(((0,),), x, 1), "radius", 0.0, -TINY),
    "coupled ball radius": (lambda x: G.coupled_ball(x), "radius", 0.0, -TINY),
    "flat_tol": (lambda x: Tolerances(flat_tol=x), "flat_tol", TINY, 0.0),
    "solve_tol": (lambda x: Tolerances(solve_tol=x), "solve_tol", TINY, 0.0),
    "power": (lambda x: power_phi(x), "power", 1.0, np.nextafter(1.0, 0.0)),
    "softabs delta": (lambda x: softabs_phi(x), "delta", TINY, 0.0),
    "shifted exp center": (lambda x: shifted_exp_phi(x, 1.0), "center", -1e300, None),
    "shifted exp width": (lambda x: shifted_exp_phi(0.0, x), "width", TINY, 0.0),
    "catalog lo": (lambda x: PhiCatalog.standard(x, 1.0), "lo", -1.0, None),
    "catalog hi": (lambda x: PhiCatalog.standard(-1.0, x), "hi", 1.0, None),
    "sign_pattern scale": (lambda x: sign_pattern(G, F, scale=x), "scale", 0.0, -TINY),
    "jump_set scale": (lambda x: jump_set(G, F, scale=x), "scale", 0.0, -TINY),
    "random graph edge prob": (lambda x: random_connected_graph(np.random.default_rng(0), 4, x),
                               "extra_edge_prob", 0.0, -TINY),
    "random field low": (lambda x: random_vertex_field(np.random.default_rng(0), 3, x),
                         "low", -1e300, None),
    "random field high": (lambda x: random_vertex_field(np.random.default_rng(0), 3, 0.0, x),
                          "high", 0.0, -TINY),
}
INTEGERS = {
    "box count": (lambda k: BoxSpec.uniform(k, 1.0), "count", 0),
    "ball size": (lambda k: GroupBallSpec(() if k == 0 else ((0,),), 1.0, k), "size", 0),
    "bisection iterations": (lambda k: bisection_prox(np.sign, k), "iterations", 0),
    "anchor trial_count": (lambda k: empirical_invariant_phi_min_check(G, 1.0, k),
                           "trial_count", 0),
    "vertex_count": (lambda k: OrientedGraph(k, []), "vertex_count", 1),
    "cartesian shape": (lambda k: OrientedGraph(1, [], cartesian=(1, k), grid_coords=[(1, 1)]),
                        "cartesian shape", 1),
    "grid coordinate": (lambda k: OrientedGraph(1, [], cartesian=(1, 1), grid_coords=[(1, k)]),
                        "grid coordinate", 1),
    "grid side": (lambda k: cartesian_graph(k, 2), "grid side", 1),
    "path length": (lambda k: path_graph(k), "path length", 2),
    "random graph max_vertices": (lambda k: random_connected_graph(np.random.default_rng(0), k),
                                  "max_vertices", 2),
    "random field n": (lambda k: random_vertex_field(np.random.default_rng(0), k), "n", 0),
}
NOT_NUMBERS = (np.nan, np.inf, -np.inf, True, np.True_, "1")


@pytest.mark.parametrize("case", sorted(NUMBERS))
def test_every_number_a_caller_passes_meets_one_rule(case):
    call, name, ok, past = NUMBERS[case]
    call(ok)
    # an integer beyond the floats is not finite as a float
    for x in NOT_NUMBERS + (10 ** 400,) + (() if past is None else (past,)):
        with pytest.raises(ValidationError, match="^%s must be " % re.escape(name)):
            call(x)


@pytest.mark.parametrize("case", sorted(INTEGERS))
def test_every_integer_a_caller_passes_meets_one_rule(case):
    call, name, low = INTEGERS[case]
    call(low)
    call(np.int64(low))
    # a float is refused where int() would truncate it; a grid coordinate's
    # range is that of its shape
    for k in NOT_NUMBERS + (2.7, float(low)) + (() if name == "grid coordinate" else (low - 1,)):
        with pytest.raises(ValidationError, match="^%s must be " % re.escape(name)):
            call(k)


def test_an_equivalence_report_takes_only_the_flow_of_its_datum():
    # another size failed inside numpy, and another datum of the same size
    # gave a wrong report
    with pytest.raises(ValidationError, match="trajectory must be the flow of f"):
        equivalence_report(G, F, 1.0, trajectory=flow_solve(path_graph(3), [0.0, 1.0, 2.0]))
    with pytest.raises(ValidationError, match="trajectory must be the flow of f"):
        equivalence_report(G, F, 1.0, trajectory=flow_solve(G, F[::-1]))
    # the flow of a -0.0 reads 0.0 at t = 0, and it is still the flow of f
    f = np.where(F == 0.0, -0.0, F)
    assert np.signbit(f).any() and not np.signbit(TRAJ.value_at(0.0)).any()
    ours = equivalence_report(G, f, 1.0, trajectory=TRAJ)
    assert ours.u_flow.tobytes() == equivalence_report(G, f, 1.0).u_flow.tobytes()


def test_backward_euler_names_a_step_count_beyond_the_floats():
    # math.ceil of the infinite count raised a bare OverflowError
    with pytest.raises(ValidationError, match=r"^t_end / step must be finite"):
        flow_backward_euler(G, F, 1e300, 1e-300)


def test_backward_euler_takes_at_most_its_step_cap(monkeypatch):
    # at the cap the steps run (counted here, not solved); one step past it
    # is refused before any solve
    import types
    import graphtv.flow
    calls = []
    monkeypatch.setattr(graphtv.flow, "MAX_EULER_STEPS", 3)
    monkeypatch.setattr(graphtv.flow, "rof_solve",
                        lambda g, u, h: calls.append(h) or types.SimpleNamespace(u=u))
    flow_backward_euler(G, F, 3.0, 1.0)
    assert calls == [1.0] * 3
    with pytest.raises(ValidationError, match="asks for 4 steps, more than 3"):
        flow_backward_euler(G, F, 3.5, 1.0)
    assert len(calls) == 3


def test_isotropic_rof_at_alpha_zero_is_the_datum():
    sol = isotropic_rof_solve(G, F, 0.0)
    assert sol.u.tobytes() == F.tobytes() and not sol.dual_flow.any()
    assert sol.report.method == "identity"
