import numpy as np
import pytest

from graphtv import (BoxSpec, ConvexScalar, GroupBallSpec, ValidationError,
                     bisection_prox, divergence, min_norm_divergence,
                     min_separable_convex_over_polytope, project_onto_div_box,
                     sign_pattern)
from graphtv.graph import Tolerances
from graphtv.instances import (nonequivalence_instance, random_connected_graph,
                               random_vertex_field, two_vertex_graph)
from graphtv.minimality import (PhiCatalog, arclength_phi, power_phi,
                                random_piecewise_linear)

import reference_descent
from sampling import ball_point, box_point, convexity_violation, pattern_box
from dense_operator import dense_divergence

SEED = 20240818
# frozen by hand from the 3x3 instance: div of the optimal dual at alpha = 1
DIV_AT_ONE = np.array([-1.0, -2.5, -0.5, 1.0, -1.0, 2.0, 2.0, 2.0, -2.0])
# minimal section of the subdifferential at the datum
MIN_SECTION = np.array([-1.0, -4.0, 1.0, 1.0, -1.0, 2.0, 2.0, 2.0, -2.0])


def test_box_spec_basics():
    spec = BoxSpec.uniform(3, 2.0)
    assert spec.contains(np.array([2.0, -2.0, 0.0]))
    assert not spec.contains(np.array([2.1, 0.0, 0.0]))
    x = spec.project(np.array([5.0, -3.0, 0.5]))
    assert x.tolist() == [2.0, -2.0, 0.5]
    with pytest.raises(ValidationError):
        BoxSpec(np.array([1.0]), np.array([0.0]))


def test_group_ball_projection():
    spec = GroupBallSpec(((0, 1), (2,)), 1.0, 3)
    h = np.array([3.0, 4.0, -7.0])
    p = spec.project(h)
    # pair scaled onto the unit circle, singleton clipped
    assert np.abs(p - np.array([0.6, 0.8, -1.0])).max() < 1e-12
    inside = np.array([0.3, 0.4, 0.5])
    assert np.abs(spec.project(inside) - inside).max() < 1e-12


def test_projection_matches_frozen_dual():
    g, f = nonequivalence_instance()
    spec = BoxSpec.uniform(g.edge_count, 1.0)
    h, rep = project_onto_div_box(g, f, spec)
    assert rep.converged
    assert np.abs(divergence(g, h) - DIV_AT_ONE).max() < 1e-7


def test_projection_characterization():
    # <target - div H*, div B - div H*> <= 0 for feasible B
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        g = random_connected_graph(rng)
        f = random_vertex_field(rng, g.vertex_count)
        spec = BoxSpec.uniform(g.edge_count, float(rng.uniform(0.05, 0.5)))
        h, rep = project_onto_div_box(g, f, spec)
        assert rep.converged
        p = divergence(g, h)
        for _ in range(20):
            b = box_point(spec, rng)
            gap = float((f - p) @ (divergence(g, b) - p))
            assert gap <= 1e-6


def test_min_norm_divergence_matches_frozen_section():
    g, f = nonequivalence_instance()
    box = pattern_box(sign_pattern(g, f))
    h, rep = min_norm_divergence(g, box)
    assert rep.converged
    assert np.abs(divergence(g, h) - MIN_SECTION).max() < 1e-7


def test_start_meeting_the_stop_costs_no_iteration(monkeypatch):
    # a separable solve restarted at its own converged flow, read off its
    # descent, passes the stopping test at the start and returns that
    # flow's field untouched; a cold start does not, and keeps iterating
    # as before
    import graphtv.engine as engine
    from graphtv.instances import cartesian_graph
    flows = []
    descent = engine._accelerated_descent

    def recording(*args, **kwargs):
        out = descent(*args, **kwargs)
        flows.append(out[0])
        return out

    monkeypatch.setattr(engine, "_accelerated_descent", recording)
    g16 = cartesian_graph(16, 16)
    cases = [(*nonequivalence_instance(), 0.7),
             (g16, random_vertex_field(np.random.default_rng(SEED + 11), 256), 0.5)]
    for g, f, alpha in cases:
        spec = BoxSpec.uniform(g.edge_count, alpha)
        for phi in (power_phi(2.0), arclength_phi()):
            u, cold = min_separable_convex_over_polytope(g, f, spec, phi)
            assert cold.converged and cold.iterations > 0
            u_again, warm = min_separable_convex_over_polytope(g, f, spec, phi,
                                                               warm_start=flows[-1])
            assert warm.converged and warm.iterations == 0
            assert u_again.tobytes() == u.tobytes()
            assert warm.optimality == cold.optimality


def test_removed_options_raise_type_error():
    # options no caller passed are gone: the projections' warm start and
    # iteration cap, the separable solve's cap, BoxSpec.contains's slack,
    # the failure search's early stop, the equivalence report's
    # precomputed solution, write_trajectory's samples and the dense path
    # constructor; GroupBallSpec has no contains
    from io import StringIO
    from graphtv import (PiecewiseAffinePath, demonstrate_isotropic_failure,
                         equivalence_report, rof_path, rof_solve, write_trajectory)
    from graphtv.instances import cartesian_graph
    g, f = nonequivalence_instance()
    box = BoxSpec.uniform(g.edge_count, 1.0)
    zero = np.zeros(g.edge_count)
    path = rof_path(g, f)
    for call in (lambda: project_onto_div_box(g, f, box, warm_start=zero),
                 lambda: project_onto_div_box(g, f, box, max_iter=20),
                 lambda: min_norm_divergence(g, box, warm_start=zero),
                 lambda: min_norm_divergence(g, box, max_iter=20),
                 lambda: min_separable_convex_over_polytope(g, f, box, power_phi(2.0),
                                                            max_iter=20),
                 lambda: box.contains(zero, 1e-9),
                 lambda: box.contains(zero, slack=1e-9),
                 lambda: demonstrate_isotropic_failure(cartesian_graph(3, 3), [f], 1.0,
                                                       early_stop=False),
                 lambda: equivalence_report(g, f, 1.0, regularized=rof_solve(g, f, 1.0)),
                 lambda: write_trajectory(StringIO(), path, path.breakpoints),
                 lambda: write_trajectory(StringIO(), path, samples=path.breakpoints),
                 lambda: PiecewiseAffinePath(path.breakpoints, path.left_values,
                                             path.slopes, path.terminal_value)):
        with pytest.raises(TypeError):
            call()
    assert not hasattr(GroupBallSpec, "contains")


def test_separable_quadratic_equals_projection():
    rng = np.random.default_rng(SEED + 2)
    g = random_connected_graph(rng)
    f = random_vertex_field(rng, g.vertex_count)
    spec = BoxSpec.uniform(g.edge_count, 0.3)
    h_proj, _ = project_onto_div_box(g, f, spec)
    u_proj = f - divergence(g, h_proj)
    phi = power_phi(2.0)
    # the solve stops on an objective gap, which certifies u only to about
    # its square root: the default 1e-6 leaves u 4.4e-6 off, 1e-13 1.8e-10
    u_sep, rep = min_separable_convex_over_polytope(g, f, spec, phi,
                                                    Tolerances(solve_tol=1e-13))
    assert rep.converged
    assert np.abs(u_proj - u_sep).max() < 1e-6


def test_separable_absolute_value_two_vertex():
    # min |u0| + |u1| over u = f - div(H), |H| <= alpha, f = (0, 10):
    # u = (H, 10 - H) so any H in [0, alpha] is optimal with value 10 - alpha...
    # no: |H| + |10 - H| = 10 for H in [0, 1]; check the value
    g = two_vertex_graph()
    f = np.array([0.0, 10.0])
    spec = BoxSpec.uniform(1, 1.0)
    phi = power_phi(1.0)
    u, rep = min_separable_convex_over_polytope(g, f, spec, phi)
    assert rep.converged
    val = float(np.sum(np.abs(u)))
    assert abs(val - 10.0) < 1e-5


def test_separable_without_prox_or_curvature():
    # a user phi with only a subgradient runs smoothing on a bisection prox
    g, f = nonequivalence_instance()
    spec = BoxSpec.uniform(g.edge_count, 0.5)
    bare = ConvexScalar("abs", np.abs, np.sign)
    u_bare, rep_bare = min_separable_convex_over_polytope(g, f, spec, bare)
    u_ref, rep_ref = min_separable_convex_over_polytope(g, f, spec, power_phi(1.0))
    assert rep_bare.converged and rep_ref.converged
    assert rep_bare.method == rep_ref.method == "apgd-smoothing"
    assert abs(rep_bare.objective - rep_ref.objective) <= 1e-6 * (1 + rep_ref.objective)
    assert abs(bare.total(u_bare) - rep_bare.objective) <= 1e-5 * (1 + rep_bare.objective)


def test_separable_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(SEED + 3)
    g = random_connected_graph(rng, max_vertices=8)
    f = random_vertex_field(rng, g.vertex_count)
    alpha = 0.25
    d = dense_divergence(g)
    for phi, expr in (
        (power_phi(1.0), lambda u: cp.sum(cp.abs(u))),
        (power_phi(2.0), lambda u: cp.sum_squares(u)),
        (power_phi(3.0), lambda u: cp.sum(cp.power(cp.abs(u), 3))),
    ):
        hvar = cp.Variable(g.edge_count)
        uvar = f - d @ hvar
        prob = cp.Problem(cp.Minimize(expr(uvar)),
                          [cp.norm_inf(hvar) <= alpha])
        prob.solve(solver=cp.CLARABEL)
        u, rep = min_separable_convex_over_polytope(
            g, f, BoxSpec.uniform(g.edge_count, alpha), phi)
        assert rep.converged
        assert phi.total(u) <= prob.value + 1e-5 * (1 + abs(prob.value))


def test_prox_unit_cases():
    catalog = PhiCatalog.standard(-2.0, 2.0)
    xs = np.linspace(-2.0, 2.0, 41)
    for phi in catalog:
        if phi.prox is None:
            continue
        for delta in (0.05, 0.7):
            p = phi.prox(xs, delta)
            # prox optimality: x - p == delta * g(p) (smooth points)
            resid = np.abs(xs - p - delta * phi.subgradient(p))
            interior = np.abs(p) > 1e-9
            assert resid[interior].max() < 1e-6
            # prox never overshoots past the unconstrained minimizer direction
            assert np.all(np.sign(p) * np.sign(xs) >= 0)


def test_piecewise_linear_prox_matches_bisection():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        phi = random_piecewise_linear(rng, -2.0, 2.0)
        generic = bisection_prox(phi.subgradient)
        xs = rng.uniform(-4.0, 4.0, size=30)
        for delta in (0.1, 1.3):
            a = phi.prox(xs, delta)
            b = generic(xs, delta)
            # compare objective values; argmins can differ on flat pieces
            fa = phi.evaluate(a) + (xs - a) ** 2 / (2 * delta)
            fb = phi.evaluate(b) + (xs - b) ** 2 / (2 * delta)
            assert float((fa - fb).max()) < 1e-7


def test_catalog_is_convex():
    rng = np.random.default_rng(SEED + 5)
    for phi in PhiCatalog.standard(-3.0, 3.0):
        assert convexity_violation(phi, -3.0, 3.0, rng) < 1e-9


def test_convex_scalar_validation():
    with pytest.raises(ValidationError):
        ConvexScalar("bad", None, None)


def test_box_gap_matches_brute_force():
    # <grad, h> minus the least <grad, .> over the box's 2^m corners
    import itertools
    rng = np.random.default_rng(SEED + 6)
    for m in (1, 2, 4):
        lo = rng.uniform(-1.0, 0.5, size=m)
        spec = BoxSpec(lo, lo + rng.uniform(0.0, 1.5, size=m))
        corners = np.array(list(itertools.product(*zip(spec.lower, spec.upper))))
        for _ in range(20):
            h = box_point(spec, rng)
            grad = rng.normal(size=m)
            brute = float(grad @ h) - float((corners @ grad).min())
            gap = spec.gap(h, grad)
            assert abs(gap - brute) <= 1e-12
            assert gap >= 0.0
        # a corner that minimizes <grad, .> has gap zero
        grad = rng.normal(size=m)
        assert spec.gap(np.where(grad > 0, spec.lower, spec.upper), grad) == 0.0


def test_group_ball_gap_matches_brute_force():
    # <grad, h> minus the least <grad, .> over a pair's circle, sampled
    # finely, and a single's two ends
    rng = np.random.default_rng(SEED + 7)
    r = 0.7
    spec = GroupBallSpec(((0, 2), (1,)), r, 3)
    theta = np.linspace(0.0, 2.0 * np.pi, 200001)
    for _ in range(20):
        h = ball_point(spec, rng)
        grad = rng.normal(size=3)
        on_circle = r * (grad[0] * np.cos(theta) + grad[2] * np.sin(theta))
        brute = float(grad @ h) - float(on_circle.min()) + r * abs(grad[1])
        gap = spec.gap(h, grad)
        assert abs(gap - brute) <= 1e-9
        assert gap >= -1e-15
    # an interior point has a positive gap unless the gradient vanishes
    assert spec.gap(np.zeros(3), np.array([1.0, 0.0, 0.0])) == r
    assert spec.gap(np.array([0.1, -0.2, 0.3]), np.zeros(3)) == 0.0


def test_group_ball_projection_keeps_interior_bits():
    # a pair inside its ball is returned as it is; one outside is scaled by
    # r / norm, and a radius of zero maps every pair to the origin
    rng = np.random.default_rng(SEED + 8)
    spec = GroupBallSpec(((0, 1), (2, 3)), 1.0, 4)
    h = np.array([0.3, -0.4, 3.0, 4.0]) + 1e-3 * rng.uniform(size=4)
    p = spec.project(h)
    assert p[:2].tobytes() == h[:2].tobytes()
    norm = np.hypot(h[2], h[3])
    assert p[2:].tobytes() == (h[2:] * (1.0 / norm)).tobytes()
    origin = GroupBallSpec(((0, 1),), 0.0, 2).project(np.array([3.0, 4.0]))
    assert origin.tolist() == [0.0, 0.0]


def test_group_ball_spec_validation():
    # the first bad group decides, an index out of range or repeated
    # before a size other than 1 or 2; then the groups must cover the edges
    for groups, size, message in (
            (((0, 5), (2,)), 3, "partition the edge index range"),
            (((0, -1), (2,)), 3, "partition the edge index range"),
            (((0, 1), (1,)), 3, "partition the edge index range"),
            (((0, 1, 1),), 3, "partition the edge index range"),
            (((0,), (1, 2, 3), (1,)), 4, "group sizes 1 and 2"),
            (((0, 1, 2), (2,)), 3, "group sizes 1 and 2"),
            (((),), 1, "group sizes 1 and 2"),
            (((0,),), 2, "cover every edge index")):
        with pytest.raises(ValidationError, match=message):
            GroupBallSpec(groups, 0.5, size)
    with pytest.raises(ValidationError, match="radius must be nonnegative"):
        GroupBallSpec(((0,),), -1.0, 1)
    spec = GroupBallSpec(((3, 1), [np.int64(0)], np.array([4, 2])), 0.5, 5)
    assert spec.groups == ((3, 1), (0,), (4, 2))
    assert all(type(k) is int for grp in spec.groups for k in grp)
    # pairs' first edges, pairs' second edges, then the singles
    assert spec.order.tolist() == [3, 4, 1, 2, 0]


def _reference_cases():
    # (name, graph, datum, spec): a vertex of each graph has at most two
    # edges in and two out, or the spec is a box
    from graphtv.instances import cartesian_graph, path_graph
    rng = np.random.default_rng(SEED + 12)

    def field(g):
        return random_vertex_field(rng, g.vertex_count)

    g, f = nonequivalence_instance()
    cases = [("paper box", g, f, BoxSpec.uniform(g.edge_count, 1.0))]
    for m, n in ((6, 6), (9, 7), (1, 12)):
        g = cartesian_graph(m, n)
        cases.append(("coupled %dx%d" % (m, n), g, field(g), g.coupled_ball(0.5)))
    g = cartesian_graph(4, 4)
    pairs = rng.permutation(g.edge_count).reshape(-1, 2)
    cases.append(("pairs only", g, field(g), GroupBallSpec(pairs, 0.4, g.edge_count)))
    g = cartesian_graph(6, 6)
    cases.append(("radius 0", g, field(g), g.coupled_ball(0.0)))
    g = path_graph(15)
    groups = [(k, k + 1) for k in range(0, 12, 2)] + [(12,), (13,)]
    cases.append(("path balls", g, field(g), GroupBallSpec(groups, 0.3, 14)))
    cases.append(("path box", g, field(g), BoxSpec.uniform(14, 0.3)))
    g = random_connected_graph(rng)
    cases.append(("random box", g, field(g), BoxSpec.uniform(g.edge_count, 0.2)))
    return cases


def _with_reference(monkeypatch, solve):
    # solve() with the descent as it is, then with the reference loop, and
    # the number of momentum restarts the latter took
    import functools
    import graphtv.engine as engine
    ours = solve()
    restarts = []
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_accelerated_descent",
                      functools.partial(reference_descent.descent, restarts=restarts))
        theirs = solve()
    return ours, theirs, len(restarts)


def _same_report(a, b):
    return (a.iterations, a.objective.hex(), a.optimality.hex(), a.converged,
            a.method) == (b.iterations, b.objective.hex(), b.optimality.hex(),
                          b.converged, b.method)


def test_projection_gives_the_reference_bytes(monkeypatch):
    # the in-place loop over the spec's order steps through the same
    # iterates as the reference loop over the graph's: the same flow,
    # iterations, objective and optimality, converged or stalled.  The
    # projection, the gap and the reported gradient-mapping norm, at the
    # flow returned, have the reference's bytes too
    rng = np.random.default_rng(SEED + 13)
    stalled = restarted = 0
    for name, g, f, spec in _reference_cases():
        h = 2.0 * rng.normal(size=g.edge_count)
        h[::5] = -0.0
        p = spec.project(h)
        assert p.tobytes() == reference_descent.project(spec, h).tobytes(), name
        assert spec.gap(p, h).hex() == reference_descent.gap(spec, p, h).hex(), name
        (x, rep), (x_ref, rep_ref), restarts = _with_reference(
            monkeypatch, lambda: project_onto_div_box(g, f, spec))
        assert x.tobytes() == x_ref.tobytes(), name
        assert _same_report(rep, rep_ref), name
        assert rep.optimality.hex() == reference_descent.mapping_norm(g, f, spec, x).hex(), name
        stalled += not rep.converged
        restarted += restarts > 0
    # the coupled 6x6 and 9x7 solves stop by patience at alpha 0.5
    assert stalled == 2 and restarted >= 8


def test_separable_solve_gives_the_reference_bytes(monkeypatch):
    # x^2 runs apgd-smooth, |x|^1.5 apgd-smoothing; both take adaptive
    # steps, whose descent bound sums in the graph's order, and restarts
    restarted = set()
    for name, g, f, spec in _reference_cases():
        for phi, method in ((power_phi(2.0), "apgd-smooth"),
                            (power_phi(1.5), "apgd-smoothing")):
            (u, rep), (u_ref, rep_ref), restarts = _with_reference(
                monkeypatch, lambda: min_separable_convex_over_polytope(g, f, spec, phi))
            assert rep.method == method and rep.converged, name
            assert u.tobytes() == u_ref.tobytes(), name
            assert _same_report(rep, rep_ref), name
            if restarts and rep.iterations:
                restarted.add((type(spec), method))
    assert len(restarted) == 4


def test_smoothing_certificate_bounds_exact_minimum():
    # by universal minimality the certified rof_solve u minimizes every
    # sum of phi over the box slab, so phi.total(u) is the exact minimum:
    # the oracle's objective lies above it by at most its reported bound.
    # Where the smoothing term carries the bound, the gap alone would miss
    # the excess of some piecewise-linear phi
    from graphtv import rof_solve
    from graphtv.instances import cartesian_graph
    rng = np.random.default_rng(SEED + 9)
    graphs = [random_connected_graph(rng), random_connected_graph(rng),
              cartesian_graph(7, 6)]
    for g in graphs:
        f = random_vertex_field(rng, g.vertex_count)
        for alpha in (0.1, 0.5, 2.0):
            sol = rof_solve(g, f, alpha)
            assert sol.report.method.startswith("kkt-")
            box = BoxSpec.uniform(g.edge_count, alpha)
            lo, hi = float(f.min()), float(f.max())
            for phi in (power_phi(1.0), power_phi(1.5),
                        random_piecewise_linear(rng, lo, hi),
                        random_piecewise_linear(rng, lo, hi)):
                for tol in (1e-6, 1e-2):
                    _, rep = min_separable_convex_over_polytope(
                        g, f, box, phi, Tolerances(solve_tol=tol))
                    assert rep.method == "apgd-smoothing" and rep.converged
                    assert rep.optimality <= tol * (1.0 + abs(rep.objective))
                    excess = rep.objective - phi.total(sol.u)
                    rounding = 1e-12 * (1.0 + abs(rep.objective))
                    assert -rounding <= excess <= rep.optimality + rounding


def test_smoothing_certificate_on_coupled_balls():
    # no closed form on the coupled set: a tenfold tighter solve stands in
    # for the minimum, which it overshoots by at most its own bound
    from graphtv.instances import cartesian_graph
    g = cartesian_graph(8, 8)
    f = random_vertex_field(np.random.default_rng(SEED + 10), g.vertex_count)
    spec = g.coupled_ball(0.5)
    for phi in (power_phi(1.0), power_phi(1.5)):
        _, rep = min_separable_convex_over_polytope(g, f, spec, phi)
        _, tight = min_separable_convex_over_polytope(
            g, f, spec, phi, Tolerances(solve_tol=1e-7))
        assert rep.converged and tight.converged
        assert tight.optimality <= 1e-7 * (1.0 + abs(tight.objective))
        assert rep.objective - tight.objective <= rep.optimality
        assert tight.objective - rep.objective <= tight.optimality


def test_power15_smoothing_iteration_counts():
    # |x|^1.5 has a prox but no curvature bound; with stages stopped on the
    # duality gap and delta sized from the subgradients at the iterate, a
    # 16x16 grid at alpha 0.5 takes at most 1016 iterations on the box
    # and 1400 on the coupled balls (1448 and 3064 with gradient-mapping
    # stops and delta sized from n times the worst slope)
    from graphtv.instances import cartesian_graph
    g = cartesian_graph(16, 16)
    f = random_vertex_field(np.random.default_rng(1), g.vertex_count)
    for spec, cap in ((BoxSpec.uniform(g.edge_count, 0.5), 1016),
                      (g.coupled_ball(0.5), 1400)):
        _, rep = min_separable_convex_over_polytope(g, f, spec, power_phi(1.5))
        assert rep.converged
        assert rep.iterations <= cap


def _under_one_and_two_blas_threads(code):
    # the stdout of code run in a fresh process under one and under two
    # BLAS threads
    import os
    import subprocess
    import sys

    import graphtv
    src = os.path.dirname(os.path.dirname(graphtv.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    return outs


def test_separable_solve_ignores_blas_threads():
    # a separable solve on 10224 edges (long enough for a BLAS dot product
    # to split over threads) under one and under two BLAS threads in fresh
    # processes: the same output, bit for bit
    code = ("import hashlib, numpy as np, graphtv as gt\n"
            "from graphtv.instances import cartesian_graph, random_vertex_field\n"
            "from graphtv.minimality import power_phi\n"
            "g = cartesian_graph(72, 72)\n"
            "f = random_vertex_field(np.random.default_rng(%d), g.vertex_count)\n"
            "box = gt.BoxSpec.uniform(g.edge_count, 0.5)\n"
            "u, rep = gt.min_separable_convex_over_polytope(g, f, box, power_phi(1.5))\n"
            "print(rep.iterations, rep.objective.hex(), rep.optimality.hex(),\n"
            "      hashlib.sha1(u.tobytes()).hexdigest())\n"
            % (SEED + 8))
    outs = _under_one_and_two_blas_threads(code)
    assert outs[0] and outs[0] == outs[1]


def test_coupled_projection_ignores_blas_threads():
    # the same for a converging isotropic solve on that grid: 1400
    # iterations over group-contiguous balls
    code = ("import hashlib, numpy as np, graphtv as gt\n"
            "from graphtv.instances import cartesian_graph, random_vertex_field\n"
            "g = cartesian_graph(72, 72)\n"
            "f = random_vertex_field(np.random.default_rng(%d), g.vertex_count)\n"
            "sol = gt.isotropic_rof_solve(g, f, 0.2)\n"
            "rep = sol.report\n"
            "print(rep.converged, rep.iterations, rep.objective.hex(), rep.optimality.hex(),\n"
            "      hashlib.sha1(sol.u.tobytes() + sol.dual_flow.tobytes()).hexdigest())\n"
            % (SEED + 8))
    outs = _under_one_and_two_blas_threads(code)
    assert outs[0].startswith("True 1400 ") and outs[0] == outs[1]
