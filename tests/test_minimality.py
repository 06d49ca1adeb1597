import numpy as np
import pytest

from graphtv import (BoxSpec, RofSolution, demonstrate_isotropic_failure,
                     divergence, empirical_invariant_phi_min_check,
                     isotropic_rof_solve, min_separable_convex_over_polytope,
                     power_phi, rof_solve, verify_universal_minimality)
from graphtv import minimality
from graphtv.minimality import PhiCatalog, piecewise_linear_phi
from graphtv.instances import (cartesian_graph, nonequivalence_instance,
                               random_connected_graph, random_vertex_field)

from sampling import ball_point, box_point

SEED = 20240821
REL_TOL = 1e-5


def test_catalog_has_seven_members():
    catalog = PhiCatalog.standard(0.0, 1.0)
    names = [phi.name for phi in catalog]
    assert len(names) == 7
    assert len(set(names)) == 7
    assert "power2" in names


def test_universal_minimality_figure_instance():
    g, f = nonequivalence_instance()
    for alpha in (0.2, 1.0, 3.0):
        reports = verify_universal_minimality(g, f, alpha)
        assert len(reports) == 7
        for r in reports:
            assert r.ok, (alpha, r.phi, r.relative_gap)
            assert abs(r.relative_gap) <= REL_TOL


def test_universal_minimality_random_graphs():
    rng = np.random.default_rng(SEED)
    for _ in range(3):
        g = random_connected_graph(rng)
        f = random_vertex_field(rng, g.vertex_count)
        for r in verify_universal_minimality(g, f, 0.15):
            assert r.ok, (r.phi, r.relative_gap)


def test_isotropic_failure_witness_found():
    g, f = nonequivalence_instance()
    rng = np.random.default_rng(SEED + 1)
    span = float(f.max() - f.min())
    batch = [f] + [f + rng.normal(0, 0.25 * span, f.size) for _ in range(4)]
    rep = demonstrate_isotropic_failure(g, batch, 1.0)
    assert rep.witness_found
    assert rep.witness.margin > 1e-4


def test_box_control_shows_no_witness():
    g, f = nonequivalence_instance()
    rng = np.random.default_rng(SEED + 2)
    span = float(f.max() - f.min())
    batch = [f] + [f + rng.normal(0, 0.25 * span, f.size) for _ in range(3)]
    rep = demonstrate_isotropic_failure(g, batch, 1.0, coupled=False)
    assert not rep.witness_found
    assert rep.checked == len(batch) * 6  # x^2 skipped


def test_anchored_invariance_random_graphs():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(2):
        g = random_connected_graph(rng, max_vertices=8)
        trials = empirical_invariant_phi_min_check(g, 0.5, trial_count=3, rng=rng)
        assert all(t.passed for t in trials)


def test_piecewise_linear_phi_shape():
    phi = piecewise_linear_phi(np.array([-1.0, 0.0, 1.0]),
                               np.array([-2.0, -0.5, 0.5, 2.0]))
    xs = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    # anchored to zero at the first knot, slopes per region
    vals = phi.evaluate(xs)
    assert abs(vals[1]) < 1e-12
    assert abs(vals[0] - 2.0) < 1e-12        # slope -2 left of the anchor
    assert abs(vals[3] - (-0.5)) < 1e-12
    assert abs(vals[6] - (0.0 - 0.5 + 0.5 + 2.0)) < 1e-12
    subs = phi.subgradient(xs)
    assert subs[0] == -2.0 and subs[-1] == 2.0


def test_power_phi_rejects_bad_exponent():
    with pytest.raises(Exception):
        power_phi(0.5)


def _rounding(objective):
    return 1e-12 * (1.0 + abs(objective))


def _soundness_cases():
    # the 3x3 instance at alpha 1 and two random graphs at alpha 0.15
    rng = np.random.default_rng(SEED + 4)
    g, f = nonequivalence_instance()
    cases = [(g, f, 1.0)]
    for _ in range(2):
        g = random_connected_graph(rng)
        cases.append((g, random_vertex_field(rng, g.vertex_count), 0.15))
    return cases


def test_oracle_started_at_the_solution_stays_there():
    # by universal minimality phi.total(u) is the exact minimum over the
    # box slab: an oracle started at the certified flow cannot go below it
    # and, by its certificate, ends within its bound above it
    for g, f, alpha in _soundness_cases():
        sol = rof_solve(g, f, alpha)
        assert sol.report.method.startswith("kkt-")
        box = BoxSpec.uniform(g.edge_count, alpha)
        for phi in PhiCatalog.standard(float(f.min()), float(f.max())):
            _, rep = min_separable_convex_over_polytope(
                g, f, box, phi, warm_start=-sol.dual_flow)
            assert rep.converged, phi.name
            excess = phi.total(sol.u) - rep.objective
            r = _rounding(rep.objective)
            assert -r <= excess <= rep.optimality + r, (phi.name, excess)


def test_oracle_from_a_wrong_start_agrees_with_cold():
    # feasible starts away from the minimizer: the flow of the solution at
    # another alpha (clipped into the box) and a random point of the set.
    # Both oracles are certified, so their objectives differ by at most the
    # sum of the two bounds.  Likewise on the coupled balls of a grid, where
    # the isotropic solution in general minimizes only the x^2 objective
    rng = np.random.default_rng(SEED + 5)
    runs = []
    for g, f, alpha in _soundness_cases():
        box = BoxSpec.uniform(g.edge_count, alpha)
        starts = [-rof_solve(g, f, alpha / 2.0).dual_flow,
                  -rof_solve(g, f, 3.0 * alpha).dual_flow,
                  box_point(box, rng)]
        runs.append((g, f, box, starts))
    g = cartesian_graph(6, 6)
    f = random_vertex_field(rng, g.vertex_count)
    balls = g.coupled_ball(0.5)
    runs.append((g, f, balls, [-isotropic_rof_solve(g, f, 0.5).dual_flow,
                               -isotropic_rof_solve(g, f, 2.0).dual_flow,
                               ball_point(balls, rng)]))
    for g, f, spec, starts in runs:
        for phi in PhiCatalog.standard(float(f.min()), float(f.max())):
            _, cold = min_separable_convex_over_polytope(g, f, spec, phi)
            assert cold.converged, phi.name
            for start in starts:
                _, warm = min_separable_convex_over_polytope(
                    g, f, spec, phi, warm_start=start)
                assert warm.converged, phi.name
                slack = cold.optimality + warm.optimality + _rounding(cold.objective)
                assert abs(warm.objective - cold.objective) <= slack, phi.name


def test_gaps_and_margins_are_nonnegative(monkeypatch):
    # each reported gap or margin bounds phi(u) minus a minimum over a set
    # that holds u, so it is >= 0 up to the rounding between u and f +
    # div(dual_flow): on the box the closed-form bound, on the coupled
    # balls an oracle started at the point under test.  The coupled search
    # stops at its first witness, so its margins are read off _gap for
    # each datum and phi; the anchor check reports only its worst gap, so
    # its gaps are read off its checks
    anchor_gaps = []

    def recording(*args):
        gap, minimum = gap_of(*args)
        anchor_gaps.append((gap, minimum))
        return gap, minimum

    for g, f, alpha in _soundness_cases():
        for r in verify_universal_minimality(g, f, alpha):
            assert r.gap >= -_rounding(r.independent_minimum), (r.phi, r.gap)
    g, f = nonequivalence_instance()
    rng = np.random.default_rng(SEED + 6)
    span = float(f.max() - f.min())
    batch = [f] + [f + rng.normal(0, 0.25 * span, f.size) for _ in range(2)]
    rep = demonstrate_isotropic_failure(g, batch, 1.0, coupled=False)
    assert rep.checked == len(batch) * 6
    margins = [m.relative_margin for m in rep.margins]
    balls = g.coupled_ball(1.0)
    for idx, datum in enumerate(batch):
        sol = isotropic_rof_solve(g, datum, 1.0)
        for phi in PhiCatalog.standard(float(datum.min()), float(datum.max())):
            if phi.name != "power2":
                margin, minimum = minimality._gap(g, datum, sol, phi,
                                                  minimality.DEFAULT_CHECK_TOL, balls,
                                                  "datum %d" % idx)
                margins.append(margin / (1.0 + abs(minimum)))
    assert len(margins) == 2 * len(batch) * 6
    assert min(margins) >= -1e-12, min(margins)
    gap_of = minimality._gap
    monkeypatch.setattr(minimality, "_gap", recording)
    g = cartesian_graph(4, 4)
    empirical_invariant_phi_min_check(g, 0.5, trial_count=2,
                                      rng=np.random.default_rng(SEED + 7))
    g = random_connected_graph(rng, max_vertices=8)
    empirical_invariant_phi_min_check(g, 0.5, trial_count=2, rng=rng)
    assert len(anchor_gaps) == 2 * 2 * 7
    for gap, objective in anchor_gaps:
        assert gap >= -_rounding(objective), gap


def test_oracle_iterations_stay_small_on_a_grid(monkeypatch):
    # the box checks call no oracle; an oracle started at the point under
    # test, as the coupled checks start theirs, stays cheap: the 7 oracles
    # of a 16x16 grid at alpha 0.5 spend a few hundred iterations at most
    # (about 1600 from zero), and one anchored trial's 7 at most 200 (about
    # 1000 from zero)
    spent = []

    def counting(*args, **kwargs):
        x, rep = min_separable_convex_over_polytope(*args, **kwargs)
        spent.append(rep.iterations)
        return x, rep

    monkeypatch.setattr(minimality, "min_separable_convex_over_polytope", counting)
    g = cartesian_graph(16, 16)
    f = random_vertex_field(np.random.default_rng(SEED + 8), g.vertex_count)
    reports = verify_universal_minimality(g, f, 0.5)
    assert all(r.ok for r in reports)
    rng = np.random.default_rng(SEED + 9)
    trials = empirical_invariant_phi_min_check(g, 0.5, trial_count=1, rng=rng)
    assert trials[0].passed
    assert spent == []
    box = BoxSpec.uniform(g.edge_count, 0.5)
    start = -rof_solve(g, f, 0.5).dual_flow
    for phi in PhiCatalog.standard(float(f.min()), float(f.max())):
        counting(g, f, box, phi, warm_start=start)
    assert len(spent) == 7 and sum(spent) <= 400
    spent.clear()
    # the first anchor of the trial above, and its catalog
    scale = 2.0 * 0.5 * g.max_degree
    a = np.random.default_rng(SEED + 9).normal(0.0, scale / 2.0, size=g.vertex_count)
    start = -rof_solve(g, a, 0.5).dual_flow
    for phi in PhiCatalog.standard(-scale, scale):
        counting(g, a, box, phi.reflect(), warm_start=start)
    assert len(spent) == 7 and sum(spent) <= 200


def _no_box_oracle(monkeypatch):
    # the oracle raises on a box: a check that calls it fails
    oracle = minimality.min_separable_convex_over_polytope

    def coupled_only(g, base, spec, *args, **kwargs):
        if isinstance(spec, BoxSpec):
            raise AssertionError("a box check called the phi oracle")
        return oracle(g, base, spec, *args, **kwargs)

    monkeypatch.setattr(minimality, "min_separable_convex_over_polytope", coupled_only)


def _box_checks(g, f, alpha, catalog=None):
    # the relative bounds of the three box checks, all passing
    reports = verify_universal_minimality(g, f, alpha, catalog)
    assert all(r.ok for r in reports)
    control = demonstrate_isotropic_failure(g, [f], alpha, catalog, coupled=False)
    assert not control.witness_found
    trials = empirical_invariant_phi_min_check(g, alpha, trial_count=2, catalog=catalog,
                                               rng=np.random.default_rng(SEED + 10))
    assert all(t.passed for t in trials)
    return ([r.relative_gap for r in reports]
            + [m.relative_margin for m in control.margins]
            + [t.worst_relative_gap for t in trials])


def test_box_checks_call_no_oracle(monkeypatch):
    # rof_solve's certified answer decides every box check in closed form
    _no_box_oracle(monkeypatch)
    g = cartesian_graph(16, 16)
    cases = _soundness_cases() + [
        (g, random_vertex_field(np.random.default_rng(SEED + 11), g.vertex_count), 0.5)]
    for g, f, alpha in cases:
        for rel in _box_checks(g, f, alpha):
            assert rel <= 1e-10, rel


def test_box_bound_at_a_kink_of_phi(monkeypatch):
    # the largest cluster of a 12x12 grid shifted onto exactly 0, the kink
    # of |x| and a knot of a piecewise-linear phi: the subgradient is taken
    # at u, whose values on the cluster are bit-equal, so every vertex of
    # the cluster takes the same one and the bound stays at rounding.  A
    # shift of f leaves the cluster's value within a few ulps of 0; its
    # intercept, the exact mean of f rounded once, then moves by the value
    # left as one vertex's f moves by |C| times it
    _no_box_oracle(monkeypatch)
    g = cartesian_graph(12, 12)
    catalog = PhiCatalog((power_phi(1.0), piecewise_linear_phi([0.0], [-1.0, 2.0])))
    for seed in (1, 2):
        f = random_vertex_field(np.random.default_rng(seed), g.vertex_count)
        sol = rof_solve(g, f, 0.5)
        values, counts = np.unique(sol.u, return_counts=True)
        cluster = sol.u == values[np.argmax(counts)]
        f = f - sol.u[cluster][0]
        v = np.flatnonzero(cluster)[np.argmin(np.abs(f[cluster]))]
        for _ in range(3):
            sol = rof_solve(g, f, 0.5)
            f[v] -= cluster.sum() * sol.u[v]
        assert cluster.sum() > 50 and not sol.u[cluster].any()
        for r in verify_universal_minimality(g, f, 0.5, catalog):
            assert r.ok and r.relative_gap <= 1e-10, (r.phi, r.relative_gap)


def test_box_bound_is_not_vacuous():
    # at a feasible point off the solution the x^2 bound is at least the
    # true excess over the solution, the minimum, and above solve_tol; at a
    # u bumped off f + div(dual_flow) the bound of every phi covers the
    # excess, which the linearization gap alone does not
    for g, f, alpha in _soundness_cases():
        sol = rof_solve(g, f, alpha)
        p = rof_solve(g, f, 2.0 * alpha).dual_flow / 2.0
        u = f + divergence(g, p)
        phi = power_phi(2.0)
        bound, _ = minimality._gap(g, f, RofSolution(alpha, u, p, sol.report), phi, None)
        excess = phi.total(u) - phi.total(sol.u)
        assert bound >= excess > 0.0
        assert bound > minimality.DEFAULT_CHECK_TOL.solve_tol
        bumped = sol.u.copy()
        bumped[0] += 1e-3
        off = RofSolution(alpha, bumped, sol.dual_flow, sol.report)
        for phi in PhiCatalog.standard(float(f.min()), float(f.max())):
            bound, _ = minimality._gap(g, f, off, phi, None)
            assert bound >= phi.total(bumped) - phi.total(sol.u), phi.name


def test_phi_bound_reads_the_dual_flow(monkeypatch):
    # the closed-form bound reads rof_solve's dual flow: with its sign
    # flipped on one edge where u jumps, the answer is not certified, and
    # some catalog phi must fail
    from graphtv import edge_differences
    solve = minimality.rof_solve

    def flipped(g, f, alpha):
        sol = solve(g, f, alpha)
        dual = sol.dual_flow.copy()
        dual[np.flatnonzero(edge_differences(g, sol.u))[0]] *= -1.0
        return RofSolution(sol.alpha, sol.u, dual, sol.report)

    g, f = nonequivalence_instance()
    grid = cartesian_graph(6, 6)
    cases = [(g, f, alpha) for alpha in (0.2, 1.0, 3.0)]
    cases.append((grid, random_vertex_field(np.random.default_rng(SEED + 12), 36), 0.5))
    for g, f, alpha in cases:
        assert all(r.ok for r in verify_universal_minimality(g, f, alpha))
    monkeypatch.setattr(minimality, "rof_solve", flipped)
    for g, f, alpha in cases:
        assert not all(r.ok for r in verify_universal_minimality(g, f, alpha))


def test_an_unconverged_coupled_oracle_raises(monkeypatch):
    # a coupled phi oracle that stops short of its bound leaves no margin
    # to report: the check raises ConvergenceError naming the datum, with
    # the oracle's report
    from graphtv import ConvergenceError, SolveReport
    stalled = SolveReport(7, 1.0, 1.0, False, method="apgd-smooth")

    def stalling(g, base, spec, phi, tol=None, *, warm_start=None):
        return base, stalled

    monkeypatch.setattr(minimality, "min_separable_convex_over_polytope", stalling)
    g = cartesian_graph(3, 3)
    f = nonequivalence_instance()[1]
    with pytest.raises(ConvergenceError, match="phi oracle did not converge for datum 0") as exc:
        demonstrate_isotropic_failure(g, [f], 1.0)
    assert exc.value.report is stalled
