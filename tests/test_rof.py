import math
from fractions import Fraction

import numpy as np
import pytest

from graphtv import (ConvergenceError, PathError, PiecewiseAffinePath,
                     ValidationError, isotropic_rof_solve, rof_path, rof_solve,
                     sign_pattern, subdifferential_membership, total_variation)
from graphtv.graph import PatternKernel
from graphtv.instances import (cartesian_graph, nonequivalence_instance,
                               nonequivalence_variant_datum, path_graph,
                               random_connected_graph, random_vertex_field,
                               regularization_dual_reference,
                               regularization_reference, two_vertex_graph,
                               variant_reference)

SEED = 20240819
VALUE_TOL = 1e-6
BREAK_TOL = 1e-4


def test_closed_form_panels():
    g, f = nonequivalence_instance()
    for alpha in (0.2, 1.0, 3.0):
        sol = rof_solve(g, f, alpha)
        assert sol.report.converged
        assert np.abs(sol.u - regularization_reference(alpha)).max() < VALUE_TOL
        assert np.abs(sol.dual_flow
                      - regularization_dual_reference(alpha)).max() < VALUE_TOL


def test_solution_consistency():
    # u = f + div(dual_flow) and dual flow feasible
    g, f = nonequivalence_instance()
    sol = rof_solve(g, f, 1.0)
    from graphtv import divergence
    assert np.abs(sol.u - (f + divergence(g, sol.dual_flow))).max() < 1e-12
    assert np.abs(sol.dual_flow).max() <= 1.0 + 1e-12


def test_128x128_grid_solves():
    # 16k vertices and 32k edges; the graph keeps O(n + m) memory
    rng = np.random.default_rng(SEED + 7)
    g = cartesian_graph(128, 128)
    f = random_vertex_field(rng, g.vertex_count)
    sol = rof_solve(g, f, 0.1)
    assert sol.report.converged
    assert abs(sol.u.mean() - f.mean()) < 1e-9
    assert np.abs(sol.dual_flow).max() <= 0.1 + 1e-12


def test_alpha_zero_returns_datum():
    g, f = nonequivalence_instance()
    sol = rof_solve(g, f, 0.0)
    assert np.abs(sol.u - f).max() == 0.0


def test_mean_preservation():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        g = random_connected_graph(rng)
        f = random_vertex_field(rng, g.vertex_count)
        sol = rof_solve(g, f, float(rng.uniform(0.05, 1.0)))
        assert abs(sol.u.mean() - f.mean()) < 1e-9 * (1 + abs(f.mean()))


def test_optimality_membership():
    # (f - u)/alpha must lie in the subdifferential at u
    rng = np.random.default_rng(SEED + 1)
    g = random_connected_graph(rng)
    f = random_vertex_field(rng, g.vertex_count)
    alpha = 0.3
    sol = rof_solve(g, f, alpha)
    res = subdifferential_membership(g, sol.u, (f - sol.u) / alpha)
    assert res.member


def test_objective_against_random_competitors():
    rng = np.random.default_rng(SEED + 2)
    g = random_connected_graph(rng)
    f = random_vertex_field(rng, g.vertex_count)
    alpha = 0.21
    sol = rof_solve(g, f, alpha)

    def objective(u):
        return 0.5 * float(np.sum((f - u) ** 2)) + alpha * total_variation(g, u)

    base = objective(sol.u)
    for _ in range(100):
        w = sol.u + rng.normal(0, 0.1, g.vertex_count)
        assert objective(w) >= base - 1e-7


def test_path_breakpoints_figure_instance():
    g, f = nonequivalence_instance()
    path = rof_path(g, f)
    bps = path.breakpoints
    for target in (0.4, 2.0):
        assert np.abs(bps - target).min() < BREAK_TOL
    # terminal state is the mean field
    assert np.abs(path.terminal_value - f.mean()).max() < 1e-6


def test_path_breakpoints_exact_figure_instance():
    # the breakpoints are rational and come out of the closed-form
    # intersections exact to rounding
    g, f = nonequivalence_instance()
    exact = [0.0, 0.4, 2.0, 20.0, 82 / 3, 100 / 3, 49.0, 1255 / 18]
    bps = rof_path(g, f).breakpoints
    assert bps.size == len(exact)
    assert np.abs(bps - exact).max() < 1e-12


def test_path_segments_match_closed_form():
    # on each segment the path is cluster_mean(f) + alpha * s for the sign
    # pattern there, and both agree with a pointwise solve at the midpoint
    rng = np.random.default_rng(SEED + 11)
    for _ in range(6):
        g = random_connected_graph(rng)
        f = random_vertex_field(rng, g.vertex_count)
        scale = float(f.max() - f.min())
        path = rof_path(g, f)
        b = path.breakpoints
        for lo, hi in zip(b[:-1], b[1:]):
            mid = 0.5 * (lo + hi)
            direct = rof_solve(g, f, mid).u
            pat = sign_pattern(g, direct, scale=scale)
            k = PatternKernel(g, pat, f)
            assert np.abs(k.intercept + mid * k.slope - direct).max() < 1e-6 * scale
            assert np.abs(path.value_at(mid) - direct).max() < 1e-6 * scale


def test_path_lines_meeting_past_a_hidden_event():
    # between the patterns at two bracket ends lie two fusions and a split,
    # yet the ends' lines meet exactly where the lower line has overshot a
    # fusion; that intersection must not be taken as the breakpoint
    g = cartesian_graph(4, 4)
    f = np.array([1.438, 0.612, 0.927, 0.544, 0.335, 0.705, 0.74, 0.917,
                  0.373, 0.741, 1.794, 0.345, 0.071, 0.055, 1.209, 0.705])
    path = rof_path(g, f)
    for alpha in (0.12, 0.125, 0.13, 0.14):
        assert np.abs(path.value_at(alpha) - rof_solve(g, f, alpha).u).max() < 1e-6


def test_path_keeps_close_exact_events():
    # the end pairs of a 4-vertex path fuse at alpha = 1e-3 and 1e-3 + 5e-6;
    # both events are exact and both stay
    g = path_graph(4)
    f = np.array([0.0, 1e-3, 1e-2, 1.1e-2 + 5e-6])
    bps = rof_path(g, f).breakpoints
    assert np.abs(bps[1:3] - [1e-3, 1e-3 + 5e-6]).max() < 1e-12


def test_path_keeps_an_exact_event_next_to_a_close_one():
    # the pairs fuse at alpha = 1 and 1.00001; both events are closed form,
    # so the slope change between them is exact and must not be merged away
    from graphtv import taut_string_1d
    g = path_graph(4)
    f = np.array([0.0, 1.0, 10.0, 11.00001])
    path = rof_path(g, f)
    for alpha in np.linspace(0.99, 1.01, 41):
        assert np.abs(path.value_at(alpha) - taut_string_1d(f, alpha)).max() < 1e-9


def test_path_random_10x10_grid_completes():
    rng = np.random.default_rng(SEED + 12)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(rng, g.vertex_count)
    path = rof_path(g, f)
    assert path.segment_count > 10
    assert np.abs(path.terminal_value - f.mean()).max() < 1e-6
    alpha = 0.37 * float(path.breakpoints[-1])
    assert np.abs(path.value_at(alpha) - rof_solve(g, f, alpha).u).max() < 1e-6


def _split_count(g, path):
    # edges flat on one segment and not on the next: on a cluster the
    # path's values and slopes are equal exactly
    flat = [(lv[g.tails] == lv[g.heads]) & (sl[g.tails] == sl[g.heads])
            for lv, sl in zip(path.left_values, path.slopes)]
    return sum(int((a & ~b).sum()) for a, b in zip(flat[:-1], flat[1:]))


@pytest.mark.parametrize("n", [200, 500])
def test_path_graph_matches_taut_string(n):
    from graphtv import taut_string_1d
    rng = np.random.default_rng(SEED + n)
    g = path_graph(n)
    f = random_vertex_field(rng, n)
    scale = float(f.max() - f.min())
    path = rof_path(g, f)
    for alpha in np.linspace(0.0, 1.1 * path.breakpoints[-1], 6)[1:]:
        err = np.abs(path.value_at(alpha) - taut_string_1d(f, alpha)).max()
        assert err <= 1e-10 * scale


def test_path_tied_data_matches_tight_solves():
    # integer data ties many values, so clusters form at alpha = 0, events
    # coincide and clusters split; the path must still match rof_solve
    rng = np.random.default_rng(SEED + 13)
    splits = 0
    for k in range(40):
        g = cartesian_graph(6, 6) if k % 2 else random_connected_graph(rng)
        f = rng.integers(0, 4, g.vertex_count).astype(float)
        if f.max() == f.min():
            continue
        scale = float(f.max() - f.min())
        path = rof_path(g, f)
        splits += _split_count(g, path)
        b = path.breakpoints
        for alpha in rng.uniform(0.0, 1.1 * b[-1], 2):
            direct = rof_solve(g, f, float(alpha)).u
            assert np.abs(path.value_at(float(alpha)) - direct).max() < 1e-8 * scale
    assert splits >= 1


def test_path_runs_no_iterative_solve(monkeypatch):
    import graphtv.engine
    import graphtv.rof

    def refuse(*args, **kwargs):
        raise AssertionError("iterative solve")

    for module in (graphtv.rof, graphtv.engine):
        monkeypatch.setattr(module, "project_onto_div_box", refuse)
    monkeypatch.setattr(graphtv.rof, "rof_solve", refuse)
    rng = np.random.default_rng(SEED + 14)
    g3, f3 = nonequivalence_instance()
    gr = random_connected_graph(rng)
    for g, f in ((g3, f3), (gr, random_vertex_field(rng, gr.vertex_count)),
                 (path_graph(200), random_vertex_field(rng, 200))):
        path = rof_path(g, f)
        assert np.abs(path.terminal_value - f.mean()).max() < 1e-9


def test_fusion_certificates_run_at_the_exact_meeting(monkeypatch):
    # a cluster's certificate runs where it forms, at the exact t where the
    # lines of the fusing edge's clusters meet, from their exact sums of f
    # and of the pinned flux, as at a split.  Every cluster has a flow
    # there, so no certificate's cluster test fails; at 1 / Fraction of the
    # rounded breakpoint a fused cluster can miss by a hair.  The tests at
    # the low ends of the clusters' spans are the split search's own
    prove, route = PatternKernel.prove, PatternKernel._route
    params, verdicts, inside = [], [], []

    def certified(self, t, t_end):
        params.append(t)
        inside.append(True)
        try:
            return prove(self, t, t_end)
        finally:
            inside.pop()

    def routed(self, tests):
        found = route(self, tests)
        if inside:
            verdicts.extend(ok for _, ok, _, _ in found)
        return found

    monkeypatch.setattr(PatternKernel, "prove", certified)
    monkeypatch.setattr(PatternKernel, "_route", routed)
    rng = np.random.default_rng(SEED + 19)
    graphs = [cartesian_graph(8, 8), cartesian_graph(6, 9), cartesian_graph(10, 10),
              cartesian_graph(12, 12), cartesian_graph(9, 14)]
    graphs += [random_connected_graph(rng, 20) for _ in range(4)]
    for g in graphs:
        params.clear()
        breakpoints = set(rof_path(g, random_vertex_field(rng, g.vertex_count)).breakpoints)
        # each certificate runs at an exact t whose 1 / t, rounded once, is
        # a breakpoint; t = 0 only at alpha = 0
        assert params and all(isinstance(t, Fraction) for t in params)
        assert all(t.denominator / t.numerator in breakpoints if t else 0.0 in breakpoints
                   for t in params)
    assert len(verdicts) > 400
    assert all(verdicts)


def test_cluster_tests_change_no_path(monkeypatch):
    # a cluster's stored tests hand back exact verdicts, cuts and split
    # parameters, so the path with clusters that store none has the same
    # breakpoints, values and slopes, bit for bit.  Random and tied draws;
    # the ties split clusters at once
    import graphtv.graph
    from test_flow import _Forgetful, _storing
    calls = []
    route = graphtv.graph.route_demands

    def counted(parts, *args):
        calls.append(len(parts))
        return route(parts, *args)

    monkeypatch.setattr(graphtv.graph, "route_demands", counted)
    rng = np.random.default_rng(SEED + 16)
    cases = []
    for g in (cartesian_graph(10, 10), random_connected_graph(rng), path_graph(200)):
        cases.append((g, random_vertex_field(rng, g.vertex_count)))
        cases.append((g, rng.integers(0, 4, g.vertex_count).astype(float)))
    paths = [rof_path(g, f) for g, f in cases]
    stored = sum(calls)
    _storing(monkeypatch, _Forgetful)
    for (g, f), path in zip(cases, paths):
        bare = rof_path(g, f)
        for name in ("breakpoints", "left_values", "slopes", "terminal_value"):
            assert getattr(bare, name).tobytes() == getattr(path, name).tobytes()
    assert 0 < stored < sum(calls) - stored


def test_witness_between_passing_tests_runs_no_max_flow(monkeypatch):
    # a cluster's flows at the two ends of its span prove every t between
    # them, so its certificate runs once, where it forms, and at most one
    # max-flow for its life: the low end's test is the split search's.  The
    # seed-0 12x12 grid path runs at most 79 certificate max-flows (55 here;
    # 125 with every living cluster certified again at every segment, as a
    # witness over the whole graph at each segment was), with the same
    # breakpoints, values and slopes
    g = cartesian_graph(12, 12)
    f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
    prove = PatternKernel.prove
    counts = []

    def counted(self, *args):
        before = self.maxflows
        cause = prove(self, *args)
        counts[-1] += self.maxflows - before
        return cause

    def again(self, *args):
        self._fresh.update(self._of)
        return counted(self, *args)

    paths = []
    for certify in (counted, again):
        monkeypatch.setattr(PatternKernel, "prove", certify)
        counts.append(0)
        paths.append(rof_path(g, f))
    assert counts[0] <= 79 < counts[1]
    for name in ("breakpoints", "left_values", "slopes", "terminal_value"):
        assert getattr(paths[0], name).tobytes() == getattr(paths[1], name).tobytes()


def test_path_certificate_rejects_a_wrong_flow(monkeypatch):
    # a max-flow that reports every cluster feasible with saturated edges
    # hides the splits and gives witnesses whose divergence is wrong
    import graphtv.graph

    def saturate(node_count, arcs, source, sink):
        return 0, [arc[2] for arc in arcs], [False] * node_count

    rng = np.random.default_rng(SEED + 15)
    g = cartesian_graph(6, 6)
    f = random_vertex_field(rng, g.vertex_count)
    monkeypatch.setattr(graphtv.graph, "max_flow", saturate)
    with pytest.raises(PathError, match="witness"):
        rof_path(g, f)


def test_path_certificate_rejects_a_span_that_ends_inside_a_segment(monkeypatch):
    # a split search that drops the splits it schedules runs segments past
    # the t where a cluster's certificate ends; each segment must lie in
    # the span of every cluster alive on it
    splits = PatternKernel.splits
    monkeypatch.setattr(PatternKernel, "splits", lambda self, t_now: [
        (t, pins) for t, pins in splits(self, t_now) if t is None])
    g = cartesian_graph(8, 8)
    f = random_vertex_field(np.random.default_rng(SEED + 20), g.vertex_count)
    with pytest.raises(PathError, match="a cluster's certificate ends inside the segment"):
        rof_path(g, f)


def test_path_certificate_rejects_a_missed_fusion(monkeypatch):
    # a fusion rule that reports the last closing edge, not the first, runs
    # segments past a crossing; the pinned edge that crosses changes sign
    import graphtv.rof
    from graphtv.graph import next_fusion

    def last_closing(g, pattern, u, d):
        x, closing, gaps, rates = next_fusion(g, pattern, u, d)
        idx = np.flatnonzero(pattern.labels * (d[g.tails] - d[g.heads]) < 0)
        if idx.size:
            cross = (u[g.heads] - u[g.tails])[idx] / (d[g.tails] - d[g.heads])[idx]
            closing[:] = False
            closing[idx[np.argmax(cross)]] = True
        return x, closing, gaps, rates

    rng = np.random.default_rng(SEED + 16)
    f = random_vertex_field(rng, 20)
    monkeypatch.setattr(graphtv.rof, "next_fusion", last_closing)
    with pytest.raises(PathError, match="changes sign"):
        rof_path(path_graph(20), f)


def test_path_matches_pointwise_solves():
    g, f = nonequivalence_instance()
    path = rof_path(g, f)
    rng = np.random.default_rng(SEED + 3)
    alphas = rng.uniform(0.05, float(path.breakpoints[-1]) * 1.05, size=12)
    for alpha in alphas:
        # skip queries within localization slack of a kink
        if np.abs(path.breakpoints - alpha).min() < 1e-3:
            continue
        direct = rof_solve(g, f, float(alpha)).u
        # breakpoints are localized to 1e-4, which bounds the interpolation
        # drift between the path and a fresh solve
        assert np.abs(path.value_at(float(alpha)) - direct).max() < 1e-4


def test_trajectories_scale_down_to_subnormal_breakpoints():
    # data scaled by 2^-k give both trajectories' breakpoints times 2^-k,
    # bit for bit, at every k that keeps them normal floats.  Below, where
    # a breakpoint alpha is under 2^-1024, t = 1 / alpha overflows a float:
    # the path raises PathError naming that cause, and the flow, which
    # reads no t, runs on
    from graphtv import flow_solve
    tiny = np.finfo(float).tiny
    for g in (path_graph(6), path_graph(50), cartesian_graph(4, 4)):
        f = random_vertex_field(np.random.default_rng(1), g.vertex_count)
        for trajectory in (rof_path, lambda g, f: flow_solve(g, f).path):
            ref = trajectory(g, f).breakpoints
            for k in [*range(0, 1000, 100), *range(1000, 1075)]:
                scaled = ref * 2.0 ** -k
                if scaled[1:].min() < tiny:
                    break
                assert trajectory(g, f * 2.0 ** -k).breakpoints.tobytes() == scaled.tobytes()
            assert k > 1000
    for n, scale in ((6, 1e-310), (50, 2.0 ** -1018)):
        g = path_graph(n)
        f = random_vertex_field(np.random.default_rng(1), n) * scale
        with pytest.raises(PathError, match=r"t = 1 / alpha overflows a float"):
            rof_path(g, f)
        flow_solve(g, f)


def test_subnormal_data_keep_their_signs():
    # the sign check's slack is 2^16 ulps of the line's size, so it stays
    # above zero on subnormal data, where 1e-11 of the size underflowed to
    # zero and both trajectories raised "a pinned edge changes sign" at
    # segment 0.  The flow, which reads no t, follows the taut string to an
    # ulp; the path stops where t = 1 / alpha overflows a float
    from graphtv import flow_solve, taut_string_1d
    for f in (np.array([5e-324, 0.0, 0.0, 0.0, 1e-320]), np.array([3e-320, 0.0, 1e-320])):
        g = path_graph(f.size)
        flow = flow_solve(g, f)
        b = flow.breakpoints
        assert b.size > 1
        for t in [*b, *(0.5 * (b[1:] + b[:-1])), 2.0 * b[-1]]:
            assert np.abs(flow.value_at(t) - taut_string_1d(f, t)).max() <= 5e-324
        with pytest.raises(PathError, match=r"^segment 1: t = 1 / alpha overflows a float "
                                            r"at alpha = .* \(%d vertices, %d edges\)$"
                                            % (g.vertex_count, g.edge_count)):
            rof_path(g, f)


def test_event_loop_failures_name_their_segment(monkeypatch):
    # the event loop's last two causes: more events than its cap, and a
    # segment with no split and no closing edge ahead.  Each PathError
    # names its segment, the parameter and the instance's size
    import graphtv.rof
    from graphtv import flow_solve
    g, f = nonequivalence_instance()
    site = r" \(9 vertices, 12 edges\)$"
    with monkeypatch.context() as m:
        m.setattr(graphtv.rof, "event_cap", lambda g: 1)
        with pytest.raises(PathError, match=r"^segment 1: event cap 1 exceeded at alpha = 0.4"
                                            + site):
            rof_path(g, f)
        with pytest.raises(PathError, match=r"^segment 1: event cap 1 exceeded at t = 0.4"
                                            + site):
            flow_solve(g, f)
    fusion = graphtv.rof.next_fusion

    def no_fusion(*args):
        x, closing, gaps, rates = fusion(*args)
        return x, np.zeros_like(closing), gaps, rates

    monkeypatch.setattr(graphtv.rof, "next_fusion", no_fusion)
    monkeypatch.setattr(PatternKernel, "splits", lambda self, t: [])
    with pytest.raises(PathError, match=r"^segment 0: no event ahead at alpha = 0.0" + site):
        rof_path(g, f)
    with pytest.raises(PathError, match=r"^segment 0: no event ahead at t = 0.0" + site):
        flow_solve(g, f)


def test_a_constant_datum_ends_at_its_mean():
    # a datum with one value is all flat from the start: the event loop
    # yields its terminal segment at once, so both trajectories have the
    # one breakpoint 0 and end at the exact mean, which is rof_solve's
    # answer at every alpha, 0.0 for -0.0 data
    from graphtv import flow_solve
    for g, f in ((path_graph(4), np.full(4, 1.5)), (cartesian_graph(3, 3), np.full(9, -0.0)),
                 (two_vertex_graph(), np.array([-0.0, 0.0]))):
        u = rof_solve(g, f, 1.0).u
        flow = flow_solve(g, f)
        for path in (rof_path(g, f), flow.path):
            assert path.breakpoints.tolist() == [0.0]
            assert path.segment_count == 0 and path.slopes.shape == (0, g.vertex_count)
            assert path.terminal_value.tobytes() == u.tobytes()
            assert path.value_at(0.0).tobytes() == u.tobytes()
        assert flow.antiderivative.tobytes() == np.zeros((1, g.edge_count)).tobytes()
        assert flow.flows.shape == (0, g.edge_count)


def test_rof_solve_names_an_alpha_whose_t_overflows():
    # the answer at alpha is certified at t = 1 / alpha, which overflows a
    # float below alpha = 2^-1024: ConvergenceError names that cause, n, m
    # and alpha (an OverflowError escaped from the decomposition before)
    g, f = nonequivalence_instance()
    for alpha in (1e-310, 2.0 ** -1024):
        with pytest.raises(ConvergenceError, match=r"^t = 1 / alpha overflows a float at "
                                                   r"alpha = .* \(9 vertices, 12 edges\)$"):
            rof_solve(g, f, alpha)
    assert np.abs(rof_solve(g, f, 2.0 ** -1023).u - f).max() <= 2.0 ** -1021


def test_path_two_vertex():
    g = two_vertex_graph()
    f = np.array([0.0, 10.0])
    path = rof_path(g, f)
    # single kink where both values meet the mean: alpha = 5
    assert path.segment_count == 1
    assert abs(path.breakpoints[-1] - 5.0) < BREAK_TOL
    assert np.abs(path.value_at(2.0) - np.array([2.0, 8.0])).max() < 1e-6


def test_variant_datum_path_has_no_early_kink():
    g, _ = nonequivalence_instance()
    fv = nonequivalence_variant_datum()
    path = rof_path(g, fv)
    inside = (path.breakpoints > 0) & (path.breakpoints <= 3.0)
    assert not inside.any()
    for alpha in (0.2, 1.0, 2.0, 3.0):
        assert np.abs(path.value_at(alpha) - variant_reference(alpha)).max() < 1e-5


def test_norm_sandwich():
    rng = np.random.default_rng(SEED + 4)
    g, f = nonequivalence_instance()
    lo = np.linalg.norm(np.full(g.vertex_count, f.mean()))
    hi = np.linalg.norm(f)
    for alpha in (0.2, 1.0, 3.0, 10.0):
        nu = np.linalg.norm(rof_solve(g, f, alpha).u)
        assert lo - 1e-9 <= nu <= hi + 1e-9


def test_isotropic_differs_from_box():
    g, f = nonequivalence_instance()
    u_box = rof_solve(g, f, 1.0).u
    sol = isotropic_rof_solve(g, f, 1.0)
    assert sol.report.converged
    assert np.abs(sol.u - u_box).max() > 1e-3
    # coupled constraint is symmetric, so the mean is still preserved
    assert abs(sol.u.mean() - f.mean()) < 1e-9 * (1 + abs(f.mean()))


def test_isotropic_requires_grid():
    rng = np.random.default_rng(SEED + 5)
    g = random_connected_graph(rng)
    if g.cartesian is None:
        with pytest.raises(ValidationError):
            isotropic_rof_solve(g, random_vertex_field(rng, g.vertex_count), 1.0)


def test_piecewise_affine_path_validation():
    from graphtv.rof import _Lines
    with pytest.raises(ValidationError):
        PiecewiseAffinePath._compact(np.array([0.5, 1.0]), np.zeros(2), _Lines(2))
    with pytest.raises(ValidationError):
        PiecewiseAffinePath._compact(np.array([0.0, 1.0, 1.0]), np.zeros(2), _Lines(2))


def test_unconverged_isotropic_solve_raises(monkeypatch):
    # a coupled projection that stops short of its tolerance is no answer:
    # ConvergenceError names alpha, n and m and carries the report
    import graphtv.rof
    from graphtv import SolveReport
    stalled = SolveReport(1000, 1.0, 1.0, False, method="apgd-projection")

    def stalling(g, target, spec, tol=None):
        return np.zeros(g.edge_count), stalled

    monkeypatch.setattr(graphtv.rof, "project_onto_div_box", stalling)
    g = cartesian_graph(3, 3)
    f = nonequivalence_instance()[1]
    with pytest.raises(ConvergenceError) as exc:
        isotropic_rof_solve(g, f, 0.5)
    assert str(exc.value) == ("coupled projection did not converge "
                              "at alpha = 0.5 (9 vertices, 12 edges)")
    assert exc.value.report is stalled


def test_invalid_alpha_rejected():
    g, f = nonequivalence_instance()
    with pytest.raises(ValidationError):
        rof_solve(g, f, -1.0)
    with pytest.raises(ValidationError):
        rof_solve(g, f, float("nan"))


def test_method_says_whether_a_max_flow_ran(monkeypatch):
    # report.method is kkt-maxflow exactly when graph.max_flow ran: for
    # rof_solve on the identify route, with and without the repair of the
    # iterate's flow, and on the exact route, and for the membership test
    import graphtv.graph
    import graphtv.rof
    calls = []
    max_flow = graphtv.graph.max_flow

    def counted(*args):
        calls.append(1)
        return max_flow(*args)

    certify = graphtv.rof._certify

    def refuse_identified(kernel, alpha, start=None, early=False):
        # the identified pattern fails, so the exact route runs
        if start is not None:
            return None, "refused"
        return certify(kernel, alpha)

    monkeypatch.setattr(graphtv.graph, "max_flow", counted)
    rng = np.random.default_rng(SEED + 19)
    graphs = [cartesian_graph(6, 6), cartesian_graph(9, 9), path_graph(60)]
    graphs += [random_connected_graph(rng, 20) for _ in range(4)]
    seen = set()
    for route in ("identify", "unrepaired", "exact"):
        if route == "unrepaired":
            monkeypatch.setattr(PatternKernel, "_repair", lambda self, *args: None)
        if route == "exact":
            monkeypatch.setattr(graphtv.rof, "_certify", refuse_identified)
        for g in graphs:
            f = random_vertex_field(rng, g.vertex_count)
            for alpha in (0.1, 0.5, 2.0):
                calls.clear()
                sol = rof_solve(g, f, alpha)
                assert (sol.report.method == "kkt-maxflow") == bool(calls)
                calls.clear()
                res = subdifferential_membership(g, sol.u, (f - sol.u) / alpha)
                assert res.member
                assert (res.report.method == "kkt-maxflow") == bool(calls)
                seen.update([("exact" if route == "exact" else "identify",
                              sol.report.method), ("member", res.report.method)])
    assert seen == {(case, method) for case in ("identify", "exact", "member")
                    for method in ("kkt-forest", "kkt-maxflow")}


def test_rof_solve_takes_no_tolerance():
    # every answer is certified, so neither rof_solve nor the implicit
    # Euler flow built on it has a tolerance to take; rof_solve runs one
    # projection from zero, so it has no warm start or iteration cap
    # either, and the taut string is exact.  The flow reads the ties of its
    # datum exactly, as the path does.  The isotropic solve takes a
    # tolerance, but no warm start or iteration cap
    from graphtv import Tolerances, flow_backward_euler, flow_solve, taut_string_1d
    g, f = nonequivalence_instance()
    grid = cartesian_graph(3, 3)
    for call in (lambda: rof_solve(g, f, 1.0, Tolerances()),
                 lambda: rof_solve(g, f, 1.0, tol=Tolerances()),
                 lambda: rof_solve(g, f, 1.0, warm_start=np.zeros(g.edge_count)),
                 lambda: rof_solve(g, f, 1.0, max_iter=20),
                 lambda: isotropic_rof_solve(grid, f, 1.0, warm_start=np.zeros(grid.edge_count)),
                 lambda: isotropic_rof_solve(grid, f, 1.0, max_iter=20),
                 lambda: flow_backward_euler(g, f, 1.0, 0.5, Tolerances()),
                 lambda: flow_backward_euler(g, f, 1.0, 0.5, tol=Tolerances()),
                 lambda: flow_solve(g, f, Tolerances()),
                 lambda: flow_solve(g, f, tol=Tolerances()),
                 lambda: taut_string_1d(np.array([0.0, 1.0]), 1.0, Tolerances()),
                 lambda: taut_string_1d(np.array([0.0, 1.0]), 1.0, tol=Tolerances())):
        with pytest.raises(TypeError):
            call()


# -- identify, then certify ------------------------------------------------

def _draw(g, k):
    # draw k of a seed of its own; the stalling cases below are draws that
    # raised ConvergenceError when rof_solve returned the projection's
    # iterate (the 16x16 one at alpha 0.5)
    return random_vertex_field(np.random.default_rng(SEED + 100 + k), g.vertex_count)


def _gap_error(g, f, sol):
    # sqrt(2 * duality gap) over the data range; it bounds ||u - u*||_2
    from graphtv import divergence, edge_differences
    p = sol.dual_flow
    assert np.abs(p).max() <= sol.alpha
    d = edge_differences(g, sol.u)
    r = sol.u - f - divergence(g, p)
    gap = float(np.sum(sol.alpha * np.abs(d) - p * d)) + 0.5 * float(r @ r)
    return math.sqrt(2.0 * max(gap, 0.0)) / float(f.max() - f.min())


def test_closed_form_panels_exact():
    g, f = nonequivalence_instance()
    for alpha in (0.2, 1.0, 3.0):
        sol = rof_solve(g, f, alpha)
        assert sol.report.method == "kkt-forest"
        assert np.abs(sol.u - regularization_reference(alpha)).max() < 1e-12
        assert np.abs(sol.dual_flow
                      - regularization_dual_reference(alpha)).max() < 1e-12
        assert sol.report.optimality < 1e-12


def test_stalling_box_solves_are_certified():
    from graphtv import taut_string_1d
    g = cartesian_graph(16, 16)
    f = _draw(g, 3)
    path = rof_path(g, f)
    for alpha in (0.5, 2.0):
        sol = rof_solve(g, f, alpha)
        assert sol.report.method.startswith("kkt-")
        assert np.abs(sol.u - path.value_at(alpha)).max() <= 1e-12 * np.ptp(f)
    for side, alpha, k in ((24, 0.5, 1), (24, 2.0, 0), (32, 0.5, 0), (32, 2.0, 2)):
        g = cartesian_graph(side, side)
        f = _draw(g, k)
        sol = rof_solve(g, f, alpha)
        # the iterate's flow, repaired on each cluster's spanning tree,
        # certifies these without a max-flow
        assert sol.report.method == "kkt-forest"
        assert sol.report.optimality <= 1e-12 * np.ptp(f)
        assert _gap_error(g, f, sol) <= 1e-12
    g = path_graph(1000)
    f = _draw(g, 0)
    sol = rof_solve(g, f, 2.0)
    assert sol.report.method.startswith("kkt-")
    assert np.abs(sol.u - taut_string_1d(f, 2.0)).max() <= 1e-12 * np.ptp(f)


@pytest.mark.parametrize("fault", ["circulation", "divergence"])
def test_faulty_witness_is_never_certified(monkeypatch, fault):
    # a witness pushed out of the box by a circulation around a grid square,
    # or off its divergence by 1e-7 on one edge, must fail the certificate;
    # rof_solve then raises, naming the cause and the instance.  Both are
    # added to each cluster's flow, from which the certificate and the dual
    # are built; the witness on a pinned edge is zero by construction, so
    # the nudge goes on the cluster's first edge
    g = cartesian_graph(6, 6)
    f = _draw(g, 7)
    idx = {ij: v for v, ij in enumerate(g.grid_coords)}
    a, b, c, d = idx[(3, 3)], idx[(4, 3)], idx[(4, 4)], idx[(3, 4)]
    bump, nudge = np.zeros(g.edge_count), 0.0
    if fault == "circulation":
        for tail, head, x in ((c, b, 2.0), (b, a, 2.0), (c, d, -2.0), (d, a, -2.0)):
            bump[g.edge_index(tail, head)] = x
    else:
        nudge = 1e-7
    cover = PatternKernel._cover

    def bumped(self, pairs, *args):
        flows = cover(self, pairs, *args)
        if flows is None:
            return None
        out = []
        for (c, _), (edges, h) in zip(pairs, flows):
            on, every = dict(zip(edges, h)), self.edges(c)
            x = [on.get(e, 0.0) + bump[e] for e in every]
            x[0] += nudge
            out.append((every, x))
        return out

    monkeypatch.setattr(PatternKernel, "_cover", bumped)
    for alpha in (0.1, 0.5):
        with pytest.raises(ConvergenceError,
                           match=r"no witness flow .* \(36 vertices, 60 edges\)"):
            rof_solve(g, f, alpha)


def test_slack_trees_spare_the_max_flow(monkeypatch):
    # in these draws a cluster's own spanning tree holds an edge the
    # iterate saturates; whether the divergence error carried on that tree
    # fits or the cluster goes to the max-flow, the answer is certified and
    # is the max-flow route's, bit for bit
    solved = []
    for side, k, alpha in ((16, 1, 0.1), (16, 1, 0.5), (24, 5, 0.5)):
        g = cartesian_graph(side, side)
        f = _draw(g, k)
        sol = rof_solve(g, f, alpha)
        assert sol.report.optimality <= 1e-12 * np.ptp(f)
        assert _gap_error(g, f, sol) <= 1e-12
        solved.append((g, f, sol))
    monkeypatch.setattr(PatternKernel, "_repair", lambda self, *args: None)
    for g, f, sol in solved:
        assert rof_solve(g, f, sol.alpha).u.tobytes() == sol.u.tobytes()


def test_max_flow_certificate(monkeypatch):
    # with the repair of the iterate's flow switched off, the clusters whose
    # forest flow leaves the box go to the max-flow; the closed form is the
    # same, bit for bit
    g = cartesian_graph(16, 16)
    f = _draw(g, 3)
    forest = rof_solve(g, f, 2.0)
    assert forest.report.method == "kkt-forest"
    monkeypatch.setattr(PatternKernel, "_repair", lambda self, *args: None)
    routed = rof_solve(g, f, 2.0)
    assert routed.report.method == "kkt-maxflow"
    assert routed.u.tobytes() == forest.u.tobytes()
    assert np.abs(routed.dual_flow).max() <= 2.0
    assert _gap_error(g, f, routed) <= 1e-12


def test_repair_crosses_a_saturated_edge(monkeypatch):
    # in this draw a vertex of a large cluster has only flat edges that
    # the iterate nearly saturates, and the cluster's spanning tree takes
    # one of them there.  The answer is certified, and the closed form is
    # the max-flow route's, bit for bit
    g = cartesian_graph(24, 24)
    f = _draw(g, 3)
    forest = rof_solve(g, f, 0.5)
    assert _gap_error(g, f, forest) <= 1e-12
    monkeypatch.setattr(PatternKernel, "_repair", lambda self, *args: None)
    routed = rof_solve(g, f, 0.5)
    assert routed.report.method == "kkt-maxflow"
    assert routed.u.tobytes() == forest.u.tobytes()


def test_unconverged_fallback_names_the_instance(monkeypatch):
    # with every witness check failing, neither the identified pattern nor
    # the exact one is certified, and the error names the instance
    monkeypatch.setattr(PatternKernel, "_misses", lambda self, *args: "no witness")
    g = cartesian_graph(8, 8)
    with pytest.raises(ConvergenceError,
                       match=r"alpha = 2\.0 \(64 vertices, 112 edges\)"):
        rof_solve(g, _draw(g, 1), 2.0)


def _spy_settle(monkeypatch):
    # record every kernel PatternKernel.settle settles, in the list returned
    settle = PatternKernel.settle
    settled = []
    monkeypatch.setattr(PatternKernel, "settle",
                        lambda self, t: settled.append(self) or settle(self, t))
    return settled


def _identified_cases():
    # (g, f, alpha): four grids, a path, then six random graphs
    rng = np.random.default_rng(SEED + 23)
    cases = []
    for g, k, alpha in ((cartesian_graph(8, 8), 0, 0.5), (cartesian_graph(12, 12), 1, 2.0),
                        (cartesian_graph(16, 16), 3, 0.5), (cartesian_graph(16, 16), 3, 2.0),
                        (path_graph(1000), 0, 2.0)):
        cases.append((g, _draw(g, k), alpha))
    for _ in range(6):
        g = random_connected_graph(rng)
        cases.append((g, random_vertex_field(rng, g.vertex_count), float(rng.uniform(0.05, 3))))
    return cases


def test_exact_route_gives_the_identified_bytes(monkeypatch):
    # the decomposition from the all-flat pattern finds the pattern the
    # projection identifies, and the same closed form, bit for bit
    cases = _identified_cases()
    identified = [rof_solve(g, f, alpha) for g, f, alpha in cases]
    _refuse_identified(monkeypatch)
    settled = _spy_settle(monkeypatch)
    for (g, f, alpha), ref in zip(cases, identified):
        sol = rof_solve(g, f, alpha)
        assert sol.u.tobytes() == ref.u.tobytes()
        assert np.abs(sol.dual_flow).max() <= alpha
        assert sol.report.optimality <= 1e-12 * np.ptp(f)
    assert len(settled) == len(cases)


def _refuse_identified(monkeypatch):
    # fail the certificate of every pattern read off the projection, so
    # that rof_solve takes the exact route
    import graphtv.rof
    certify = graphtv.rof._certify
    monkeypatch.setattr(graphtv.rof, "_certify", lambda k, alpha, start=None, early=False:
                        (None, "forced") if start is not None else certify(k, alpha))


def test_mean_field_answer_is_certified(monkeypatch):
    # the active set identifies the mean field here; with its certificate
    # forced to fail, the exact route returns the mean field, certified
    g = path_graph(1000)
    f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
    _refuse_identified(monkeypatch)
    settled = _spy_settle(monkeypatch)
    sol = rof_solve(g, f, 20.0)
    assert len(settled) == 1 and settled[0].pattern.all_flat
    assert sol.report.method == "kkt-forest"
    assert np.abs(sol.u - f.mean()).max() <= 1e-12 * np.ptp(f)
    assert sol.report.optimality <= 1e-12 * np.ptp(f)
    assert _gap_error(g, f, sol) <= 1e-12


def test_early_stops_change_nothing_but_cost(monkeypatch):
    # the active set tried while the projection runs gives the bytes of a
    # solve that tries nothing and runs to IDENTIFY_TOL, the grids in fewer
    # iterations; a try that fails has run no max-flow
    import graphtv.graph
    import graphtv.rof
    cases = _identified_cases()
    route, certify = graphtv.graph.route_demands, graphtv.rof._certify
    certifying, routed, failed = [], [], []

    def counted(*args):
        routed.append(certifying[-1] if certifying else None)
        return route(*args)

    def tracked(k, alpha, start=None, early=False):
        # a try (early) fails by its cause, or with none where a cluster
        # would need a max-flow
        certifying.append(early)
        try:
            out = certify(k, alpha, start=start, early=early)
        finally:
            certifying.pop()
        if early and out[0] is None:
            failed.append(out[1] or "not yet")
        return out

    descent = graphtv.rof._accelerated_descent

    def untried(*args, probe=None, **kwargs):
        # the projection with no tries
        return descent(*args, **kwargs)

    monkeypatch.setattr(graphtv.graph, "route_demands", counted)
    monkeypatch.setattr(graphtv.rof, "_certify", tracked)
    # then with the repair of the iterate's flow switched off, so that the
    # tries whose forest flows leave the box need a max-flow
    for repaired in (True, False):
        if not repaired:
            monkeypatch.setattr(PatternKernel, "_repair", lambda self, *args: None)
        early = [rof_solve(g, f, alpha) for g, f, alpha in cases]
        with monkeypatch.context() as m:
            m.setattr(graphtv.rof, "_accelerated_descent", untried)
            full = [rof_solve(g, f, alpha) for g, f, alpha in cases]
        for (g, f, alpha), sol, ref in zip(cases, early, full):
            assert sol.u.tobytes() == ref.u.tobytes()
            assert sol.report.optimality <= 1e-12 * np.ptp(f)
            if repaired and g.grid_coords is not None:
                assert sol.report.iterations < ref.report.iterations
    assert not any(routed)
    assert "not yet" in failed


def test_jump_set_stable_under_tighter_solve_tol(monkeypatch):
    # the identifying projection's stop is the one tolerance rof_solve has
    # left; a 100x tighter stop gives the same jump sets
    import graphtv.rof
    from graphtv import jump_set
    rng = np.random.default_rng(SEED + 17)
    cases = [(cartesian_graph(12, 12), 0.3), (path_graph(300), 1.0)]
    cases += [(random_connected_graph(rng), 0.4) for _ in range(4)]
    for g, alpha in cases:
        f = random_vertex_field(rng, g.vertex_count)
        scale = float(np.ptp(f))
        loose = rof_solve(g, f, alpha)
        with monkeypatch.context() as m:
            m.setattr(graphtv.rof, "IDENTIFY_TOL", 1e-2 * graphtv.rof.IDENTIFY_TOL)
            tight = rof_solve(g, f, alpha)
        assert jump_set(g, loose.u, scale=scale) == jump_set(g, tight.u, scale=scale)


def test_box_solve_ignores_blas_threads():
    # the seed of test_128x128_grid_solves, solved under one and under two
    # BLAS threads in fresh processes: the same output, bit for bit
    import os
    import subprocess
    import sys

    import graphtv
    src = os.path.dirname(os.path.dirname(graphtv.__file__))
    code = ("import hashlib, numpy as np, graphtv as gt\n"
            "from graphtv.instances import cartesian_graph, random_vertex_field\n"
            "rng = np.random.default_rng(%d)\n"
            "g = cartesian_graph(128, 128)\n"
            "f = random_vertex_field(rng, g.vertex_count)\n"
            "s = gt.rof_solve(g, f, 0.1)\n"
            "print(s.report.method, s.report.iterations,\n"
            "      hashlib.sha1(s.u.tobytes() + s.dual_flow.tobytes()).hexdigest())\n"
            % (SEED + 7))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0].startswith("kkt-")
    assert outs[0] == outs[1]


def test_witness_clips_rounding_only(monkeypatch):
    # on a path the forest flow is the only flow, so a certificate needs no
    # max-flow once an overshoot of rounding is clipped; an overshoot of
    # 1e-9 is not rounding and still goes to the max-flow
    import graphtv.graph
    from fractions import Fraction
    calls = []
    route = graphtv.graph.route_demands

    def counted(parts, *args):
        calls.append(len(parts))
        return route(parts, *args)

    monkeypatch.setattr(graphtv.graph, "route_demands", counted)
    rng = np.random.default_rng(SEED + 18)
    g = path_graph(200)
    for _ in range(3):
        f = random_vertex_field(rng, 200)
        path = rof_path(g, f)
    assert calls == []
    b = path.breakpoints
    alpha = 0.5 * float(b[b.size // 2] + b[b.size // 2 + 1])
    t = 1 / Fraction(alpha)
    for over, routed in ((1e-13, False), (1e-9, True)):
        k = PatternKernel(g, sign_pattern(g, path.value_at(alpha), scale=0.0), f)
        h = k.witness(t)
        j = int(np.argmax(np.where(k.pattern.flat, np.abs(h), -1.0)))
        side = math.copysign(1.0, h[j])
        k._pull_flow[j] = (side * (1.0 + over) - k._scaled[j]) / float(t)
        del calls[:]
        h = k.witness(t)
        assert bool(calls) == routed
        assert np.abs(h).max() <= 1.0
        assert routed or h[j] == side
