import numpy as np
import pytest

from graphtv import (ValidationError, divergence, flow_backward_euler,
                     flow_solve, minimal_section, subdifferential_membership)
from graphtv.instances import (SWITCHING_EDGE, flow_dual_switching_reference,
                               flow_reference, nonequivalence_instance,
                               nonequivalence_variant_datum, path_graph,
                               random_connected_graph, random_vertex_field,
                               two_vertex_graph, variant_reference)

SEED = 20240820
VALUE_TOL = 1e-6
MIN_SECTION = np.array([-1.0, -4.0, 1.0, 1.0, -1.0, 2.0, 2.0, 2.0, -2.0])


def test_minimal_section_frozen():
    g, f = nonequivalence_instance()
    assert np.abs(minimal_section(g, f) - MIN_SECTION).max() < 1e-7


def test_minimal_section_is_member():
    rng = np.random.default_rng(SEED)
    for _ in range(8):
        g = random_connected_graph(rng)
        u = random_vertex_field(rng, g.vertex_count)
        d = minimal_section(g, u)
        assert subdifferential_membership(g, u, d).member


def test_minimal_section_has_smallest_norm():
    # any other member of dJ(u) must be at least as long
    from graphtv import divergence, pattern_box, sign_pattern
    rng = np.random.default_rng(SEED + 1)
    for _ in range(8):
        g = random_connected_graph(rng)
        u = random_vertex_field(rng, g.vertex_count)
        d = minimal_section(g, u)
        box = pattern_box(sign_pattern(g, u))
        for _ in range(20):
            other = divergence(g, box.random_point(rng))
            assert np.linalg.norm(other) >= np.linalg.norm(d) - 1e-7


def test_flow_closed_form():
    g, f = nonequivalence_instance()
    traj = flow_solve(g, f)
    for t in (0.2, 1.0, 3.0):
        assert np.abs(traj.value_at(t) - flow_reference(t)).max() < VALUE_TOL
        got = traj.antiderivative_at(t)[SWITCHING_EDGE]
        assert abs(got - flow_dual_switching_reference(t)) < VALUE_TOL
    assert np.abs(traj.breakpoints - 0.4).min() < 1e-4


def test_flow_extinction_time_exact():
    g, f = nonequivalence_instance()
    assert abs(flow_solve(g, f).t_max - 1255 / 18) < 1e-12


def test_calibrated_section_matches_min_norm():
    # where no cluster splits, the cluster mean of the pinned flux is the
    # minimum-norm element the iterative solve finds
    from graphtv import pattern_box, sign_pattern
    from graphtv.engine import min_norm_divergence
    from graphtv.flow import settle
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 8)
    with_clusters = 0
    for _ in range(40):
        g = random_connected_graph(rng)
        # data in {0, 1, 2} leave ties, so clusters of flat edges form
        u = np.round(random_vertex_field(rng, g.vertex_count))
        pat = sign_pattern(g, u)
        kernel, d, h = settle(PatternKernel(g, pat))
        if kernel.pattern != pat:
            continue
        with_clusters += bool((kernel.clusters.sizes > 2).any())
        assert np.array_equal(d, kernel.slope)
        assert pattern_box(pat).contains(h)
        assert np.abs(-divergence(g, h) - kernel.slope).max() < 1e-12
        hmin, rep = min_norm_divergence(g, pattern_box(pat))
        assert rep.converged
        assert np.abs(-divergence(g, hmin) - kernel.slope).max() < 1e-7
    assert with_clusters >= 8


def test_exact_section_matches_min_norm_on_grids():
    # along flows on random grids, segments whose forest flow leaves the
    # box: the max-flow either certifies the cluster mean (a certificate
    # miss) or splits the cluster; both must match the iterative solve
    from graphtv import cartesian_graph, pattern_box, sign_pattern
    from graphtv.engine import min_norm_divergence
    from graphtv.flow import settle
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 10)
    kinds = {"miss": 0, "split": 0}
    for side in (6, 8, 10):
        g = cartesian_graph(side, side)
        f = random_vertex_field(rng, g.vertex_count)
        scale = float(f.max() - f.min())
        states = flow_solve(g, f).path.left_values
        for u in states[::3]:
            pat = sign_pattern(g, u, scale=scale)
            kernel = PatternKernel(g, pat)
            forest = kernel.clusters.forest_flow(-kernel.slope - kernel.pinned)
            if np.abs(forest).max() <= 1.0 + 1e-12:
                continue
            refined, d, h = settle(kernel)
            kinds["miss" if refined.pattern == pat else "split"] += 1
            assert np.abs(h).max() <= 1.0
            assert pattern_box(pat).contains(h)
            assert np.abs(divergence(g, h) + d).max() <= 1e-12 * (1 + np.abs(d).max())
            hmin, rep = min_norm_divergence(g, pattern_box(pat))
            assert rep.converged
            assert np.abs(-divergence(g, hmin) - d).max() < 1e-7
    assert kinds["miss"] >= 1 and kinds["split"] >= 1


def test_flow_solve_runs_no_iterative_solve(monkeypatch):
    import graphtv.engine
    import graphtv.flow
    from graphtv import cartesian_graph

    def refuse(*args, **kwargs):
        raise AssertionError("iterative minimum-norm solve")

    monkeypatch.setattr(graphtv.engine, "min_norm_divergence", refuse)
    monkeypatch.setattr(graphtv.flow, "min_norm_divergence", refuse, raising=False)
    rng = np.random.default_rng(SEED + 11)
    for g in (cartesian_graph(10, 10), random_connected_graph(rng), path_graph(200)):
        f = random_vertex_field(rng, g.vertex_count)
        traj = flow_solve(g, f)
        assert np.abs(traj.path.terminal_value - f.mean()).max() < 1e-8


def test_minimal_section_certificate_rejects_a_wrong_flow(monkeypatch):
    # a max-flow that reports every cluster feasible with saturated edges
    # gives a witness whose divergence is wrong; the kernel must raise
    import graphtv.graph
    from graphtv import ConvergenceError, cartesian_graph, sign_pattern
    from graphtv.graph import PatternKernel

    def saturate(node_count, arcs, source, sink):
        return 0, [arc[2] for arc in arcs], [False] * node_count

    rng = np.random.default_rng(SEED + 12)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(rng, g.vertex_count)
    scale = float(f.max() - f.min())
    for u in flow_solve(g, f).path.left_values:
        kernel = PatternKernel(g, sign_pattern(g, u, scale=scale))
        forest = kernel.clusters.forest_flow(-kernel.slope - kernel.pinned)
        if np.abs(forest).max() > 1.0 + 1e-12:
            break
    monkeypatch.setattr(graphtv.graph, "max_flow", saturate)
    with pytest.raises(ConvergenceError, match="certificate"):
        minimal_section(g, u, scale=scale)


def test_flow_derives_the_pattern_once(monkeypatch):
    # the flow carries its labels: fusions and splits change them, and the
    # datum's pattern is the only one thresholded
    import graphtv.flow
    from graphtv import cartesian_graph, sign_pattern
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sign_pattern(*args, **kwargs)

    monkeypatch.setattr(graphtv.flow, "sign_pattern", counted)
    rng = np.random.default_rng(SEED + 13)
    for g in (cartesian_graph(10, 10), random_connected_graph(rng), path_graph(200)):
        calls.clear()
        traj = flow_solve(g, random_vertex_field(rng, g.vertex_count))
        assert traj.path.segment_count > 1
        assert len(calls) == 1


def test_path_and_flow_share_the_first_slope():
    # on the ties of f the datum exerts no pull, so the path's first slope
    # is the flow's direction at f, split for split
    from graphtv import cartesian_graph, rof_path, sign_pattern
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 14)
    splits = 0
    for k in range(40):
        g = cartesian_graph(6, 6) if k % 2 else random_connected_graph(rng)
        f = rng.integers(0, 4, g.vertex_count).astype(float)
        if f.max() == f.min():
            continue
        slope = rof_path(g, f).slopes[0]
        assert slope.tobytes() == (-minimal_section(g, f, scale=0.0)).tobytes()
        unsplit = PatternKernel(g, sign_pattern(g, f, scale=0.0)).slope
        splits += not np.array_equal(slope, unsplit)
    assert splits >= 1


@pytest.mark.parametrize("fault", ["circulation", "nudge"])
def test_flow_and_path_certificates_reject_a_bad_witness(monkeypatch, fault):
    # a circulation around the 4-cycle of a tied 2x2 block keeps the
    # witness's divergence and pushes it out of [-1, 1]; a nudge of one edge
    # misses the divergence by 1e-7, far above rounding.  The flow's and
    # the path's certificates must both raise
    from graphtv import ConvergenceError, PathError, cartesian_graph, rof_path
    from graphtv.graph import PatternKernel
    g = cartesian_graph(3, 3)
    f = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 7.0, 3.0, 9.0, 1.0])
    bad = np.zeros(g.edge_count)
    if fault == "circulation":
        for (a, b), x in (((1, 0), -2.5), ((4, 1), -2.5), ((4, 3), 2.5), ((3, 0), 2.5)):
            bad[g.edge_index(a, b)] = x
        assert np.abs(divergence(g, bad)).max() == 0.0
    else:
        bad[0] = 1e-7
    witness = PatternKernel.witness
    monkeypatch.setattr(PatternKernel, "witness",
                        lambda self, *t: witness(self, *t) + bad)
    with pytest.raises(ConvergenceError, match="certificate"):
        minimal_section(g, f)
    with pytest.raises(PathError, match="witness"):
        rof_path(g, f)


def test_minimal_section_certificate_rejects_a_flipped_cut(monkeypatch):
    # pins set against the min cut leave parts whose witnesses still fit;
    # only the bounds on the cut edges show the fault
    from graphtv import ConvergenceError, cartesian_graph
    from graphtv.graph import PatternKernel
    cut = PatternKernel._cut

    def flipped(self, k, side):
        t, pins = cut(self, k, side)
        return t, {j: -x for j, x in pins.items()}

    monkeypatch.setattr(PatternKernel, "_cut", flipped)
    rng = np.random.default_rng(SEED + 15)
    g = cartesian_graph(6, 6)
    f = rng.integers(0, 4, g.vertex_count).astype(float)
    with pytest.raises(ConvergenceError, match="certificate"):
        minimal_section(g, f, scale=0.0)


def test_flow_closes_edges_that_rounding_carries_past_their_meeting():
    # at an offset of 1000 the snap's rounding leaves a pinned edge a few
    # ulps past the point where its ends meet; it must close with the event,
    # or no edge closes in the next segment.  The flow commutes with adding
    # a constant
    from graphtv import cartesian_graph
    g = cartesian_graph(10, 10)
    f = random_vertex_field(np.random.default_rng(203), g.vertex_count)
    base = flow_solve(g, f)
    shifted = flow_solve(g, f + 1000.0)
    for t in np.linspace(0.0, base.t_max, 9):
        assert np.abs(shifted.value_at(t) - 1000.0 - base.value_at(t)).max() < 1e-9


def _count_tests(monkeypatch):
    # the cluster tests that reach the max-flow, as (vertices, capacity, demand)
    import graphtv.graph
    seen = []
    route = graphtv.graph.route_demands

    def recorded(parts, tails, heads, flow):
        seen.extend((tuple(p[0]), p[2], tuple(p[3])) for p in parts)
        return route(parts, tails, heads, flow)

    monkeypatch.setattr(graphtv.graph, "route_demands", recorded)
    return seen


def test_memo_changes_no_flow(monkeypatch):
    # the memo hands back exact verdicts and cuts, so the flow without it
    # has the same breakpoints, states and slopes, bit for bit.  Random and
    # tied draws; the ties split clusters at once
    from graphtv import cartesian_graph
    from graphtv.graph import PatternKernel
    seen = _count_tests(monkeypatch)
    rng = np.random.default_rng(SEED + 16)
    cases = []
    for g in (cartesian_graph(10, 10), random_connected_graph(rng), path_graph(200)):
        cases.append((g, random_vertex_field(rng, g.vertex_count)))
        cases.append((g, rng.integers(0, 4, g.vertex_count).astype(float)))
    paths = [flow_solve(g, f).path for g, f in cases]
    with_memo = len(seen)
    monkeypatch.setattr(PatternKernel, "_tests", lambda self, key: {})
    for (g, f), path in zip(cases, paths):
        bare = flow_solve(g, f).path
        for name in ("breakpoints", "left_values", "slopes", "terminal_value"):
            assert getattr(bare, name).tobytes() == getattr(path, name).tobytes()
    assert 0 < with_memo < len(seen) - with_memo


def test_flow_and_path_rerun_no_cluster_test_the_memo_holds(monkeypatch):
    # a cluster that no event changed finds its tests in the memo, so a
    # test reaches the max-flow again only if a kernel dropped its cluster
    # from the memo in between: the cluster dissolved and formed again
    from graphtv import cartesian_graph, rof_path
    from graphtv.graph import PatternKernel
    seen = _count_tests(monkeypatch)
    dropped = []
    successor = PatternKernel.successor

    def recorded(self, labels):
        # a kernel built from scratch starts a call with an empty memo
        before = list(self.memo)
        out = successor(self, labels)
        dropped.extend((len(seen), tuple(np.frombuffer(verts, np.intp).tolist()))
                       for verts, b in before if (verts, b) not in out.memo)
        return out

    monkeypatch.setattr(PatternKernel, "successor", recorded)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(np.random.default_rng(SEED + 17), g.vertex_count)
    for solve in (flow_solve, rof_path):
        seen.clear()
        dropped.clear()
        solve(g, f)
        first = {}
        for i, test in enumerate(seen):
            if test in first:
                assert any(first[test] < at <= i and verts == test[0]
                           for at, verts in dropped)
            first[test] = i
        assert seen


def test_certificates_check_memo_hits(monkeypatch):
    # a memoized flow read back doubled misses its divergence; the flow's
    # and the path's certificates must both raise
    from graphtv import ConvergenceError, PathError, cartesian_graph, rof_path
    from graphtv.graph import PatternKernel
    tests = PatternKernel._tests

    def doubled(self, key):
        return {t: (s, ok, step, 2.0 * flow)
                for t, (s, ok, step, flow) in tests(self, key).items()}

    monkeypatch.setattr(PatternKernel, "_tests", doubled)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(np.random.default_rng(SEED + 17), g.vertex_count)
    with pytest.raises(ConvergenceError, match="certificate"):
        flow_solve(g, f)
    with pytest.raises(PathError, match="witness"):
        rof_path(g, f)


def test_memo_lives_for_one_call(monkeypatch):
    # each call starts with an empty memo: run twice, it runs every
    # max-flow twice
    import graphtv.graph
    from graphtv import cartesian_graph, rof_path
    calls = []
    max_flow = graphtv.graph.max_flow

    def counted(*args):
        calls.append(1)
        return max_flow(*args)

    monkeypatch.setattr(graphtv.graph, "max_flow", counted)
    g = cartesian_graph(8, 8)
    f = random_vertex_field(np.random.default_rng(SEED + 18), g.vertex_count)
    scale = float(f.max() - f.min())
    u = flow_solve(g, f).path.left_values[-4]  # large clusters need max-flows
    for solve in (lambda: minimal_section(g, u, scale=scale),
                  lambda: flow_solve(g, f), lambda: rof_path(g, f)):
        calls.clear()
        solve()
        once = len(calls)
        solve()
        assert 0 < once and len(calls) == 2 * once


def test_flow_path_200_matches_taut_string():
    # a path has no cycles, so every segment is certified in closed form
    from graphtv import taut_string_1d
    rng = np.random.default_rng(SEED + 9)
    g = path_graph(200)
    f = random_vertex_field(rng, 200)
    traj = flow_solve(g, f)
    scale = float(f.max() - f.min())
    for t in (0.1, 0.5, 2.0):
        assert np.abs(traj.value_at(t) - taut_string_1d(f, t)).max() < 1e-9 * scale


def test_flow_terminates_at_mean():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        g = random_connected_graph(rng)
        f = random_vertex_field(rng, g.vertex_count)
        traj = flow_solve(g, f)
        assert np.abs(traj.path.terminal_value - f.mean()).max() < 1e-8
        assert np.isfinite(traj.t_max)


def test_flow_two_vertex_exact():
    g = two_vertex_graph()
    f = np.array([0.0, 10.0])
    traj = flow_solve(g, f)
    # values move together at unit speed and meet at the mean at t = 5
    assert abs(traj.t_max - 5.0) < 1e-9
    for t in (0.0, 1.0, 2.5, 4.0):
        assert np.abs(traj.value_at(t) - np.array([t, 10.0 - t])).max() < 1e-9
    assert np.abs(traj.value_at(7.0) - 5.0).max() < 1e-9


def test_direction_norm_strictly_decreases():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        g = random_connected_graph(rng)
        f = random_vertex_field(rng, g.vertex_count)
        traj = flow_solve(g, f)
        norms = [np.linalg.norm(d) for d in traj.directions]
        for a, b in zip(norms, norms[1:]):
            assert b < a + 1e-9


def test_l2_norm_monotone_along_flow():
    rng = np.random.default_rng(SEED + 4)
    g = random_connected_graph(rng)
    f = random_vertex_field(rng, g.vertex_count)
    traj = flow_solve(g, f)
    ts = np.linspace(0.0, traj.t_max * 1.1, 40)
    ns = [np.linalg.norm(traj.value_at(t)) for t in ts]
    for a, b in zip(ns, ns[1:]):
        assert b <= a + 1e-9


def test_mean_preserved_along_flow():
    rng = np.random.default_rng(SEED + 5)
    g = random_connected_graph(rng)
    f = random_vertex_field(rng, g.vertex_count)
    traj = flow_solve(g, f)
    for t in np.linspace(0.0, traj.t_max, 17):
        assert abs(traj.value_at(t).mean() - f.mean()) < 1e-10 * (1 + abs(f.mean()))


def test_semigroup_property():
    g, f = nonequivalence_instance()
    traj = flow_solve(g, f)
    s = 0.7
    traj2 = flow_solve(g, traj.value_at(s))
    for t in (0.1, 1.3, 4.0):
        assert np.abs(traj2.value_at(t) - traj.value_at(s + t)).max() < 1e-7


def test_nonexpansive_in_datum():
    rng = np.random.default_rng(SEED + 6)
    g = random_connected_graph(rng)
    f1 = random_vertex_field(rng, g.vertex_count)
    f2 = f1 + rng.normal(0, 0.2, g.vertex_count)
    t1 = flow_solve(g, f1)
    t2 = flow_solve(g, f2)
    base = np.linalg.norm(f1 - f2)
    prev = base
    for t in (0.05, 0.2, 0.8, 3.0):
        gap = np.linalg.norm(t1.value_at(t) - t2.value_at(t))
        assert gap <= prev + 1e-7
        prev = gap


def test_flow_antiderivative_consistency():
    # u(t) = f + div F(t) at every sampled time
    from graphtv import divergence
    g, f = nonequivalence_instance()
    traj = flow_solve(g, f)
    for t in (0.1, 0.4, 1.7, 10.0):
        lhs = traj.value_at(t)
        rhs = f + divergence(g, traj.antiderivative_at(t))
        assert np.abs(lhs - rhs).max() < 1e-9


def test_variant_flow_matches_regularization():
    g, _ = nonequivalence_instance()
    fv = nonequivalence_variant_datum()
    traj = flow_solve(g, fv)
    for t in (0.2, 1.0, 2.0, 3.0):
        assert np.abs(traj.value_at(t) - variant_reference(t)).max() < 1e-6


def test_backward_euler_two_vertex():
    g = two_vertex_graph()
    f = np.array([0.0, 10.0])
    traj = flow_solve(g, f)
    for h in (0.5, 0.25):
        u = flow_backward_euler(g, f, 2.0, h)
        assert np.abs(u - traj.value_at(2.0)).max() < 1e-9


def test_backward_euler_error_decreases():
    g, f = nonequivalence_instance()
    exact = flow_solve(g, f).value_at(1.0)
    errs = [np.abs(flow_backward_euler(g, f, 1.0, h) - exact).max()
            for h in (0.02, 0.01, 0.005)]
    assert errs[-1] <= 0.05
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_path_graph_flow_equals_regularization():
    # 1-D equivalence: on path graphs the flow at t equals the solution at
    # alpha = t
    from graphtv import rof_solve
    rng = np.random.default_rng(SEED + 7)
    g = path_graph(7)
    f = random_vertex_field(rng, 7)
    traj = flow_solve(g, f)
    for t in (0.05, 0.2, 0.6):
        assert np.abs(traj.value_at(t) - rof_solve(g, f, t).u).max() < 1e-6


def test_invalid_inputs():
    g, f = nonequivalence_instance()
    with pytest.raises(ValidationError):
        flow_backward_euler(g, f, -1.0, 0.1)
    with pytest.raises(ValidationError):
        flow_backward_euler(g, f, 1.0, 0.0)


def test_successors_relabel_a_small_share_of_the_vertices(monkeypatch):
    # each event searches again only the clusters it fuses or splits; a
    # kernel built from scratch would label all n vertices per segment
    from graphtv import rof_path
    from graphtv.graph import FlatClusters
    relabelled = []
    successor = FlatClusters.successor

    def counted(self, flat, changed):
        out = successor(self, flat, changed)
        relabelled.append(sum(len(c.order) for c in out[2]))
        return out

    monkeypatch.setattr(FlatClusters, "successor", counted)
    g = path_graph(1000)
    f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
    segments = flow_solve(g, f).path.segment_count + rof_path(g, f).segment_count
    assert segments > 1000
    assert sum(relabelled) < 0.05 * segments * g.vertex_count
