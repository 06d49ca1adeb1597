import functools

import numpy as np
import pytest

from graphtv import (PathError, ValidationError, divergence, flow_backward_euler,
                     flow_solve, subdifferential_membership)
from graphtv.instances import (SWITCHING_EDGE, flow_dual_switching_reference,
                               flow_reference, nonequivalence_instance,
                               nonequivalence_variant_datum, path_graph,
                               random_connected_graph, random_vertex_field,
                               two_vertex_graph, variant_reference)

from sampling import box_point, numbering, pattern_box

SEED = 20240820
VALUE_TOL = 1e-6
MIN_SECTION = np.array([-1.0, -4.0, 1.0, 1.0, -1.0, 2.0, 2.0, 2.0, -2.0])


def _section(g, u):
    # the minimum-norm element of the subdifferential at u: the negated
    # first direction of the flow from u
    return -flow_solve(g, u).direction_at(0.0)


def test_minimal_section_frozen():
    g, f = nonequivalence_instance()
    assert np.abs(_section(g, f) - MIN_SECTION).max() < 1e-7


def test_minimal_section_is_member():
    rng = np.random.default_rng(SEED)
    for _ in range(8):
        g = random_connected_graph(rng)
        u = random_vertex_field(rng, g.vertex_count)
        d = _section(g, u)
        assert subdifferential_membership(g, u, d).member


def test_minimal_section_has_smallest_norm():
    # any other member of dJ(u) must be at least as long
    from graphtv import sign_pattern
    rng = np.random.default_rng(SEED + 1)
    for _ in range(8):
        g = random_connected_graph(rng)
        u = random_vertex_field(rng, g.vertex_count)
        d = _section(g, u)
        box = pattern_box(sign_pattern(g, u))
        for _ in range(20):
            other = divergence(g, box_point(box, rng))
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
    assert flow_solve(g, f).t_max == 1255 / 18


def test_breakpoints_are_exact_rationals_rounded_once():
    # on the 3x3 instance every breakpoint of the flow and of the path is
    # its exact rational, rounded once
    from fractions import Fraction as Q
    from graphtv import rof_path
    g, f = nonequivalence_instance()
    flow = [0, Q(2, 5), Q(96, 5), Q(406, 15), Q(100, 3), Q(249, 5), Q(1255, 18)]
    path = [0, Q(2, 5), 2, 20, Q(82, 3), Q(100, 3), 49, Q(1255, 18)]
    assert flow_solve(g, f).breakpoints.tolist() == [float(x) for x in flow]
    assert rof_path(g, f).breakpoints.tolist() == [float(x) for x in path]


def _first_segment(g, u):
    # the flow's first direction at u and its witness H, d = -div H
    traj = flow_solve(g, u)
    return traj.direction_at(0.0), traj.flows[0]


def test_calibrated_section_matches_min_norm():
    # where no cluster splits, the cluster mean of the pinned flux is the
    # minimum-norm element the iterative solve finds
    from graphtv import sign_pattern
    from graphtv.engine import min_norm_divergence
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 8)
    with_clusters = 0
    for _ in range(40):
        g = random_connected_graph(rng)
        # data in {0, 1, 2} leave ties, so clusters of flat edges form
        u = np.round(random_vertex_field(rng, g.vertex_count))
        if u.max() == u.min():
            continue
        pat = sign_pattern(g, u)
        kernel = PatternKernel(g, pat)
        d, h = _first_segment(g, u)
        if not np.array_equal(d, kernel.slope):
            continue
        with_clusters += bool((numbering(kernel)[2] > 2).any())
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
    # miss) or splits the cluster; the first direction of the flow from
    # each such state must match the iterative solve over the box of the
    # state's exact ties, which the flow reads
    from graphtv import cartesian_graph, sign_pattern
    from graphtv.engine import min_norm_divergence
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 10)
    kinds = {"miss": 0, "split": 0}
    for side in (6, 8, 10):
        g = cartesian_graph(side, side)
        f = random_vertex_field(rng, g.vertex_count)
        scale = float(f.max() - f.min())
        states = flow_solve(g, f).path.left_values
        for u in states[::3]:
            pat = sign_pattern(g, u, scale=0.0)
            kernel = PatternKernel(g, pat)
            if not kernel._failing:  # every forest flow fits
                continue
            assert sign_pattern(g, u) == sign_pattern(g, u, scale=scale)
            d, h = _first_segment(g, u)
            kinds["miss" if np.array_equal(d, kernel.slope) else "split"] += 1
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
    # gives a witness whose divergence is wrong; the flow from a state
    # whose forest flow leaves the box must raise at its first segment
    import graphtv.graph
    from graphtv import cartesian_graph, sign_pattern
    from graphtv.graph import PatternKernel

    def saturate(node_count, arcs, source, sink):
        return 0, [arc[2] for arc in arcs], [False] * node_count

    rng = np.random.default_rng(SEED + 12)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(rng, g.vertex_count)
    scale = float(f.max() - f.min())
    for u in flow_solve(g, f).path.left_values:
        if PatternKernel(g, sign_pattern(g, u, scale=scale))._failing:
            break  # a forest flow leaves the box
    monkeypatch.setattr(graphtv.graph, "max_flow", saturate)
    with pytest.raises(PathError, match="segment 0: a cluster has no witness"):
        flow_solve(g, u)


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
        assert slope.tobytes() == flow_solve(g, f).direction_at(0.0).tobytes()
        unsplit = PatternKernel(g, sign_pattern(g, f, scale=0.0)).slope
        splits += not np.array_equal(slope, unsplit)
    assert splits >= 1


@pytest.mark.parametrize("fault", ["circulation", "nudge"])
def test_flow_and_path_certificates_reject_a_bad_witness(monkeypatch, fault):
    # a circulation around the 4-cycle of a tied 2x2 block keeps the
    # witness's divergence and pushes it out of [-1, 1]; a nudge of one edge
    # misses the divergence by 1e-7, far above rounding.  Added to the flow
    # of each cluster that a certificate checks, where the cluster forms,
    # the flow's and the path's certificates must both raise, at the first
    # segment
    from graphtv import cartesian_graph, rof_path
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
    cover = PatternKernel._cover

    def bad_flows(self, pairs, *args):
        out = []
        for (c, _), (edges, h) in zip(pairs, cover(self, pairs, *args)):
            on, every = dict(zip(edges, h)), self.edges(c)
            out.append((every, [on.get(e, 0.0) + bad[e] for e in every]))
        return out

    monkeypatch.setattr(PatternKernel, "_cover", bad_flows)
    for solve in (flow_solve, rof_path):
        with pytest.raises(PathError, match="segment 0: a cluster has no witness"):
            solve(g, f)


def test_minimal_section_certificate_rejects_a_flipped_cut(monkeypatch):
    # pins set against the min cut leave parts whose witnesses still fit,
    # but whose lines close across the cut at once: the split is checked
    # exactly from the parts' pinned sums, and the flow raises there, at
    # t = 0, before it certifies a segment (it split and fused the cluster
    # again until the event cap before).  So does the path at alpha = 0,
    # where the clusters are ties of f
    from graphtv import cartesian_graph, rof_path
    from graphtv.graph import PatternKernel
    cut = PatternKernel._cut

    def flipped(self, k, side):
        t, pins = cut(self, k, side)
        return t, {j: -x for j, x in pins.items()}

    monkeypatch.setattr(PatternKernel, "_cut", flipped)
    rng = np.random.default_rng(SEED + 15)
    g = cartesian_graph(6, 6)
    f = rng.integers(0, 4, g.vertex_count).astype(float)
    with pytest.raises(PathError, match="segment 0: a split's parts close across its cut "
                                        "at t = 0.0 "):
        flow_solve(g, f)
    with pytest.raises(PathError, match="segment 0: a split's parts close across its cut "
                                        "at alpha = 0.0 "):
        rof_path(g, f)


def test_flow_closes_edges_that_rounding_carries_past_their_meeting():
    # at an offset of 1000 a flow that snapped its state to cluster means
    # left a pinned edge a few ulps past the point where its ends meet, and
    # had to close it with the event.  Exact lines meet where they meet;
    # the flow commutes with adding a constant
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


class _Forgetful(dict):
    # a Cluster.tests that stores nothing
    def __setitem__(self, key, value):
        pass


def _storing(monkeypatch, tests):
    # every Cluster made from here on keeps its tests in a dict of the
    # class tests
    from graphtv.graph import Cluster
    init = Cluster.__init__

    def replaced(self, *args):
        init(self, *args)
        self.tests = tests()

    monkeypatch.setattr(Cluster, "__init__", replaced)


def test_cluster_tests_change_no_flow(monkeypatch):
    # a cluster's stored tests hand back exact verdicts and cuts, so the
    # flow with clusters that store none has the same breakpoints, states
    # and slopes, bit for bit.  Random and tied draws; the ties split
    # clusters at once
    from graphtv import cartesian_graph
    seen = _count_tests(monkeypatch)
    rng = np.random.default_rng(SEED + 16)
    cases = []
    for g in (cartesian_graph(10, 10), random_connected_graph(rng), path_graph(200)):
        cases.append((g, random_vertex_field(rng, g.vertex_count)))
        cases.append((g, rng.integers(0, 4, g.vertex_count).astype(float)))
    paths = [flow_solve(g, f).path for g, f in cases]
    stored = len(seen)
    _storing(monkeypatch, _Forgetful)
    for (g, f), path in zip(cases, paths):
        bare = flow_solve(g, f).path
        for name in ("breakpoints", "left_values", "slopes", "terminal_value"):
            assert getattr(bare, name).tobytes() == getattr(path, name).tobytes()
    assert 0 < stored < len(seen) - stored


def test_flow_and_path_rerun_a_cluster_test_only_on_a_rebuilt_cluster(monkeypatch):
    # a cluster that no event changed keeps its tests, so a test reaches
    # the max-flow again only if its cluster was built again in between:
    # the cluster dissolved and formed again
    import graphtv.graph
    from graphtv import cartesian_graph, rof_path
    seen = _count_tests(monkeypatch)
    built = []
    grow = graphtv.graph._grow

    def recorded(adj, flat, verts):
        out = grow(adj, flat, verts)
        built.extend((len(seen), tuple(c.verts)) for c in out[0])
        return out

    monkeypatch.setattr(graphtv.graph, "_grow", recorded)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(np.random.default_rng(SEED + 17), g.vertex_count)
    for solve in (flow_solve, rof_path):
        seen.clear()
        built.clear()
        solve(g, f)
        first = {}
        for i, test in enumerate(seen):
            if test in first:
                assert any(first[test] < at <= i and verts == test[0]
                           for at, verts in built)
            first[test] = i
        assert seen


def test_certificates_check_cached_tests(monkeypatch):
    # a stored flow read back doubled misses its divergence; the flow's
    # and the path's certificates must both raise
    from graphtv import cartesian_graph, rof_path

    class Doubled(dict):
        def get(self, key, default=None):
            if key not in self:
                return default
            s, ok, step, flow = self[key]
            return s, ok, step, 2.0 * flow

    _storing(monkeypatch, Doubled)
    g = cartesian_graph(10, 10)
    f = random_vertex_field(np.random.default_rng(SEED + 17), g.vertex_count)
    for solve in (flow_solve, rof_path):
        with pytest.raises(PathError, match="witness"):
            solve(g, f)


def test_certificates_check_each_cluster_once(monkeypatch):
    # a cluster's demand is affine in t while it lives, so its witness is
    # checked once, where it forms, and not over the whole graph at each
    # segment: the flow checks one flow per cluster that lives on a
    # segment, the path one at each end of the cluster's span.  Every
    # cluster alive on a segment has its span
    from graphtv import cartesian_graph, sign_pattern
    from graphtv.graph import PatternKernel
    from graphtv.rof import _trace
    checks = []
    misses = PatternKernel._misses

    def counted(self, c, edges, h, t):
        checks.append((c, t))
        return misses(self, c, edges, h, t)

    monkeypatch.setattr(PatternKernel, "_misses", counted)
    rng = np.random.default_rng(SEED + 20)
    for g in (cartesian_graph(8, 8), random_connected_graph(rng, 40), path_graph(300)):
        f = random_vertex_field(rng, g.vertex_count)
        pattern = sign_pattern(g, f, scale=0.0)
        for kernel in (PatternKernel(g, pattern, u=f), PatternKernel(g, pattern, f)):
            checks.clear()
            living = {}
            for _, k, _ in _trace(kernel):
                for c in k._of.values():
                    assert c.span[1] is not None
                    living[id(c)] = c
            assert {id(c) for c, _ in checks} == set(living)
            if kernel.f is None:
                assert len(checks) == len(living)
            else:
                ends = {}
                for c, t in checks:
                    ends.setdefault(id(c), []).append(t)
                assert all(sorted(set(c.span)) == sorted(ends[i]) for i, c in living.items())


def test_memo_lives_for_one_call(monkeypatch):
    # each call builds its clusters afresh, with no tests stored: run
    # twice, it runs every max-flow twice
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
    u = flow_solve(g, f).path.left_values[-4]  # large clusters need max-flows
    for solve in (lambda: flow_solve(g, u), lambda: flow_solve(g, f),
                  lambda: rof_path(g, f)):
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
    from graphtv.graph import PatternKernel
    relabelled = []
    advance = PatternKernel.advance

    def counted(self, t, relabel):
        advance(self, t, relabel)
        relabelled.append(len(self.moved))

    monkeypatch.setattr(PatternKernel, "advance", counted)
    g = path_graph(1000)
    f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
    segments = flow_solve(g, f).path.segment_count + rof_path(g, f).segment_count
    assert segments > 1000
    assert sum(relabelled) < 0.05 * segments * g.vertex_count


def test_trajectories_hold_no_dense_rows():
    # a trajectory stores each line once, at the segment that sets it, so a
    # path graph's flow and path, about n segments each, peak near the
    # kernel's own O(n + m); dense rows of states, slopes, flows and
    # antiderivative, held twice while they were gathered, needed about
    # 2 K (2n + 2m) 8 bytes, thousands of times more
    import tracemalloc
    from graphtv import rof_path
    g = path_graph(1500)
    f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
    budget = 256 * (g.vertex_count + g.edge_count) * 8
    for solve in (flow_solve, rof_path):
        tracemalloc.start()
        try:
            result = solve(g, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path = getattr(result, "path", result)
        assert path.segment_count > 1000
        assert peak < budget, (solve.__name__, peak, budget)


@functools.lru_cache(maxsize=None)
def _traced(name: str, n: int) -> tuple:
    # flow_solve's or rof_path's trajectory of the seed-0 field on
    # path_graph(n), with the bytes it keeps and its peak, by tracemalloc
    import tracemalloc
    import graphtv
    g = path_graph(n)
    f = random_vertex_field(np.random.default_rng(0), n)
    tracemalloc.start()
    try:
        result = getattr(graphtv, name)(g, f)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_trajectories_keep_memory_linear_on_paths():
    # a line is stored once, by the segment that sets it, so the memory a
    # trajectory keeps grows with n and its changes; a dense state every
    # few dozen segments, about n of them on a path, would grow as n^2.
    # The peaks stay under the bound of test_trajectories_hold_no_dense_rows
    for name in ("flow_solve", "rof_path"):
        kept = []
        for n in (1000, 3000):
            _, k, peak = _traced(name, n)
            assert peak < 256 * (2 * n - 1) * 8, (name, n, peak)
            kept.append(k)
        assert kept[1] <= 4 * kept[0], (name, kept)


def test_flow_breakpoints_match_the_path_on_paths():
    # on a path graph the flow at t is the regularized solution at alpha =
    # t, so both have the same breakpoints in exact arithmetic, and both
    # give each as its exact rational rounded once: the same bits
    from graphtv import rof_path
    g = path_graph(2000)
    f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
    cases = [(_traced("flow_solve", 1000)[0], _traced("rof_path", 1000)[0]),
             (flow_solve(g, f), rof_path(g, f))]
    for flow, path in cases:
        assert flow.breakpoints.size == path.breakpoints.size >= 1000
        assert flow.breakpoints.tobytes() == path.breakpoints.tobytes()


def test_flow_reads_near_ties_as_the_path_does():
    # values 1e-9 of the range apart are distinct for the flow as for the
    # path, so on a path graph both keep the same breakpoints, bit for bit,
    # and the flow follows the taut string at and between them, with no
    # jump at a breakpoint.  Read at flat_tol, the tie of [0, 1, 1 + 1e-9,
    # 3] fused at once: the flow jumped by 5e-10 at its first breakpoint
    from graphtv import rof_path, taut_string_1d
    rng = np.random.default_rng(SEED + 16)
    cases = [np.array([0.0, 1.0, 1.0 + 1e-9, 3.0])]
    for n in (10, 30, 60):
        f = random_vertex_field(rng, n)
        k = rng.choice(n - 1, n // 4, replace=False)
        f[k + 1] = f[k] + 1e-9 * np.ptp(f) * rng.choice([-1.0, 1.0], k.size)
        cases.append(f)
    for f in cases:
        g = path_graph(f.size)
        flow, path = flow_solve(g, f), rof_path(g, f)
        assert flow.breakpoints.tobytes() == path.breakpoints.tobytes()
        b, span = flow.breakpoints, np.ptp(f)
        for t in np.concatenate([b, (b[1:] + b[:-1]) / 2]):
            assert np.abs(flow.value_at(t) - taut_string_1d(f, t)).max() <= 1e-12 * span
        left, slopes = flow.path.left_values, flow.path.slopes
        ends = np.vstack([left[1:], flow.path.terminal_value])
        reached = left + (b[1:] - b[:-1])[:, None] * slopes
        assert np.abs(reached - ends).max() <= 1e-12 * span


def test_replay_gives_the_builders_bits(monkeypatch):
    # value_at, slope_at, direction_at and antiderivative_at find each
    # entry's stored line by one search; at every breakpoint and
    # midpoint they give the bits of the states the builder computed,
    # recorded here as it stores their lines, and so does u(t) = f + div
    # F(t); past the end they give the terminal state, a zero slope and the
    # final F.  The dense properties are those rows
    from graphtv import cartesian_graph, rof_path
    from graphtv.rof import _Lines
    stored, current = {}, {}
    append = _Lines.append

    def recording(self, at, idx, anchors, slopes):
        # a trajectory's logs, in the order they first take a segment, each
        # with every entry's current line (anchor, slope, since), which the
        # log itself does not keep: per segment, the anchors and slopes,
        # and the lines at the segment's start before it sets any
        if id(self) not in current:
            current[id(self)] = np.zeros(self.size), np.zeros(self.size), np.zeros(self.size)
        anchor, slope, since = current[id(self)]
        before = anchor + (at - since) * slope
        anchor[idx], slope[idx], since[idx] = anchors, slopes, at
        stored.setdefault(id(self), []).append((anchor.copy(), slope.copy(), before))
        append(self, at, idx, anchors, slopes)

    monkeypatch.setattr(_Lines, "append", recording)
    rng = np.random.default_rng(SEED + 17)
    graphs = [cartesian_graph(6, 6), cartesian_graph(9, 7), path_graph(200)]
    graphs += [random_connected_graph(rng, 30) for _ in range(3)]
    longest = 0
    for g in graphs:
        f = random_vertex_field(rng, g.vertex_count)
        for build in (flow_solve, rof_path):
            stored.clear()
            current.clear()
            result = build(g, f)
            path = getattr(result, "path", result)
            b = path.breakpoints
            longest = max(longest, path.segment_count)
            rows = [list(zip(*segments)) for segments in stored.values()]
            assert all(len(r[0]) == path.segment_count for r in rows)
            # the lines anchored at 0 (the flow's first at f) and their
            # slopes, then the flow's F at each segment's start and -H
            (intercept, slope, _), *integral = rows
            left = [c + alpha * s for c, s, alpha in zip(intercept, slope, b)]
            if build is flow_solve:
                assert path.value_at(0.0).tobytes() == f.tobytes()
                (_, minus_h, anti), = integral
                flows = [-x for x in minus_h]
                assert result.flows.tobytes() == np.array(flows).tobytes()
                assert result.antiderivative[:-1].tobytes() == np.array(anti).tobytes()
            assert path.left_values.tobytes() == np.array(left).tobytes()
            assert path.slopes.tobytes() == np.array(slope).tobytes()
            xs = sorted(list(b) + [0.5 * (x + y) for x, y in zip(b, b[1:])])
            for x in xs[:-1]:
                k = int(np.searchsorted(b, x, side="right")) - 1
                assert path.value_at(x).tobytes() == (left[k] + (x - b[k]) * slope[k]).tobytes()
                assert path.slope_at(x).tobytes() == slope[k].tobytes()
                if build is flow_solve:
                    assert result.direction_at(x).tobytes() == slope[k].tobytes()
                    big_f = anti[k] - (x - b[k]) * flows[k]
                    assert result.antiderivative_at(x).tobytes() == big_f.tobytes()
                    assert (f + divergence(g, result.antiderivative_at(x))).tobytes() == (
                        f + divergence(g, big_f)).tobytes()
            for x in (b[-1], 2.0 * b[-1] + 1.0):
                assert path.value_at(x).tobytes() == path.terminal_value.tobytes()
                assert not path.slope_at(x).any()
                if build is flow_solve:
                    assert not result.direction_at(x).any()
                    final = result.antiderivative_at(x)
                    assert final.tobytes() == result.antiderivative[-1].tobytes()
                    scale = float(f.max() - f.min())
                    assert np.abs(f + divergence(g, final) - path.terminal_value).max() < (
                        1e-9 * scale)
            # ascending and descending reads give the same bytes
            up = [path.value_at(x).tobytes() for x in xs]
            down = [path.value_at(x).tobytes() for x in xs[::-1]]
            assert up == down[::-1]
    assert longest > 128


def test_lines_store_what_a_full_comparison_stores(monkeypatch):
    # a trajectory stores the lines of the vertices of the clusters the
    # events rebuilt, and bit-compares only the edges at them.  Each log
    # must take the lines that a bit comparison of every entry finds: a
    # vertex whose intercept or slope changed, among others whose line is
    # stored again with its bits, and exactly each edge whose slope -H
    # changed (its anchor, F at the segment's start, is new at every
    # segment).  The full lines are read off the kernel that the event
    # loop updates, and compared with every entry's current line
    import graphtv.flow
    import graphtv.rof
    from graphtv import cartesian_graph, rof_path
    from graphtv.flow import _differ
    from graphtv.rof import _Lines
    append, trace = _Lines.append, graphtv.rof._trace
    stores, current, kernels, sizes = [], [], [], []

    def traced(k):
        kernels.append(k)
        return trace(k)

    def compared(self, at, moved, anchors, slopes):
        if self not in stores:
            stores.append(self)
            current.append((np.zeros(self.size), np.zeros(self.size)))
        anchor, slope = current[stores.index(self)]
        k = kernels[-1]
        if self is stores[0]:
            full_anchor, full_slope = k.intercept, k.slope
            full = _differ(full_slope, slope) | _differ(full_anchor, anchor)
            assert np.isin(np.flatnonzero(full), moved).all()
            assert anchors.tobytes() == full_anchor[moved].tobytes()
        else:
            full_slope = -(k.witness() - k.pattern.labels)
            full = _differ(full_slope, slope)
            assert moved.tobytes() == np.flatnonzero(full).tobytes()
        assert slopes.tobytes() == full_slope[moved].tobytes()
        anchor[moved], slope[moved] = anchors, slopes
        sizes.append(moved.size)
        append(self, at, moved, anchors, slopes)

    monkeypatch.setattr(_Lines, "append", compared)
    monkeypatch.setattr(graphtv.rof, "_trace", traced)
    monkeypatch.setattr(graphtv.flow, "_trace", traced)
    rng = np.random.default_rng(SEED + 24)
    graphs = [cartesian_graph(8, 8), path_graph(300)]
    graphs += [random_connected_graph(rng, 30) for _ in range(2)]
    segments = 0
    for g in graphs:
        for f in (random_vertex_field(rng, g.vertex_count),
                  rng.integers(0, 4, g.vertex_count).astype(float)):
            for solve in (flow_solve, rof_path):
                stores.clear()
                current.clear()
                result = solve(g, f)
                segments += getattr(result, "path", result).segment_count
                assert len(stores) == (2 if solve is flow_solve else 1)
    assert segments > 1000 and sum(sizes) > segments


def test_a_flow_off_the_mean_field_names_its_segment(monkeypatch):
    # the flow's last check: its final kernel's intercept is the mean
    # field.  An intercept moved off it raises PathError, naming the
    # terminal segment, its time and the instance's size
    import graphtv.flow
    trace = graphtv.flow._trace

    def off(kernel):
        for x, k, moved in trace(kernel):
            if moved is None:
                k.intercept[0] += 1.0
            yield x, k, moved

    monkeypatch.setattr(graphtv.flow, "_trace", off)
    g, f = nonequivalence_instance()
    with pytest.raises(PathError, match=r"^terminal segment 6: flow ended off the mean field "
                                        r"at t = 69.7222.* \(9 vertices, 12 edges\)$"):
        flow_solve(g, f)


def test_an_entry_with_no_stored_line_reads_zero():
    # on path_graph(4) with f = [1, 0, 0, 1] the flat middle edge keeps
    # F = 0 and H = 0, the zero line every entry starts from, so no segment
    # stores a line for it; a read finds no line for that edge and gives 0,
    # not the line of the edge stored before it
    g = path_graph(4)
    traj = flow_solve(g, np.array([1.0, 0.0, 0.0, 1.0]))
    b = traj.breakpoints
    for k in range(b.size - 1):
        t = 0.5 * (b[k] + b[k + 1])
        big_f = traj.antiderivative_at(t)
        assert big_f[1] == 0.0
        expected = traj.antiderivative[k] - (t - b[k]) * traj.flows[k]
        assert big_f.tobytes() == expected.tobytes()
