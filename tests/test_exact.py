"""The exact trajectories against a reference that shares no code with them.

``exact_reference`` enumerates every vertex subset of every cluster in
Fractions and runs no max-flow, so it checks the breakpoints of graphs
whose clusters split, where no closed form or taut string does.
"""

from fractions import Fraction

import numpy as np

from exact_reference import breakpoints, trajectory, value_at
from graphtv import flow_solve, rof_path, rof_solve
from graphtv.instances import (cartesian_graph, nonequivalence_instance,
                               random_connected_graph, random_vertex_field)
from test_rof import _refuse_identified, _split_count, _spy_settle

SEED = 20240819


def test_reference_pins_the_3x3_breakpoints():
    Q = Fraction
    g, f = nonequivalence_instance()
    path = [0, Q(2, 5), 2, 20, Q(82, 3), Q(100, 3), 49, Q(1255, 18)]
    flow = [0, Q(2, 5), Q(96, 5), Q(406, 15), Q(100, 3), Q(249, 5), Q(1255, 18)]
    assert [x for x, _, _ in trajectory(g, f)] == path
    assert [x for x, _, _ in trajectory(g, f, flow=True)] == flow


def _draws(count):
    # random graphs of at most 10 vertices and, every tenth draw, a 3x3 or
    # 3x4 grid; a third each with random values, values rounded to halves
    # (ties) and near ties 1e-9 apart
    rng = np.random.default_rng(SEED)
    for k in range(count):
        g = cartesian_graph(3, 3 + k // 10 % 2) if k % 10 == 0 else random_connected_graph(rng, 10)
        u = random_vertex_field(rng, g.vertex_count)
        near = np.round(u) + 1e-9 * rng.integers(0, 2, g.vertex_count)
        yield g, (u, np.round(2.0 * u) / 2.0, near)[k % 3]


def test_trajectories_match_the_exact_reference():
    # every breakpoint of the path and of the flow is the reference's
    # exact rational rounded once, bit for bit, and the values at every
    # breakpoint and midpoint are its exact values to rounding (1.6e-16 of
    # 1 + max |f| at most here); beyond the last breakpoint the value is
    # the reference's exact mean rounded once, bit for bit.  43 of the
    # paths split a cluster
    graphs = split = 0
    for g, f in _draws(520):
        if f.max() == f.min():
            continue
        graphs += 1
        for flow in (False, True):
            exact = trajectory(g, f, flow)
            path = flow_solve(g, f).path if flow else rof_path(g, f)
            b = path.breakpoints.tolist()
            assert b == breakpoints(exact)
            for x in b + [0.5 * (lo + hi) for lo, hi in zip(b, b[1:])]:
                ref = np.array([float(v) for v in value_at(exact, Fraction(x))])
                assert np.abs(path.value_at(x) - ref).max() <= 1e-15 * (1.0 + np.abs(f).max())
            mean = [float(v) for v in value_at(exact, Fraction(2.0 * b[-1]))]
            assert path.value_at(2.0 * b[-1]).tobytes() == np.array(mean).tobytes()
            split += not flow and _split_count(g, path) > 0
    assert graphs >= 500 and split >= 20


def test_rof_solve_matches_the_exact_reference(monkeypatch):
    # rof_solve at the midpoints of the first, middle and last segment of
    # the reference's path, on every fourth draw, is its exact value to
    # rounding: on the identify route, and with the identified certificate
    # refused, on the exact route through PatternKernel.settle.  The
    # reference shares no code with either certificate
    cases = []
    for k, (g, f) in enumerate(_draws(520)):
        if k % 4 or f.max() == f.min():
            continue
        exact = trajectory(g, f)
        b = breakpoints(exact)
        mids = [0.5 * (lo + hi) for lo, hi in zip(b, b[1:])]
        for alpha in sorted({mids[0], mids[len(mids) // 2], mids[-1]}):
            ref = np.array([float(v) for v in value_at(exact, Fraction(alpha))])
            cases.append((g, f, alpha, ref))
    for refused in (False, True):
        if refused:
            _refuse_identified(monkeypatch)
            settled = _spy_settle(monkeypatch)
        for g, f, alpha, ref in cases:
            u = rof_solve(g, f, alpha).u
            assert np.abs(u - ref).max() <= 1e-15 * (1.0 + np.abs(f).max())
    assert len(cases) >= 300 and len(settled) == len(cases)


def test_terminal_values_are_the_regularized_answer_beyond_the_path():
    # the path's and the flow's terminal value is the exact mean of f
    # rounded once, as is rof_solve's answer beyond the last breakpoint; a
    # numpy mean, summed pairwise, is one ulp off it on these draws
    g = cartesian_graph(4, 4)
    for seed in (2, 8, 36):
        f = random_vertex_field(np.random.default_rng(seed), g.vertex_count)
        path = rof_path(g, f)
        u = rof_solve(g, f, 2.0 * path.breakpoints[-1]).u
        assert np.full(g.vertex_count, f.mean()).tobytes() != u.tobytes()
        assert path.terminal_value.tobytes() == u.tobytes()
        assert path.value_at(2.0 * path.breakpoints[-1]).tobytes() == u.tobytes()
        assert flow_solve(g, f).path.terminal_value.tobytes() == u.tobytes()
