"""The exact trajectories against a reference that shares no code with them.

``exact_reference`` enumerates every vertex subset of every cluster in
Fractions and runs no max-flow, so it checks the breakpoints of graphs
whose clusters split, where no closed form or taut string does.
"""

from fractions import Fraction

import numpy as np

from exact_reference import breakpoints, trajectory, value_at
from graphtv import flow_solve, rof_path
from graphtv.instances import (cartesian_graph, nonequivalence_instance,
                               random_connected_graph, random_vertex_field)
from test_rof import _split_count

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
    # 1 + max |f| at most here).  43 of the paths split a cluster
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
            split += not flow and _split_count(g, path) > 0
    assert graphs >= 500 and split >= 20
