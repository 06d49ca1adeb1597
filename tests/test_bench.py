import numpy as np
import pytest

from graphtv import (PathError, counterexample_harness, equivalence_report,
                     flow_solve, jump_set, rof_solve, taut_string_1d)
from graphtv.instances import (SWITCHING_EDGE, nonequivalence_instance,
                               path_graph, two_vertex_graph)

SEED = 20240822
VALUE_TOL = 1e-6


def test_jump_sets_reverse_monotonicity():
    g, f = nonequivalence_instance()
    j_datum = jump_set(g, f)
    j_mid = jump_set(g, rof_solve(g, f, 1.0).u)
    j_late = jump_set(g, rof_solve(g, f, 3.0).u)
    assert len(j_datum) == 12
    assert j_mid == j_datum - {SWITCHING_EDGE}
    assert j_late == j_datum
    assert j_mid < j_late


def test_flow_jump_transition():
    g, f = nonequivalence_instance()
    traj = flow_solve(g, f)
    scale = float(f.max() - f.min())
    before = jump_set(g, traj.value_at(0.2), scale=scale)
    at_kink = jump_set(g, traj.value_at(0.4), scale=scale)
    after = jump_set(g, traj.value_at(1.0), scale=scale)
    assert SWITCHING_EDGE in before
    assert SWITCHING_EDGE not in at_kink
    assert SWITCHING_EDGE in after


def test_equivalence_report_figure_instance():
    g, f = nonequivalence_instance()
    rep = equivalence_report(g, f, 1.0)
    assert not rep.equivalent
    assert abs(rep.linf_distance - 0.3) < 1e-6
    assert rep.membership_residual > rep.linf_distance  # solid gap
    assert not rep.sufficient_condition_holds
    # the support equality fails on the first segment only
    assert rep.segment_support_gaps[0] > 1.0
    assert rep.segment_support_gaps[1] < 1e-6


def test_equivalence_on_first_segment():
    g, f = nonequivalence_instance()
    rep = equivalence_report(g, f, 0.25)
    assert rep.first_segment
    assert rep.equivalent
    assert rep.sufficient_condition_holds
    assert rep.linf_distance < 1e-6


def test_taut_string_hand_cases():
    u = taut_string_1d(np.array([0.0, 10.0]), 1.0)
    assert np.abs(u - np.array([1.0, 9.0])).max() < 1e-12
    u = taut_string_1d(np.array([0.0, 10.0]), 6.0)
    assert np.abs(u - np.array([5.0, 5.0])).max() < 1e-12
    u = taut_string_1d(np.array([0.0, 0.0, 6.0, 6.0]), 1.0)
    assert np.abs(u - np.array([0.5, 0.5, 5.5, 5.5])).max() < 1e-12
    # alpha = 0 returns the datum, single point untouched
    assert taut_string_1d(np.array([3.0, 1.0]), 0.0).tolist() == [3.0, 1.0]
    assert taut_string_1d(np.array([4.0]), 2.0).tolist() == [4.0]


def test_taut_string_mean_and_monotonicity():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        f = rng.normal(0, 3, n)
        a = float(rng.uniform(0.01, 5))
        u = taut_string_1d(f, a)
        assert abs(u.mean() - f.mean()) < 1e-9
        # monotone data stay monotone
        fs = np.sort(f)
        us = taut_string_1d(fs, a)
        assert np.all(np.diff(us) >= -1e-9)


def test_taut_string_matches_graph_solver():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        f = rng.normal(0, 1, n) * float(rng.uniform(0.2, 8))
        a = float(rng.uniform(0.01, 3))
        u_ts = taut_string_1d(f, a)
        u_graph = rof_solve(path_graph(n), f, a).u
        assert np.abs(u_ts - u_graph).max() < 5e-8 * (1 + np.abs(f).max())


def test_taut_string_anchors_at_any_depth():
    # the anchoring holds its intervals on a stack: alternating data anchor
    # the string at nearly every point, which as recursion raised
    # RecursionError from n = 1000, and so did a sawtooth at n = 5000
    n = 5000
    i = np.arange(n, dtype=float)
    f = (-1.0) ** i * i
    u = taut_string_1d(f, 1.0)
    assert np.abs(u - rof_solve(path_graph(n), f, 1.0).u).max() <= 1e-12 * np.abs(f).max()
    saw = i % 7
    assert abs(taut_string_1d(saw, 0.01).mean() - saw.mean()) < 1e-9


def test_taut_string_validation():
    with pytest.raises(Exception):
        taut_string_1d(np.array([]), 1.0)
    with pytest.raises(Exception):
        taut_string_1d(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(Exception):
        taut_string_1d(np.array([1.0, 2.0]), -1.0)


def test_harness_all_green():
    rep = counterexample_harness()
    assert rep.passed
    assert len(rep.checks) >= 20
    doc = rep.as_dict()
    assert doc["passed"]
    assert all(c["passed"] for c in doc["checks"])
