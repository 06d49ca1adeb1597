"""Tests of the benchmark's own code.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``); run them with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, run.SRC)

import graphtv as gt  # noqa: E402
from graphtv import instances  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _closed_form(alpha):
    g, f = instances.nonequivalence_instance()
    return g, f, instances.regularization_reference(alpha), \
        instances.regularization_dual_reference(alpha)


@pytest.mark.parametrize("alpha", [0.2, 1.0, 3.0])
def test_gap_vanishes_at_closed_form(alpha):
    g, f, u, p = _closed_form(alpha)
    assert oracles.dual_feasible(p, alpha)
    assert oracles.rof_gap(g, f, alpha, u, p) <= 1e-9


@pytest.mark.parametrize("alpha", [0.2, 1.0, 3.0])
def test_gap_positive_when_perturbed(alpha):
    g, f, u, p = _closed_form(alpha)
    bumped = u.copy()
    bumped[1] += 0.5
    gap = oracles.rof_gap(g, f, alpha, bumped, p)
    # the gap bounds the squared distance: 0.5 * 0.5^2 <= gap
    assert gap >= 0.125 - 1e-9


def test_gap_matches_primal_minus_dual():
    rng = np.random.default_rng(3)
    g = gt.cartesian_graph(5, 5)
    f = gt.random_vertex_field(rng, g.vertex_count)
    alpha = 0.3
    p = rng.uniform(-alpha, alpha, g.edge_count)
    u = f + gt.divergence(g, p) + rng.normal(0.0, 1e-3, g.vertex_count)
    primal = 0.5 * float((u - f) @ (u - f)) + alpha * gt.total_variation(g, u)
    w = f + gt.divergence(g, p)
    dual = 0.5 * float(f @ f) - 0.5 * float(w @ w)
    assert oracles.rof_gap(g, f, alpha, u, p) == pytest.approx(primal - dual, rel=1e-9)


def test_isotropic_gap_vanishes_at_solver_solution():
    rng = np.random.default_rng(4)
    g = gt.cartesian_graph(4, 4)
    f = gt.random_vertex_field(rng, g.vertex_count)
    sol = gt.isotropic_rof_solve(g, f, 0.1)
    assert oracles.check_rof_gap(g, f, sol, coupled=True).ok


@pytest.mark.parametrize("n", [11, 12, 35, 100, 1000])
def test_tail_leaves_ten_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_workload_end_to_end(name):
    code, result = _run("--workload", name, "--seed", "5", "--seconds", "0",
                        "--trace", "0", "--small")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_workload_traced(name):
    code, result = _run("--workload", name, "--seed", "5", "--seconds", "0",
                        "--trace", "1", "--small")
    assert code == 0
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # library spans cover most of the traced op time
    assert result["metrics"]["trace.layers_share"]["value"] > 0.5


def test_tracer_restores_the_library():
    import tracing
    before = gt.rof.rof_solve
    g, f = instances.nonequivalence_instance()
    with tracing.Tracer() as tracer:
        assert gt.rof.rof_solve is not before
        span = tracer.open("op", "ops", 0)
        gt.rof_solve(g, f, 1.0)
        tracer.close(span)
    assert gt.rof.rof_solve is before
    names = [s["name"] for s in tracer.spans]
    assert names[:3] == ["op", "rof.solve", "engine.project"]
    assert [s["parent"] for s in tracer.spans[:3]] == [-1, 0, 1]
    assert {s["region"] for s in tracer.spans} == {"ops"}
    assert tracer.spans[2]["iters"] > 0


def test_tracer_folds_min_norm_projection():
    """flow_solve's projections are min-norm solves, counted once."""
    import tracing
    g, f = instances.nonequivalence_instance()
    with tracing.Tracer() as tracer:
        span = tracer.open("op", "ops", 0)
        gt.flow_solve(g, f)
        tracer.close(span)
    names = [s["name"] for s in tracer.spans]
    under_min_norm = [s for s in tracer.spans if s["name"] == "engine.project"
                      and tracer.spans[s["parent"]]["name"] == "engine.min_norm"]
    assert names.count("engine.min_norm") > 0
    assert len(under_min_norm) == names.count("engine.min_norm")
    summary = tracer.summary("ops")
    direct = names.count("engine.project") - len(under_min_norm)
    assert summary.get("engine.project", {}).get("calls", 0) == direct
    assert summary["engine.min_norm"]["calls"] == names.count("engine.min_norm")
    # self times partition the op's wall time: nothing is counted twice
    root = tracer.spans[0]
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(root["end"] - root["start"], rel=1e-9)


def _cli_op(workdir):
    ops = workloads.paper_verify(5, small=True, workdir=str(workdir), src_dir=run.SRC).ops
    return next(op for op in ops if op.family == "cli.main")


@pytest.mark.parametrize("out", [b"not json\n", b"", b'{"values": [1.0]}\n'])
def test_malformed_cli_output_is_a_miss(out, tmp_path):
    op = _cli_op(tmp_path)
    runner = run.Runner(workloads.Workload([op], round_s=1.0))
    kind = runner._check(0, op, (0, out), None)
    assert kind == "miss"
    assert not runner.correct


def test_reference_failure_is_not_a_miss():
    def check(result):
        raise oracles.ReferenceFailure(gt.ConvergenceError("reference solve"))
    op = workloads.Op("stub", "stub", lambda: None, check=check)
    runner = run.Runner(workloads.Workload([op], round_s=1.0))
    assert runner._check(0, op, None, None) == "oracle:ConvergenceError"
    assert runner.correct


@pytest.mark.parametrize("on_path", [True, False])
def test_equivalence_check_catches_a_wrong_flow_state(on_path):
    import dataclasses
    rng = np.random.default_rng(6)
    g = gt.path_graph(12) if on_path else gt.cartesian_graph(3, 3)
    f = gt.random_vertex_field(rng, g.vertex_count)
    rep = gt.equivalence_report(g, f, 0.3)
    ref = oracles.CertifiedRof(g, f)
    assert oracles.check_equivalence(ref, rep, on_path).ok
    bumped = rep.u_flow.copy()
    bumped[0] += 0.1 * oracles.data_range(f)
    wrong = dataclasses.replace(rep, u_flow=bumped)
    assert not oracles.check_equivalence(ref, wrong, on_path).ok


def test_rounds_follow_seconds_not_speed():
    wl = workloads.Workload([], round_s=10.0)
    assert run.rounds_for(wl, 0) == 1
    assert run.rounds_for(wl, 30) == 3


def test_missing_sources_fail(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "grid-solve", "--seed", "1"]) != 0
