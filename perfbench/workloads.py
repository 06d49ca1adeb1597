"""The benchmark's three workloads, each a fixed, seeded list of library calls.

A workload is a closed loop: one caller issues its ops one after another and
each op is one public graphtv call.  The structure of each list (graph
kinds, sizes, parameters, draw counts) is fixed; the seed draws only the
data and the random graphs, so every seed does comparable work.

* ``grid-solve``: single-parameter solves on grids and long paths, where
  projected-gradient iterations on large operators do almost all the work.
* ``event-trace``: whole flow trajectories and regularization paths on
  small graphs, dominated by many small warm-started solves.
* ``paper-verify``: the paper's 3x3 instance, the phi-minimality suite and
  every CLI subcommand, dominated by per-call overhead.

Each workload also names its nominal round time: how long one pass over
its op list takes on the machine the benchmark was tuned on.  A run repeats
the list ``--seconds / round_s`` times, so the repeat count is fixed by the
arguments, not by the speed of the machine running it.

Ops look their function up by name at call time, so a tracer that replaces
module attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import graphtv
import graphtv.cli  # noqa: F401  (the package does not import its CLI)
import oracles as orc

@dataclass
class Op:
    """One timed library call and the oracle that checks its result.

    ``target`` is a dotted name under ``graphtv`` (``"rof_solve"``,
    ``"cli.main"``) or a callable of the benchmark's own.
    """

    name: str
    family: str
    target: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    check: Callable = None

    def __call__(self):
        fn = self.target
        if not callable(fn):
            fn = graphtv
            for part in self.target.split("."):
                fn = getattr(fn, part)
        return fn(*self.args, **self.kwargs)


# an op still running after this many seconds is stopped and counted failed
OP_CAP_S = 30.0


@dataclass
class Workload:
    ops: list
    round_s: float
    op_cap_s: float = OP_CAP_S
    # the calibration kernel whose speed tracks this workload's (see run.py)
    calibration: str = "interpreter"


def _field(rng, g):
    return graphtv.random_vertex_field(rng, g.vertex_count)


# -- grid-solve ------------------------------------------------------------

GRID_ALPHAS = (0.1, 0.5, 2.0)

# (solver, graph, size, alphas, draws).  24x24 grids at alpha >= 0.5 and
# 2000-vertex paths at 0.5 stall or converge depending on the draw, so their
# time moves most from seed to seed; 32x32 grids at 0.1 and 2 and
# 1000-vertex paths take about the same number of iterations on every draw,
# and 16x16 grids are cheap enough to draw often.  The mix leans on the
# latter, so seed-to-seed changes in wall time stay small next to the
# changes a kernel makes.  The report prints each family's measured share
# of wall_s.
GRID_SOLVES = (
    ("rof_solve", "grid", 16, GRID_ALPHAS, 8),
    ("rof_solve", "grid", 24, GRID_ALPHAS, 3),
    ("rof_solve", "grid", 32, (0.1, 2.0), 2),
    ("isotropic_rof_solve", "grid", 16, (0.1, 0.5), 2),
    ("isotropic_rof_solve", "grid", 24, (0.1, 0.5), 1),
    ("rof_solve", "path", 1000, GRID_ALPHAS, 1),
    ("rof_solve", "path", 2000, (0.1,), 1),
)
GRID_ROUND_S = 30.0
GRID_SOLVES_SMALL = (
    ("rof_solve", "grid", 6, GRID_ALPHAS, 2),
    ("isotropic_rof_solve", "grid", 6, (0.1, 0.5), 1),
    ("rof_solve", "path", 60, GRID_ALPHAS, 1),
)


def grid_solve(seed: int, small: bool = False) -> Workload:
    """Single-parameter solves on grids and paths (see GRID_SOLVES).

    Grid solves are checked by the duality gap, path solves by the taut
    string.
    """
    rng = np.random.default_rng(seed)
    ops = []
    graphs = {}
    for solver, kind, size, alphas, draws in GRID_SOLVES_SMALL if small else GRID_SOLVES:
        if (kind, size) not in graphs:
            graphs[kind, size] = (graphtv.cartesian_graph(size, size) if kind == "grid"
                                  else graphtv.path_graph(size))
        g = graphs[kind, size]
        for k in range(draws):
            f = _field(rng, g)
            for a in alphas:
                if kind == "path":
                    check = (lambda s, g=g, f=f: orc.check_rof_path_graph(g, f, s))
                else:
                    check = (lambda s, g=g, f=f, c=solver != "rof_solve":
                             orc.check_rof_gap(g, f, s, c))
                ops.append(Op("%s %s%d a=%g #%d" % (solver, kind, size, a, k),
                              "%s.%s%d" % (solver, kind, size), solver, (g, f, a),
                              check=check))
    return Workload(ops, GRID_ROUND_S, calibration="dense")


# -- event-trace -----------------------------------------------------------

# A whole trajectory on these small graphs that runs longer than this has
# stalled; rof_path on 10x10 grids runs 4 to 13 s and then raises
# ConvergenceError.
EVENT_OP_CAP_S = 3.0
EVENT_ROUND_S = 28.0


def event_trace(seed: int, small: bool = False) -> Workload:
    """flow_solve and rof_path trajectories plus equivalence reports.

    flow_solve on grids 4x4 (6 draws), 6x6 (6), 8x8 (12) and 10x10 (10);
    rof_path on grids 4x4 (4 draws) and 10x10 (1, it stalls); both on 12
    random connected graphs of up to 12 vertices and on 2 draws each of
    paths of 50, 100, 150 and 200 vertices; equivalence_report on a path,
    two random graphs and a 4x4 grid.  flow_solve on 8x8 and 10x10 grids,
    whole trajectories of dozens of warm-started solves, are the workload's
    typical ops and get the most draws.
    """
    rng = np.random.default_rng(seed)
    ops = []

    def flow_op(label, g, f):
        ref = orc.CertifiedRof(g, f)
        ops.append(Op("flow_solve " + label, "flow." + label.split()[0], "flow_solve", (g, f),
                      check=lambda t: orc.check_flow_general(ref, g, t)))

    def path_op(label, g, f):
        ref = orc.CertifiedRof(g, f)
        ops.append(Op("rof_path " + label, "rof_path." + label.split()[0], "rof_path", (g, f),
                      check=lambda p: orc.check_rof_path(ref, p)))

    def equivalence_op(label, g, f, alpha, on_path=False, expect=None):
        ref = orc.CertifiedRof(g, f)
        ops.append(Op("equivalence_report %s a=%g" % (label, alpha), "equivalence",
                      "equivalence_report", (g, f, alpha),
                      check=lambda rep: orc.check_equivalence(ref, rep, on_path, expect)))

    flow_sides = ((3, 1), (4, 1)) if small else ((4, 6), (6, 6), (8, 12), (10, 10))
    path_sides = ((3, 1),) if small else ((4, 4), (10, 1))
    for side, draws in flow_sides:
        g = graphtv.cartesian_graph(side, side)
        for k in range(draws):
            flow_op("grid%d #%d" % (side, k), g, _field(rng, g))
    for side, draws in path_sides:
        g = graphtv.cartesian_graph(side, side)
        for k in range(draws):
            path_op("grid%d #%d" % (side, k), g, _field(rng, g))
    randoms = []
    for k in range(2 if small else 12):
        g = graphtv.random_connected_graph(rng, 12)
        f = _field(rng, g)
        randoms.append((g, f))
        flow_op("random #%d" % k, g, f)
        path_op("random #%d" % k, g, f)
    lines = (20,) if small else (50, 100, 150, 200)
    for n in lines:
        g = graphtv.path_graph(n)
        for k in range(1 if small else 2):
            f = _field(rng, g)
            ops.append(Op("flow_solve path%d #%d" % (n, k), "flow.path%d" % n, "flow_solve",
                          (g, f), check=lambda t, f=f: orc.check_flow_path_graph(
                              f, t, GRID_ALPHAS)))
            path_op("path%d #%d" % (n, k), g, f)
    g = graphtv.path_graph(lines[0])
    equivalence_op("path%d" % lines[0], g, _field(rng, g), 0.5, on_path=True, expect=True)
    for k, (g, f) in enumerate(randoms[:2]):
        equivalence_op("random #%d" % k, g, f, 0.5)
    if not small:
        g = graphtv.cartesian_graph(4, 4)
        equivalence_op("grid4", g, _field(rng, g), 0.5)
    return Workload(ops, EVENT_ROUND_S, op_cap_s=EVENT_OP_CAP_S)


# -- paper-verify ----------------------------------------------------------

PAPER_ROUND_S = 7.5

def anchor_check(g, alpha, trial_count, seed):
    """empirical_invariant_phi_min_check with the same anchors on every repeat."""
    return graphtv.empirical_invariant_phi_min_check(
        g, alpha, trial_count, rng=np.random.default_rng(seed))


def cli_inprocess(argv):
    """Run ``graphtv.cli.main`` in this process; returns (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = graphtv.cli.main(list(argv))
    return code, buf.getvalue().encode()


def cli_process(argv, src_dir):
    """Run the ``graphtv`` entry point in a child process (import included).

    The op time cap interrupts ``subprocess.run``, which then kills the child
    and waits for it.
    """
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-m", "graphtv.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def _cli_values(out: bytes):
    return np.asarray(json.loads(out.decode())["values"], dtype=float)


def _breakpoints(out: bytes):
    first = out.decode().splitlines()[0].split()
    return np.asarray([float(x) for x in first[1:]])


def _cli_checks(problem):
    """argv -> check of the decoded output, for every CLI subcommand and mode.

    The value modes run at each of the paper's sample parameters 0.2, 1, 3.
    """
    scale = orc.data_range(graphtv.nonequivalence_instance()[1])
    inst = graphtv.instances

    def values(ref):
        def check(out):
            err = float(np.abs(_cli_values(out) - ref).max()) / scale
            return orc.value_verdict(err, "closed form")
        return check

    def breakpoints(exact):
        def check(out):
            b = _breakpoints(out)
            err = orc.breakpoint_error(b[(b > 0) & (b <= 4.0)], exact)
            return orc.Verdict(err <= orc.BREAKPOINT_ATOL, err / min(exact), "breakpoints")
        return check

    def compare(out):
        rows = json.loads(out.decode())["reports"]
        verdicts = [r["equivalent"] for r in rows]
        return orc.Verdict(verdicts == [True, False, False], None, "equivalence verdicts")

    def passed(out):
        last = out.decode().rstrip("\n").splitlines()[-1]
        return orc.Verdict(last == "verification PASSED", None, last)

    samples = [("%g" % a, a) for a in orc.PAPER_SAMPLES]
    return [
        *[(("rof", problem, "--alpha", text), values(inst.regularization_reference(a)))
          for text, a in samples],
        (("rof", problem, "--path"), breakpoints(orc.PAPER_BREAKPOINTS)),
        *[(("flow", problem, "--t-end", text), values(inst.flow_reference(a)))
          for text, a in samples],
        (("flow", problem, "--trajectory"), breakpoints((0.4,))),
        (("compare", problem, "--grid", "0.2,1,3"), compare),
        (("verify", "--mode", "counterexample"), passed),
        (("verify", "--mode", "phimin", problem, "--alpha", "1"), passed),
        (("verify", "--mode", "isotropic", problem, "--trials", "4", "--seed", "7"), passed),
    ]


class CliOutputs:
    """Output bytes of each argv, compared across every repeat in a run."""

    def __init__(self):
        self.first = {}

    def check(self, argv, decode_check):
        def check(result):
            code, out = result
            if code != 0:
                return orc.miss("exit code %d" % code)
            ref = self.first.setdefault(tuple(argv), out)
            if out != ref:
                return orc.miss("output bytes differ from the first run")
            return decode_check(out)
        return check


def paper_verify(seed: int, small: bool = False, workdir: str = "",
                 src_dir: str = "") -> Workload:
    """The 3x3 instance, the phi-minimality suite and the CLI.

    Instance ops, all against the closed forms: counterexample_harness,
    rof_path, flow_solve, verify_universal_minimality at alpha 1, rof_solve
    at alpha 0.2, 0.4, ..., 4 and equivalence_report at six alphas.  Suite
    ops on random grids 3x3 to 16x16 at alpha 0.5:
    verify_universal_minimality, demonstrate_isotropic_failure with its box
    control, and empirical_invariant_phi_min_check.  CLI ops:
    every subcommand and mode through ``graphtv.cli.main`` in process, and
    each subcommand once more as a child process (import included); the
    value modes run at alpha and t in {0.2, 1, 3}; output bytes must repeat
    exactly.
    """
    rng = np.random.default_rng(seed)
    g, f = graphtv.nonequivalence_instance()
    problem = os.path.join(workdir, "problem.json")
    graphtv.write_problem(problem, g, f)
    ops = [
        Op("counterexample_harness", "bench.harness", "counterexample_harness",
           check=orc.check_harness),
        Op("rof_path paper", "rof.path", "rof_path", (g, f), check=orc.check_paper_path),
        Op("flow_solve paper", "flow", "flow_solve", (g, f), check=orc.check_paper_flow),
    ]
    for k in range(1, 4 if small else 21):
        a = k / 5.0
        ops.append(Op("rof_solve paper a=%g" % a, "rof.paper", "rof_solve", (g, f, a),
                      check=lambda s: orc.check_paper_rof(g, f, s)))
    for a in (0.3, 1.0) if small else (0.1, 0.3, 0.7, 1.0, 2.5, 3.5):
        ops.append(Op("equivalence_report paper a=%g" % a, "equivalence",
                      "equivalence_report", (g, f, a), check=orc.check_paper_equivalence))
    ops.append(Op("verify_universal_minimality paper", "minimality.verify",
                  "verify_universal_minimality", (g, f, 1.0), check=orc.check_phimin))

    sides = (3, 4) if small else (3, 4, 8, 12, 16)
    for side in sides:
        gs = graphtv.cartesian_graph(side, side)
        fs = _field(rng, gs)
        batch = [fs, fs + rng.normal(0.0, 0.5, fs.size)]
        ops.append(Op("verify_universal_minimality grid%d" % side, "minimality.verify",
                      "verify_universal_minimality", (gs, fs, 0.5), check=orc.check_phimin))
        if side == 12:
            continue
        ops.append(Op("demonstrate_isotropic_failure grid%d" % side, "minimality.isotropic",
                      "demonstrate_isotropic_failure", (gs, batch, 0.5),
                      check=lambda r: orc.check_isotropic(r, True)))
        ops.append(Op("isotropic box control grid%d" % side, "minimality.isotropic",
                      "demonstrate_isotropic_failure", (gs, batch[:1], 0.5),
                      {"coupled": False}, check=lambda r: orc.check_isotropic(r, False)))
        ops.append(Op("empirical_invariant_phi_min_check grid%d" % side, "minimality.anchor",
                      anchor_check, (gs, 0.5, 2, int(rng.integers(2**31))),
                      check=orc.check_anchor))

    outputs = CliOutputs()
    commands = _cli_checks(problem)
    if small:
        commands = commands[:1] + commands[-3:-2]
    for argv, decode in commands:
        ops.append(Op("cli " + " ".join(a for a in argv if a != problem), "cli.main",
                      cli_inprocess, (argv,), check=outputs.check(argv, decode)))
    # each subcommand once more as a user runs it, in a child process, where
    # start-up and import are part of the call
    seen = set()
    for argv, decode in commands:
        if argv[0] not in seen:
            seen.add(argv[0])
            ops.append(Op("process " + " ".join(a for a in argv if a != problem),
                          "cli.process", cli_process, (argv, src_dir),
                          check=outputs.check(argv, decode)))
    return Workload(ops, PAPER_ROUND_S)


NAMES = ("grid-solve", "event-trace", "paper-verify")


def build(name: str, seed: int, small: bool, workdir: str, src_dir: str) -> Workload:
    """Generate the inputs and op list of one workload."""
    if name == "grid-solve":
        return grid_solve(seed, small)
    if name == "event-trace":
        return event_trace(seed, small)
    return paper_verify(seed, small, workdir, src_dir)
