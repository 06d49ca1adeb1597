"""graphtv benchmark: one closed-loop workload, timed, checked and optionally traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 30 --trace 0

Workloads: grid-solve, event-trace, paper-verify (see workloads.py).  The
seed draws the workload's data; the library runs from ``src/`` of the
checkout.  The run repeats the workload's op list a fixed number of rounds,
``--seconds`` divided by the workload's nominal round time (see
workloads.py), so the repeat count does not follow the machine's speed.
Every op is checked against its oracle on every repeat (see oracles.py).

Output: a human-readable report and a run record, then, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are end to end:

    setup_s          median of 7 child processes that import graphtv and
                     build the workload's inputs
    wall_norm_s      the op list's time at calibration speed: the sum over
                     ops of each op's normalized time (oracles excluded)
    ok_share         1 - fail_share; an op fails when it raises
                     ConvergenceError or PathError, hits the per-op time
                     cap, or misses its oracle
    accuracy_digits  -log10 of the worst oracle error relative to the data
                     range over successful ops (capped at 16)
    peak_rss_mb      peak resident memory of this process

Normalized times.  On a shared 2-core machine the speed of identical calls
drifted by up to 1.5x within minutes, in CPU time as much as in wall time,
so no number of repeats makes measured seconds reproduce from one run to the
next.  Each op is therefore bracketed by two runs of a fixed calibration
kernel that does the same kind of work as the workload's ops (see
CALIBRATIONS: interpreter loops and small numpy calls, or dense
matrix-vector products for the large-grid solves), and its time is scaled
by the kernel's nominal time over the faster of the two: the op's seconds
at the speed where the kernel takes its nominal time.  The kernels are the
benchmark's own code, so a change to graphtv moves these figures; a change
in the machine's load mostly does not.  An op's normalized time is the fastest of
its repeats, one per round; an op stopped at its time cap counts the cap
itself.

The report also prints op_norm_s_tail (the highest percentile of the
normalized per-op times that leaves at least 10 ops beyond it, with the
percentile, the op count and the op), the measured (unnormalized) wall_s,
op_s_tail and op_s_p50, fail_share, the machine speed the calibration saw,
the failing ops with their exception types, and each op family's share of
wall_s.  They are left out of the result line because they do not
reproduce within any bound the result could hold: the tail op of grid-solve
is whichever 24x24 draw stalls, and measured seconds follow the machine.

With ``--trace 1`` the run alternates untraced and traced rounds and
reports per-layer figures from spans recorded around the library's public
functions (see tracing.py); spans are written to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.

The run record printed before the result names the interpreter, numpy and
scipy, the cores, the BLAS and its threads and the last-level cache.  Gain
claims must also hold on HELD_OUT_SEED.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread, set before numpy loads it (child processes inherit it).
# With numpy's default of one thread per core, a 24x24 solve on a shared
# 2-core machine ran 3.3x slower whenever one other process was busy, and
# the same op list repeated on one seed varied by 30 % per op; with one
# thread the slowdown was 1.1x and repeats agreed within 3 %.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# a seed not used while tuning the benchmark; gain claims must hold on it too
HELD_OUT_SEED = 20181027
SETUP_REPEATS = 7
# a run that overruns --seconds by this factor stops after the current round
OVERRUN = 1.6
TAIL_BEYOND = 10
RECORDED_ERRORS = ("ConvergenceError", "PathError", "OpTimeout")


class OpTimeout(Exception):
    """An op ran past its workload's time cap."""


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time cap")


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest order statistic with ``beyond`` samples above it.

    Sorted ascending, the value at index n - 1 - beyond has exactly
    ``beyond`` samples after it.  With fewer than beyond + 1 samples the
    maximum is returned at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n


# -- machine speed ---------------------------------------------------------

_SMALL = np.random.default_rng(0).normal(size=(64, 64)) / 8.0
_DENSE = []


def interpreter_kernel():
    """Small dense numpy calls and interpreter loops: the work of small-graph ops."""
    x = np.linspace(-1.0, 1.0, 64)
    acc = 0.0
    for _ in range(600):
        x = np.clip(_SMALL @ x, -1.0, 1.0)
        acc += float(x @ x)
    counts = {}
    for i in range(8000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


def dense_kernel():
    """Gradient steps with a dense 576 x 1104 matrix: the work of large-grid solves.

    The library's projection applies the dense incidence matrix of the graph
    and its transpose once per iteration; these are the sizes of a 24x24 grid.
    """
    if not _DENSE:
        _DENSE.append(np.random.default_rng(0).normal(size=(576, 1104)) / 64.0)
    d = _DENSE[0]
    target = np.ones(d.shape[0])
    h = np.zeros(d.shape[1])
    for _ in range(12):
        h -= 0.01 * (d.T @ (d @ h - target))
    return h


# kernel name -> (kernel, its median time between ops on the machine the
# benchmark was tuned on); normalized times are seconds at that speed
CALIBRATIONS = {
    "interpreter": (interpreter_kernel, 0.0075),
    "dense": (dense_kernel, 0.0060),
}


def calibration_time(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


# -- the run ---------------------------------------------------------------

class Runner:
    """Executes a workload's op list pass by pass, timing and checking each op."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        n = len(workload.ops)
        self.times = [[] for _ in range(n)]
        # nominal / measured calibration time around each repeat
        self.speed = [[] for _ in range(n)]
        self.kernel, self.nominal_s = CALIBRATIONS[workload.calibration]
        self.kernel()  # allocations and first-call costs stay out of the timings
        self.failures = {}          # op index -> failure kind (first seen)
        self.failed = 0
        self.attempted = 0
        self.errors = [None] * n    # op index -> relative error of a success
        self.breakpoint_err = 0.0
        self.misses = {}            # op index -> (oracle note, error)
        self.unexpected = {}        # op index -> exception type
        self.bytes_out = {}         # CLI op index -> bytes written to stdout
        self.elapsed = 0.0          # seconds spent in passes

    def run_pass(self, traced=False):
        """One pass over the op list; returns the summed op time."""
        if traced:
            with self.tracer:
                return self._run_pass(self.tracer)
        return self._run_pass(None)

    def _run_pass(self, tr):
        total = 0.0
        for i, op in enumerate(self.workload.ops):
            # a child-process op has no library span inside; its root span is its layer
            root = "cli.process" if op.family == "cli.process" else "op"
            kind = None
            result = error = None
            before = calibration_time(self.kernel)
            span = tr.open(root, "ops", i) if tr else None
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.workload.op_cap_s)
            try:
                result = op()
            except Exception as exc:  # every failure is a result, not a crash
                kind = type(exc).__name__
                error = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            if tr:
                tr.close(span, kind)
            # a load spike can only slow a calibration down: the faster of the
            # two is the machine's speed around the op
            cal = min(before, calibration_time(self.kernel))
            total += dt
            self.times[i].append(dt)
            # an op stopped at the cap counts the cap, a fixed wall-clock limit
            self.speed[i].append(1.0 if kind == "OpTimeout" else self.nominal_s / cal)
            self.attempted += 1
            if kind is None:
                if op.family.startswith("cli."):
                    self.bytes_out[i] = len(result[1])
                kind = self._check(i, op, result, tr)
            if kind is not None:
                self.failed += 1
                self.failures.setdefault(i, kind)
                if kind not in RECORDED_ERRORS and not kind.startswith(("miss", "oracle")):
                    self.unexpected[i] = repr(error)
        return total

    def _check(self, i, op, result, tr):
        import oracles
        span = tr.open("oracle", "oracle", i) if tr else None
        try:
            verdict = op.check(result)
        except oracles.ReferenceFailure as exc:
            # the oracle's own reference solve failed: the op is unverified
            verdict = exc.kind
        except Exception as exc:
            # anything else, e.g. output that does not parse, is a wrong answer
            verdict = oracles.miss("check raised %r" % exc)
        if tr:
            tr.close(span, verdict if isinstance(verdict, str) else None)
        if isinstance(verdict, str):
            return "oracle:" + verdict
        if verdict.breakpoint_err is not None:
            self.breakpoint_err = max(self.breakpoint_err, verdict.breakpoint_err)
        if not verdict.ok:
            self.misses[i] = (verdict.note, verdict.error)
            return "miss"
        self.errors[i] = verdict.error
        return None

    def passes(self, rounds, budget_s, traced_pairs=False):
        """Run ``rounds`` passes; returns their op times.

        With ``traced_pairs`` each round is an untraced pass followed by a
        traced one, and the result is (untraced times, traced times).  A run
        that passes OVERRUN times ``budget_s`` stops after the current round
        (the report states the rounds run).
        """
        start = time.perf_counter()
        plain, traced = [], []
        for _ in range(rounds):
            plain.append(self.run_pass())
            if traced_pairs:
                traced.append(self.run_pass(traced=True))
            if time.perf_counter() - start > OVERRUN * budget_s:
                break
        self.elapsed = time.perf_counter() - start
        return (plain, traced) if traced_pairs else plain

    @property
    def correct(self):
        return not self.misses and not self.unexpected


# -- set-up ----------------------------------------------------------------

def setup_seconds(workload, seed):
    """Median wall time of child processes that import graphtv and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls at 50 ms steps and the figure
        # comes out rounded to them
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def build(name, seed, small, workdir):
    import workloads
    return workloads.build(name, seed, small, workdir, SRC)


def rounds_for(workload, seconds):
    """Rounds that fill ``seconds`` at the workload's nominal round time (at least 1)."""
    return max(1, int(round(seconds / workload.round_s)))


# -- run record ------------------------------------------------------------

def _blas():
    """(library name, thread count) of numpy's BLAS, as far as it can be read."""
    import ctypes
    import numpy as np
    name, threads = "unknown", None
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getter = getattr(lib, sym)
                    getter.restype = ctypes.c_int
                    threads = int(getter())
                    break
    except OSError:
        pass
    return name, threads


def _last_level_cache():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        for entry in os.listdir(base):
            if entry.startswith("index"):
                with open(os.path.join(base, entry, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
                best = max(best, (level, size), key=lambda x: x[0])
    except OSError:
        pass
    return best[1]


def run_record(workload, seed):
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "last_level_cache": _last_level_cache(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "note": "figures from a shared 2-core sandbox unless stated otherwise",
    }


# -- metrics ---------------------------------------------------------------

def end_to_end(runner, setup_s):
    """(result metrics, report-only figures) of an untraced run."""
    raw = [min(t) for t in runner.times]
    norm = [min(t * v for t, v in zip(ts, vs)) for ts, vs in zip(runner.times, runner.speed)]
    norm_tail, tail_pct = tail(norm)
    tail_op = runner.workload.ops[norm.index(norm_tail)].name
    errors = [e for e in runner.errors if e is not None]
    worst = max(errors) if errors else 1.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_norm_s": (sum(norm), "s"),
        "ok_share": (1.0 - runner.failed / runner.attempted, "share"),
        "accuracy_digits": (min(16.0, -math.log10(max(worst, 1e-16))), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speeds = [v for vs in runner.speed for v in vs]
    notes = {
        # report only: on grid-solve the op at the tail is whichever 24x24
        # draw happens to stall, and it moved by 35 % from seed to seed
        "op_norm_s_tail": "%.6g s, p%.1f of %d per-op times, %d beyond: %s" % (
            norm_tail, tail_pct, len(norm), min(TAIL_BEYOND, len(norm) - 1), tail_op),
        # report only: measured seconds follow the shared machine's speed,
        # which drifted by up to 1.5x within minutes
        "wall_s": "%.6g s" % sum(raw),
        "op_s_tail": "%.6g s" % tail(raw)[0],
        "op_s_p50": "%.6g s" % statistics.median(raw),
        "fail_share": "%.6g" % (runner.failed / runner.attempted),
        "speed": "median %.3f, range %.3f-%.3f of the calibration speed" % (
            statistics.median(speeds), min(speeds), max(speeds)),
    }
    return metrics, notes


def per_layer(runner, tracer, plain, traced):
    """Per-layer figures per traced pass, from the spans of the op region."""
    k = len(traced)
    ops = tracer.summary("ops")
    setup = tracer.summary("setup")
    oracle = tracer.summary("oracle")

    def get(name, key, table=ops):
        return table[name][key] if name in table else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {"instances.build_s": (get("instances.build", "self_s", setup), "s")}
    for layer in ("engine.project", "engine.min_norm", "engine.separable"):
        metrics[layer + ".calls"] = (get(layer, "calls") / k, "count")
        metrics[layer + ".iters"] = (get(layer, "iters") / k, "count")
        metrics[layer + ".self_s"] = (get(layer, "self_s") / k, "s")
        metrics[layer + ".unconverged"] = (get(layer, "unconverged") / k, "count")
    metrics["engine.project.s_per_iter"] = (
        ratio(get("engine.project", "self_s"), get("engine.project", "iters")), "s")
    for layer in ("graph.sign_pattern", "graph.membership", "graph.operators",
                  "rof.solve", "rof.isotropic", "rof.path", "flow.solve"):
        metrics[layer + ".calls"] = (get(layer, "calls") / k, "count")
        metrics[layer + ".self_s"] = (get(layer, "self_s") / k, "s")
    flow_solves = tracer.descendants_under("ops", "flow.solve", ("engine.min_norm",))
    metrics["flow.solve.segments"] = (get("flow.solve", "segments") / k, "count")
    metrics["flow.solve.solves_per_segment"] = (
        ratio(flow_solves, get("flow.solve", "segments")), "ratio")
    path_solves = tracer.descendants_under("ops", "rof.path", ("rof.solve", "engine.min_norm"))
    metrics["rof.path.inner_solves"] = (path_solves / k, "count")
    metrics["rof.path.solves_per_breakpoint"] = (
        ratio(path_solves, get("rof.path", "segments")), "ratio")
    metrics["rof.path.breakpoint_err"] = (runner.breakpoint_err, "abs")
    for layer in ("minimality.verify", "minimality.isotropic", "minimality.anchor",
                  "bench.harness", "bench.equivalence", "cli.main", "io"):
        metrics[layer + ".self_s"] = (get(layer, "self_s") / k, "s")
    # oracle time: it runs outside the timed ops
    metrics["bench.taut_string.self_s"] = (get("bench.taut_string", "self_s", oracle) / k, "s")
    metrics["cli.process_s"] = (get("cli.process", "wall_s") / k, "s")
    metrics["io.bytes_out"] = (sum(runner.bytes_out.values()), "bytes")
    layers_self = sum(row["self_s"] for name, row in ops.items() if name != "op")
    metrics["ops.self_s"] = (get("op", "self_s") / k, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.layers_share"] = (ratio(layers_self, sum(traced)), "share")
    return metrics


# -- entry point -----------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="a reduced op list that runs in seconds (self-tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphtv", "__init__.py")):
        sys.stderr.write("perfbench: no graphtv sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import graphtv
    if os.path.dirname(os.path.dirname(os.path.abspath(graphtv.__file__))) != SRC:
        sys.stderr.write("perfbench: graphtv imported from outside %s\n" % SRC)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.NAMES)))
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.setup_only:
            build(args.workload, args.seed, args.small, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    signal.signal(signal.SIGALRM, _on_alarm)
    record = run_record(args.workload, args.seed)
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer:
            span = tracer.open("setup", "setup")
            wl = build(args.workload, args.seed, args.small, workdir)
            tracer.close(span)
        runner = Runner(wl, tracer)
        # an untraced and a traced pass per round: half the rounds fill the time
        plain, traced = runner.passes(rounds_for(wl, args.seconds / 2), args.seconds,
                                      traced_pairs=True)
        metrics = per_layer(runner, tracer, plain, traced)
        path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        notes = {"spans": os.path.relpath(path, ROOT)}
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        wl = build(args.workload, args.seed, args.small, workdir)
        runner = Runner(wl)
        runner.passes(rounds_for(wl, args.seconds), args.seconds)
        metrics, notes = end_to_end(runner, setup_s)
    report(args, record, runner, metrics, notes)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, record, runner, metrics, notes):
    ops = runner.workload.ops
    passes = len(runner.times[0]) if runner.times else 0
    print("run record: " + json.dumps(record))
    print("%s seed %d: %d ops x %d rounds in %.1f s, %d attempted, %d failed (fail_share %.4f)"
          % (args.workload, args.seed, len(ops), passes, runner.elapsed, runner.attempted,
             runner.failed, runner.failed / max(runner.attempted, 1)))
    kinds = {}
    for i, kind in sorted(runner.failures.items()):
        kinds[kind] = kinds.get(kind, 0) + 1
        print("  failed: %-44s %s" % (ops[i].name, kind))
    for i, (note, err) in sorted(runner.misses.items()):
        print("  miss: %s (%s, error %s)" % (ops[i].name, note, err))
    for i, kind in sorted(runner.unexpected.items()):
        print("  unexpected: %s raised %s" % (ops[i].name, kind))
    if kinds:
        print("  failing ops by kind: " + ", ".join("%s %d" % kv for kv in sorted(kinds.items())))
    per_op = [min(t) for t in runner.times]
    shares = {}
    for op, t in zip(ops, per_op):
        count, total = shares.get(op.family, (0, 0.0))
        shares[op.family] = (count + 1, total + t)
    wall = sum(per_op) or 1.0
    for family, (count, total) in sorted(shares.items(), key=lambda kv: -kv[1][1]):
        print("  share of wall_s: %-22s %3d ops %8.3f s %5.1f %%" % (
            family, count, total, 100.0 * total / wall))
    for name, (value, unit) in metrics.items():
        extra = "  (%s)" % notes[name] if name in notes else ""
        print("  %-36s %.6g %s%s" % (name, value, unit, extra))
    for key, value in notes.items():
        if key not in metrics:
            print("  %s: %s" % (key, value))


if __name__ == "__main__":
    sys.exit(main())
