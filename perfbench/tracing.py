"""Spans around the public functions at each graphtv module boundary.

The tracer replaces each listed function, in every ``graphtv`` module that
holds it, by a wrapper that records a span: name, parent span, region,
start and end, and the counts the function's result carries (iterations and
convergence of an engine solve, segments of a path or flow).  Replacing the
module attributes catches calls across modules (``graphtv.rof`` calling its
imported ``project_onto_div_box``) and within one (``rof_path`` calling
``rof_solve``).  Spans stay in memory until :meth:`Tracer.write`.

Nothing in ``src/`` is changed; :meth:`Tracer.uninstall` puts every
original function back.

``min_norm_divergence`` is one call to ``project_onto_div_box``.  A
projection span directly under a min-norm span is therefore folded into it:
it counts toward ``engine.min_norm`` (whose self time includes it), not
toward ``engine.project``, so the two layers never count one solve twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import graphtv.cli  # noqa: F401  (loads the CLI, which the package does not import)

# span name -> (module, function) pairs traced under that name
LAYERS = {
    "instances.build": [("instances", n) for n in (
        "cartesian_graph", "path_graph", "random_connected_graph",
        "random_vertex_field", "nonequivalence_instance")],
    "graph.operators": [("graph", n) for n in (
        "divergence", "edge_differences", "total_variation")],
    "graph.sign_pattern": [("graph", "sign_pattern")],
    "graph.membership": [("graph", "subdifferential_membership")],
    "engine.project": [("engine", "project_onto_div_box")],
    "engine.min_norm": [("engine", "min_norm_divergence")],
    "engine.separable": [("engine", "min_separable_convex_over_polytope")],
    "rof.solve": [("rof", "rof_solve")],
    "rof.isotropic": [("rof", "isotropic_rof_solve")],
    "rof.path": [("rof", "rof_path")],
    "flow.solve": [("flow", "flow_solve")],
    "minimality.verify": [("minimality", "verify_universal_minimality")],
    "minimality.isotropic": [("minimality", "demonstrate_isotropic_failure")],
    "minimality.anchor": [("minimality", "empirical_invariant_phi_min_check")],
    "bench.harness": [("bench", "counterexample_harness")],
    "bench.equivalence": [("bench", "equivalence_report")],
    "bench.taut_string": [("bench", "taut_string_1d")],
    "cli.main": [("cli", "main")],
    "io": [("io", n) for n in (
        "read_problem", "write_problem", "write_trajectory", "dumps_deterministic")],
}

ENGINE = ("engine.project", "engine.min_norm", "engine.separable")
# child span name -> parent span name it is folded into
FOLDED = {"engine.project": "engine.min_norm"}


def _counts(name, result):
    """Work counts carried by a traced function's return value."""
    if name in ENGINE:
        report = result[1]
        return {"iters": int(report.iterations), "unconverged": int(not report.converged)}
    if name == "rof.path":
        return {"segments": int(result.segment_count)}
    if name == "flow.solve":
        return {"segments": int(result.path.segment_count)}
    return None


class Tracer:
    """Span recorder.  Spans are dicts; ``parent`` is the index of the caller's span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    # -- spans opened by the benchmark itself --------------------------------

    def open(self, name, region, op=None):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else -1,
                "name": name, "region": region, "op": op,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span, error=None):
        span["end"] = time.perf_counter()
        if error is not None:
            span["error"] = error
        self._stack.pop()

    # -- wrapping the library ------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.spans[tracer._stack[-1]] if tracer._stack else None
            span = tracer.open(name, parent["region"] if parent else "none",
                               parent["op"] if parent else None)
            if parent and FOLDED.get(name) == parent["name"]:
                span["fold"] = True
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                raise
            tracer.close(span)
            counts = _counts(name, result)
            if counts:
                span.update(counts)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "graphtv" or key.startswith("graphtv.")]
        for name, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules["graphtv." + mod_name], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived figures -----------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct, unfolded children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0 and not s.get("fold"):
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def nearest(self, index, name):
        """Index of the nearest strict ancestor of span ``index`` called ``name``."""
        p = self.spans[index]["parent"]
        while p >= 0:
            if self.spans[p]["name"] == name:
                return p
            p = self.spans[p]["parent"]
        return -1

    def summary(self, region):
        """Per span name in ``region``: calls, self time and summed counts.

        Folded spans are left out; their time is in their parent's self time.
        """
        selfs = self.self_times()
        out = defaultdict(lambda: defaultdict(float))
        for s, st in zip(self.spans, selfs):
            if s["region"] != region or s.get("fold"):
                continue
            row = out[s["name"]]
            row["calls"] += 1
            row["self_s"] += st
            row["wall_s"] += s["end"] - s["start"]
            for key in ("iters", "unconverged", "segments"):
                row[key] += s.get(key, 0)
        return out

    def descendants_under(self, region, ancestor, names):
        """Count spans named in ``names`` that run inside an ``ancestor`` span."""
        return sum(1 for i, s in enumerate(self.spans)
                   if s["region"] == region and s["name"] in names
                   and self.nearest(i, ancestor) >= 0)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
