"""Problem and trajectory file formats.

A problem file is JSON with the graph, the datum, and optional metadata:

    {
      "edges": [[tail, head], ...],
      "values": [f(v0), f(v1), ...],
      "vertex_names": ["a", "b", ...],          optional
      "cartesian": [M, N],                      optional, with
      "grid_coords": [[i, j], ...]              per-vertex grid positions
    }

A trajectory file is line-oriented text: a "breakpoints" line followed by
one "row <param> <values...>" line per sample.  Both writers emit floats
with the shortest round-trip decimal form so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from typing import TextIO

import numpy as np

from .errors import ParseError
from .graph import OrientedGraph, ensure_vertex_field
from .rof import PiecewiseAffinePath


def format_float(x: float) -> str:
    """Shortest decimal form that round-trips the double exactly."""
    return "%.17g" % x if float("%.16g" % x) != x else (
        "%.16g" % x if float("%.15g" % x) != x else "%.15g" % x)


def _emit(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(obj):
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps_deterministic(obj) -> str:
    """JSON text with stable key order and round-trip float formatting."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def problem_to_dict(g: OrientedGraph, f) -> dict:
    f = ensure_vertex_field(g, f, "values")
    doc = {
        "edges": [[t, h] for t, h in zip(g.tails.tolist(), g.heads.tolist())],
        "values": [float(x) for x in f],
    }
    if g.names is not None:
        doc["vertex_names"] = list(g.names)
    if g.cartesian is not None:
        doc["cartesian"] = [int(g.cartesian[0]), int(g.cartesian[1])]
        doc["grid_coords"] = [[int(i), int(j)] for i, j in g.grid_coords]
    return doc


def write_problem(path: str, g: OrientedGraph, f) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_deterministic(problem_to_dict(g, f)))
        fh.write("\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def problem_from_dict(doc) -> tuple:
    """Build the graph and datum from a parsed problem document."""
    _require(isinstance(doc, dict), "problem document must be a JSON object")
    _require("edges" in doc, "problem document is missing 'edges'")
    _require("values" in doc, "problem document is missing 'values'")
    edges = doc["edges"]
    values = doc["values"]
    _require(isinstance(edges, list) and len(edges) > 0, "'edges' must be a nonempty list")
    for e in edges:
        _require(isinstance(e, list) and len(e) == 2
                 and all(isinstance(x, int) and not isinstance(x, bool) for x in e),
                 "each edge must be a pair of vertex indices")
    _require(isinstance(values, list) and len(values) > 0,
             "'values' must be a nonempty list")
    for x in values:
        _require(isinstance(x, (int, float)) and not isinstance(x, bool),
                 "'values' entries must be numbers")
    n = len(values)
    names = doc.get("vertex_names")
    if names is not None:
        _require(isinstance(names, list) and len(names) == n
                 and all(isinstance(s, str) for s in names),
                 "'vertex_names' must list one string per vertex")
    cartesian = doc.get("cartesian")
    grid_coords = doc.get("grid_coords")
    if cartesian is not None:
        _require(isinstance(cartesian, list) and len(cartesian) == 2
                 and all(isinstance(x, int) and not isinstance(x, bool) for x in cartesian),
                 "'cartesian' must be a pair [M, N]")
        _require(isinstance(grid_coords, list) and len(grid_coords) == n,
                 "'grid_coords' must list one [i, j] per vertex")
        for c in grid_coords:
            _require(isinstance(c, list) and len(c) == 2
                     and all(isinstance(x, int) and not isinstance(x, bool) for x in c),
                     "each grid coordinate must be a pair of integers")
        cartesian = (cartesian[0], cartesian[1])
        grid_coords = tuple((c[0], c[1]) for c in grid_coords)
    else:
        _require(grid_coords is None, "'grid_coords' requires 'cartesian'")
    try:
        g = OrientedGraph(n, [(e[0], e[1]) for e in edges], names=names,
                          cartesian=cartesian, grid_coords=grid_coords)
    except ValueError as exc:
        raise ParseError("invalid problem: %s" % exc) from exc
    try:
        f = np.array(values, dtype=float)
    except OverflowError:  # an integer too large for a float
        f = None
    _require(f is not None and bool(np.isfinite(f).all()), "'values' must be finite")
    return g, f


def read_problem(path: str) -> tuple:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc
    return problem_from_dict(doc)


def write_trajectory(fh: TextIO, path: PiecewiseAffinePath) -> None:
    """Serialize a piecewise affine path as text.

    Emits the breakpoint parameters, then one row per breakpoint (the last
    row is the terminal state by continuity).
    """
    fh.write("breakpoints " + " ".join(format_float(float(b))
                                       for b in path.breakpoints) + "\n")
    for s in map(float, path.breakpoints):
        fh.write("row " + format_float(s) + " "
                 + " ".join(format_float(float(x)) for x in path.value_at(s)) + "\n")
