"""Total-variation gradient flow on oriented graphs.

Integrates du/dt = -m(u), where m(u) is the minimum-norm element of the
total-variation subdifferential at u.  The trajectory is piecewise affine
in t: within a segment the sign pattern of u is constant and each cluster
of flat edges moves along its line ``c + t * d`` with the fixed direction
d = -m(u); a segment ends when the lines across a non-flat edge meet.  The
flow reaches the mean field in finite time and stays there.

The flow is the regularization path with zero pull, and runs on the
path's event loop (:func:`graphtv.rof._trace`) with a :class:`PatternKernel`
without a datum.  Both start from the exact ties of f; the flow then
carries its labels: a fusion turns the closing edges flat and a split pins
the edges of a min cut.  On each calibrable cluster d is the negated
cluster mean of the pinned flux, with a spanning-forest witness or, where
that flow leaves the box, the flow of an integer max-flow; a cluster that
is not calibrable splits along the max-flow's min cut at once, and the
parts are tested again at the same instant.  Each cluster's line is exact:
its intercept is a rational that a fusion adds up and a split sets by
continuity at the event's exact time, so every breakpoint is its exact
rational, rounded once, and no state is snapped.

Each segment also records a witness flow H_k realizing d_k = -div H_k and
the accumulated antiderivative F(t) = -integral of H over [0, t], so
u(t) = f + div F(t) holds along the whole trajectory.  A cluster's state
is a line from its birth to its death, and the trajectory stores each line
once (see :class:`FlowTrajectory`).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import PathError, ValidationError
from .graph import (OrientedGraph, PatternKernel, ensure_number, ensure_vertex_field,
                    failure_site, sign_pattern)
from .rof import PiecewiseAffinePath, _Lines, _trace, rof_solve


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # where the floats of a and b differ in their bits
    return a.view(np.int64) != b.view(np.int64)


class FlowTrajectory:
    """Complete gradient-flow trajectory of one datum.

    ``path`` holds the breakpoints, the states and the directions d.  Each
    vertex's state follows a line from its cluster's birth, by a fusion,
    a split or the start, to its death: ``path`` stores it once, as its
    intercept ``c`` at t = 0, the cluster's exact line rounded once, and d.
    Every breakpoint is an exact rational, rounded once.  The antiderivative
    F(t) = -integral of the witness H over [0, t] (max-norm of H at most 1,
    d = -div H) is stored the same way, as a path over the edges with
    slopes -H: each edge's line is its F at the last change of its H, with
    that H.  A cluster's witness and a pinned edge's label are fixed for
    the cluster's life, so a line changes only where an event changed a
    cluster (see :class:`PiecewiseAffinePath`).  ``directions``, ``flows``
    (one row per segment) and ``antiderivative`` (F at every breakpoint,
    first row zero) build dense arrays on demand.  Beyond the final
    breakpoint the state is the mean field and F stays at its final value.
    A constant datum has the one breakpoint 0 and no segment.
    """

    __slots__ = ("path", "_integral")

    def __init__(self, path: PiecewiseAffinePath, integral: PiecewiseAffinePath):
        self.path, self._integral = path, integral

    @property
    def breakpoints(self) -> np.ndarray:
        return self.path.breakpoints

    @property
    def t_max(self) -> float:
        return float(self.path.breakpoints[-1])

    @property
    def directions(self) -> np.ndarray:
        return self.path.slopes

    @property
    def flows(self) -> np.ndarray:
        return -self._integral.slopes

    @property
    def antiderivative(self) -> np.ndarray:
        return np.vstack([self._integral.left_values, self._integral.terminal_value])

    def value_at(self, t: float) -> np.ndarray:
        return self.path.value_at(t)

    def direction_at(self, t: float) -> np.ndarray:
        return self.path.slope_at(t)

    def antiderivative_at(self, t: float) -> np.ndarray:
        return self._integral.value_at(t)


def flow_solve(g: OrientedGraph, f) -> FlowTrajectory:
    """Integrate the gradient flow of the total variation from datum f.

    Exact event-driven integration.  The flow starts from the sign pattern
    of the exact ties of f, as :func:`graphtv.rof.rof_path` does, and runs
    on its event loop with zero pull: the lines start at the cluster means
    of f, which are f's own values, and each segment gives the direction
    (the negated minimum-norm subdifferential element) and its witness,
    whose part on each cluster is certified once, when the cluster forms.
    The flow reads no tolerance.  Terminates at the mean field, the final
    kernel's intercept, the exact mean of f rounded once (at once for a
    constant f), or raises :class:`PathError` after ``16 m + 64`` events.

    Each segment appends the lines it sets to two logs: of the vertices
    whose cluster an event changed, and of the edges at them whose -H
    changed in its bits, anchored at their current F, which only the flow
    keeps.  Memory grows with the changes, not with segments x (n + m).
    """
    f = ensure_vertex_field(g, f, "f")
    values, integral, bps = _Lines(g.vertex_count), _Lines(g.edge_count), []
    # each edge's current line of F: its value at since, and its slope -H
    anchor, minus_h, since = (np.zeros(g.edge_count) for _ in range(3))
    prev_norm = math.inf
    kernel = PatternKernel(g, sign_pattern(g, f, scale=0.0), u=f)
    for t, _, moved in _trace(kernel):
        bps.append(t)
        if moved is None:
            break
        d = kernel.slope
        dnorm = math.sqrt(float((d * d).sum()))  # .sum(): no BLAS, whose bits follow threads
        if dnorm > prev_norm * (1.0 + 1e-9):
            warnings.warn("descent speed failed to decrease across a segment",
                          RuntimeWarning)
        prev_norm = dnorm
        # a vertex takes a new line, anchored at t = 0, where an event
        # changed its cluster, and an edge at it a new line of F, anchored
        # at t, where its -H changed in its bits
        values.append(0.0, moved, kernel.intercept[moved], d[moved])
        edges = kernel.edges_at(moved)
        slope = -(kernel.witness()[edges] - kernel.pattern.labels[edges])
        keep = _differ(slope, minus_h[edges])
        edges, slope = edges[keep], slope[keep]
        a = anchor[edges] + (t - since[edges]) * minus_h[edges]
        anchor[edges], minus_h[edges], since[edges] = a, slope, t
        integral.append(t, edges, a, slope)

    fbar = float(f.mean())
    if float(np.abs(kernel.intercept - fbar).max()) > 1e-6 * (1.0 + abs(fbar)):
        raise PathError("terminal segment %d: flow ended off the mean field %s"
                        % (len(bps) - 1, failure_site(g, "t", t)),
                        interval=(bps[-2] if len(bps) > 1 else 0.0, t))

    return FlowTrajectory(PiecewiseAffinePath._compact(bps, kernel.intercept.copy(), values),
                          PiecewiseAffinePath._compact(bps, anchor + (t - since) * minus_h,
                                                       integral))


# the most rof_solve steps that flow_backward_euler takes
MAX_EULER_STEPS = 10 ** 6


def flow_backward_euler(g: OrientedGraph, f, t_end: float, step: float) -> np.ndarray:
    """Implicit-Euler approximation of the flow state at t_end.

    Iterates the certified resolvent :func:`rof_solve` with parameter
    ``step``; the last step is shortened to land exactly on t_end.
    First-order accurate in ``step``.  At most ``MAX_EULER_STEPS`` steps:
    a ``t_end / step`` that asks for more raises :class:`ValidationError`.
    """
    f = ensure_vertex_field(g, f, "f")
    t_end = ensure_number(t_end, "t_end")
    step = ensure_number(step, "step", above=True)
    # t_end / step overflows where the step is far below t_end
    ratio = ensure_number(t_end / step, "t_end / step")
    count = int(math.ceil(ratio - 1e-12)) if t_end > 0 else 0
    if count > MAX_EULER_STEPS:
        raise ValidationError("t_end / step asks for %d steps, more than %d"
                              % (count, MAX_EULER_STEPS))
    u = f.copy()
    t = 0.0
    for k in range(count):
        h = min(step, t_end - t)
        if h <= 0:
            break
        u = rof_solve(g, u, h).u
        t += h
    return u
