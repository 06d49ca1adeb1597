"""Total-variation gradient flow on oriented graphs.

Integrates du/dt = -m(u), where m(u) is the minimum-norm element of the
total-variation subdifferential at u.  The trajectory is piecewise affine
in t: within a segment the sign pattern of u is constant and the state
moves along the fixed direction d = -m(u); a segment ends when a non-flat
edge difference crosses zero.  The flow reaches the mean field in finite
time and stays there.

The direction is exact to rounding, and no iterative solve runs.  The
sign pattern of f is thresholded once; the flow then carries its labels:
a fusion turns the closing edges flat and a split pins the edges of a min
cut.  On each calibrable cluster of flat edges, d is the negated cluster
mean of the pinned flux, with a spanning-forest witness or, where that
flow leaves the box, the flow of an integer max-flow.  A cluster that is
not calibrable splits along the max-flow's min cut, and the parts are
tested again at the same instant (see :func:`settle`).  These are the
cluster tests of the regularization path with the datum's pull removed:
both run on :class:`PatternKernel`.  Each event's kernel is the
successor of the last: only the clusters the event fused or split are
built again, and every other cluster keeps the tests it has run.

Each segment also records a witness flow H_k realizing d_k = -div H_k and
the accumulated antiderivative F(t) = -integral of H over [0, t], so
u(t) = f + div F(t) holds along the whole trajectory.  A cluster's state
is a line from its birth to its death, and the trajectory stores each line
once (see :class:`FlowTrajectory`).
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PathError, ValidationError
from .graph import (DEFAULT_TOL, OrientedGraph, PatternKernel, Tolerances,
                    cluster_mean, ensure_vertex_field, event_cap, failure_site,
                    next_fusion, sign_pattern)
from .rof import PiecewiseAffinePath, _Lines, _differ, rof_solve


class FlowTrajectory:
    """Complete gradient-flow trajectory of one datum.

    ``path`` holds the breakpoints, the states and the directions d.  Each
    vertex's state follows a line from its cluster's birth, by a fusion,
    a split or the start, to its death: ``path`` stores it once, as the
    state at the birth and d.  The antiderivative F(t) = -integral of the
    witness H over [0, t] (max-norm of H at most 1, d = -div H) is stored
    the same way, as a path over the edges with slopes -H: each edge's
    line is its F at the last change of its H, with that H.  A cluster's
    witness and a pinned edge's label are fixed for the cluster's life, so
    a line changes only where an event changed a cluster (see
    :class:`PiecewiseAffinePath`).  ``directions``, ``flows`` (one row per
    segment) and ``antiderivative`` (F at every breakpoint, first row zero)
    build dense arrays on demand.  Beyond the final breakpoint the state is
    the mean field and F stays at its final value.
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


def settle(kernel: PatternKernel, t: float = 0.0) -> tuple:
    """The flow's direction at a state with the kernel's pattern, certified.

    ``kernel`` has zero pull.  Returns ``(kernel, d, H)``: the kernel
    :meth:`PatternKernel.settle` gives at t = 0, its slope ``d`` (the
    negated minimum-norm subdifferential element) and its witness ``H``
    with the pinned edges at their bounds.  The certificate: ``|H| <= 1``,
    ``||div H + d||_inf <= 1e-12 (1 + ||d||_inf)``, and on every flat edge
    a split cut, ``H`` sits at the bound the optimality conditions ask
    for.  A failed certificate raises :class:`ConvergenceError`; ``t``
    names the state in its message.
    """
    g = kernel.graph
    flat = kernel.pattern.flat
    kernel = kernel.settle()
    d = kernel.slope
    h = kernel.witness() - kernel.pattern.labels
    residual = float(np.abs(g._div(h) + d).max())
    dd = d[g.tails] - d[g.heads]
    cut = flat & (dd != 0.0)
    if (h.size and float(np.abs(h).max()) > 1.0
            or residual > 1e-12 * (1.0 + float(np.abs(d).max()))
            or not np.array_equal(h[cut], -np.sign(dd[cut]))):
        raise ConvergenceError("minimal section failed its certificate (residual "
                               "%.3g) %s" % (residual, failure_site(g, "t", t)))
    return kernel, d, h


def minimal_section(g: OrientedGraph, u, tol: Optional[Tolerances] = None, *,
                    scale: float | None = None) -> np.ndarray:
    """Minimum-Euclidean-norm element of the total-variation subdifferential at u.

    This is the negated right derivative of the gradient flow through u,
    exact to rounding (see :func:`settle`).
    """
    tol = tol if tol is not None else DEFAULT_TOL
    u = ensure_vertex_field(g, u, "u")
    return -settle(PatternKernel(g, sign_pattern(g, u, tol, scale=scale)))[1]


def flow_solve(g: OrientedGraph, f, tol: Optional[Tolerances] = None) -> FlowTrajectory:
    """Integrate the gradient flow of the total variation from datum f.

    Exact event-driven integration.  The sign pattern of f is derived once,
    with ``tol.flat_tol`` relative to the range of f marking the ties, and
    then carried: per segment, :func:`settle` splits the clusters that are
    not calibrable and gives the direction (the negated minimum-norm
    subdifferential element) and its witness; the segment ends at the
    first zero crossing of a non-flat edge difference; the crossing edges
    turn flat, and the state is snapped exactly flat over the clusters
    they join.  Every other cluster follows its line, its state at its
    birth plus the time since times d, and keeps its witness.  Terminates
    at the mean field, or raises :class:`PathError` after ``16 m + 64``
    segments.

    Each segment stores the lines it sets: of the vertices of the clusters
    born at its start, and of the edges whose witness changed.  Memory
    grows with the changes, not with segments x (n + m).
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    fbar = float(f.mean())
    mean_field = np.full(g.vertex_count, fbar)
    scale = float(f.max() - f.min())
    values, integral = _Lines(g.vertex_count), _Lines(g.edge_count)
    if scale == 0.0:
        return FlowTrajectory(PiecewiseAffinePath._compact([0.0], f.copy(), values),
                              PiecewiseAffinePath._compact([0.0], np.zeros(g.edge_count),
                                                           integral))

    kernel = PatternKernel(g, sign_pattern(g, f, tol, scale=scale))
    u = f.copy()
    t = 0.0
    bps = [0.0]
    born = np.ones(g.vertex_count, dtype=bool)
    prev_norm = math.inf

    for _ in range(event_cap(g)):
        if kernel.pattern.all_flat:
            break
        kernel, d, h = settle(kernel, t)
        dnorm = float(np.linalg.norm(d))
        if dnorm <= 0.0:
            raise PathError("zero descent direction " + failure_site(g, "t", t),
                            interval=(t, t))
        if dnorm > prev_norm * (1.0 + 1e-9):
            warnings.warn("descent speed failed to decrease across a segment",
                          RuntimeWarning)
        prev_norm = dnorm
        # a vertex takes a new line where the last event made its cluster or
        # a split changed its direction, an edge where its witness changed;
        # every other entry follows its line
        values.append(t, born | _differ(d, values.slope), u, d)
        minus_h = -h
        integral.append(t, _differ(minus_h, integral.slope), integral.at(t), minus_h)

        tau, crossing = next_fusion(g, kernel.pattern, u, d)
        if not 0.0 < tau < math.inf:
            raise PathError("no edge closes " + failure_site(g, "t", t),
                            interval=(t, t))
        line = values.at(t + tau)
        before = kernel.pattern.labels
        labels = before.copy()
        late = crossing
        while late.any():
            # the next pattern's clusters join the closing edges' ends; snap
            # the state exactly flat over the clusters the event made (at the
            # first event over every cluster, since the ties of f are flat
            # only to flat_tol).  A pinned edge that rounding in the snap
            # leaves at or past its meeting point closes too
            labels[late] = 0
            kernel = kernel.successor(labels)
            root = kernel.clusters.root
            if t > 0.0:
                changed = (kernel.pattern.labels != before).nonzero()[0]
                made = np.zeros(g.vertex_count, dtype=bool)
                made[root[g.tails[changed]]] = made[root[g.heads[changed]]] = True
                born = made[root]
            # the mean corrected once by the mean of its residuals: a large
            # cluster's sum in vertex order loses bits, which the late
            # meetings of nearly parallel lines would magnify
            mean = cluster_mean(root, line)
            u_next = np.where(born, mean + cluster_mean(root, line - mean), line)
            labels = kernel.pattern.labels.copy()
            late = (labels != 0) & (labels * (u_next[g.tails] - u_next[g.heads]) <= 0.0)

        t += tau
        bps.append(t)
        u = u_next
    else:
        raise PathError("event cap %d exceeded %s" % (event_cap(g),
                                                      failure_site(g, "t", t)),
                        interval=(0.0, t))

    if float(np.abs(u - mean_field).max()) > 1e-6 * (1.0 + abs(fbar)):
        raise PathError("flow ended off the mean field " + failure_site(g, "t", t),
                        interval=(bps[-2] if len(bps) > 1 else 0.0, t))

    final = integral.at(t)
    return FlowTrajectory(PiecewiseAffinePath._compact(bps, mean_field, values),
                          PiecewiseAffinePath._compact(bps, final, integral))


def flow_backward_euler(g: OrientedGraph, f, t_end: float, step: float) -> np.ndarray:
    """Implicit-Euler approximation of the flow state at t_end.

    Iterates the certified resolvent :func:`rof_solve` with parameter
    ``step``; the last step is shortened to land exactly on t_end.
    First-order accurate in ``step``.
    """
    f = ensure_vertex_field(g, f, "f")
    t_end = float(t_end)
    step = float(step)
    if not (t_end >= 0 and math.isfinite(t_end)):
        raise ValidationError("t_end must be finite and nonnegative")
    if not (step > 0 and math.isfinite(step)):
        raise ValidationError("step must be finite and positive")
    count = int(math.ceil(t_end / step - 1e-12)) if t_end > 0 else 0
    u = f.copy()
    t = 0.0
    for k in range(count):
        h = min(step, t_end - t)
        if h <= 0:
            break
        u = rof_solve(g, u, h).u
        t += h
    return u
