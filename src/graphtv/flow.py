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
u(t) = f + div F(t) holds along the whole trajectory.  The trajectory keeps
per segment only what its event changed, with a dense checkpoint every
``SPACING`` segments (see :class:`FlowTrajectory`).
"""

from __future__ import annotations

import math
import warnings
from itertools import chain
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PathError, ValidationError
from .graph import (DEFAULT_TOL, OrientedGraph, PatternKernel, Tolerances,
                    cluster_mean, ensure_vertex_field, event_cap, failure_site,
                    next_fusion, sign_pattern)
from .rof import PiecewiseAffinePath, _Log, _stack, rof_solve


def _line(state: tuple, b: float) -> tuple:
    # a flow segment's left value and slope: its state and direction
    return state[0], state[2]


def _step(state: tuple, tau: float) -> tuple:
    # flow_solve's update from one segment to the next: the state snapped
    # over the clusters at the segment's end, and the antiderivative
    u, big_f, d, h, root = state
    return cluster_mean(root, u + tau * d), big_f - tau * h


class FlowTrajectory:
    """Complete gradient-flow trajectory of one datum.

    ``path`` holds the breakpoints, per-segment states and directions.  Per
    segment it stores flow_solve's step tau, and of the direction d, the
    witness H (max-norm at most 1) and each vertex's cluster at the
    segment's end only the entries that changed, with a dense checkpoint of
    these and of the state u and the antiderivative F every ``SPACING``
    segments (see :class:`PiecewiseAffinePath`).  A replay steps from the
    checkpoint by flow_solve's own operations, ``u <- cluster_mean(u + tau
    d)`` and ``F <- F - tau H``, so every value keeps flow_solve's bits.
    ``directions``, ``flows`` (one row per segment) and ``antiderivative``
    (F at every breakpoint, first row zero) build dense arrays on demand.
    Beyond the final breakpoint the state is the mean field and F stays at
    its final value, ``final``.
    """

    __slots__ = ("path", "_final")

    def __init__(self, path: PiecewiseAffinePath, final: np.ndarray):
        self.path, self._final = path, final

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
        return _stack((state[3] for state in self.path._log.states()),
                      self.path.segment_count, self._final.size)

    @property
    def antiderivative(self) -> np.ndarray:
        rows = chain((state[1] for state in self.path._log.states()), [self._final])
        return _stack(rows, self.path.segment_count + 1, self._final.size)

    def value_at(self, t: float) -> np.ndarray:
        return self.path.value_at(t)

    def direction_at(self, t: float) -> np.ndarray:
        return self.path.slope_at(t)

    def antiderivative_at(self, t: float) -> np.ndarray:
        k = self.path._segment(t)
        if k < 0:
            return self._final.copy()
        _, big_f, _, h, _ = next(self.path._log.states(k))
        return big_f - (t - self.path.breakpoints[k]) * h


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
    turn flat, and the state is snapped exactly flat over the clusters of
    the next pattern.  Terminates at the mean field, or raises
    :class:`PathError` after ``16 m + 64`` segments.

    Each segment is logged as its step and the entries of d, H and the
    clusters that changed, with a dense checkpoint every ``SPACING``
    segments: memory grows with the changes, not with segments x (n + m).
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    fbar = float(f.mean())
    mean_field = np.full(g.vertex_count, fbar)
    scale = float(f.max() - f.min())
    log = _Log(_line, _step, chained=2)
    f_acc = np.zeros(g.edge_count)
    if scale == 0.0:
        return FlowTrajectory(PiecewiseAffinePath._compact([0.0], f.copy(), log), f_acc)

    kernel = PatternKernel(g, sign_pattern(g, f, tol, scale=scale))
    u = f.copy()
    t = 0.0
    bps = [0.0]
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

        tau, crossing = next_fusion(g, kernel.pattern, u, d)
        if not 0.0 < tau < math.inf:
            raise PathError("no edge closes " + failure_site(g, "t", t),
                            interval=(t, t))
        labels = kernel.pattern.labels.copy()
        late = crossing
        while late.any():
            # the next pattern's clusters join the closing edges' ends; snap
            # the state exactly flat over them.  A pinned edge that rounding
            # in the snap leaves at or past its meeting point closes too
            labels[late] = 0
            kernel = kernel.successor(labels)
            u_next = kernel.clusters.mean(u + tau * d)
            labels = kernel.pattern.labels.copy()
            late = (labels != 0) & (labels * (u_next[g.tails] - u_next[g.heads]) <= 0.0)

        t += tau
        bps.append(t)
        log.append((u, f_acc, d, h, kernel.clusters.root), tau)
        f_acc = f_acc - tau * h
        u = u_next
    else:
        raise PathError("event cap %d exceeded %s" % (event_cap(g),
                                                      failure_site(g, "t", t)),
                        interval=(0.0, t))

    if float(np.abs(u - mean_field).max()) > 1e-6 * (1.0 + abs(fbar)):
        raise PathError("flow ended off the mean field " + failure_site(g, "t", t),
                        interval=(bps[-2] if len(bps) > 1 else 0.0, t))

    return FlowTrajectory(PiecewiseAffinePath._compact(bps, mean_field, log), f_acc)


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
