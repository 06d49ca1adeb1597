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
built again, and the memo keeps a cluster's tests until it changes.

Each segment also records a witness flow H_k realizing d_k = -div H_k and
the accumulated antiderivative F(t) = -integral of H over [0, t], so
u(t) = f + div F(t) holds along the whole trajectory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PathError, ValidationError
from .graph import (DEFAULT_TOL, OrientedGraph, PatternKernel, Tolerances,
                    ensure_vertex_field, event_cap, failure_site, next_fusion,
                    sign_pattern)
from .rof import PiecewiseAffinePath, rof_solve


@dataclass(frozen=True)
class FlowTrajectory:
    """Complete gradient-flow trajectory of one datum.

    ``path`` holds the breakpoints, per-segment states and directions;
    ``flows`` the per-segment witness H_k (one row per segment, max-norm at
    most 1); ``antiderivative`` the accumulated F at every breakpoint
    (first row zero).  Beyond the final breakpoint the state is the mean
    field and F stays at its final value.
    """

    path: PiecewiseAffinePath
    flows: np.ndarray
    antiderivative: np.ndarray

    @property
    def breakpoints(self) -> np.ndarray:
        return self.path.breakpoints

    @property
    def t_max(self) -> float:
        return float(self.path.breakpoints[-1])

    @property
    def directions(self) -> np.ndarray:
        return self.path.slopes

    def value_at(self, t: float) -> np.ndarray:
        return self.path.value_at(t)

    def direction_at(self, t: float) -> np.ndarray:
        return self.path.slope_at(t)

    def antiderivative_at(self, t: float) -> np.ndarray:
        k = self.path._segment(t)
        if k < 0:
            return self.antiderivative[-1].copy()
        return self.antiderivative[k] - (t - self.path.breakpoints[k]) * self.flows[k]


def settle(kernel: PatternKernel, t: float = 0.0) -> tuple:
    """The flow's direction at a state with the kernel's pattern, certified.

    ``kernel`` has zero pull.  Returns ``(kernel, d, H)``: the clusters
    that are not calibrable split along their min cuts
    (:meth:`PatternKernel.splits`), and the split repeats until every
    cluster is calibrable; ``kernel`` is then the last pattern's, ``d`` its
    slope (the negated minimum-norm subdifferential element) and ``H`` its
    witness at t = 0 with the pinned edges at their bounds.  This is the
    decomposition algorithm for the minimum-norm base (Fujishige 1980;
    Hochbaum 2001).  The certificate: ``|H| <= 1``, ``||div H + d||_inf <=
    1e-12 (1 + ||d||_inf)``, and on every flat edge a split cut, ``H`` sits
    at the bound the optimality conditions ask for.  A failed certificate
    raises :class:`ConvergenceError`; ``t`` names the state in its message.
    """
    g = kernel.graph
    flat = kernel.pattern.flat
    splits = kernel.splits(0.0)
    while splits:
        labels = kernel.pattern.labels.copy()
        for _, _, pins in splits:
            labels[list(pins)] = list(pins.values())
        kernel = kernel.successor(labels)
        splits = kernel.splits(0.0)
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
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    n, m = g.vertex_count, g.edge_count
    fbar = float(f.mean())
    mean_field = np.full(n, fbar)
    scale = float(f.max() - f.min())
    if scale == 0.0:
        path = PiecewiseAffinePath([0.0], np.empty((0, n)), np.empty((0, n)), f.copy())
        return FlowTrajectory(path, np.empty((0, m)), np.zeros((1, m)))

    kernel = PatternKernel(g, sign_pattern(g, f, tol, scale=scale))
    u = f.copy()
    t = 0.0
    bps = [0.0]
    states = [u.copy()]
    dirs = []
    flows = []
    f_acc = np.zeros(m)
    antider = [f_acc.copy()]
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
        states.append(u_next.copy())
        dirs.append(d)
        flows.append(h)
        f_acc = f_acc - tau * h
        antider.append(f_acc.copy())
        u = u_next
    else:
        raise PathError("event cap %d exceeded %s" % (event_cap(g),
                                                      failure_site(g, "t", t)),
                        interval=(0.0, t))

    if float(np.abs(u - mean_field).max()) > 1e-6 * (1.0 + abs(fbar)):
        raise PathError("flow ended off the mean field " + failure_site(g, "t", t),
                        interval=(bps[-2] if len(bps) > 1 else 0.0, t))

    left_values = np.asarray(states[:-1], dtype=float).reshape(len(bps) - 1, n)
    slopes = np.asarray(dirs, dtype=float).reshape(len(bps) - 1, n)
    path = PiecewiseAffinePath(np.asarray(bps), left_values, slopes, mean_field)
    return FlowTrajectory(path, np.asarray(flows, dtype=float).reshape(len(bps) - 1, m),
                          np.asarray(antider))


def flow_backward_euler(g: OrientedGraph, f, t_end: float, step: float,
                        tol: Optional[Tolerances] = None) -> np.ndarray:
    """Implicit-Euler approximation of the flow state at t_end.

    Iterates the regularization resolvent with parameter ``step``; the last
    step is shortened to land exactly on t_end.  First-order accurate in
    ``step``.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    t_end = float(t_end)
    step = float(step)
    if not (t_end >= 0 and math.isfinite(t_end)):
        raise ValidationError("t_end must be finite and nonnegative")
    if not (step > 0 and math.isfinite(step)):
        raise ValidationError("step must be finite and positive")
    count = int(math.ceil(t_end / step - 1e-12)) if t_end > 0 else 0
    u = f.copy()
    warm = None
    t = 0.0
    for k in range(count):
        h = min(step, t_end - t)
        if h <= 0:
            break
        sol = rof_solve(g, u, h, tol, warm_start=warm)
        u = sol.u
        warm = -sol.dual_flow
        t += h
    return u
