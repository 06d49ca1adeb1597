"""Total-variation gradient flow on oriented graphs.

Integrates du/dt = -m(u), where m(u) is the minimum-norm element of the
total-variation subdifferential at u.  The trajectory is piecewise affine
in t: within a segment the sign pattern of u is constant and the state
moves along the fixed direction d = -m(u); a segment ends when a non-flat
edge difference crosses zero.  The flow reaches the mean field in finite
time and stays there.

The direction is exact to rounding, and no iterative solve runs.  On each
calibrable cluster of flat edges, d is the negated cluster mean of the
pinned flux, with a spanning-forest witness.  A cluster whose forest flow
leaves the box goes to an integer max-flow, which either finds a witness
or names the cut along which the cluster splits (see
:meth:`PatternKernel.minimal_section`).

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

from .errors import PathError, ValidationError
from .graph import (DEFAULT_TOL, FlatClusters, OrientedGraph, PatternKernel,
                    Tolerances, ensure_vertex_field, next_fusion, sign_pattern)
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


def minimal_section(g: OrientedGraph, u, tol: Optional[Tolerances] = None, *,
                    scale: float | None = None) -> np.ndarray:
    """Minimum-Euclidean-norm element of the total-variation subdifferential at u.

    This is the negated right derivative of the gradient flow through u,
    exact to rounding (see :meth:`PatternKernel.minimal_section`).
    """
    tol = tol if tol is not None else DEFAULT_TOL
    u = ensure_vertex_field(g, u, "u")
    d, _, _ = PatternKernel(g, sign_pattern(g, u, tol, scale=scale)).minimal_section()
    return -d


def flow_solve(g: OrientedGraph, f, tol: Optional[Tolerances] = None, *,
               max_segments: Optional[int] = None) -> FlowTrajectory:
    """Integrate the gradient flow of the total variation from datum f.

    Exact event-driven integration: per segment, the direction is the
    negated minimum-norm subdifferential element, the segment length is the
    first zero crossing of a non-flat edge difference, and crossing edges
    are snapped exactly flat.  Terminates at the mean field.  Each
    direction comes from a closed form or an integer max-flow and is
    certified, so there is no iteration cap to set; ``max_segments``
    bounds the number of segments (default ``16 m + 64``).
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

    cap = max_segments if max_segments is not None else 16 * m + 64
    u = f.copy()
    t = 0.0
    bps = [0.0]
    states = [u.copy()]
    dirs = []
    flows = []
    f_acc = np.zeros(m)
    antider = [f_acc.copy()]
    prev_norm = math.inf

    for _ in range(cap):
        pat = sign_pattern(g, u, tol, scale=scale)
        if pat.all_flat:
            break
        d, h, pat = PatternKernel(g, pat).minimal_section()
        dnorm = float(np.linalg.norm(d))
        if dnorm <= 0.0:
            raise PathError("zero descent direction at t = %r (%d vertices, %d edges)"
                            % (t, n, m), interval=(t, t))
        if dnorm > prev_norm * (1.0 + 1e-9):
            warnings.warn("descent speed failed to decrease across a segment",
                          RuntimeWarning)
        prev_norm = dnorm

        tau, crossing = next_fusion(g, pat, u, d)
        if not 0.0 < tau < math.inf:
            raise PathError("no edge closes after t = %r (%d vertices, %d edges)"
                            % (t, n, m), interval=(t, t))
        # snap the closing edges exactly flat by averaging over the clusters
        # they join with the edges the pattern keeps flat
        u_next = FlatClusters(g, pat.flat | crossing).mean(u + tau * d)

        t += tau
        bps.append(t)
        states.append(u_next.copy())
        dirs.append(d)
        flows.append(h)
        f_acc = f_acc - tau * h
        antider.append(f_acc.copy())
        u = u_next
    else:
        raise PathError("segment cap %d exceeded at t = %r (%d vertices, %d edges)"
                        % (cap, t, n, m), interval=(0.0, t))

    if float(np.abs(u - mean_field).max()) > 1e-6 * (1.0 + abs(fbar)):
        raise PathError("flow ended off the mean field at t = %r (%d vertices, %d edges)"
                        % (t, n, m), interval=(bps[-2] if len(bps) > 1 else 0.0, t))

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
