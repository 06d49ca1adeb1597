"""Total-variation regularization on oriented graphs.

Solves min over u of 0.5 * ||f - u||_2^2 + alpha * J(u) with J the graph
total variation, via the dual formulation: u = f - P(f) where P projects
onto the divergence image of the alpha-box.  Also traces the full solution
path in alpha, which is piecewise affine with finitely many breakpoints,
and a coupled-constraint (isotropic) variant on Cartesian grid graphs.

The path is traced exactly with no iterative solve: under a sign pattern
it is a line, which ends where two clusters meet (a fusion) or where a
parametric max-flow finds that a cluster breaks up (a split; Hoefling
2010).  Both ends of every segment are certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .engine import BoxSpec, SolveReport, project_onto_div_box
from .errors import ConvergenceError, PathError, ValidationError
from .graph import (DEFAULT_TOL, OrientedGraph, PatternKernel, Tolerances,
                    ensure_vertex_field, event_cap, failure_site, next_fusion,
                    sign_pattern)


@dataclass(frozen=True)
class RofSolution:
    """Regularized field plus the dual flow certifying it.

    ``u = f + div(dual_flow)`` with ``||dual_flow||_inf <= alpha`` (per-group
    two-norm at most alpha for the coupled variant).  The mean of ``u``
    equals the mean of ``f``.
    """

    alpha: float
    u: np.ndarray
    dual_flow: np.ndarray
    report: SolveReport


class PiecewiseAffinePath:
    """A continuous piecewise-affine map from [0, inf) to vertex fields.

    Defined by increasing breakpoints b_0 = 0 < ... < b_K, the value and
    slope on each segment [b_k, b_{k+1}], and a terminal value attained for
    all parameters at or beyond b_K.
    """

    __slots__ = ("breakpoints", "left_values", "slopes", "terminal_value")

    def __init__(self, breakpoints, left_values, slopes, terminal_value):
        b = np.asarray(breakpoints, dtype=float)
        lv = np.asarray(left_values, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        tv = np.asarray(terminal_value, dtype=float)
        if b.ndim != 1 or b.size < 1 or b[0] != 0.0:
            raise ValidationError("breakpoints must start at 0")
        if np.any(np.diff(b) <= 0):
            raise ValidationError("breakpoints must be strictly increasing")
        k = b.size - 1
        n = tv.size
        if lv.shape != (k, n) or sl.shape != (k, n):
            raise ValidationError("left_values and slopes must be (segments, vertices)")
        for arr in (b, lv, sl, tv):
            arr.setflags(write=False)
        self.breakpoints = b
        self.left_values = lv
        self.slopes = sl
        self.terminal_value = tv

    @property
    def segment_count(self) -> int:
        return self.breakpoints.size - 1

    def _segment(self, x: float) -> int:
        # index of the segment holding x, or -1 beyond the last breakpoint
        if x < 0 or not math.isfinite(x):
            raise ValidationError("parameter must be finite and nonnegative")
        if x >= self.breakpoints[-1]:
            return -1
        return int(np.searchsorted(self.breakpoints, x, side="right")) - 1

    def value_at(self, x: float) -> np.ndarray:
        k = self._segment(x)
        if k < 0:
            return self.terminal_value.copy()
        return self.left_values[k] + (x - self.breakpoints[k]) * self.slopes[k]

    def slope_at(self, x: float) -> np.ndarray:
        """Right slope at x (zero beyond the last breakpoint)."""
        k = self._segment(x)
        return np.zeros_like(self.terminal_value) if k < 0 else self.slopes[k].copy()


def _regularize(g, f, alpha, constraint, tol, warm_start, max_iter, name):
    # shared body of rof_solve and isotropic_rof_solve; constraint(alpha)
    # builds the dual constraint set
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    alpha = float(alpha)
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be finite and nonnegative")
    if alpha == 0.0:
        return RofSolution(0.0, f.copy(), np.zeros(g.edge_count),
                           SolveReport(0, 0.0, 0.0, True, method="identity"))
    h, report = project_onto_div_box(g, f, constraint(alpha), tol,
                                     warm_start=warm_start, max_iter=max_iter)
    if not report.converged:
        raise ConvergenceError("%s projection did not converge" % name, report)
    return RofSolution(alpha, f - g._div(h), -h, report)


def rof_solve(g: OrientedGraph, f, alpha: float,
              tol: Optional[Tolerances] = None, *,
              warm_start=None, max_iter: int = 1_000_000) -> RofSolution:
    """Solve the graph total-variation regularization problem at one alpha.

    ``warm_start`` accepts a prior solution's negated dual flow (the raw
    projection variable); passing the previous ``-solution.dual_flow`` makes
    parameter sweeps much cheaper.  Raises :class:`ConvergenceError` when
    the projection does not reach tolerance within ``max_iter``.
    """
    return _regularize(g, f, alpha, lambda a: BoxSpec.uniform(g.edge_count, a),
                       tol, warm_start, max_iter, "regularization")


def isotropic_rof_solve(g: OrientedGraph, f, alpha: float,
                        tol: Optional[Tolerances] = None, *,
                        warm_start=None, max_iter: int = 1_000_000) -> RofSolution:
    """Coupled-constraint variant on a Cartesian grid graph.

    The dual constraint couples each interior vertex's two incoming grid
    edges in a Euclidean ball of radius alpha (border edges are constrained
    alone), so the constraint set is not a polytope.
    """
    return _regularize(g, f, alpha, g.coupled_ball, tol, warm_start, max_iter,
                       "coupled")


def _fail(g: OrientedGraph, cause: str, alpha: float, where: str):
    raise PathError("%s: %s %s" % (where, cause, failure_site(g, "alpha", alpha)),
                    interval=(alpha, alpha))


def _certify(kernel: PatternKernel, alpha: float, t: Optional[Fraction],
             where: str) -> None:
    """Check that the kernel's line solves the problem at alpha, or raise PathError.

    Pinned edges keep their signs, and the kernel's witness at ``t``, the
    exact ``1 / alpha`` of a split or else ``1 / Fraction(alpha)``, has
    divergence ``t * w - beta`` on every cluster.  At alpha = 0, w
    vanishes on the ties of f; t = 0 is used.
    """
    g = kernel.graph
    c, s = kernel.intercept, kernel.slope
    u = c + alpha * s
    scale = float(np.abs(c).max() + alpha * np.abs(s).max())
    lab = kernel.pattern.labels
    if float((lab * (u[g.tails] - u[g.heads])).min()) < -1e-11 * scale:
        _fail(g, "a pinned edge changes sign", alpha, where)
    if t is None:
        t = 1 / Fraction(alpha) if alpha > 0 else Fraction(0)
    h = kernel.witness(t)
    r = float(t) * kernel.pull - kernel.beta
    residual = float(np.abs(g._div(h) - r).max())
    if (float(np.abs(h).max(initial=0.0)) > 1.0
            or residual > 1e-10 * (1.0 + float(np.abs(r).max()))):
        _fail(g, "a cluster has no witness flow (residual %.3g)" % residual,
              alpha, where)


def rof_path(g: OrientedGraph, f) -> PiecewiseAffinePath:
    """Trace the full regularization path of ``f`` as a function of alpha.

    Under a sign pattern the path is the line ``cluster_mean(f) + alpha *
    s`` of :class:`PatternKernel`, up to the first fusion (the lines across
    a non-flat edge meet, as in the flow) or split (:meth:`PatternKernel.splits`).
    The path starts from the clusters of exactly equal values in f.  No
    iterative solve runs.  Both ends of every segment are certified, which
    covers the segment, or :class:`PathError` is raised; an end at a split
    is certified at the split's exact parameter.  The terminal value is the
    mean field.  The path reads no tolerance.
    """
    f = ensure_vertex_field(g, f, "f")
    n = g.vertex_count
    if float(f.max() - f.min()) == 0.0:
        return PiecewiseAffinePath([0.0], np.empty((0, n)), np.empty((0, n)), f.copy())

    k = PatternKernel(g, sign_pattern(g, f, scale=0.0), f)
    alpha, t = 0.0, Fraction(0)
    bps, left_values, slopes = [], [], []
    for _ in range(event_cap(g)):
        c, s = k.intercept, k.slope
        where = "segment %d" % len(bps)
        if k.pattern.all_flat:
            _certify(k, alpha, t, "terminal " + where)
            break
        _, fused = next_fusion(g, k.pattern, c + alpha * s, s)
        # where the lines across the fusing edges meet, from the lines alone
        tails, heads = g.tails[fused], g.heads[fused]
        fuse_at = float(((c[tails] - c[heads])
                         / (s[heads] - s[tails])).min(initial=math.inf))
        splits = k.splits(alpha)
        # the first event, a split's with its exact t
        nxt, t_nxt = min([(a, t_a) for a, t_a, _ in splits] + [(fuse_at, None)],
                         key=lambda event: event[0])
        if nxt == math.inf:
            _fail(g, "no event ahead", alpha, where)
        if nxt > alpha:
            _certify(k, alpha, t, where)
            _certify(k, nxt, t_nxt, where)
            bps.append(alpha)
            left_values.append(c + alpha * s)
            slopes.append(s)
            t = t_nxt
        # events within a relative 1e-12 of the step meet in exact arithmetic
        limit = alpha + (nxt - alpha) * (1.0 + 1e-12)
        labels = k.pattern.labels.copy()
        if fuse_at <= limit:
            labels[fused] = 0
        for a, _, pins in splits:
            if a <= limit:
                labels[list(pins)] = list(pins.values())
        k = k.successor(labels)
        alpha = nxt
    else:
        _fail(g, "event cap %d exceeded" % event_cap(g), alpha, where)
    bps.append(alpha)
    return PiecewiseAffinePath(np.asarray(bps), np.asarray(left_values),
                               np.asarray(slopes), np.full(n, float(f.mean())))
