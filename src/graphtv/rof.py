"""Total-variation regularization on oriented graphs.

Solves min over u of 0.5 * ||f - u||_2^2 + alpha * J(u) with J the graph
total variation, via the dual formulation: u = f - P(f) where P projects
onto the divergence image of the alpha-box.  Also traces the full solution
path in alpha, which is piecewise affine with finitely many breakpoints,
and a coupled-constraint (isotropic) variant on Cartesian grid graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import BoxSpec, SolveReport, project_onto_div_box
from .errors import ConvergenceError, PathError, ValidationError
from .graph import (DEFAULT_TOL, OrientedGraph, PatternKernel, Tolerances,
                    ensure_vertex_field, sign_pattern)


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

    def value_at(self, x: float) -> np.ndarray:
        if x < 0 or not math.isfinite(x):
            raise ValidationError("parameter must be finite and nonnegative")
        b = self.breakpoints
        if x >= b[-1]:
            return self.terminal_value.copy()
        k = int(np.searchsorted(b, x, side="right")) - 1
        return self.left_values[k] + (x - b[k]) * self.slopes[k]

    def slope_at(self, x: float) -> np.ndarray:
        """Right slope at x (zero beyond the last breakpoint)."""
        if x < 0 or not math.isfinite(x):
            raise ValidationError("parameter must be finite and nonnegative")
        b = self.breakpoints
        if x >= b[-1]:
            return np.zeros_like(self.terminal_value)
        k = int(np.searchsorted(b, x, side="right")) - 1
        return self.slopes[k].copy()

    def continuity_defect(self) -> float:
        """Largest mismatch between a segment's right end and the next value."""
        worst = 0.0
        b = self.breakpoints
        for k in range(self.segment_count):
            right = self.left_values[k] + (b[k + 1] - b[k]) * self.slopes[k]
            nxt = self.left_values[k + 1] if k + 1 < self.segment_count else self.terminal_value
            worst = max(worst, float(np.max(np.abs(right - nxt))))
        return worst


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


class _PathSolver:
    """Caches solutions along an alpha sweep, warm-starting from neighbors.

    Breakpoints placed in closed form are cached without a dual flow and
    never serve as warm starts.
    """

    def __init__(self, g, f, tol, max_iter):
        self.g = g
        self.f = f
        self.tol = tol
        self.max_iter = max_iter
        self.scale = float(f.max() - f.min())
        self.cache = {}
        self.lines = {}

    def solution(self, alpha: float) -> np.ndarray:
        key = float(alpha)
        hit = self.cache.get(key)
        if hit is not None:
            return hit[0]
        solved = [a for a, (_, h) in self.cache.items() if h is not None]
        warm = None
        if solved:
            warm = self.cache[min(solved, key=lambda a: abs(a - key))][1]
        sol = rof_solve(self.g, self.f, key, self.tol, warm_start=warm,
                        max_iter=self.max_iter)
        self.cache[key] = (sol.u, -sol.dual_flow)
        return sol.u

    def pattern(self, alpha: float):
        return sign_pattern(self.g, self.solution(alpha), self.tol, scale=self.scale)

    def line(self, pat):
        """(intercept, slope) of the path wherever ``pat`` holds."""
        hit = self.lines.get(pat)
        if hit is None:
            hit = self.lines[pat] = PatternKernel(self.g, pat).line(self.f)
        return hit


def _bisect_events(solver, lo, hi, pat_lo, pat_hi, event_tol, u_err, out):
    """Localize every pattern change in (lo, hi); endpoint patterns differ.

    The closed-form lines of the two end patterns are intersected first
    (least squares over the vertices).  An intersection x strictly inside
    the bracket is the breakpoint, with the closed-form value and no
    solve, when the lines agree there within ``u_err`` and every edge
    either end pattern pins keeps its sign at x (so each line obeys its
    own pattern up to x).  Otherwise the bracket is split by one solve at
    the intersection, or at the midpoint when the intersection lies
    outside, down to ``event_tol``.
    """
    if hi - lo <= event_tol:
        out.append(0.5 * (lo + hi))
        return
    c_lo, s_lo = solver.line(pat_lo)
    c_hi, s_hi = solver.line(pat_hi)
    ds = s_lo - s_hi
    den = float(ds @ ds)
    x = -float((c_lo - c_hi) @ ds) / den if den > 0.0 else math.nan
    if lo < x < hi:
        u_lo = c_lo + x * s_lo
        u_hi = c_hi + x * s_hi
        u_x = 0.5 * (u_lo + u_hi)
        # the lines also meet when the bracket hides further events (a
        # fusion the lower line overshoots); then some edge that one of the
        # end patterns pins has the wrong sign at x
        diff = u_x[solver.g.tails] - u_x[solver.g.heads]
        if (float(np.abs(u_lo - u_hi).max()) <= u_err
                and float((pat_lo.labels * diff).min()) >= -u_err
                and float((pat_hi.labels * diff).min()) >= -u_err):
            solver.cache[x] = (u_x, None)
            out.append(x)
            return
        mid = x
    else:
        mid = 0.5 * (lo + hi)
    pat_mid = solver.pattern(mid)
    if pat_mid == pat_lo:
        _bisect_events(solver, mid, hi, pat_mid, pat_hi, event_tol, u_err, out)
    elif pat_mid == pat_hi:
        _bisect_events(solver, lo, mid, pat_lo, pat_mid, event_tol, u_err, out)
    else:
        _bisect_events(solver, lo, mid, pat_lo, pat_mid, event_tol, u_err, out)
        _bisect_events(solver, mid, hi, pat_mid, pat_hi, event_tol, u_err, out)


def rof_path(g: OrientedGraph, f, tol: Optional[Tolerances] = None, *,
             max_iter: int = 1_000_000) -> PiecewiseAffinePath:
    """Trace the full regularization path of ``f`` as a function of alpha.

    The path is piecewise affine; segments are bracketed by comparing
    solution sign patterns on a hybrid geometric plus uniform alpha grid
    (equal patterns at two parameters imply the path is affine between
    them).  Where a pattern holds, the path is the closed-form line
    ``cluster_mean(f) + alpha * s`` of :class:`PatternKernel`, so each
    bracket's breakpoint is first sought where the lines of its two end
    patterns meet; it is accepted with the closed-form value, exact to
    rounding, when they agree there.  Brackets where they do not are split
    by solves and searched again, down to width ``event_tol``.
    Candidates that do not change the slope are merged away; every final
    segment is validated by a midpoint solve against the affine
    interpolant.  The terminal value is the mean field.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    n = g.vertex_count
    fbar = float(f.mean())
    mean_field = np.full(n, fbar)
    if float(f.max() - f.min()) == 0.0:
        return PiecewiseAffinePath([0.0], np.empty((0, n)), np.empty((0, n)), f.copy())

    solver = _PathSolver(g, f, tol, max_iter)

    # initial scale for the stationarity threshold: the minimum-norm
    # subdifferential element at the datum is the flow's initial speed
    d0, _, _ = PatternKernel(g, solver.pattern(0.0)).minimal_section()
    speed = float(np.linalg.norm(d0))
    if speed <= 0:
        raise PathError("nonconstant datum with zero minimal subgradient")
    a_up = float(np.linalg.norm(f - mean_field)) / speed
    a_up = max(a_up, 16.0 * tol.event_tol)
    for _ in range(80):
        if solver.pattern(a_up).all_flat:
            break
        a_up *= 2.0
    else:
        raise PathError("failed to bracket the stationary parameter",
                        interval=(0.0, a_up))

    grid = {0.0, a_up}
    grid.update(float(x) for x in np.linspace(0.0, a_up, 17))
    grid.update(a_up * 0.5 ** k for k in range(1, 21))
    grid = sorted(grid)

    u_err = 100.0 * tol.solve_tol * (1.0 + float(np.abs(f).max()))
    events: list[float] = []
    prev = grid[0]
    prev_pat = solver.pattern(prev)
    for a in grid[1:]:
        pat = solver.pattern(a)
        if pat != prev_pat:
            _bisect_events(solver, prev, a, prev_pat, pat, tol.event_tol, u_err,
                           events)
        prev, prev_pat = a, pat

    # cluster events located twice (grid point sitting on a breakpoint).
    # Closed-form events are exact, so two of them are distinct however
    # close; a bisected event next to a closed-form one gives way to it.
    exact = {a for a, (_, h) in solver.cache.items() if h is None}
    events.sort()
    merged: list[float] = []
    for e in events:
        if (merged and e - merged[-1] <= 10.0 * tol.event_tol
                and not (e in exact and merged[-1] in exact)):
            if merged[-1] not in exact:
                merged[-1] = e if e in exact else 0.5 * (merged[-1] + e)
        elif not merged or e > merged[-1]:
            merged.append(e)
    if not merged:
        raise PathError("no stationarity breakpoint found", interval=(0.0, a_up))

    bps = [0.0] + merged
    values = [solver.solution(b) for b in bps]
    # the datum and closed-form values are exact; solved ones are off by up
    # to u_err, which a short segment turns into a large slope error
    solved = [b != 0.0 and b not in exact for b in bps]

    # drop candidates that do not change the slope (degenerate patterns at
    # isolated parameters, e.g. extra flat edges exactly at alpha = 0)
    changed = True
    while changed and len(bps) > 2:
        changed = False
        slopes = [(values[k + 1] - values[k]) / (bps[k + 1] - bps[k])
                  for k in range(len(bps) - 1)]
        smax = max(float(np.abs(s).max()) for s in slopes)
        for k in range(1, len(bps) - 1):
            err = 0.0
            if solved[k - 1] or solved[k]:
                err += 1.0 / (bps[k] - bps[k - 1])
            if solved[k] or solved[k + 1]:
                err += 1.0 / (bps[k + 1] - bps[k])
            kink_tol = 1e-6 * (1.0 + smax) + 10.0 * u_err * err
            if float(np.abs(slopes[k] - slopes[k - 1]).max()) <= kink_tol:
                del bps[k], values[k], solved[k]
                changed = True
                break

    seg_values = np.asarray(values[:-1], dtype=float).reshape(len(bps) - 1, n)
    diffs = np.diff(np.asarray(bps))
    slopes = (np.asarray(values[1:]) - np.asarray(values[:-1])) / diffs[:, None]

    # terminal check: the located stationarity parameter may sit within the
    # localization band of the true one, so allow slope * band drift
    smax = float(np.abs(slopes).max()) if slopes.size else 0.0
    band = 10.0 * tol.event_tol + 2.0 * tol.flat_tol * solver.scale
    term_tol = max(u_err, 1e-6) + smax * band
    if float(np.abs(values[-1] - mean_field).max()) > term_tol:
        raise PathError("path did not terminate at the mean field",
                        interval=(bps[-2], bps[-1]))
    affine_tol = 10.0 * tol.solve_tol * (1.0 + float(np.abs(f).max()))
    for k in range(len(bps) - 1):
        mid = 0.5 * (bps[k] + bps[k + 1])
        u_mid = solver.solution(mid)
        interp = values[k] + (mid - bps[k]) * slopes[k]
        if float(np.abs(u_mid - interp).max()) > max(affine_tol, 10.0 * u_err):
            raise PathError("segment failed the affine midpoint check",
                            interval=(bps[k], bps[k + 1]))

    return PiecewiseAffinePath(np.asarray(bps), seg_values, slopes, mean_field)
