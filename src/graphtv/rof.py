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
from .graph import (DEFAULT_TOL, OrientedGraph, PatternKernel, SignPattern,
                    Tolerances, ensure_vertex_field, next_fusion, route_demands,
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


class _Segment:
    """One sign pattern of the path: its line ``u = c + alpha * s`` and flow tests.

    With ``t = 1 / alpha``, ``w = f - c`` and ``beta = b - mean_C(b)`` (b
    the pinned flux), the line solves the problem at alpha iff the pinned
    edges keep their signs and, on each cluster C, some flow in [-1, 1] on
    C's flat edges has divergence ``t * w - beta``; such t form an
    interval.  At ``t = p / q``, scaled by ``q |C| unit``, the test has
    integer data and goes to :func:`route_demands`.
    """

    def __init__(self, g: OrientedGraph, labels: np.ndarray, f: np.ndarray,
                 datum: tuple):
        self.graph = g
        k = PatternKernel(g, SignPattern(labels))
        inside = (labels != 0) & (k.clusters.labels[g.tails] == k.clusters.labels[g.heads])
        if inside.any():
            # fusions joined the ends of a pinned edge: u is equal across it
            k = PatternKernel(g, SignPattern(np.where(inside, 0, labels)))
        self.kernel, self.datum, self._data = k, datum, {}
        self.c, self.s = k.line(f)
        self.w, self.beta = f - self.c, k.pinned + k.slope

    def _cluster(self, k: int) -> tuple:
        # cluster k's vertices, flat edges, size, and the integers n*unit*w, n*beta
        if k not in self._data:
            g, lab = self.graph, self.kernel.clusters.labels
            verts = np.flatnonzero(lab == k).tolist()
            edges = np.flatnonzero(self.kernel.pattern.flat & (lab[g.tails] == k)).tolist()
            big_f = [self.datum[0][v] for v in verts]
            b = self.kernel.pinned[verts].astype(np.int64).tolist()
            n, sf, sb = len(verts), sum(big_f), sum(b)
            self._data[k] = (verts, edges, n, [n * x - sf for x in big_f],
                             [n * x - sb for x in b])
        return self._data[k]

    def _route(self, tests: list) -> tuple:
        # one max-flow over the clusters k at t of the (k, t) pairs
        g = self.graph
        parts = []
        for k, t in tests:
            verts, edges, n, w, beta = self._cluster(k)
            qu = t.denominator * self.datum[1]
            parts.append((verts, edges, qu * n,
                          [t.numerator * x - qu * y for x, y in zip(w, beta)]))
        flow = [0] * g.edge_count
        met, reached = route_demands(parts, g.tails.tolist(), g.heads.tolist(), flow)
        return parts, flow, met, reached

    def splits(self, alpha: float) -> list:
        """``(alpha', pins)`` for each cluster that splits at some alpha' >= alpha.

        A cluster passing the forest test at t = 0 is calibrable and never
        splits.  For the others, a Newton (Dinkelbach) search from t = 0
        runs the max-flow test; while it fails, t moves to where the sink
        side S of the min cut becomes tight, ``(cap(S) + beta(S)) / w(S)``.
        The last S splits off; ``pins`` sets the flow into S to +1 on the
        edges crossing it.  A split due by alpha is reported at alpha.
        """
        t_now = 1 / Fraction(alpha) if alpha > 0 else None
        tests = [(k, Fraction(0), None)
                 for k in np.flatnonzero(self.kernel.calibration()[2]).tolist()]
        out = []
        while tests:
            parts, _, met, reached = self._route([(k, t) for k, t, _ in tests])
            failed = []
            # t rises strictly at every failed test, up to the current t
            for (k, t, pins), part, ok in zip(tests, parts, met):
                if ok:
                    if pins is not None:
                        out.append((float(1 / t), pins))
                    continue
                t_new, pins = self._cut(k, set(part[0]) - reached)
                if t_new is None or t_now is not None and t_new >= t_now:
                    out.append((alpha, pins))
                else:
                    failed.append((k, t_new, pins))
            tests = failed
        return out

    def _cut(self, k: int, cut: set) -> tuple:
        # the t where cut is tight (None if w(cut) >= 0), and the pins
        verts, edges, n, w, beta = self._cluster(k)
        pins = {}
        for j in edges:
            into = int(self.graph.heads[j]) in cut
            if into != (int(self.graph.tails[j]) in cut):
                pins[j] = -1 if into else 1
        w_cut = sum(x for v, x in zip(verts, w) if v in cut)
        beta_cut = sum(y for v, y in zip(verts, beta) if v in cut)
        if w_cut >= 0:
            return None, pins
        return Fraction((len(pins) * n + beta_cut) * self.datum[1], w_cut), pins

    def certify(self, alpha: float, where: str) -> None:
        """Check that the line solves the problem at alpha, or raise PathError.

        Pinned edges keep their signs, and each cluster has a witness flow:
        the forest flow if it fits in [-1, 1], else the max-flow at the
        exact t.  At alpha = 0, w vanishes on the ties of f; t = 0 is used.
        """
        g = self.graph
        u = self.c + alpha * self.s
        scale = float(np.abs(self.c).max() + alpha * np.abs(self.s).max())
        lab = self.kernel.pattern.labels
        if float((lab * (u[g.tails] - u[g.heads])).min()) < -1e-11 * scale:
            self._fail("a pinned edge changes sign", alpha, where)
        t = 1 / Fraction(alpha) if alpha > 0 else Fraction(0)
        r = float(t) * self.w - self.beta
        cl = self.kernel.clusters
        h = cl.forest_flow(r)
        misfit = np.unique(cl.labels[g.tails[np.abs(h) > 1.0]]).tolist()
        if misfit:
            parts, flow, _, _ = self._route([(k, t) for k in misfit])
            for _, edges, cap, _ in parts:
                h[edges] = [flow[j] / cap for j in edges]
        residual = float(np.abs(g._div(h) - r).max())
        if (float(np.abs(h).max(initial=0.0)) > 1.0
                or residual > 1e-10 * (1.0 + float(np.abs(r).max()))):
            self._fail("a cluster has no witness flow (residual %.3g)" % residual,
                       alpha, where)

    def _fail(self, cause: str, alpha: float, where: str):
        g = self.graph
        raise PathError("%s: %s at alpha = %r (%d vertices, %d edges)"
                        % (where, cause, alpha, g.vertex_count, g.edge_count),
                        interval=(alpha, alpha))


def rof_path(g: OrientedGraph, f) -> PiecewiseAffinePath:
    """Trace the full regularization path of ``f`` as a function of alpha.

    Under a sign pattern the path is the line ``cluster_mean(f) + alpha *
    s`` of :class:`PatternKernel`, up to the first fusion (the lines across
    a non-flat edge meet, as in the flow) or split (:meth:`_Segment.splits`).
    The path starts from the clusters of exactly equal values in f.  No
    iterative solve runs.  Both ends of every segment are certified, which
    covers the segment, or :class:`PathError` is raised.  The terminal value
    is the mean field.  The path reads no tolerance.
    """
    f = ensure_vertex_field(g, f, "f")
    n, m = g.vertex_count, g.edge_count
    if float(f.max() - f.min()) == 0.0:
        return PiecewiseAffinePath([0.0], np.empty((0, n)), np.empty((0, n)), f.copy())

    # f * unit is an integer vector, unit a power of two
    ratios = [x.as_integer_ratio() for x in f.tolist()]
    unit = max(den for _, den in ratios)
    datum = ([num * (unit // den) for num, den in ratios], unit)
    labels = sign_pattern(g, f, scale=0.0).labels
    alpha = 0.0
    bps, left_values, slopes = [], [], []
    for _ in range(16 * m + 64):
        seg = _Segment(g, labels, f, datum)
        where = "segment %d" % len(bps)
        if seg.kernel.pattern.all_flat:
            seg.certify(alpha, "terminal " + where)
            break
        _, fused = next_fusion(g, seg.kernel.pattern, seg.c + alpha * seg.s, seg.s)
        # where the lines across the fusing edges meet, from the lines alone
        tails, heads = g.tails[fused], g.heads[fused]
        fuse_at = float(((seg.c[tails] - seg.c[heads])
                         / (seg.s[heads] - seg.s[tails])).min(initial=math.inf))
        splits = seg.splits(alpha)
        nxt = min([fuse_at] + [a for a, _ in splits])
        if nxt == math.inf:
            seg._fail("no event ahead", alpha, where)
        if nxt > alpha:
            seg.certify(alpha, where)
            seg.certify(nxt, where)
            bps.append(alpha)
            left_values.append(seg.c + alpha * seg.s)
            slopes.append(seg.s)
        # events within a relative 1e-12 of the step meet in exact arithmetic
        limit = alpha + (nxt - alpha) * (1.0 + 1e-12)
        labels = seg.kernel.pattern.labels.copy()
        if fuse_at <= limit:
            labels[fused] = 0
        for a, pins in splits:
            if a <= limit:
                labels[list(pins)] = list(pins.values())
        alpha = nxt
    else:
        seg._fail("event cap %d exceeded" % (16 * m + 64), alpha, where)
    bps.append(alpha)
    return PiecewiseAffinePath(np.asarray(bps), np.asarray(left_values),
                               np.asarray(slopes), np.full(n, float(f.mean())))
