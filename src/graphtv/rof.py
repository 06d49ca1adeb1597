"""Total-variation regularization on oriented graphs.

Solves min over u of 0.5 * ||f - u||_2^2 + alpha * J(u) with J the graph
total variation, via the dual formulation: u = f - P(f) where P projects
onto the divergence image of the alpha-box.  Also traces the full solution
path in alpha, which is piecewise affine with finitely many breakpoints,
and a coupled-constraint (isotropic) variant on Cartesian grid graphs.

The path is traced exactly with no iterative solve: under a sign pattern
it is a line, which ends where two clusters meet (a fusion) or where a
parametric max-flow finds that a cluster breaks up (a split; Hoefling
2010).  Every segment is certified.  A solve at one alpha
uses the projection only to identify the sign pattern, as its active set,
tried while it runs, and returns the pattern's line at alpha once the same
certificate holds there; where it does not, the decomposition algorithm
gives the pattern exactly (Hochbaum 2001; Chambolle & Darbon 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .engine import (BoxSpec, SolveReport, _accelerated_descent, _projection,
                     project_onto_div_box)
from .errors import ConvergenceError, PathError, ValidationError
from .graph import (_ZERO, DEFAULT_TOL, OrientedGraph, PatternKernel, SignPattern,
                    Tolerances, ensure_vertex_field, event_cap,
                    failure_site, next_fusion, sign_pattern)


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


class _Lines:
    """An append-only log of the lines of a trajectory's entries.

    Each segment appends the lines it sets: entry i of its indices follows
    ``anchors[i] + (x - at) * slopes[i]`` from the segment's start up to
    the next segment that sets it again.  The log keeps no current lines;
    a builder that reads them keeps its own.  :meth:`close` sorts the lines
    by entry and segment, and :meth:`lines_at` reads them back.
    """

    __slots__ = ("size", "ats", "parts", "keys", "anchors", "slopes", "first")

    def __init__(self, size: int):
        self.size = size
        self.ats, self.parts = [], []

    def append(self, at: float, idx: np.ndarray, anchors: np.ndarray,
               slopes: np.ndarray) -> None:
        """The next segment: the entries of the increasing indices ``idx``
        take the lines of ``anchors`` and ``slopes``, one value per index,
        from the parameter ``at``.  The log keeps the arrays it is given."""
        self.ats.append(at)
        self.parts.append((idx, anchors, slopes))

    def close(self) -> None:
        """Pack the lines into one array each, sorted by the key ``entry *
        K + segment`` for K segments; the log takes no more."""
        empty = (np.empty(0, np.intp), np.empty(0), np.empty(0))
        counts = [idx.size for idx, _, _ in self.parts]
        index, anchors, slopes = (np.concatenate(a) for a in zip(empty, *self.parts))
        self.parts = None
        order = np.argsort(index, kind="stable")
        index *= len(self.ats)
        index += np.repeat(np.arange(len(self.ats)), counts)
        # one gather at a time, each freeing the unsorted array it replaces
        self.keys = index[order]
        del index
        self.anchors = anchors[order]
        del anchors
        self.slopes = slopes[order]
        self.first = np.searchsorted(self.keys, np.arange(self.size) * len(self.ats))
        self.ats = np.array(self.ats, dtype=float)

    def lines_at(self, k: int) -> tuple:
        """The lines ``(anchor, slope, since)`` of segment k: each entry's
        last line set at or before segment k, zero where none is."""
        key = np.arange(self.size) * self.ats.size
        pos = np.searchsorted(self.keys, key + k, side="right") - 1
        found = pos >= self.first
        pos = pos[found]
        anchor, slope, since = np.zeros(self.size), np.zeros(self.size), np.zeros(self.size)
        anchor[found], slope[found] = self.anchors[pos], self.slopes[pos]
        since[found] = self.ats[self.keys[pos] - key[found]]
        return anchor, slope, since


class PiecewiseAffinePath:
    """A continuous piecewise-affine map from [0, inf) to vertex fields.

    Defined by increasing breakpoints b_0 = 0 < ... < b_K, the value and
    slope on each segment [b_k, b_{k+1}], and a terminal value attained for
    all parameters at or beyond b_K.

    Each entry follows a line that only some breakpoints change, and the
    path stores each line once, at the segment that sets it.  Segment k's
    left value is the lines at b_k, ``anchor + (b_k - since) * slope``, and
    its value at x is ``left + (x - b_k) * slope``.  Every read finds each
    entry's line by one binary search over the stored lines
    (:meth:`_Lines.lines_at`), O(n log L) for L lines; ``left_values`` and
    ``slopes`` read each segment so and build K x n arrays on demand.  A
    path is built only from a builder's log of lines, by :meth:`_compact`.
    """

    __slots__ = ("breakpoints", "terminal_value", "_lines")

    @classmethod
    def _compact(cls, breakpoints, terminal_value, lines: _Lines) -> "PiecewiseAffinePath":
        # the path of a builder's lines, one append per segment
        b = np.asarray(breakpoints, dtype=float)
        tv = np.asarray(terminal_value, dtype=float)
        if b.ndim != 1 or b.size < 1 or b[0] != 0.0:
            raise ValidationError("breakpoints must start at 0")
        if np.any(np.diff(b) <= 0):
            raise ValidationError("breakpoints must be strictly increasing")
        for arr in (b, tv):
            arr.setflags(write=False)
        path = cls.__new__(cls)
        path.breakpoints, path.terminal_value, path._lines = b, tv, lines
        lines.close()
        return path

    @property
    def segment_count(self) -> int:
        return self.breakpoints.size - 1

    @property
    def left_values(self) -> np.ndarray:
        """The value at each segment's left end, a K x n array built on demand."""
        return self._dense(0)

    @property
    def slopes(self) -> np.ndarray:
        """Each segment's slope, a K x n array built on demand."""
        return self._dense(1)

    def _dense(self, j: int) -> np.ndarray:
        # each segment's left value (j = 0) or slope (j = 1), one row each
        out = np.empty((self.segment_count, self.terminal_value.size))
        for k, b in enumerate(self.breakpoints[:-1]):
            anchor, slope, since = self._lines.lines_at(k)
            out[k] = slope if j else anchor + (b - since) * slope
        return out

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
        anchor, slope, since = self._lines.lines_at(k)
        b = self.breakpoints[k]
        return anchor + (b - since) * slope + (x - b) * slope

    def slope_at(self, x: float) -> np.ndarray:
        """Right slope at x (zero beyond the last breakpoint)."""
        k = self._segment(x)
        if k < 0:
            return np.zeros_like(self.terminal_value)
        return self._lines.lines_at(k)[1]


def _checked(g, f, alpha):
    # the checked datum and alpha of a solve
    f = ensure_vertex_field(g, f, "f")
    alpha = float(alpha)
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be finite and nonnegative")
    return f, alpha


def _identity(g, f):
    return RofSolution(0.0, f.copy(), np.zeros(g.edge_count),
                       SolveReport(0, 0.0, 0.0, True, method="identity"))


# The accuracy, relative to the data range, at which rof_solve's projection
# stops at the latest; the certificate, not this tolerance, decides whether
# the sign pattern read off the projection is right
IDENTIFY_TOL = 5e-7

# The gradient-mapping norm, relative to the data range, below which
# rof_solve tries the projection's active set while it runs
_TRY_FLOOR = 1e-2


def _active(h: np.ndarray, alpha: float) -> np.ndarray:
    # the labels of the dual flow h's active set, -sign(h) on the edges
    # where |h| = alpha exactly, as int8
    return (h == -alpha).view(np.int8) - (h == alpha).view(np.int8)


def rof_solve(g: OrientedGraph, f, alpha: float) -> RofSolution:
    """Solve the graph total-variation regularization problem at one alpha.

    Identify, then certify.  The dual projection onto the divergence image
    of the box [-alpha, alpha]^m gives the sign pattern of ``u`` as its
    active set, ``-sign(h)`` where the flow h sits exactly at a bound.  The
    answer is that pattern's closed form ``cluster_mean(f) + alpha * s``
    (:class:`PatternKernel`), returned when its optimality conditions hold:
    pinned edges keep their signs, and on each cluster a flow in [-alpha,
    alpha] on its flat edges closes the divergence (:func:`_certify`): its
    forest flow where that fits, else the iterate's flow repaired on its
    spanning tree where that fits, else its max-flow test's.  Each passes
    the witness check on the cluster's own edges and vertices, and the
    dual flow is built from them.

    Projected gradient finds the active face after finitely many
    iterations (Burke & More 1988), so the active set is tried at the
    projection's checks, with no max-flow: once the gradient-mapping norm
    is below 1e-2 of the data range, where the set held at the check
    before and is not the last one to fail its certificate, and after at
    least twice the iterations of the last try.  A cluster that would need
    a max-flow means not yet.  The solve stops at the first certified try,
    else at ``IDENTIFY_TOL`` of the range, where the last iterate's active
    set is certified with a max-flow where a cluster needs one (a start
    that meets the stop has none, and one projected gradient step from it
    is read instead).  The tries follow counts alone, so
    ``report.iterations`` does not depend on timing.

    Where that certificate fails, the answer is exact instead: from the
    all-flat pattern, :meth:`PatternKernel.settle` at ``t = 1 / alpha``
    splits clusters along their min cuts until every one has a flow, and
    the same certificate checks the result.  If it fails, or t = 1 /
    alpha overflows a float, :class:`ConvergenceError` names the cause, n,
    m and alpha; every answer is certified, so the solve takes no
    tolerance.  The method is ``kkt-maxflow`` if a cluster needed a
    max-flow, else ``kkt-forest``, and ``report.optimality`` is ``max |f +
    div(dual_flow) - u|``.
    """
    f, alpha = _checked(g, f, alpha)
    if alpha == 0.0:
        return _identity(g, f)
    if math.isinf(1.0 / alpha):
        raise ConvergenceError("t = 1 / alpha overflows a float %s"
                               % failure_site(g, "alpha", alpha))
    scale = float(f.max() - f.min()) or 1.0
    spec = BoxSpec.uniform(g.edge_count, alpha)
    seen = failed = tried = trial = found = None
    tried_at = 0

    def attempt(h, it, meas):
        # try the active set of the iterate h on the schedule above; true
        # once one is certified, in found.  A set tried again, the labels
        # tried, after a try that stopped short of a max-flow, keeps that
        # try's kernel, which the try left as it was
        nonlocal seen, failed, tried, trial, tried_at, found
        if meas > _TRY_FLOOR * scale:
            seen = None
            return False
        labels = _active(h, alpha)
        ready = (seen is not None and np.array_equal(labels, seen) and it >= 2 * tried_at
                 and (failed is None or not np.array_equal(labels, failed)))
        seen = labels
        if not ready:
            return False
        tried_at = it
        if tried is None or not np.array_equal(labels, tried):
            tried, trial = labels, PatternKernel(g, SignPattern._of(labels), f)
        witness, cause = _certify(trial, alpha, start=h / alpha, early=True)
        if witness is None:
            if cause is not None:
                failed = labels
            return False
        found = trial, witness
        return True

    terms = _projection(g, f, spec)
    h, it, meas, obj, conv = _accelerated_descent(
        g, np.zeros(g.edge_count), spec, stop_tol=0.25 * IDENTIFY_TOL * scale,
        probe=attempt, **terms)
    if found is not None:
        k, witness = found
    else:
        if not it:
            # the start, zero, met the stop and has no active edge: one
            # projected gradient step from it
            h = spec.project((f[g.heads] - f[g.tails]) / terms["lips"])
        labels = _active(h, alpha)
        k = PatternKernel(g, SignPattern._of(labels), f)
        witness, cause = _certify(k, alpha, start=h / alpha)
        if witness is None:
            # settle from the all-flat kernel: the identified one where no
            # edge is active, since its clusters keep the tests its
            # certificate ran
            if labels.any():
                k = PatternKernel(g, SignPattern(np.zeros(g.edge_count)), f)
            k.settle(1 / Fraction(alpha))
            witness, cause = _certify(k, alpha)
            if witness is None:
                raise ConvergenceError("no certified sign pattern: %s %s"
                                       % (cause, failure_site(g, "alpha", alpha)),
                                       SolveReport(it, obj, meas, conv, method="apgd-projection"))
    u = k.intercept + alpha * k.slope
    dual = -alpha * (witness - k.pattern.labels)
    optimality = float(np.abs(f + g._div(dual) - u).max())
    return RofSolution(alpha, u, dual, SolveReport(
        it, 0.5 * float(np.sum(u * u)), optimality, True,
        method="kkt-maxflow" if k.maxflows else "kkt-forest"))


def isotropic_rof_solve(g: OrientedGraph, f, alpha: float,
                        tol: Optional[Tolerances] = None) -> RofSolution:
    """Coupled-constraint variant on a Cartesian grid graph.

    The dual constraint couples each interior vertex's two incoming grid
    edges in a Euclidean ball of radius alpha (border edges are constrained
    alone), so the constraint set is not a polytope and the solve stays
    iterative, to ``tol.solve_tol``.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f, alpha = _checked(g, f, alpha)
    if alpha == 0.0:
        return _identity(g, f)
    h, report = project_onto_div_box(g, f, g.coupled_ball(alpha), tol)
    if not report.converged:
        raise ConvergenceError("coupled projection did not converge %s"
                               % failure_site(g, "alpha", alpha), report)
    return RofSolution(alpha, f - g._div(h), -h, report)


def _fail(g: OrientedGraph, cause: str, name: str, x: float, where: str):
    raise PathError("%s: %s %s" % (where, cause, failure_site(g, name, x)),
                    interval=(x, x))


def _sign_fault(kernel: PatternKernel, alpha: float, gaps: np.ndarray) -> bool:
    # whether a pinned edge changes sign on the kernel's line at alpha,
    # whose differences across the edges are gaps, beyond 2^16 ulps of the
    # line's size there: about 1e-11 of it, and above zero if subnormal
    worst = float((kernel.pattern.labels * gaps).min(initial=0.0))
    size = float(np.abs(kernel.intercept).max() + alpha * np.abs(kernel.slope).max())
    return worst < -2.0 ** 16 * float(np.spacing(size))


def _certify(kernel: PatternKernel, alpha: float, start: Optional[np.ndarray] = None,
             early: bool = False) -> tuple:
    """``(witness, None)`` if the kernel's line solves the problem at alpha
    > 0, else ``(None, cause)``: pinned edges keep their signs, and the flow
    of every living cluster at ``t = 1 / Fraction(alpha)``, from ``start``
    repaired where given (see :meth:`PatternKernel._flows`), passes the
    witness check on the cluster.  The witness is those flows, zero on the
    pinned edges.  An early try (``early``) gives ``(None, None)`` where a
    cluster would need a max-flow, and runs none."""
    g, u = kernel.graph, kernel.intercept + alpha * kernel.slope
    if _sign_fault(kernel, alpha, u[g.tails] - u[g.heads]):
        return None, "a pinned edge changes sign"
    t = 1 / Fraction(alpha)
    pairs = kernel._living(t)
    flows = kernel._cover(pairs, start, early)
    if flows is None:
        return None, None
    at, values = [], []
    for (c, _), (edges, y) in zip(pairs, flows):
        cause = kernel._misses(c, edges, y, t)
        if cause:
            return None, cause
        at += edges
        values += y
    h = np.zeros(g.edge_count)
    h[at] = values
    return h, None


def _closes(k: PatternKernel, pins: dict) -> bool:
    # whether the parts of a split that the kernel k just made close across
    # its cut at once: a pinned edge of pins with label * (s_tail - s_head) < 0,
    # exact from each part's size and sum of the pinned flux b, s = -b / size
    tails, heads = k.graph.tails, k.graph.heads
    for e, label in pins.items():
        (nt, bt, _), (nh, bh, _) = k.sums_at(tails[e]), k.sums_at(heads[e])
        if label * (bh * nt - bt * nh) < 0:
            return True
    return False


def _trace(k: PatternKernel):
    """The one event loop of the path and the flow, from the kernel ``k``.

    Yields ``(x, k, moved)`` for each segment, from its start x, then
    ``(end, k, None)`` with k all flat.  The events update k in place
    (:meth:`PatternKernel.advance`), so read it before the next segment.
    ``moved`` lists in increasing order the vertices whose cluster an
    event changed since the last segment, every vertex at the first: the
    lines of the others are as they were.  On a segment the trajectory is
    the kernel's line ``c + x * s``, up to the first fusion (the lines
    across a non-flat edge meet) or split (:meth:`PatternKernel.splits`).  Events are ordered
    by their exact x, a split's from its min cut, a fusion's from
    :meth:`PatternKernel.meet`, and only those at the first x are applied
    together: a float search only picks the edges that may close first.
    Each breakpoint is its exact rational, rounded once, and events whose
    x round to the same float share a breakpoint; the kernel advances at
    the exact x by the labels the events set, so a kernel without a datum
    carries its lines exactly.

    Every segment is certified, or :class:`PathError` is raised: each
    living cluster's certificate, checked once for its life where it forms
    (:meth:`PatternKernel.prove`), covers it, and the pinned edges keep
    their signs at its end, by the differences and rates across the edges
    that the fusion search computed (it closes any edge the lines carry
    past its meeting at the start).  With a datum (the path) x is alpha
    and t = 1 / x.  Without one (the flow: x is the time) the pull is
    zero: every failing cluster splits at once, and no witness reads x.
    Where the parts of a split due now meet, without a datum or at x = 0,
    where every cluster is a tie of f, their lines must not close across
    the cut.  No iterative solve runs.
    """
    g = k.graph
    pulled = k.f is not None
    name = "alpha" if pulled else "t"
    x, t = 0.0, _ZERO  # t = 1 / x exactly, and 0 at x = 0
    count = 0
    moved = set(range(g.vertex_count))
    tails, heads, root = memoryview(g.tails), memoryview(g.heads), memoryview(k.root)

    def certify(t_end, where):
        # the certificate of the segment from (x, t) down to t_end
        try:
            cause = k.prove(t, t_end)
        except OverflowError:
            cause = "t = 1 / alpha overflows a float"
        if cause is not None:
            _fail(g, cause, name, x, where)

    def advance(relabel):
        # the events' labels, {edge: label}, and the vertices they moved
        k.advance(t, relabel)
        moved.update(k.moved)

    for _ in range(event_cap(g)):
        where = "segment %d" % count
        if k.pattern.all_flat:
            certify(_ZERO, "terminal " + where)
            yield x, k, None
            return
        splits = k.splits(t)
        due = [pins for t_split, pins in splits if t_split is None]
        if due:
            # the splits due now, before any fusion
            advance({e: label for pins in due for e, label in pins.items()})
            if (not pulled or not t) and any(_closes(k, pins) for pins in due):
                _fail(g, "a split's parts close across its cut", name, x, where)
            continue
        c, s = k.intercept, k.slope
        _, fused, gaps, rates = next_fusion(g, k.pattern, c + x * s, s)
        # each event at its exact t = 1 / x: a split's from its min cut, a
        # fusion's where the lines across an edge that the float search
        # closes first meet (None where they meet at x = 0), the same for
        # every edge between the same two clusters.  An event that rounding
        # put at or before the current x is due now; else the first events,
        # those of the largest t, end the segment together, and the others
        # wait
        events = [(t_split, pins, None) for t_split, pins in splits]
        meets = {}
        for e in fused.nonzero()[0].tolist():
            pair = root[tails[e]], root[heads[e]]
            if pair not in meets:
                meets[pair] = k.meet(e)
            events.append((meets[pair], None, e))
        if not events:
            _fail(g, "no event ahead", name, x, where)
        now = [event for event in events if event[0] is None or t and event[0] >= t]
        if not now:
            t_nxt = max([event[0] for event in events])
            end = t_nxt.denominator / t_nxt.numerator  # 1 / t, rounded once
            if end > x:
                certify(t_nxt, where)
                if _sign_fault(k, end, gaps + (end - x) * rates):
                    _fail(g, "a pinned edge changes sign", name, end, where)
                yield x, k, np.array(sorted(moved), dtype=np.intp)
                moved = set()
                count += 1
            x, t = end, t_nxt
            now = [event for event in events if event[0] == t_nxt]
        relabel = {e: 0 for _, _, e in now if e is not None}
        for _, pins, e in now:
            relabel.update(pins or ())
        advance(relabel)
    _fail(g, "event cap %d exceeded" % event_cap(g), name, x, "segment %d" % count)


def rof_path(g: OrientedGraph, f) -> PiecewiseAffinePath:
    """Trace the full regularization path of ``f`` as a function of alpha.

    Under a sign pattern the path is the line ``cluster_mean(f) + alpha *
    s`` of :class:`PatternKernel`, up to the next fusion or split, as
    :func:`_trace` finds them.  The path starts from the clusters of
    exactly equal values in f; a constant f is all flat, and its path is
    the one breakpoint 0.  No iterative solve runs.  Every segment is
    certified, each cluster once for its life, or :class:`PathError` is
    raised; every breakpoint is its exact rational, rounded once.  The
    terminal value is the final kernel's, the exact mean of f rounded once.
    The path reads no tolerance.  Each vertex's line ``c + alpha * s`` is
    appended to the path's log at the segments whose events changed its
    cluster (see :class:`PiecewiseAffinePath`).
    """
    f = ensure_vertex_field(g, f, "f")
    lines, bps = _Lines(g.vertex_count), []
    for alpha, k, moved in _trace(PatternKernel(g, sign_pattern(g, f, scale=0.0), f)):
        bps.append(alpha)
        if moved is not None:
            # every line is anchored at alpha = 0; the events changed some
            lines.append(0.0, moved, k.intercept[moved], k.slope[moved])
    return PiecewiseAffinePath._compact(bps, k.intercept.copy(), lines)
