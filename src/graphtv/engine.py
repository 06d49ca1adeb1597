"""First-order solvers for constrained problems posed on edge flows.

Every solver in this module optimizes over an edge flow ``H`` constrained to
a simple set (a per-edge box or a product of per-group Euclidean balls) and
couples to vertex space only through the divergence operator of an oriented
graph.  Supported objectives:

* ``0.5 * ||target - div H||_2^2`` (Euclidean projection onto the divergence
  image of the constraint set), and
* ``sum_v phi(base(v) - (div H)(v))`` for a convex scalar ``phi``.

Both objectives depend on ``H`` only through ``z = div H``, and every
solve runs one accelerated projected-gradient iteration with a monotone
restart that carries ``z`` next to each iterate.  The iteration steps in
place, in buffers allocated once per solve, over the constraint set's own
edge order: the graph's for a box; for group balls the pairs' first edges,
then their second edges, then the singles, so that the projection works on
slices.  On Cartesian grids its iterates are bit for bit those of the
graph's order (see :func:`_accelerated_descent`).  A separable solve is
certified by the linearization duality gap of its objective over the
constraint set (:meth:`BoxSpec.gap`, :meth:`GroupBallSpec.gap`), which
bounds its excess over the minimum.  A ``phi`` without a curvature bound
is handled by Moreau-envelope smoothing with a continuation schedule; a
``phi`` without a proximal map gets one by bisection on its subgradient.
There the gap is the smoothed objective's, plus the pointwise smoothing
error ``(delta / 2) * sum_v phi'(u_v)^2``.  The divergence is applied
through the graph's index arrays, in O(n + m) time and memory.

All functions are pure: no global state, no internal threads.  Their
reductions avoid BLAS, so results do not depend on its thread count.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .graph import OrientedGraph

# The one iteration cap of every solve
DEFAULT_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one engine solve.

    Attributes
    ----------
    iterations : total inner iterations spent; 0 when the start (zero or
        the warm start) already met the stopping test.
    objective : final objective value.
    optimality : final optimality measure.  For projections this is the
        gradient-mapping norm.  For separable solves it is a certified bound
        on ``objective - minimum``: the linearization duality gap of the
        objective (``apgd-smooth``, see :func:`_smooth_descent`), or of the
        smoothed objective plus the pointwise smoothing error
        (``apgd-smoothing``, see :func:`_smoothing_descent`).  For
        ``rof_solve`` and membership it is the residual of the optimality
        conditions, ``max |f + div(dual_flow) - u|`` or ``max |div H - c|``.
    converged : whether the stopping criterion was met within the cap.
    method : short tag naming the algorithm that produced the result:
        ``apgd-projection``, ``apgd-smooth``, ``apgd-smoothing``; only
        ``kkt-forest``, ``kkt-maxflow`` (certified, see
        :func:`graphtv.rof.rof_solve`) or ``identity`` from ``rof_solve``.
    """

    iterations: int
    objective: float
    optimality: float
    converged: bool
    method: str = ""


class BoxSpec:
    """Per-edge interval bounds ``lower <= H <= upper``.

    Equal bounds encode entries fixed by a sign pattern.  Bounds must be
    finite; use large magnitudes rather than inf for effectively-free edges.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lo = np.asarray(lower, dtype=float)
        up = np.asarray(upper, dtype=float)
        if lo.ndim != 1 or lo.shape != up.shape:
            raise ValidationError("box bounds must be 1-D arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > up):
            raise ValidationError("box requires lower <= upper")
        lo.setflags(write=False)
        up.setflags(write=False)
        self.lower = lo
        self.upper = up

    @property
    def size(self) -> int:
        return self.lower.size

    @staticmethod
    def uniform(count: int, radius: float) -> "BoxSpec":
        """The box [-radius, radius]^count."""
        r = np.full(ensure_integer(count, "count", 0), ensure_number(radius, "radius"))
        return BoxSpec(-r, r)

    def project(self, h: np.ndarray) -> np.ndarray:
        return self._project(np.array(h, dtype=float))

    # the solvers' edge order (see GroupBallSpec) is the graph's own
    def _pack(self, h: np.ndarray) -> np.ndarray:
        return h

    _unpack = _pack

    def _project(self, x: np.ndarray) -> np.ndarray:
        np.maximum(x, self.lower, out=x)
        return np.minimum(x, self.upper, out=x)

    def contains(self, h) -> bool:
        h = np.asarray(h, dtype=float)
        return bool(np.all(h >= self.lower) and np.all(h <= self.upper))

    def gap(self, h: np.ndarray, grad: np.ndarray) -> float:
        """``<grad, h> - min over the box of <grad, .>``, summed per edge.

        Each term ``grad_e h_e - min(lo_e grad_e, up_e grad_e)`` is
        nonnegative for a feasible ``h``.  With ``grad`` the gradient of a
        convex objective at ``h``, the sum bounds the objective's excess
        over its minimum on the box (the linearization duality gap).
        """
        lo = self.lower * grad
        up = self.upper * grad
        return float((grad * h - np.minimum(lo, up)).sum())

    _gap = gap

    def magnitude(self) -> float:
        if self.size == 0:
            return 0.0
        return float(np.max(np.maximum(np.abs(self.lower), np.abs(self.upper))))


class GroupBallSpec:
    """Product of Euclidean balls over a partition of the edge set.

    ``groups`` is a sequence of index tuples partitioning ``range(size)``;
    each group's subvector is constrained to the l2 ball of the given radius.
    Only group sizes 1 and 2 are supported, which covers the Cartesian-grid
    coupled constraint set.

    The solvers keep a flow in the spec's own edge order, ``order``: the
    pairs' first edges, then the pairs' second edges, then the singles,
    each part in group order.  A projection then scales and clips slices
    in place (``_project``).  :meth:`project` and :meth:`gap` take flows in
    the graph's edge order, and ``_pack`` and ``_unpack`` map between the
    two orders.  The divergence sums each vertex's edges in this order: the
    same bits as the graph's order where a vertex has at most two edges in
    and two out, as on the grids of :meth:`OrientedGraph.coupled_ball`;
    elsewhere the last bits may differ.
    """

    __slots__ = ("radius", "size", "order", "_inverse", "_pairs", "_two")

    def __init__(self, groups, radius: float, size: int):
        radius, size = ensure_number(radius, "radius"), ensure_integer(size, "size", 0)
        groups = tuple(groups)
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        flat = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp,
                           count=int(sizes.sum()))
        # the first bad group decides the error, as a scan in group order
        # would: an index out of range or repeated (a stable sort puts a
        # repeat right after its first occurrence) before a size other
        # than 1 or 2
        key = np.argsort(flat, kind="stable")
        repeated = np.zeros(flat.size, dtype=bool)
        repeated[key[1:]] = flat[key[1:]] == flat[key[:-1]]
        outside = np.repeat(np.arange(sizes.size), sizes)[
            (flat < 0) | (flat >= size) | repeated]
        oversize = np.flatnonzero((sizes < 1) | (sizes > 2))
        if outside.size and not (oversize.size and oversize[0] < outside[0]):
            raise ValidationError("groups must partition the edge index range")
        if oversize.size:
            raise ValidationError("only group sizes 1 and 2 are supported")
        if flat.size != size:
            raise ValidationError("groups must cover every edge index")
        two = sizes == 2
        start = np.cumsum(sizes) - sizes
        first = flat[start[two]]
        self.order = np.concatenate([first, flat[start[two] + 1], flat[start[~two]]])
        self._inverse = np.empty_like(self.order)
        self._inverse[self.order] = np.arange(self.order.size)
        self._pairs = first.size
        self._two = two
        self.radius, self.size = radius, size

    @property
    def groups(self) -> tuple:
        """The groups as tuples of edge indices, in the order given."""
        p = self._pairs
        pairs = zip(self.order[:p].tolist(), self.order[p:2 * p].tolist())
        singles = zip(self.order[2 * p:].tolist())
        return tuple(next(pairs) if two else next(singles) for two in self._two.tolist())

    def _pack(self, h: np.ndarray) -> np.ndarray:
        return h[self.order]

    def _unpack(self, x: np.ndarray) -> np.ndarray:
        return x[self._inverse]

    def _project(self, x: np.ndarray) -> np.ndarray:
        p, r = self._pairs, self.radius
        a, b, single = x[:p], x[p:2 * p], x[2 * p:]
        if r == 0.0:
            a *= 0.0
            b *= 0.0
            np.clip(single, -r, r, out=single)
            return x
        # exactly 1.0 inside the ball, r / norm outside
        scale = np.hypot(a, b)
        np.divide(r, np.maximum(scale, r, out=scale), out=scale)
        a *= scale
        b *= scale
        # np.clip's bits without its wrapper: the bounds are not zero, so
        # no tie between signed zeros is ever broken
        np.minimum(np.maximum(single, -r, out=single), r, out=single)
        return x

    def project(self, h: np.ndarray) -> np.ndarray:
        return self._unpack(self._project(self._pack(np.asarray(h, dtype=float))))

    def _gap(self, h: np.ndarray, grad: np.ndarray) -> float:
        p, r = self._pairs, self.radius
        dot = grad * h
        return float((dot[2 * p:] + r * np.abs(grad[2 * p:])).sum()
                     + (dot[:p] + dot[p:2 * p]
                        + r * np.hypot(grad[:p], grad[p:2 * p])).sum())

    def gap(self, h: np.ndarray, grad: np.ndarray) -> float:
        """``<grad, h> - min over the balls of <grad, .>``, summed per group.

        Each term ``<grad_g, h_g> + r ||grad_g||`` is nonnegative for a
        feasible ``h``; see :meth:`BoxSpec.gap`.
        """
        return self._gap(self._pack(h), self._pack(grad))

    def magnitude(self) -> float:
        return self.radius


@dataclass(frozen=True)
class ConvexScalar:
    """A convex scalar function with optional solver metadata.

    ``evaluate`` and ``subgradient`` must accept and return numpy arrays
    elementwise.  ``subgradient`` may return any selection from the
    subdifferential.  ``prox``, when given, maps ``(x, delta)`` to
    ``argmin_y phi(y) + (y - x)^2 / (2 delta)`` elementwise.  ``curvature``,
    when given, maps an interval ``(lo, hi)`` to an upper bound on phi'' over
    it, certifying that phi is smooth there.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    subgradient: Callable[[np.ndarray], np.ndarray]
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    curvature: Optional[Callable[[float, float], float]] = None
    params: tuple = ()

    def __post_init__(self):
        if not callable(self.evaluate) or not callable(self.subgradient):
            raise ValidationError("evaluate and subgradient must be callable")

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join("%s=%.6g" % (k, v) for k, v in self.params)
        return "%s(%s)" % (self.name, inner)

    def total(self, u: np.ndarray) -> float:
        return float(np.sum(self.evaluate(np.asarray(u, dtype=float))))

    def reflect(self) -> "ConvexScalar":
        """The mirrored function x -> phi(-x), convex again."""
        ev, sg, px, cv = self.evaluate, self.subgradient, self.prox, self.curvature
        return ConvexScalar(
            name="reflect(%s)" % self.name,
            evaluate=lambda x: ev(-np.asarray(x, dtype=float)),
            subgradient=lambda x: -sg(-np.asarray(x, dtype=float)),
            prox=None if px is None else (lambda x, d: -px(-np.asarray(x, dtype=float), d)),
            curvature=None if cv is None else (lambda lo, hi: cv(-hi, -lo)),
            params=self.params,
        )


def bisection_prox(subgradient: Callable[[np.ndarray], np.ndarray],
                   iterations: int = 120) -> Callable[[np.ndarray, float], np.ndarray]:
    """Build a vectorized prox for a convex phi from its subgradient alone.

    Solves y + delta * g(y) = x per entry by bracketing and bisection.  The
    map h(y) = y + delta*g(y) is nondecreasing, so any sign change brackets
    the solution.  Accuracy is limited by float bisection; prefer a closed
    form when one exists.
    """
    iterations = ensure_integer(iterations, "iterations", 0)

    def prox(x, delta):
        x = np.asarray(x, dtype=float)
        span = np.maximum(1.0, np.abs(x))
        lo = x - span
        hi = x + span
        # expand until the root is bracketed
        for _ in range(200):
            need_lo = lo + delta * subgradient(lo) > x
            need_hi = hi + delta * subgradient(hi) < x
            if not (need_lo.any() or need_hi.any()):
                break
            span = span * 2.0
            lo = np.where(need_lo, x - span, lo)
            hi = np.where(need_hi, x + span, hi)
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            high = mid + delta * subgradient(mid) > x
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        return 0.5 * (lo + hi)

    return prox


def ensure_number(x, name: str, low: float = 0.0, above: bool = False) -> float:
    """``x`` as a float: a Python or numpy real, not a bool, that is finite
    and at least ``low`` (above it where ``above``; ``low`` may be -inf)."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        raise ValidationError("%s must be a number" % name)
    try:
        v = float(x)
    except OverflowError:  # an integer beyond the floats
        v = math.inf
    if not (math.isfinite(v) and (v > low if above else v >= low)):
        rule = ("" if low == -math.inf else " and positive" if above and low == 0
                else " and nonnegative" if low == 0
                else " and %s %g" % ("above" if above else "at least", low))
        raise ValidationError("%s must be finite%s" % (name, rule))
    return v


def ensure_integer(x, name: str, low: Optional[int] = None) -> int:
    """``x`` as an int: a Python or numpy integer, not a bool, of at least ``low``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError("%s must be an integer" % name)
    if low is not None and x < low:
        raise ValidationError("%s must be at least %d" % (name, low))
    return int(x)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package, finite and positive.

    flat_tol : relative threshold below which an edge difference counts as
        flat; scaled internally by the data range max(f) - min(f) of the
        field under examination (or an explicitly supplied scale).
    solve_tol : inner solver tolerance (gradient-mapping norm for
        projections, relative objective gap for generic convex solves).

    ``equivalence_report`` (for the flow state), :func:`subdifferential_membership`
    and the jump sets of ``counterexample_harness`` read only ``flat_tol``;
    ``flow_solve``, ``rof_solve`` and ``rof_path`` take no tolerance and
    read the ties of their datum exactly.
    """

    flat_tol: float = 1e-7
    solve_tol: float = 1e-9

    def __post_init__(self):
        for name in ("flat_tol", "solve_tol"):
            ensure_number(getattr(self, name), name, above=True)


# the solvers' defaults, and the minimality checks', which decide on objective gaps
DEFAULT_TOL = Tolerances()
DEFAULT_CHECK_TOL = Tolerances(solve_tol=1e-6)


def ensure_vertex_field(g: "OrientedGraph", u, name: str = "field") -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (g.vertex_count,):
        raise ValidationError(
            "%s must be a length-%d vertex field, got shape %s" % (name, g.vertex_count, u.shape))
    if not np.isfinite(u).all():
        raise ValidationError("%s must be finite" % name)
    return u


def ensure_edge_field(g: "OrientedGraph", h, name: str = "flow") -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (g.edge_count,):
        raise ValidationError(
            "%s must be a length-%d edge field, got shape %s" % (name, g.edge_count, h.shape))
    if not np.isfinite(h).all():
        raise ValidationError("%s must be finite" % name)
    return h


def _start(g, spec, warm_start) -> np.ndarray:
    """Checked starting flow of a solve over ``spec``: zero or the warm start."""
    if spec.size != g.edge_count:
        raise ValidationError(
            "constraint set size %d does not match edge count %d" % (spec.size, g.edge_count))
    if warm_start is None:
        return np.zeros(g.edge_count)
    return ensure_edge_field(g, warm_start, "warm_start")


# the cadence and stall limit of _accelerated_descent's checks (see there)
CHECK_EVERY = 8
PATIENCE = 125


def _accelerated_descent(g, x0, spec, *, value, slope, lips, measure,
                         stop_tol, max_iter=DEFAULT_MAX_ITER, adaptive=False,
                         probe=None):
    """FISTA-style iteration over ``spec`` with restart on objective increase.

    The objective is a function of ``z = div h`` alone: ``value(z)`` is its
    value and ``slope(z)`` its gradient in vertex space, so the gradient in
    ``h`` is the adjoint of the divergence applied to ``slope(z)``.  The
    loop carries ``z`` next to each iterate; the momentum point's ``z`` is
    the same linear combination of two fresh ones.  An iteration therefore
    applies the divergence once and its adjoint once.

    The loop keeps its flows in the spec's edge order (``spec._pack``; the
    graph's own for a box, group-contiguous for balls), with the graph's
    head and tail indices gathered into that order once, and steps and
    projects them in place, in buffers allocated once per solve.  On a
    vertex with at most two edges in and two out, as on a Cartesian grid,
    the divergence's sums are those of the graph's order, and every
    reduction over edges is taken in the graph's order, so the iterates do
    not depend on the spec's order.

    ``lips`` is the certified curvature bound and ``1 / lips`` the safe
    step.  Every ``CHECK_EVERY`` iterations the gradient ``grad`` in ``h``
    is computed at the feasible iterate ``x``, and
    ``measure(x, grad, objective)``, with both in the spec's order, is the
    stopping statistic: the gradient-mapping norm (see
    :func:`project_onto_div_box`) or a duality gap.
    The measure is also taken once at the projected start ``x0``: a start
    that already meets ``stop_tol`` is returned with 0 iterations.  A start
    that misses it leaves no trace in the loop below, which neither keeps
    it as the best iterate nor counts it against ``PATIENCE``.
    The best-measure iterate is kept.  The loop stops once the best measure
    meets ``stop_tol``, or after ``PATIENCE`` consecutive checks none of
    which is 10 percent below the best measure seen so far.  Each check is
    compared with the running best, not with the value ``PATIENCE`` checks
    earlier, so steady progress slower than 10 percent per check counts as
    a stall however long it lasts.  (The attainable floor in floating point
    can sit above ``stop_tol`` for badly scaled data, and that outcome is
    reported rather than looped on.)

    ``probe``, if given, is called as ``probe(x, it, meas)`` at each check
    that does not meet ``stop_tol``, with the iterate x in the graph's
    order, read-only and valid only during the call; a true result stops
    the loop, which returns that x as converged.  The probe reads the
    iterates and changes none of them.

    With ``adaptive=True`` the iteration takes backtracking steps: trial
    steps start three orders of magnitude above the safe step and are
    halved until the quadratic descent bound holds.  The stopping measure
    stays at the safe step so its optimality certificate stands.

    Returns (x, iterations, final_measure, final_objective, converged), x
    in the graph's edge order.
    """
    n = g.vertex_count
    heads, tails = spec._pack(g.heads), spec._pack(g.tails)
    step = 1.0 / lips
    cur = step * 1024.0 if adaptive else step
    x = spec._project(spec._pack(np.array(x0, dtype=float)))
    xn, grad, d = (np.empty_like(x) for _ in range(3))

    def div(h):
        return np.bincount(heads, h, n) - np.bincount(tails, h, n)

    def gradient(z):
        # the adjoint of div at slope(z), into grad
        s = slope(z)
        return np.subtract(s[heads], s[tails], out=grad)

    def advance(base, zbase, fbase):
        # one projected gradient step from base into xn; in adaptive mode,
        # halve the trial step until f(xn) <= f(base) + <g, d> + |d|^2 / (2 step)
        nonlocal cur
        gradient(zbase)
        while True:
            np.multiply(grad, cur, out=xn)
            spec._project(np.subtract(base, xn, out=xn))
            zn = div(xn)
            fn = value(zn)
            if not adaptive or cur <= step * 1.0000001:
                return zn, fn
            np.subtract(xn, base, out=d)
            bound = (fbase + float(spec._unpack(grad * d).sum())
                     + float(spec._unpack(d * d).sum()) / (2.0 * cur))
            if fn <= bound + 1e-12 * (1.0 + abs(fbase)):
                return zn, fn
            cur = max(step, 0.5 * cur)

    z = div(x)
    fx = value(z)
    meas = measure(x, gradient(z), fx)
    if meas <= stop_tol:
        return spec._unpack(x), 0, meas, fx, True
    y, zy = x.copy(), z.copy()
    t = 1.0
    it = 0
    best, best_meas, best_f = x.copy(), math.inf, fx
    checks_since_gain = 0
    converged = False

    while it < max_iter:
        it += 1
        if adaptive and it % 32 == 0:
            cur = min(cur * 2.0, step * 1e9)
        fy = value(zy) if adaptive else fx
        zn, fn = advance(y, zy, fy)
        if fn > fx:
            # momentum overshoot: restart from the last good iterate; the
            # plain step is accepted even if roundoff nudges fn above fx,
            # otherwise the iteration would freeze at the float floor
            t = 1.0
            zn, fn = advance(x, z, fx)
        tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        c = (t - 1.0) / tn
        # y = xn + c (xn - x) and zy = zn + c (zn - z), in place
        np.subtract(xn, x, out=y)
        y *= c
        y += xn
        np.subtract(zn, z, out=zy)
        zy *= c
        zy += zn
        x, xn = xn, x
        z, fx, t = zn, fn, tn
        if it % CHECK_EVERY == 0 or it == max_iter:
            meas = measure(x, gradient(z), fx)
            if meas <= 0.9 * best_meas:
                checks_since_gain = 0
            else:
                checks_since_gain += 1
            if meas < best_meas:
                np.copyto(best, x)
                best_meas, best_f = meas, fx
            if best_meas <= stop_tol:
                converged = True
                break
            if probe is not None and probe(spec._unpack(x), it, meas):
                return spec._unpack(x), it, meas, fx, True
            if checks_since_gain >= PATIENCE:
                break
    return spec._unpack(best), it, best_meas, best_f, converged


def _projection(g: "OrientedGraph", target: np.ndarray, spec) -> dict:
    """The objective ``0.5 * ||target - div H||_2^2`` of a projection onto
    {div H : H in spec}, its curvature bound and its stopping measure, the
    gradient-mapping norm, as keywords of :func:`_accelerated_descent`."""
    lips = 2.0 * max(g.max_degree, 1)
    step = 1.0 / lips

    # .sum() adds pairwise in a fixed order; a BLAS dot product (r @ r, and
    # so np.linalg.norm) splits long vectors over threads, and the result
    # would follow the thread count
    def value(z):
        r = z - target
        return 0.5 * float((r * r).sum())

    def mapping_norm(x, grad, _):
        # the gradient-mapping norm at the step 1 / lips, summed in the
        # graph's edge order
        d = x - spec._project(x - step * grad)
        return math.sqrt(float(spec._unpack(d * d).sum())) * lips

    return dict(value=value, slope=lambda z: z - target, lips=lips, measure=mapping_norm)


def project_onto_div_box(g: "OrientedGraph", target, spec,
                         tol: Tolerances | None = None):
    """Euclidean projection of ``target`` onto {div H : H in spec}.

    Minimizes ``0.5 * ||target - div H||_2^2`` over the box (or group-ball)
    constraint ``spec`` by accelerated projected gradient from zero, with
    step ``1 / (2 * max_degree)``; ``||div||^2 <= 2 * max_degree``.  Stops
    when the gradient-mapping norm falls to a quarter of ``tol.solve_tol``,
    the ``optimality`` reported.

    Returns
    -------
    (H, report) : the optimal flow and a :class:`SolveReport`.  ``div H`` is
    the projected point; it is unique even when ``H`` itself is not.
    Nonconvergence within ``DEFAULT_MAX_ITER`` iterations, or a stall (see
    :func:`_accelerated_descent`), is reported via the report flag, not
    raised.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    target = ensure_vertex_field(g, target, "target")
    x, it, meas, obj, conv = _accelerated_descent(
        g, _start(g, spec, None), spec, stop_tol=0.25 * tol.solve_tol,
        **_projection(g, target, spec))
    return x, SolveReport(it, obj, meas, conv, method="apgd-projection")


def min_norm_divergence(g: "OrientedGraph", spec,
                        tol: Tolerances | None = None):
    """Minimum-Euclidean-norm element of {div H : H in spec}.

    Projection of the origin; see :func:`project_onto_div_box`.  Returns
    ``(H, report)`` where ``div H`` is the (unique) minimum-norm divergence.
    """
    return project_onto_div_box(g, np.zeros(g.vertex_count), spec, tol)


def _smooth_descent(g, base, spec, phi, tol_obj, x0):
    """Accelerated descent on the true objective, for phi with a curvature bound.

    Stops once the objective's linearization duality gap (``spec.gap``,
    the ``optimality`` reported) is at most ``tol_obj * (1 + |objective|)``;
    the measure is the gap relative to that.  The gap certifies the
    objective, not u: an accurate u needs a tolerance near rounding.
    """
    lo, hi = _reachable_interval(g, base, spec)
    curv = max(float(phi.curvature(lo, hi)), 1e-300)

    def eps(obj):
        return tol_obj * (1.0 + abs(obj))

    x, it, meas, obj, conv = _accelerated_descent(
        g, x0, spec, value=lambda z: float(phi.evaluate(base - z).sum()),
        slope=lambda z: -phi.subgradient(base - z),
        lips=2.0 * max(g.max_degree, 1) * curv,
        measure=lambda x, grad, obj: spec._gap(x, grad) / eps(obj),
        stop_tol=1.0, adaptive=True)
    return x, SolveReport(it, obj, meas * eps(obj), conv, method="apgd-smooth")


def _smoothing_descent(g, base, spec, phi, prox, tol_obj, x0):
    """Moreau-smoothing continuation for nonsmooth phi with a prox.

    Stage ``delta`` minimizes the smoothed objective ``sum_v e(u_v)``, with
    ``u = base - div h`` and ``e`` the Moreau envelope of phi of parameter
    delta, and stops on its linearization duality gap (``spec.gap``),
    which bounds the smoothed objective's excess over its minimum.  As
    ``e <= phi``, and ``phi(u_v) - e(u_v) <= delta g_v^2 / 2`` for any
    subgradient ``g_v`` of phi at ``u_v``, the true objective exceeds its
    minimum by at most

        gap + (delta / 2) * sum_v phi.subgradient(u_v)^2,

    the certified bound reported as ``optimality``.  delta starts at the
    width of the reachable interval over phi's steeper end slope there and
    shrinks tenfold per stage, down to the value whose smoothing term, at
    the current iterate, is a quarter of ``eps = tol_obj * (1 +
    |objective|)``.  That final stage runs until its gap is half of eps.
    If the smoothing term has grown so that the bound misses eps, delta
    shrinks again and another stage runs.
    """
    lo, hi = _reachable_interval(g, base, spec)
    gbound = max(abs(float(phi.subgradient(np.array([lo]))[0])),
                 abs(float(phi.subgradient(np.array([hi]))[0])), 1e-12)
    lips0 = 2.0 * max(g.max_degree, 1)

    def at(h):
        # the true objective at h and phi's summed squared subgradients
        u = base - g._div(h)
        return float(phi.evaluate(u).sum()), float((phi.subgradient(u) ** 2).sum())

    x = np.asarray(x0, dtype=float)
    obj, sq = at(x)
    best_x, best_obj = x, obj
    eps = tol_obj * (1.0 + abs(obj))
    delta = max((hi - lo) / gbound if hi > lo else 1.0, 1e-15)

    total_it = 0
    bound = math.inf
    # the delta at which the smoothing term is eps / 4
    need = 0.5 * eps / max(sq, 1e-300)
    for _ in range(60):
        final = delta <= need * 1.0000001

        def slope(z, _d=delta):
            u = base - z
            return -((u - prox(u, _d)) / _d)

        def value(z, _d=delta):
            u = base - z
            p = prox(u, _d)
            return float(phi.evaluate(p).sum() + ((u - p) ** 2).sum() / (2.0 * _d))

        stage_tol = 0.5 * eps if final else max(0.25 * delta * sq, 0.25 * eps)
        budget = DEFAULT_MAX_ITER - total_it
        if budget <= 0:
            break
        x, it, meas, _, stage_conv = _accelerated_descent(
            g, x, spec, value=value, slope=slope, lips=lips0 / delta,
            measure=lambda x, grad, _: spec._gap(x, grad),
            stop_tol=stage_tol, max_iter=budget, adaptive=True)
        total_it += it
        obj, sq = at(x)
        if obj < best_obj:
            best_x, best_obj = x, obj
        eps = tol_obj * (1.0 + abs(best_obj))
        bound = meas + 0.5 * delta * sq
        # E(best_x) <= E(x), so the bound at x holds for best_x too
        if final and (bound <= eps or not stage_conv):
            break
        need = 0.5 * eps / max(sq, 1e-300)
        delta = min(0.5 * delta, need) if final else max(0.1 * delta, need)

    return best_x, SolveReport(total_it, best_obj, bound, bound <= eps,
                               method="apgd-smoothing")


def _reachable_interval(g, base, spec):
    bound = spec.magnitude()
    reach = g.max_degree * bound
    return float(np.min(base)) - reach, float(np.max(base)) + reach


def min_separable_convex_over_polytope(g: "OrientedGraph", base, spec,
                                       phi: ConvexScalar,
                                       tol: Tolerances | None = None, *,
                                       warm_start=None):
    """Minimize ``sum_v phi(u(v))`` over ``u in {base - div H : H in spec}``.

    Method is chosen from the metadata on ``phi``: a curvature bound selects
    accelerated projected gradient on the true objective; otherwise
    Moreau-smoothing continuation runs on the prox of ``phi``, built by
    :func:`bisection_prox` from the subgradient when ``phi`` has none.  The
    convergence contract is a certified objective gap (``report.optimality``,
    see :class:`SolveReport`) below ``tol.solve_tol * (1 + |objective|)``
    (by default ``DEFAULT_CHECK_TOL``'s, 1e-6).  ``warm_start`` is a flow to
    start from, projected onto ``spec``; the descent is monotone, so the
    objective returned does not exceed the start's beyond rounding, and a
    start that already meets the bound costs no iteration.

    Returns
    -------
    (u, report) : the minimizing vertex field and a :class:`SolveReport`.
    """
    tol_obj = (tol if tol is not None else DEFAULT_CHECK_TOL).solve_tol
    base = ensure_vertex_field(g, base, "base")
    x0 = spec.project(_start(g, spec, warm_start))

    if phi.curvature is not None:
        h, report = _smooth_descent(g, base, spec, phi, tol_obj, x0)
    else:
        prox = phi.prox if phi.prox is not None else bisection_prox(phi.subgradient)
        h, report = _smoothing_descent(g, base, spec, phi, prox, tol_obj, x0)
    return base - g._div(h), report
