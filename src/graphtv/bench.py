"""Jump sets, path/flow equivalence analysis, a 1-D taut-string oracle,
and the built-in verification harness.

The regularization path and the gradient flow of the same datum agree up to
the flow's first breakpoint and on special data (eigenvectors, 1-D paths)
but not in general; the tools here quantify the disagreement and check the
subdifferential characterization behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PathError, ValidationError
from .graph import (DEFAULT_TOL, OrientedGraph, Tolerances, divergence,
                    ensure_vertex_field, sign_pattern, subdifferential_membership,
                    total_variation)
from .flow import FlowTrajectory, flow_solve
from .instances import (SWITCHING_EDGE, flow_dual_switching_reference,
                        flow_reference, nonequivalence_instance,
                        nonequivalence_variant_datum, regularization_dual_reference,
                        regularization_reference, variant_reference)
from .rof import rof_path, rof_solve


def jump_set(g: OrientedGraph, u, tol: Optional[Tolerances] = None, *,
             scale: float | None = None) -> frozenset:
    """Edge indices where u genuinely jumps (non-flat at the usual threshold)."""
    pat = sign_pattern(g, u, tol, scale=scale)
    return frozenset(int(k) for k in np.flatnonzero(pat.nonflat))


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of the regularized solution and the flow state at one alpha.

    ``averaged_derivative_member`` is the exact characterization: the two
    solutions coincide iff minus the averaged flow derivative over [0, alpha]
    lies in the subdifferential at the flow state.  ``segment_support_gaps``
    hold |<-d_k, u(alpha)> - J(u(alpha))| per flow segment intersecting
    [0, alpha]; all of them vanishing, to ``1e-12 * (1 + J(u(alpha)))``, is
    the simpler sufficient condition.
    """

    alpha: float
    linf_distance: float
    l2_distance: float
    averaged_derivative_member: bool
    membership_residual: float
    sufficient_condition_holds: bool
    segment_support_gaps: tuple
    first_segment: bool
    u_reg: np.ndarray = field(repr=False)
    u_flow: np.ndarray = field(repr=False)

    @property
    def equivalent(self) -> bool:
        return self.averaged_derivative_member


def equivalence_report(g: OrientedGraph, f, alpha: float,
                       tol: Optional[Tolerances] = None, *,
                       trajectory: Optional[FlowTrajectory] = None) -> EquivalenceReport:
    """Compare regularization and flow at one parameter value.

    Passing a precomputed ``trajectory`` avoids re-integrating the flow for
    every alpha on a grid.  The regularized solution is :func:`rof_solve`'s,
    and the flow, :func:`flow_solve`'s, starts from the exact ties of f.
    ``tol.flat_tol`` marks the ties of the flow state for the membership
    test; ``tol.solve_tol`` is not read.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    f = ensure_vertex_field(g, f, "f")
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be finite and positive")
    if trajectory is None:
        trajectory = flow_solve(g, f)
    u_reg = rof_solve(g, f, alpha).u
    u_flow = trajectory.value_at(alpha)
    diff = u_reg - u_flow
    linf = float(np.abs(diff).max())
    # .sum(), not a BLAS dot product, whose bits follow the thread count
    l2 = math.sqrt(float((diff * diff).sum()))

    averaged = (f - u_flow) / alpha
    ms = subdifferential_membership(g, u_flow, averaged, tol)

    jval = total_variation(g, u_flow)
    stol = 1e-12 * (1.0 + abs(jval))
    b = trajectory.breakpoints
    gaps = [abs(-float((trajectory.direction_at(x) * u_flow).sum()) - jval)
            for x in b[:-1] if x < alpha]
    suff = all(gap <= stol for gap in gaps)
    first = bool(b.size > 1 and alpha <= b[1])
    return EquivalenceReport(alpha, linf, l2, ms.member, ms.residual,
                             suff, tuple(gaps), first, u_reg, u_flow)


def _taut_anchor(xs, lo, hi, s):
    """Fill s between its fixed ends with the taut string, anchoring each
    interval from its two ends alone, on a stack rather than recursion."""
    stack = [(0, s.size - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        t = (xs[i + 1:j] - xs[i]) / (xs[j] - xs[i])
        chord = s[i] + t * (s[j] - s[i])
        up = chord - hi[i + 1:j]
        dn = lo[i + 1:j] - chord
        ku = int(np.argmax(up))
        kd = int(np.argmax(dn))
        if up[ku] <= 0.0 and dn[kd] <= 0.0:
            s[i + 1:j] = chord
            continue
        if up[ku] >= dn[kd]:
            k = i + 1 + ku
            s[k] = hi[k]
        else:
            k = i + 1 + kd
            s[k] = lo[k]
        stack += [(k, j), (i, k)]


def taut_string_1d(f, alpha: float) -> np.ndarray:
    """Derivative of the taut string through the alpha-tube around cumsum(f).

    The tube is [F - alpha, F + alpha] around the running sums F (with
    F(0) = 0), clamped to F exactly at both ends.  The string minimizing
    length through the tube is computed by anchoring (:func:`_taut_anchor`)
    and certified against the bend conditions (a convex bend must touch the
    upper tube wall, a concave bend the lower wall); its increments solve
    the 1-D version of the regularization problem on a path graph.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 1:
        raise ValidationError("f must be a nonempty 1-D array")
    if not np.isfinite(f).all():
        raise ValidationError("f must be finite")
    alpha = float(alpha)
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ValidationError("alpha must be finite and nonnegative")
    if alpha == 0.0 or f.size == 1:
        return f.copy()

    n = f.size
    cum = np.concatenate(([0.0], np.cumsum(f)))
    lo = cum - alpha
    hi = cum + alpha
    lo[0] = hi[0] = cum[0]
    lo[n] = hi[n] = cum[n]
    xs = np.arange(n + 1, dtype=float)
    s = np.empty(n + 1)
    s[0] = cum[0]
    s[n] = cum[n]
    _taut_anchor(xs, lo, hi, s)

    scale = 1.0 + float(np.abs(cum).max()) + alpha
    slack = 1e-9 * scale
    if np.any(s < lo - slack) or np.any(s > hi + slack):
        raise PathError("taut string left the tube")
    # KKT for min sum of squared increments: a convex bend needs an active
    # upper wall, a concave bend an active lower wall
    bend = s[:-2] - 2.0 * s[1:-1] + s[2:]
    concave = bend < -slack
    convex = bend > slack
    if np.any(convex & (np.abs(s[1:-1] - hi[1:-1]) > slack)):
        raise PathError("convex bend off the upper tube wall")
    if np.any(concave & (np.abs(s[1:-1] - lo[1:-1]) > slack)):
        raise PathError("concave bend off the lower tube wall")
    return np.diff(s)


@dataclass(frozen=True)
class HarnessCheck:
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float


@dataclass(frozen=True)
class HarnessReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "measured": c.measured,
                 "expected": c.expected, "tolerance": c.tolerance}
                for c in self.checks
            ],
        }


def counterexample_harness(tol: Optional[Tolerances] = None) -> HarnessReport:
    """Validate the built-in nonequivalence instance end to end.

    Reproduces the closed-form regularized and flow solutions with their
    dual flows at three parameter values, the breakpoint sets of both
    paths, the jump-set reversal on the switching edge, the modified datum
    whose path and flow agree while opening a jump absent from the datum,
    and the norm ordering between datum, flow state, regularized state,
    and mean.  ``tol`` sets only the flat threshold of the jump sets of
    computed states; the flows start from the exact ties of their data.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    g, f = nonequivalence_instance()
    checks = []
    value_tol = 1e-6
    break_tol = 1e-4

    def add(name, measured, expected=0.0, tolerance=value_tol):
        checks.append(HarnessCheck(name, bool(abs(measured - expected) <= tolerance),
                                   float(measured), float(expected), float(tolerance)))

    samples = (0.2, 1.0, 3.0)
    reg = {}
    for a in samples:
        sol = rof_solve(g, f, a)
        reg[a] = sol
        add("regularized values agree at %.1f" % a,
            float(np.abs(sol.u - regularization_reference(a)).max()))
        add("regularized dual agrees at %.1f" % a,
            float(np.abs(sol.dual_flow - regularization_dual_reference(a)).max()))

    traj = flow_solve(g, f)
    for t in samples:
        add("flow values agree at %.1f" % t,
            float(np.abs(traj.value_at(t) - flow_reference(t)).max()))
        add("flow dual on switching edge at %.1f" % t,
            float(traj.antiderivative_at(t)[SWITCHING_EDGE]),
            flow_dual_switching_reference(t))

    path = rof_path(g, f)
    for target in (0.4, 2.0):
        nearest = float(path.breakpoints[np.argmin(np.abs(path.breakpoints - target))])
        add("path breakpoint near %.1f" % target, nearest, target, break_tol)
    add("flow breakpoint near 0.4",
        float(traj.breakpoints[np.argmin(np.abs(traj.breakpoints - 0.4))]),
        0.4, break_tol)

    j_early = jump_set(g, reg[1.0].u, tol)
    j_late = jump_set(g, rof_solve(g, f, 3.0).u, tol)
    add("switching edge flat at 1.0", float(SWITCHING_EDGE in j_early), 0.0, 0.5)
    add("switching edge open at 3.0", float(SWITCHING_EDGE in j_late), 1.0, 0.5)
    add("early jump set nested in late", float(j_early < j_late), 1.0, 0.5)
    jf_mid = jump_set(g, traj.value_at(0.4), tol, scale=float(f.max() - f.min()))
    jf_late = jump_set(g, traj.value_at(1.0), tol, scale=float(f.max() - f.min()))
    add("flow jump set gains the switching edge", float(jf_mid < jf_late), 1.0, 0.5)

    fv = nonequivalence_variant_datum()
    vexp = {a: variant_reference(a) for a in (0.2, 1.0, 2.0, 3.0)}
    vtraj = flow_solve(g, fv)
    worst_reg = max(float(np.abs(rof_solve(g, fv, a).u - vexp[a]).max())
                    for a in vexp)
    worst_flow = max(float(np.abs(vtraj.value_at(a) - vexp[a]).max()) for a in vexp)
    add("variant regularization matches closed form", worst_reg)
    add("variant flow matches closed form", worst_flow)
    v_jumps = jump_set(g, vexp[1.0], tol)
    add("variant opens the switching edge", float(SWITCHING_EDGE in v_jumps), 1.0, 0.5)
    add("variant datum has the edge flat",
        float(SWITCHING_EDGE in jump_set(g, fv, tol)), 0.0, 0.5)

    # u(alpha) lies in f - alpha * dJ(0) (averaged flow derivative) and
    # u_alpha is the min-norm point of that polytope, so the l2 chain
    # mean <= regularized <= flow <= datum holds at every parameter
    fbar = float(f.mean())
    lo_norm = float(np.linalg.norm(np.full(g.vertex_count, fbar)))
    hi_norm = float(np.linalg.norm(f))
    ordered = True
    for a in (0.2, 1.0, 3.0):
        chain = (lo_norm, float(np.linalg.norm(reg[a].u)),
                 float(np.linalg.norm(traj.value_at(a))), hi_norm)
        ordered = ordered and all(chain[i] <= chain[i + 1] + 1e-9
                                  for i in range(3))
    add("norm ordering mean, regularized, flow, datum", float(ordered), 1.0, 0.5)
    alpha_n = float(path.breakpoints[-1])
    t_m = float(traj.t_max)
    add("stationarity parameter at most flow extinction time",
        float(alpha_n <= t_m + 1e-4), 1.0, 0.5)

    return HarnessReport(tuple(checks))
