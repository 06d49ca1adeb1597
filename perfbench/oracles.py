"""Independent oracles that decide whether one benchmark op answered correctly.

Every check returns a :class:`Verdict`.  ``error`` is the op's numeric error
relative to the data range (or, for breakpoints, relative to the exact
breakpoint), or None when the op's answer is a verdict rather than a value.
An op whose check is not ``ok`` counts as a miss.

The oracles never reuse the solver's own stopping test:

* the closed forms of the built-in 3x3 instance (``graphtv.instances``);
* the taut string on path graphs (``taut_string_1d``), for ``rof_solve`` at
  alpha and for ``flow_solve`` at t = alpha;
* the ROF duality gap P(u) - D(p), computed here from ``u``, the dual flow,
  ``divergence`` and ``edge_differences``.  P is 1-strongly convex, so
  ||u - u*||_2 <= sqrt(2 * gap) (Chambolle 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import graphtv as gt
from graphtv import instances, minimality

# A value more than this share of the data range away from the oracle is a
# wrong answer.  The duality-gap certificate of a converged rof_solve at
# default tolerances reaches only about 1e-4 of the range on 32x32 grids at
# alpha 2, so the threshold sits ten times above it; how far below the
# threshold each answer lands is reported as accuracy_digits.
VALUE_RTOL = 1e-3
# The library's own harness accepts breakpoints of the 3x3 instance to 1e-4.
BREAKPOINT_ATOL = 1e-4
# Feasibility slack for dual flows, relative to alpha.
FEASIBILITY_RTOL = 1e-12
# The exact breakpoints of the 3x3 instance on [0, 4].
PAPER_BREAKPOINTS = (0.4, 2.0)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    error: Optional[float] = None
    note: str = ""
    breakpoint_err: Optional[float] = None


def miss(note: str) -> Verdict:
    return Verdict(False, None, note)


class ReferenceFailure(Exception):
    """An oracle's own reference computation raised a graphtv error.

    The op under test is then unverified rather than wrong; the benchmark
    counts it as failed without marking the run incorrect.  Any other
    exception raised by a check is a wrong answer.
    """

    def __init__(self, cause: BaseException):
        super().__init__(repr(cause))
        self.kind = type(cause).__name__


def reference(fn, *args, **kwargs):
    """Call a graphtv function on the oracle's behalf; its errors become ReferenceFailure."""
    try:
        return fn(*args, **kwargs)
    except gt.GraphTVError as exc:
        raise ReferenceFailure(exc) from exc


def data_range(f) -> float:
    span = float(np.max(f) - np.min(f))
    return span if span > 0 else 1.0


def rof_gap(g, f, alpha: float, u, p, groups=None) -> float:
    """Duality gap P(u) - D(p) of 0.5||u - f||^2 + alpha * J(u).

    ``p`` is a dual flow (``RofSolution.dual_flow``), feasible when
    |p_e| <= alpha (or, with ``groups``, ||p_g||_2 <= alpha per coupled
    group).  With d = edge_differences(u) and r = u - f - div p,

        P(u) - D(p) = sum_e (alpha |d_e| - p_e d_e) + 0.5 ||r||^2,

    a sum of nonnegative terms for feasible p, so no cancellation between
    the two objectives limits its accuracy.  ``groups`` selects the coupled
    (isotropic) penalty sum_g ||d_g||_2.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    d = gt.edge_differences(g, u)
    if groups is None:
        edge_term = float(np.sum(alpha * np.abs(d) - p * d))
    else:
        edge_term = sum(alpha * math.hypot(*d[list(grp)]) - float(p[list(grp)] @ d[list(grp)])
                        for grp in groups)
    r = u - np.asarray(f, dtype=float) - gt.divergence(g, p)
    return edge_term + 0.5 * float(r @ r)


def dual_feasible(p, alpha: float, groups=None) -> bool:
    slack = alpha * (1.0 + FEASIBILITY_RTOL)
    p = np.asarray(p, dtype=float)
    if groups is None:
        return bool(np.all(np.abs(p) <= slack))
    return all(math.hypot(*p[list(grp)]) <= slack for grp in groups)


def gap_error(g, f, sol, groups=None) -> Optional[float]:
    """sqrt(2 * gap) relative to the data range, or None if p is infeasible."""
    if not dual_feasible(sol.dual_flow, sol.alpha, groups):
        return None
    gap = rof_gap(g, f, sol.alpha, sol.u, sol.dual_flow, groups)
    return math.sqrt(2.0 * max(gap, 0.0)) / data_range(f)


def value_verdict(error: float, note: str = "") -> Verdict:
    return Verdict(bool(error <= VALUE_RTOL), error, note)


def check_rof_gap(g, f, sol, coupled: bool = False) -> Verdict:
    groups = g.coupled_groups() if coupled else None
    err = gap_error(g, f, sol, groups)
    if err is None:
        return miss("dual flow outside the constraint set")
    return value_verdict(err, "gap bound")


def check_rof_path_graph(g, f, sol) -> Verdict:
    """rof_solve on a path graph against the taut string at the same alpha."""
    ref = reference(gt.taut_string_1d, f, sol.alpha)
    err = float(np.abs(sol.u - ref).max()) / data_range(f)
    if not dual_feasible(sol.dual_flow, sol.alpha):
        return miss("dual flow outside the box")
    return value_verdict(err, "taut string")


def check_flow_path_graph(f, traj, times) -> Verdict:
    """flow_solve on a path graph against the taut string at t = alpha."""
    worst = 0.0
    for t in times:
        ref = reference(gt.taut_string_1d, f, t)
        worst = max(worst, float(np.abs(traj.value_at(t) - ref).max()))
    return value_verdict(worst / data_range(f), "taut string")


class CertifiedRof:
    """Gap-checked ``rof_solve`` references, computed once per (op, alpha).

    Also holds the op's separately computed flow trajectory.
    """

    def __init__(self, g, f):
        self.g = g
        self.f = f
        self._cache = {}

    def at(self, alpha: float):
        """(u, error bound relative to range) at alpha; raises ReferenceFailure."""
        if alpha not in self._cache:
            sol = reference(gt.rof_solve, self.g, self.f, alpha)
            err = gap_error(self.g, self.f, sol)
            if err is None:
                raise ReferenceFailure(gt.ValidationError("reference dual flow is infeasible"))
            self._cache[alpha] = (sol.u, err)
        return self._cache[alpha]

    def trajectory(self):
        """flow_solve of the same data, computed once; raises ReferenceFailure."""
        if "flow" not in self._cache:
            self._cache["flow"] = reference(gt.flow_solve, self.g, self.f)
        return self._cache["flow"]


def compare_with_reference(ref: CertifiedRof, alpha: float, u, note: str) -> Verdict:
    u_ref, bound = ref.at(alpha)
    err = float(np.abs(np.asarray(u) - u_ref).max()) / data_range(ref.f) + bound
    return value_verdict(err, note)


def check_rof_path(ref: CertifiedRof, path) -> Verdict:
    """value_at at one interior alpha against a gap-checked rof_solve."""
    f = ref.f
    mean_err = float(np.abs(path.terminal_value - f.mean()).max()) / data_range(f)
    if mean_err > VALUE_RTOL:
        return Verdict(False, mean_err, "terminal value is not the mean")
    alpha = 0.37 * float(path.breakpoints[-1])
    return compare_with_reference(ref, alpha, path.value_at(alpha), "path vs rof_solve")


def flow_state_error(g, f, traj, t: float) -> Optional[float]:
    """Error of u(t) = f + div F(t) relative to the range, or None if ||F(t)||_inf > t.

    A necessary condition on any flow state: the accumulated
    antiderivative F(t) must reproduce it and stay in the t-box.
    """
    big_f = traj.antiderivative_at(t)
    if not dual_feasible(big_f, t):
        return None
    return float(np.abs(traj.value_at(t) - f - gt.divergence(g, big_f)).max()) / data_range(f)


def check_flow_general(ref: CertifiedRof, g, traj) -> Verdict:
    """Flow on the first segment against a gap-checked rof_solve at alpha = t.

    Regularization and flow coincide up to the flow's first breakpoint.  The
    state must also satisfy u(t) = f + div F(t) with ||F(t)||_inf <= t.
    """
    f = ref.f
    b = traj.breakpoints
    if b.size < 2:
        return miss("nonconstant datum with an empty trajectory")
    t = 0.5 * float(b[1])
    recon = flow_state_error(g, f, traj, t)
    if recon is None:
        return miss("antiderivative outside the t-box")
    if recon > VALUE_RTOL:
        return Verdict(False, recon, "u(t) != f + div F(t)")
    verdict = compare_with_reference(ref, t, traj.value_at(t), "first segment vs rof_solve")
    return Verdict(verdict.ok, max(verdict.error, recon), verdict.note)


def check_equivalence(ref: CertifiedRof, rep, on_path: bool = False,
                      expect_equivalent=None) -> Verdict:
    """equivalence_report against independent references at the same alpha.

    ``u_reg`` must match a gap-checked rof_solve.  On a path graph
    (``on_path``) ``u_flow`` must match the taut string: flow and
    regularization coincide in 1-D.  On other graphs the flow has no
    independent closed form; ``u_flow`` must then equal the state of a
    separately computed trajectory that satisfies u = f + div F with
    ||F||_inf <= alpha, a necessary condition only.  The
    verdict must agree with the distance: equivalent reports need
    u_reg == u_flow to the value tolerance.
    """
    f, g, alpha = ref.f, ref.g, rep.alpha
    reg = compare_with_reference(ref, alpha, rep.u_reg, "u_reg vs rof_solve")
    if on_path:
        u_flow = reference(gt.taut_string_1d, f, alpha)
        state_err = 0.0
    else:
        traj = ref.trajectory()
        state_err = flow_state_error(g, f, traj, alpha)
        if state_err is None:
            return miss("flow antiderivative outside the alpha-box")
        u_flow = traj.value_at(alpha)
    flow_err = max(state_err, float(np.abs(rep.u_flow - u_flow).max()) / data_range(f))
    err = max(reg.error, flow_err)
    if not reg.ok or flow_err > VALUE_RTOL:
        return Verdict(False, err, "solution mismatch")
    if rep.equivalent and rep.linf_distance / data_range(f) > VALUE_RTOL + reg.error:
        return Verdict(False, err, "equivalent verdict with distinct solutions")
    if expect_equivalent is not None and rep.equivalent != expect_equivalent:
        return Verdict(False, err, "equivalence verdict differs from the paper")
    return Verdict(True, err, "equivalence")


# -- the built-in 3x3 instance ---------------------------------------------

PAPER_SAMPLES = (0.2, 1.0, 3.0)


def _paper_range() -> float:
    _, f = instances.nonequivalence_instance()
    return data_range(f)


def check_paper_rof(g, f, sol) -> Verdict:
    err = float(np.abs(sol.u - instances.regularization_reference(sol.alpha)).max())
    gap = gap_error(g, f, sol)
    if gap is None:
        return miss("dual flow outside the box")
    return value_verdict(max(err / _paper_range(), gap), "closed form")


def breakpoint_error(breakpoints, exact=PAPER_BREAKPOINTS) -> float:
    b = np.asarray(breakpoints, dtype=float)
    return max(float(np.abs(b - x).min()) for x in exact)


def check_paper_path(path) -> Verdict:
    scale = _paper_range()
    inside = path.breakpoints[(path.breakpoints > 0) & (path.breakpoints <= 4.0)]
    if inside.size != len(PAPER_BREAKPOINTS):
        return miss("path has %d breakpoints in (0, 4], expected 2" % inside.size)
    bp_err = breakpoint_error(inside)
    err = max(float(np.abs(path.value_at(a) - instances.regularization_reference(a)).max())
              for a in PAPER_SAMPLES) / scale
    rel_bp = max(abs(b - x) / x for b, x in zip(sorted(inside), PAPER_BREAKPOINTS))
    ok = bp_err <= BREAKPOINT_ATOL and err <= VALUE_RTOL
    return Verdict(ok, max(err, rel_bp), "closed form", breakpoint_err=bp_err)


def check_paper_flow(traj) -> Verdict:
    scale = _paper_range()
    err = max(float(np.abs(traj.value_at(t) - instances.flow_reference(t)).max())
              for t in PAPER_SAMPLES) / scale
    inside = traj.breakpoints[(traj.breakpoints > 0) & (traj.breakpoints <= 4.0)]
    if inside.size != 1:
        return miss("flow has %d breakpoints in (0, 4], expected 1" % inside.size)
    first = PAPER_BREAKPOINTS[0]
    bp = abs(float(inside[0]) - first)
    ok = bp <= BREAKPOINT_ATOL and err <= VALUE_RTOL
    return Verdict(ok, max(err, bp / first), "closed form")


def check_paper_equivalence(rep) -> Verdict:
    """Path and flow agree up to 2/5 and split after it (distance 0.3 at 1)."""
    scale = _paper_range()
    err = max(float(np.abs(rep.u_reg - instances.regularization_reference(rep.alpha)).max()),
              float(np.abs(rep.u_flow - instances.flow_reference(rep.alpha)).max())) / scale
    expect = rep.alpha <= PAPER_BREAKPOINTS[0]
    ok = err <= VALUE_RTOL and rep.equivalent == expect
    return Verdict(ok, err, "closed form")


def check_harness(report) -> Verdict:
    failed = [c.name for c in report.checks if not c.passed]
    return Verdict(not failed, None, "; ".join(failed))


def check_phimin(reports) -> Verdict:
    bad = [r.phi for r in reports if not r.ok]
    return Verdict(not bad, None, "; ".join(bad))


def check_isotropic(report, coupled: bool,
                    tol: float = minimality.DEFAULT_CHECK_TOL.solve_tol) -> Verdict:
    """Every margin phi(u) - min must be >= -10 tol; the box control finds no witness.

    ``u`` is feasible for the oracle's problem, so a margin below the
    tolerance means the phi oracle returned a minimum above a feasible
    value: a wrong answer.  For the box set the paper proves that ``u``
    minimizes every convex phi, so a witness there is a wrong answer too.
    """
    worst = min((m.relative_margin for m in report.margins), default=0.0)
    if worst < -10.0 * tol:
        return miss("negative margin %.3g" % worst)
    if not coupled and report.witness_found:
        return miss("box control produced a witness")
    return Verdict(True, None, "witness" if report.witness_found else "no witness")


def check_anchor(trials) -> Verdict:
    bad = [t.index for t in trials if not t.passed]
    return Verdict(not bad, None, "failed trials %s" % bad if bad else "")
