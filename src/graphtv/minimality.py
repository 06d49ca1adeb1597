"""Universal minimality checks for regularized solutions.

The regularized solution at level alpha is not just the Euclidean
projection of the datum onto its feasible slab: it simultaneously
minimizes sum_v phi(u(v)) over u in f - {div H : ||H||_inf <= alpha} for
every convex phi.  This holds because divergence images of boxes are
polytopes with a strong invariance property; the coupled (isotropic)
constraint set is not such a set, and the tools here also demonstrate that
failure empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .engine import (DEFAULT_CHECK_TOL, BoxSpec, ConvexScalar, SolveReport, Tolerances,
                     ensure_integer, ensure_number, min_separable_convex_over_polytope)
from .errors import ConvergenceError, ValidationError
from .graph import OrientedGraph, ensure_vertex_field
from .rof import isotropic_rof_solve, rof_solve


def power_phi(p: float) -> ConvexScalar:
    """|x|^p for p >= 1.  Closed-form proxes for p in {1, 1.5, 2, 3}."""
    p = ensure_number(p, "power", 1.0)

    def evaluate(x):
        return np.abs(x) ** p

    def subgradient(x):
        if p == 1:
            return np.sign(x)
        return p * np.abs(x) ** (p - 1) * np.sign(x)

    prox = None
    curvature = None
    if p == 1:
        def prox(x, d):
            return np.sign(x) * np.maximum(np.abs(x) - d, 0.0)
    elif p == 1.5:
        def prox(x, d):
            c = 0.75 * d
            root = np.sqrt(c * c + np.abs(x)) - c
            return np.sign(x) * root * root
    elif p == 2.0:
        def prox(x, d):
            return x / (1.0 + 2.0 * d)

        def curvature(lo, hi):
            return 2.0
    elif p == 3.0:
        def prox(x, d):
            # positive root of y + 3 d y^2 = |x|, in a cancellation-free form
            return np.sign(x) * 2.0 * np.abs(x) / (1.0 + np.sqrt(1.0 + 12.0 * d * np.abs(x)))

        def curvature(lo, hi):
            return 6.0 * max(abs(lo), abs(hi))

    return ConvexScalar("power%g" % p, evaluate, subgradient,
                        prox=prox, curvature=curvature, params=(("p", p),))


def arclength_phi() -> ConvexScalar:
    """sqrt(1 + x^2); smooth with curvature at most 1."""
    return ConvexScalar(
        "arclength",
        evaluate=lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
        subgradient=lambda x: x / np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
        curvature=lambda lo, hi: 1.0,
    )


def softabs_phi(delta: float) -> ConvexScalar:
    """Huber-smoothed absolute value: x^2/(2 delta) inside, |x| - delta/2 outside."""
    delta = ensure_number(delta, "delta", above=True)

    def evaluate(x):
        a = np.abs(x)
        return np.where(a <= delta, x * x / (2.0 * delta), a - delta / 2.0)

    def subgradient(x):
        return np.clip(x / delta, -1.0, 1.0)

    def prox(x, d):
        inner = np.abs(x) <= delta + d
        return np.where(inner, x * delta / (delta + d),
                        x - d * np.sign(x))

    return ConvexScalar("softabs", evaluate, subgradient, prox=prox,
                        curvature=lambda lo, hi: 1.0 / delta,
                        params=(("delta", delta),))


def shifted_exp_phi(center: float, width: float) -> ConvexScalar:
    """exp((x - center) / width), strictly convex and smooth on any interval."""
    center = ensure_number(center, "center", -math.inf)
    width = ensure_number(width, "width", above=True)

    def evaluate(x):
        return np.exp((np.asarray(x, dtype=float) - center) / width)

    def subgradient(x):
        return evaluate(x) / width

    def curvature(lo, hi):
        return math.exp((hi - center) / width) / (width * width)

    return ConvexScalar("shifted_exp", evaluate, subgradient,
                        curvature=curvature,
                        params=(("center", center), ("width", width)))


def piecewise_linear_phi(knots: Sequence[float], slopes: Sequence[float],
                         name: str = "piecewise_linear") -> ConvexScalar:
    """Convex piecewise-linear function with the given knots and slopes.

    ``slopes`` has one more entry than ``knots`` and must be strictly
    increasing; the function is anchored to zero at the first knot.
    """
    t = np.asarray(knots, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if t.ndim != 1 or s.shape != (t.size + 1,):
        raise ValidationError("need len(slopes) == len(knots) + 1")
    if t.size == 0:
        raise ValidationError("need at least one knot")
    if not (np.isfinite(t).all() and np.isfinite(s).all()):
        raise ValidationError("knots and slopes must be finite")
    if np.any(np.diff(t) <= 0) or np.any(np.diff(s) <= 0):
        raise ValidationError("knots and slopes must be strictly increasing")
    # value at each knot, anchored at the first
    knot_vals = np.concatenate(([0.0], np.cumsum(s[1:-1] * np.diff(t))))

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        k = np.searchsorted(t, x, side="right")
        ref = np.where(k == 0, t[0], t[np.maximum(k - 1, 0)])
        refv = np.where(k == 0, 0.0, knot_vals[np.maximum(k - 1, 0)])
        return refv + s[k] * (x - ref)

    def subgradient(x):
        x = np.asarray(x, dtype=float)
        # at a knot return the left slope, a valid selection
        k = np.searchsorted(t, x, side="left")
        return s[k]

    # prox by knot scan: boundaries t_i + d*s_i and t_i + d*s_{i+1} are
    # globally nondecreasing, so one searchsorted resolves region vs knot
    def prox(x, d):
        x = np.asarray(x, dtype=float)
        bounds = np.empty(2 * t.size)
        bounds[0::2] = t + d * s[:-1]
        bounds[1::2] = t + d * s[1:]
        k = np.searchsorted(bounds, x, side="right")
        region = k % 2 == 0
        y = np.where(region, x - d * s[np.minimum(k // 2, s.size - 1)],
                     t[np.minimum(k // 2, t.size - 1)])
        return y

    return ConvexScalar(name, evaluate, subgradient, prox=prox,
                        params=tuple(("t%d" % i, float(v)) for i, v in enumerate(t)))


@dataclass(frozen=True)
class PhiCatalog:
    """An ordered collection of convex scalar test functions."""

    members: tuple

    def __iter__(self) -> Iterator[ConvexScalar]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @staticmethod
    def standard(lo: float, hi: float) -> "PhiCatalog":
        """The default catalog, sized to the data interval [lo, hi].

        Members: |x|^p for p in {1, 1.5, 2, 3}, arclength, a Huber-smoothed
        absolute value, and a shifted exponential centered on the interval.
        """
        lo, hi = ensure_number(lo, "lo", -math.inf), ensure_number(hi, "hi", -math.inf)
        if hi < lo:
            raise ValidationError("need an interval lo <= hi")
        span = max(hi - lo, 1.0)
        return PhiCatalog((
            power_phi(1.0),
            power_phi(1.5),
            power_phi(2.0),
            power_phi(3.0),
            arclength_phi(),
            softabs_phi(span / 10.0),
            shifted_exp_phi((lo + hi) / 2.0, span / 2.0),
        ))


def random_piecewise_linear(rng: np.random.Generator, lo: float, hi: float,
                            max_knots: int = 4) -> ConvexScalar:
    """Random convex piecewise-linear phi with knots inside [lo, hi]."""
    count = int(rng.integers(1, max_knots + 1))
    knots = np.sort(rng.uniform(lo, hi, size=count))
    # enforce strictly increasing knots
    knots = knots + np.arange(count) * max(hi - lo, 1.0) * 1e-9
    slopes = np.sort(rng.uniform(-3.0, 3.0, size=count + 1))
    slopes = slopes + np.arange(count + 1) * 1e-9
    return piecewise_linear_phi(knots, slopes, name="random_piecewise_linear")


@dataclass(frozen=True)
class PhiReport:
    """The certified gap of the regularized solution for one phi.

    ``gap`` bounds ``objective_at_solution`` minus the minimum (see
    :func:`_gap`), ``independent_minimum`` is the objective less the gap,
    and ``report`` is that of the :func:`rof_solve` the bound rests on.
    """

    phi: str
    objective_at_solution: float
    independent_minimum: float
    gap: float
    relative_gap: float
    ok: bool
    report: SolveReport


def _gap(g: OrientedGraph, f: np.ndarray, sol, phi: ConvexScalar,
         tol: Optional[Tolerances], balls=None, where: str = "") -> tuple:
    """``(gap, minimum)``: a bound on ``sum phi(sol.u)`` minus its minimum
    over the slab of f, and a lower bound on that minimum.

    On the coupled ``balls`` the minimum is that of an oracle started at
    the solution's negated dual flow.  On the box (``balls`` None) no
    oracle runs: with ``y = phi.subgradient(u)``, convexity and weak
    duality bound the gap by

        spec.gap(-dual_flow, div^T(-y)) + sum|y| * max|f + div(dual_flow) - u|,

    the linearization gap at the solution's flow, O(m), plus the rounding
    between u and ``f + div(dual_flow)``; at :func:`rof_solve`'s answer
    both are rounding.  y is taken at u, bit-equal on each cluster, so a
    cluster at a kink of phi takes one subgradient; at ``f +
    div(dual_flow)`` its ulps fall on both sides of the kink.
    """
    if balls is not None:
        _, rep = min_separable_convex_over_polytope(g, f, balls, phi, tol,
                                                    warm_start=-sol.dual_flow)
        if not rep.converged:
            raise ConvergenceError("phi oracle did not converge for %s" % where, rep)
        return phi.total(sol.u) - rep.objective, rep.objective
    y = phi.subgradient(sol.u)
    box = BoxSpec.uniform(g.edge_count, sol.alpha)
    rounding = float(np.abs(f + g._div(sol.dual_flow) - sol.u).max())
    gap = box.gap(-sol.dual_flow, g._div_adjoint(-y)) + float(np.abs(y).sum()) * rounding
    return gap, phi.total(sol.u) - gap


def verify_universal_minimality(g: OrientedGraph, f, alpha: float,
                                catalog: Optional[PhiCatalog] = None,
                                tol: Optional[Tolerances] = None) -> list:
    """Certify that the regularized solution minimizes every catalog phi.

    For each catalog member, bounds sum phi at :func:`rof_solve`'s answer
    minus its minimum over the feasible slab f - alpha * (divergence image
    of the unit box) in closed form (:func:`_gap`); no oracle runs.  ``ok``
    means the bound is within ``tol.solve_tol * (1 + |minimum|)`` (default
    1e-6).
    """
    tol = tol if tol is not None else DEFAULT_CHECK_TOL
    f = ensure_vertex_field(g, f, "f")
    alpha = ensure_number(alpha, "alpha", above=True)
    if catalog is None:
        catalog = PhiCatalog.standard(float(f.min()), float(f.max()))
    sol = rof_solve(g, f, alpha)
    out = []
    for phi in catalog:
        gap, minimum = _gap(g, f, sol, phi, tol)
        rel = gap / (1.0 + abs(minimum))
        out.append(PhiReport(phi.describe(), phi.total(sol.u), minimum, gap, rel,
                             rel <= tol.solve_tol, sol.report))
    return out


@dataclass(frozen=True)
class WitnessRecord:
    datum_index: int
    phi: str
    margin: float
    relative_margin: float


@dataclass(frozen=True)
class IsotropicFailureReport:
    """Outcome of the coupled-constraint minimality search.

    ``witness`` is the first (datum, phi) pair whose coupled solution loses
    to the phi oracle by more than ten times the tolerance, or None when
    the whole batch passes (as it must for the box constraint).
    """

    coupled: bool
    alpha: float
    witness: Optional[WitnessRecord]
    margins: tuple
    checked: int

    @property
    def witness_found(self) -> bool:
        return self.witness is not None


def demonstrate_isotropic_failure(g: OrientedGraph, data_batch, alpha: float,
                                  catalog: Optional[PhiCatalog] = None,
                                  tol: Optional[Tolerances] = None, *,
                                  coupled: bool = True) -> IsotropicFailureReport:
    """Search a data batch for a phi-minimality failure of the coupled solver.

    For each datum, solves the coupled (isotropic) regularization at
    :func:`isotropic_rof_solve`'s own tolerance and compares, for every
    catalog phi except x^2, against a minimization of sum phi over the same
    coupled feasible set, by an oracle started at the point under test
    (:func:`_gap`).  A margin above ``10 * tol.solve_tol * (1 +
    |minimum|)`` is a witness that the coupled constraint set is not
    invariantly phi-minimal; the search stops at the first.  With
    ``coupled=False`` the same protocol runs on the box constraint as a
    control and must find no witness; there the margin is the closed-form
    bound at :func:`rof_solve`'s answer, and no oracle runs.
    """
    tol = tol if tol is not None else DEFAULT_CHECK_TOL
    alpha = ensure_number(alpha, "alpha", above=True)
    balls = g.coupled_ball(alpha) if coupled else None
    margins = []
    for idx, f in enumerate(data_batch):
        f = ensure_vertex_field(g, f, "datum %d" % idx)
        cat = catalog if catalog is not None else PhiCatalog.standard(
            float(f.min()), float(f.max()))
        sol = isotropic_rof_solve(g, f, alpha) if coupled else rof_solve(g, f, alpha)
        for phi in cat:
            if phi.name == "power2":
                continue
            margin, minimum = _gap(g, f, sol, phi, tol, balls, "datum %d" % idx)
            rel = margin / (1.0 + abs(minimum))
            margins.append(WitnessRecord(idx, phi.describe(), margin, rel))
            if rel > 10.0 * tol.solve_tol:
                return IsotropicFailureReport(coupled, alpha, margins[-1], tuple(margins),
                                              len(margins))
    return IsotropicFailureReport(coupled, alpha, None, tuple(margins), len(margins))


@dataclass(frozen=True)
class AnchorTrial:
    """One anchored invariance trial: its worst phi and relative gap."""

    index: int
    passed: bool
    worst_phi: str
    worst_relative_gap: float


def empirical_invariant_phi_min_check(g: OrientedGraph, alpha: float,
                                      trial_count: int = 20,
                                      catalog: Optional[PhiCatalog] = None,
                                      tol: Optional[Tolerances] = None, *,
                                      rng: Optional[np.random.Generator] = None,
                                      coupled: bool = False) -> list:
    """Anchored invariance test of the constraint set's divergence image.

    Draws random anchors a, normal with deviation ``alpha * max_degree``,
    takes the Euclidean projection x* of a onto the divergence image, and
    checks that x* also minimizes sum_v phi(x(v) - a(v)) over the image for
    every catalog phi (by default spanning ``2 alpha max_degree`` either
    side of zero; objective gap within ``tol.solve_tol * (1 +
    |minimum|)``).  x* is ``a - u`` for the regularized solution u of the
    datum a at alpha, so each check is that of
    :func:`demonstrate_isotropic_failure` for the reflection of phi with
    the anchor as the datum: in closed form at :func:`rof_solve`'s answer
    on the box image, by an oracle at :func:`isotropic_rof_solve`'s on the
    coupled image.  On the box image every trial passes; on the coupled
    image failures are expected.
    """
    tol = tol if tol is not None else DEFAULT_CHECK_TOL
    alpha = ensure_number(alpha, "alpha", above=True)
    rng = rng if rng is not None else np.random.default_rng(0)
    scale = 2.0 * alpha * g.max_degree
    balls = g.coupled_ball(alpha) if coupled else None
    if catalog is None:
        catalog = PhiCatalog.standard(-scale, scale)
    out = []
    for trial in range(ensure_integer(trial_count, "trial_count", 0)):
        a = rng.normal(0.0, scale / 2.0, size=g.vertex_count)
        sol = isotropic_rof_solve(g, a, alpha) if coupled else rof_solve(g, a, alpha)
        worst_phi, worst_rel = "", 0.0
        for phi in catalog:
            gap, minimum = _gap(g, a, sol, phi.reflect(), tol, balls, "anchor %d" % trial)
            rel = gap / (1.0 + abs(minimum))
            if rel > worst_rel:
                worst_rel, worst_phi = rel, phi.describe()
        out.append(AnchorTrial(trial, worst_rel <= tol.solve_tol, worst_phi, worst_rel))
    return out
