"""The accelerated descent as it was before it kept flows in the spec's order.

Test-only reference code: the loop steps and projects fresh arrays in the
graph's edge order, and a group-ball projection gathers, clips and scatters
by index.  :func:`descent` runs it behind the signature of
``graphtv.engine._accelerated_descent``, so a test can swap it in and
compare bytes; :func:`gap` and :func:`mapping_norm` give the stopping
measures' bytes.
"""

import math

import numpy as np

from graphtv.engine import CHECK_EVERY, DEFAULT_MAX_ITER, PATIENCE, BoxSpec


def project(spec, h):
    """Euclidean projection onto ``spec``, a flow in the graph's edge order."""
    if isinstance(spec, BoxSpec):
        return np.minimum(np.maximum(h, spec.lower), spec.upper)
    out = np.array(h, dtype=float, copy=True)
    r = spec.radius
    singles, first, second = _groups(spec)
    if singles.size:
        out[singles] = np.clip(out[singles], -r, r)
    if first.size:
        a = out[first]
        b = out[second]
        scale = r / np.maximum(np.hypot(a, b), r) if r > 0 else 0.0
        out[first] = a * scale
        out[second] = b * scale
    return out


def _groups(spec):
    singles = np.array([grp[0] for grp in spec.groups if len(grp) == 1], dtype=np.intp)
    pairs = np.array([grp for grp in spec.groups if len(grp) == 2],
                     dtype=np.intp).reshape(-1, 2)
    return singles, pairs[:, 0], pairs[:, 1]


def gap(spec, h, grad):
    """``spec.gap``, summed over the singles, then over the pairs."""
    if isinstance(spec, BoxSpec):
        return spec.gap(h, grad)
    r = spec.radius
    dot = grad * h
    single, first, second = _groups(spec)
    return float((dot[single] + r * np.abs(grad[single])).sum()
                 + (dot[first] + dot[second]
                    + r * np.hypot(grad[first], grad[second])).sum())


def mapping_norm(g, target, spec, h):
    """A projection's stopping measure at the flow h, summed in edge order."""
    lips = 2.0 * max(g.max_degree, 1)
    grad = g._div_adjoint(g._div(h) - target)
    d = h - project(spec, h - (1.0 / lips) * grad)
    return math.sqrt(float((d * d).sum())) * lips


def descent(g, x0, spec, *, measure, restarts, **kwargs):
    """The reference loop with ``_accelerated_descent``'s arguments.

    ``measure`` takes flows in the spec's order, so it gets them packed.
    The iteration of each momentum restart is appended to ``restarts``.
    """
    return accelerated_descent(
        g, x0, project=lambda h: project(spec, h),
        measure=lambda x, grad, obj: measure(spec._pack(x), spec._pack(grad), obj),
        restarts=restarts, **kwargs)


def accelerated_descent(g, x0, *, value, slope, lips, project, measure, restarts,
                        stop_tol, max_iter=DEFAULT_MAX_ITER, adaptive=False):
    step = 1.0 / lips
    cur = step * 1024.0 if adaptive else step

    def advance(base, zbase, fbase):
        nonlocal cur
        grad = g._div_adjoint(slope(zbase))
        while True:
            xn = project(base - cur * grad)
            zn = g._div(xn)
            fn = value(zn)
            if not adaptive or cur <= step * 1.0000001:
                return xn, zn, fn
            d = xn - base
            bound = fbase + float((grad * d).sum()) + float((d * d).sum()) / (2.0 * cur)
            if fn <= bound + 1e-12 * (1.0 + abs(fbase)):
                return xn, zn, fn
            cur = max(step, 0.5 * cur)

    def check(x, z, fx):
        return measure(x, g._div_adjoint(slope(z)), fx)

    x = project(np.asarray(x0, dtype=float))
    z = g._div(x)
    fx = value(z)
    meas = check(x, z, fx)
    if meas <= stop_tol:
        return x, 0, meas, fx, True
    y, zy = x, z
    t = 1.0
    it = 0
    best_x, best_meas, best_f = x, math.inf, fx
    checks_since_gain = 0
    converged = False

    while it < max_iter:
        it += 1
        if adaptive and it % 32 == 0:
            cur = min(cur * 2.0, step * 1e9)
        fy = value(zy) if adaptive else fx
        xn, zn, fn = advance(y, zy, fy)
        if fn > fx:
            restarts.append(it)
            t = 1.0
            xn, zn, fn = advance(x, z, fx)
        tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        c = (t - 1.0) / tn
        y = xn + c * (xn - x)
        zy = zn + c * (zn - z)
        x, z, fx, t = xn, zn, fn, tn
        if it % CHECK_EVERY == 0 or it == max_iter:
            meas = check(x, z, fx)
            if meas <= 0.9 * best_meas:
                checks_since_gain = 0
            else:
                checks_since_gain += 1
            if meas < best_meas:
                best_x, best_meas, best_f = x, meas, fx
            if best_meas <= stop_tol:
                converged = True
                break
            if checks_since_gain >= PATIENCE:
                break
    return best_x, it, best_meas, best_f, converged
