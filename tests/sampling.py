"""Constraint sets and random draws that only tests use."""

import numpy as np

from graphtv import BoxSpec


def pattern_box(pattern):
    """The flow box of a sign pattern: each non-flat edge pinned to minus
    its label, each flat edge free in [-1, 1].  Its divergence image is the
    total-variation subdifferential at any field with that pattern."""
    lab = pattern.labels.astype(float)
    return BoxSpec(np.where(lab != 0.0, -lab, -1.0), np.where(lab != 0.0, -lab, 1.0))


def box_point(box, rng):
    """A uniform random point of a BoxSpec."""
    return box.lower + rng.uniform(size=box.size) * (box.upper - box.lower)


def ball_point(balls, rng):
    """A random point of a GroupBallSpec: a uniform draw of the enclosing
    cube, projected onto the balls."""
    return balls.project(rng.uniform(-balls.radius, balls.radius, size=balls.size))


def convexity_violation(phi, lo, hi, rng, trials=200):
    """Largest violation of the midpoint and supporting-line inequalities
    of phi over random pairs in [lo, hi], relative to 1 + max |phi|; 0 for
    a convex phi up to roundoff."""
    x = rng.uniform(lo, hi, size=trials)
    y = rng.uniform(lo, hi, size=trials)
    fx = phi.evaluate(x)
    fy = phi.evaluate(y)
    mid_gap = phi.evaluate(0.5 * (x + y)) - 0.5 * (fx + fy)
    line_gap = fx + phi.subgradient(x) * (y - x) - fy
    worst = max(float(np.max(mid_gap)), float(np.max(line_gap)))
    scale = 1.0 + float(np.max(np.abs(fx))) + float(np.max(np.abs(fy)))
    return max(0.0, worst) / scale


def numbering(kernel):
    """``(roots, labels, sizes)`` of a PatternKernel's clusters: the
    smallest vertex of each cluster in increasing order, the number of each
    vertex's cluster in that order (0 .. count - 1), and the vertices per
    cluster."""
    n = kernel.root.size
    roots = np.flatnonzero(kernel.root == np.arange(n))
    rank = np.empty(n, dtype=np.intp)
    rank[roots] = np.arange(roots.size)
    labels = rank[kernel.root]
    return roots, labels, np.bincount(labels, minlength=roots.size)


def cluster_of(kernel, r):
    """The Cluster of the kernel's cluster whose smallest vertex is r, or a
    throwaway one for a vertex with no flat edge."""
    from graphtv.graph import Cluster
    c = kernel._of.get(int(r))
    return Cluster([int(r)], [-1], [], []) if c is None else c
