"""Built-in problem instances and random instance generators.

The central built-in is a 3x3 Cartesian grid with a datum whose
regularization path and gradient flow genuinely disagree beyond the first
segment; its closed-form solutions on [0, 4] are included for verification.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph import OrientedGraph, _integer

# vertex order of the nonequivalence instance
NONEQUIV_VERTEX_NAMES = ("v12", "v22", "v32", "v23", "v21",
                         "v13", "v11", "v31", "v33")
_NONEQUIV_COORDS = ((1, 2), (2, 2), (3, 2), (2, 3), (2, 1),
                    (1, 3), (1, 1), (3, 1), (3, 3))
_NONEQUIV_EDGES = (
    (1, 0),   # v22 -> v12
    (2, 1),   # v32 -> v22, the switching edge
    (3, 1),   # v23 -> v22
    (1, 4),   # v22 -> v21
    (5, 0),   # v13 -> v12
    (0, 6),   # v12 -> v11
    (3, 5),   # v23 -> v13
    (4, 6),   # v21 -> v11
    (8, 3),   # v33 -> v23
    (8, 2),   # v33 -> v32
    (2, 7),   # v32 -> v31
    (7, 4),   # v31 -> v21
)

# edge (v32, v22): only edge whose dual flow saturates and later reverses
SWITCHING_EDGE = 1


def nonequivalence_instance():
    """The 3x3 grid instance and datum with a path/flow disagreement.

    Returns ``(graph, f)``.  The regularization path of ``f`` has
    breakpoints at 2/5 and 2 within [0, 4]; the gradient flow has a single
    breakpoint at 2/5 there, and the two solutions differ for parameters
    beyond 2/5.
    """
    g = OrientedGraph(9, _NONEQUIV_EDGES, names=NONEQUIV_VERTEX_NAMES,
                      cartesian=(3, 3), grid_coords=_NONEQUIV_COORDS)
    f = np.array([100.0, 18.0, 20.0, 100.0, 100.0, 200.0, 200.0, 200.0, 0.0])
    return g, f


def nonequivalence_variant_datum() -> np.ndarray:
    """The same instance with the v22 value raised to 20.

    For this datum the regularization path and the flow coincide on [0, 4]
    and both open a jump on the (v32, v22) edge that the datum itself does
    not have.
    """
    return np.array([100.0, 20.0, 20.0, 100.0, 100.0, 200.0, 200.0, 200.0, 0.0])


def regularization_reference(alpha: float) -> np.ndarray:
    """Closed-form regularized solution of the built-in instance, alpha in [0, 4]."""
    a = float(alpha)
    if not 0.0 <= a <= 4.0:
        raise ValidationError("closed form is stated for alpha in [0, 4]")
    if a <= 0.4:
        v22, v32 = 18.0 + 4.0 * a, 20.0 - a
    elif a <= 2.0:
        v22 = v32 = 19.0 + 1.5 * a
    else:
        v22, v32 = 18.0 + 2.0 * a, 20.0 + a
    return np.array([100.0 + a, v22, v32, 100.0 - a, 100.0 + a,
                     200.0 - 2.0 * a, 200.0 - 2.0 * a, 200.0 - 2.0 * a, 2.0 * a])


def regularization_dual_reference(alpha: float) -> np.ndarray:
    """Closed-form dual flow F_alpha of the built-in instance, alpha in [0, 4]."""
    a = float(alpha)
    if not 0.0 <= a <= 4.0:
        raise ValidationError("closed form is stated for alpha in [0, 4]")
    if a <= 0.4:
        special = a
    elif a <= 2.0:
        special = (2.0 - 3.0 * a) / 2.0
    else:
        special = -a
    f = np.array([-a, special, a, -a, a, -a, -a, -a, -a, -a, -a, a])
    return f


def flow_reference(t: float) -> np.ndarray:
    """Closed-form gradient-flow state of the built-in instance, t in [0, 4]."""
    s = float(t)
    if not 0.0 <= s <= 4.0:
        raise ValidationError("closed form is stated for t in [0, 4]")
    if s <= 0.4:
        v22, v32 = 18.0 + 4.0 * s, 20.0 - s
    else:
        v22, v32 = 94.0 / 5.0 + 2.0 * s, 96.0 / 5.0 + s
    return np.array([100.0 + s, v22, v32, 100.0 - s, 100.0 + s,
                     200.0 - 2.0 * s, 200.0 - 2.0 * s, 200.0 - 2.0 * s, 2.0 * s])


def flow_dual_switching_reference(t: float) -> float:
    """Closed-form antiderivative F(t) on the switching edge, t in [0, 4]."""
    s = float(t)
    if not 0.0 <= s <= 4.0:
        raise ValidationError("closed form is stated for t in [0, 4]")
    return s if s <= 0.4 else 0.8 - s


def variant_reference(alpha: float) -> np.ndarray:
    """Closed-form solution for the variant datum (path and flow agree), alpha in [0, 4]."""
    a = float(alpha)
    if not 0.0 <= a <= 4.0:
        raise ValidationError("closed form is stated for alpha in [0, 4]")
    return np.array([100.0 + a, 20.0 + 2.0 * a, 20.0 + a, 100.0 - a, 100.0 + a,
                     200.0 - 2.0 * a, 200.0 - 2.0 * a, 200.0 - 2.0 * a, 2.0 * a])


def cartesian_graph(m: int, n: int) -> OrientedGraph:
    """M-by-N Cartesian grid graph in row-major vertex order.

    Edges run from higher to lower coordinate: (i+1, j) -> (i, j) and
    (i, j+1) -> (i, j).
    """
    m, n = _integer(m, "grid side"), _integer(n, "grid side")
    if m < 1 or n < 1 or m * n < 2:
        raise ValidationError("grid must have at least 2 vertices")
    coords = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    index = {c: k for k, c in enumerate(coords)}
    edges = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if i < m:
                edges.append((index[(i + 1, j)], index[(i, j)]))
            if j < n:
                edges.append((index[(i, j + 1)], index[(i, j)]))
    names = ["v%d_%d" % c for c in coords]
    return OrientedGraph(m * n, edges, names=names,
                         cartesian=(m, n), grid_coords=coords)


def path_graph(n: int) -> OrientedGraph:
    """Path on n vertices with edges oriented (i+1) -> i."""
    n = _integer(n, "path length")
    if n < 2:
        raise ValidationError("path needs at least 2 vertices")
    edges = [(k + 1, k) for k in range(n - 1)]
    return OrientedGraph(n, edges)


def two_vertex_graph() -> OrientedGraph:
    """Single edge v0 -> v1."""
    return OrientedGraph(2, [(0, 1)])


def random_connected_graph(rng: np.random.Generator, max_vertices: int = 12,
                           extra_edge_prob: float = 0.3) -> OrientedGraph:
    """Random connected oriented graph: a spanning tree plus extra edges."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    used = set()
    for v in range(1, n):
        w = int(rng.integers(0, v))
        a, b = (v, w) if rng.random() < 0.5 else (w, v)
        edges.append((a, b))
        used.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in used:
                continue
            if rng.random() < extra_edge_prob / max(n - 1, 1):
                pair = (a, b) if rng.random() < 0.5 else (b, a)
                edges.append(pair)
                used.add((a, b))
    return OrientedGraph(n, edges)


def random_vertex_field(rng: np.random.Generator, n: int,
                        low: float = 0.0, high: float = 2.0) -> np.ndarray:
    return rng.uniform(low, high, size=n)
