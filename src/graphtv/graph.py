"""Oriented graphs, discrete divergence, and graph total variation.

An oriented graph is a finite connected graph in which every undirected edge
carries exactly one orientation (no self-loops, no antiparallel pairs).
Vertex fields and edge fields are plain 1-D float arrays indexed by the
graph's vertex and edge order.  The divergence of an edge flow ``H`` is

    (div H)(v) = sum of H over edges into v  -  sum of H over edges out of v,

and the total variation of a vertex field ``u`` is

    J(u) = sum over edges (a, b) of |u(b) - u(a)|,

which does not depend on the chosen orientation.  ``J`` is the support
function of the divergence image of the unit box, so its subdifferential at
``u`` is the set of divergences of flows that are pinned opposite the sign
of ``u(tail) - u(head)`` on non-flat edges and free in [-1, 1] on flat ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .engine import (BoxSpec, GroupBallSpec, SolveReport, ensure_edge_field,
                     ensure_vertex_field, project_onto_div_box)
from .errors import ConvergenceError, ValidationError


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    flat_tol : relative threshold below which an edge difference counts as
        flat; scaled internally by the data range max(f) - min(f) of the
        field under examination (or an explicitly supplied scale).
    solve_tol : inner solver tolerance (gradient-mapping norm for
        projections, relative objective gap for generic convex solves).

    ``flow_solve`` reads ``flat_tol`` only for the ties of its datum;
    ``rof_path`` reads neither: it is exact.
    """

    flat_tol: float = 1e-7
    solve_tol: float = 1e-9

    def __post_init__(self):
        for name in ("flat_tol", "solve_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0 and np.isfinite(v)):
                raise ValidationError("%s must be a positive finite number" % name)


DEFAULT_TOL = Tolerances()


class OrientedGraph:
    """A finite connected oriented graph stored as tail and head index arrays.

    Memory is O(n + m): the divergence and its adjoint are computed from
    the index arrays.

    Parameters
    ----------
    vertex_count : number of vertices, at least 1.
    edges : sequence of (tail, head) vertex index pairs.  Self-loops,
        duplicate edges, and antiparallel pairs are rejected; the underlying
        undirected graph must be connected.
    names : optional vertex names (display only).
    cartesian : optional (M, N) marking the graph as an M-by-N Cartesian
        grid.  Requires ``grid_coords`` mapping each vertex to its (i, j)
        position, 1-based with i in 1..M and j in 1..N; the edge set must be
        exactly the grid edges (i+1, j) -> (i, j) and (i, j+1) -> (i, j).
    """

    def __init__(self, vertex_count: int, edges: Sequence[tuple],
                 names: Optional[Sequence[str]] = None,
                 cartesian: Optional[tuple] = None,
                 grid_coords: Optional[Sequence[tuple]] = None):
        n = int(vertex_count)
        if n < 1:
            raise ValidationError("vertex_count must be at least 1")
        pairs = np.asarray(edges, dtype=np.intp)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("edges must be a sequence of (tail, head) pairs")
        tails, heads = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        out_of_range = (lo < 0) | (hi >= n)
        loop = tails == heads
        # an edge repeats when its unordered pair occurred at a lower index;
        # a stable sort puts it right after such an edge
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(len(pairs), dtype=bool)
        repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = out_of_range | loop | repeated
        if bad.any():
            # report the first bad edge, checking range, loop, repeat in order
            k = int(np.argmax(bad))
            a, b = int(tails[k]), int(heads[k])
            if out_of_range[k]:
                raise ValidationError("edge (%d, %d) out of vertex range" % (a, b))
            if loop[k]:
                raise ValidationError("self-loop at vertex %d" % a)
            raise ValidationError(
                "duplicate or antiparallel edge between %d and %d" % (a, b))
        self.vertex_count = n
        self.edge_count = len(pairs)
        self.tails = tails.copy()
        self.heads = heads.copy()
        self.edges = tuple(zip(self.tails.tolist(), self.heads.tolist()))
        self._edge_ids = {e: k for k, e in enumerate(self.edges)}

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValidationError("names must have one entry per vertex")
        self.names = names

        self.degree = (np.bincount(self.tails, minlength=n)
                       + np.bincount(self.heads, minlength=n))
        self.max_degree = int(self.degree.max()) if self.edge_count else 0

        self._check_connected()

        self.cartesian = None
        self.grid_coords = None
        if cartesian is not None:
            self._init_cartesian(cartesian, grid_coords)

    def _check_connected(self):
        if self.vertex_count == 1:
            return
        adj = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = np.zeros(self.vertex_count, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not seen.all():
            raise ValidationError("graph must be connected")

    def _init_cartesian(self, cartesian, grid_coords):
        mm, nn = int(cartesian[0]), int(cartesian[1])
        if mm < 1 or nn < 1 or mm * nn != self.vertex_count:
            raise ValidationError(
                "cartesian shape (%d, %d) inconsistent with %d vertices"
                % (mm, nn, self.vertex_count))
        if grid_coords is None:
            raise ValidationError("cartesian graphs require grid_coords")
        coords = tuple((int(i), int(j)) for i, j in grid_coords)
        if len(coords) != self.vertex_count:
            raise ValidationError("grid_coords must list every vertex")
        index = {}
        for v, (i, j) in enumerate(coords):
            if not (1 <= i <= mm and 1 <= j <= nn):
                raise ValidationError("grid coordinate (%d, %d) out of range" % (i, j))
            if (i, j) in index:
                raise ValidationError("duplicate grid coordinate (%d, %d)" % (i, j))
            index[(i, j)] = v
        expected = set()
        for i in range(1, mm + 1):
            for j in range(1, nn + 1):
                if i < mm:
                    expected.add((index[(i + 1, j)], index[(i, j)]))
                if j < nn:
                    expected.add((index[(i, j + 1)], index[(i, j)]))
        if expected != set(self.edges):
            raise ValidationError("edge set does not match the Cartesian grid")
        self.cartesian = (mm, nn)
        self.grid_coords = coords
        self._grid_index = index

    def edge_index(self, tail: int, head: int) -> int:
        """Index of the edge with the given (tail, head) pair."""
        k = self._edge_ids.get((tail, head))
        if k is None:
            raise ValidationError("no edge (%d, %d)" % (tail, head))
        return k

    def _div(self, h: np.ndarray) -> np.ndarray:
        """Divergence of a trusted float edge array (no validation)."""
        n = self.vertex_count
        return np.bincount(self.heads, h, n) - np.bincount(self.tails, h, n)

    def _div_adjoint(self, u: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`_div`: u(head) - u(tail) per edge, unvalidated."""
        return u[self.heads] - u[self.tails]

    def coupled_groups(self) -> tuple:
        """Partition of the edge set for the coupled (isotropic) constraint.

        Each interior grid vertex (i, j) with i < M and j < N groups its two
        incoming grid edges; border vertices contribute their single incoming
        edge as a singleton.  Only defined for Cartesian-tagged graphs.
        """
        if self.cartesian is None:
            raise ValidationError("coupled groups require a Cartesian grid graph")
        mm, nn = self.cartesian
        idx = self._grid_index
        pair_of = self._edge_ids
        groups = []
        for i in range(1, mm + 1):
            for j in range(1, nn + 1):
                members = []
                if i < mm:
                    members.append(pair_of[(idx[(i + 1, j)], idx[(i, j)])])
                if j < nn:
                    members.append(pair_of[(idx[(i, j + 1)], idx[(i, j)])])
                # the far corner (M, N) has no incoming grid edges
                if members:
                    groups.append(tuple(members))
        return tuple(groups)

    def coupled_ball(self, radius: float) -> GroupBallSpec:
        """GroupBallSpec for the coupled constraint set at the given radius."""
        return GroupBallSpec(self.coupled_groups(), radius, self.edge_count)

    def reversed_edge(self, k: int) -> "OrientedGraph":
        """A copy of the graph with edge k's orientation flipped."""
        edges = list(self.edges)
        a, b = edges[k]
        edges[k] = (b, a)
        return OrientedGraph(self.vertex_count, edges, names=self.names)

    def __repr__(self):
        tag = "" if self.cartesian is None else ", cartesian=%dx%d" % self.cartesian
        return "OrientedGraph(%d vertices, %d edges%s)" % (
            self.vertex_count, self.edge_count, tag)


class SignPattern:
    """Per-edge labels in {-1, 0, +1}; 0 marks a flat edge."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        arr = np.asarray(labels, dtype=np.int8)
        if arr.ndim != 1 or (arr.size and (arr.min() < -1 or arr.max() > 1)):
            raise ValidationError("labels must be a 1-D array over {-1, 0, 1}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.labels = arr

    def __len__(self):
        return self.labels.size

    def __eq__(self, other):
        if not isinstance(other, SignPattern):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    @property
    def flat(self) -> np.ndarray:
        return self.labels == 0

    @property
    def nonflat(self) -> np.ndarray:
        return self.labels != 0

    @property
    def all_flat(self) -> bool:
        return bool((self.labels == 0).all())

    def __repr__(self):
        return "SignPattern(%s)" % np.array2string(self.labels, separator="")


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a subdifferential membership query.

    ``member`` is the verdict; ``witness`` is a feasible flow whose
    divergence matches the candidate when the verdict is positive (any
    feasible witness; only its divergence is determined).  ``residual`` is
    the achieved distance ``||div H - candidate||_2`` and ``threshold`` the
    cutoff it was compared against.
    """

    member: bool
    witness: Optional[np.ndarray]
    residual: float
    threshold: float
    report: SolveReport


def divergence(g: OrientedGraph, h) -> np.ndarray:
    """Divergence of an edge flow: inflow minus outflow at each vertex.

    Sums to zero over the vertex set for any flow.
    """
    return g._div(ensure_edge_field(g, h))


def edge_differences(g: OrientedGraph, u) -> np.ndarray:
    """Per-edge differences u(tail) - u(head)."""
    u = ensure_vertex_field(g, u)
    return u[g.tails] - u[g.heads]


def total_variation(g: OrientedGraph, u) -> float:
    """Graph total variation J(u), the sum of absolute edge differences."""
    return float(np.abs(edge_differences(g, u)).sum())


def sign_pattern(g: OrientedGraph, u, tol: Tolerances | None = None, *,
                 scale: float | None = None) -> SignPattern:
    """Thresholded signs of u(tail) - u(head) per edge.

    Differences with magnitude at most ``tol.flat_tol * scale`` are labeled
    flat (0); ``scale`` defaults to the range max(u) - min(u) of the field
    itself.  Pass an explicit scale when classifying states derived from a
    common datum so the threshold stays fixed along a trajectory.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    u = ensure_vertex_field(g, u)
    d = u[g.tails] - u[g.heads]
    if scale is None:
        scale = float(u.max() - u.min()) if u.size else 0.0
    thr = tol.flat_tol * scale
    labels = np.sign(d).astype(np.int8)
    labels[np.abs(d) <= thr] = 0
    return SignPattern(labels)


def pattern_box(pattern: SignPattern) -> BoxSpec:
    """Flow constraint set attached to a sign pattern.

    Non-flat edges pin the flow to minus the label; flat edges are free in
    [-1, 1].  The divergence image of this box is the total-variation
    subdifferential at any field with the given pattern.
    """
    lab = pattern.labels.astype(float)
    lower = np.where(lab != 0.0, -lab, -1.0)
    upper = np.where(lab != 0.0, -lab, 1.0)
    return BoxSpec(lower, upper)


def _adjacency(g: OrientedGraph) -> list:
    # every vertex's edges as (neighbour, edge, +1.0 where the edge points
    # into the neighbour), edges out of the vertex first, each part in
    # increasing edge order
    adj = [[] for _ in range(g.vertex_count)]
    for e, (a, b) in enumerate(g.edges):
        adj[a].append((b, e, 1.0))
    for e, (a, b) in enumerate(g.edges):
        adj[b].append((a, e, -1.0))
    return adj


class Cluster:
    """One cluster of flat edges and its breadth-first spanning tree.

    ``order`` lists the vertices as the search from the smallest one
    reaches them; for i >= 1, ``up[i]`` is the position in ``order`` of
    vertex ``order[i]``'s parent, ``tree[i - 1]`` the edge between them and
    ``sign[i - 1]`` +1.0 where that edge points into ``order[i]``.
    ``verts`` lists the vertices in increasing order.  ``edges`` (see
    :meth:`FlatClusters.edges`), and :class:`PatternKernel`'s ``key`` and
    ``data``, are caches filled on first use.  They hold as long as the
    cluster lives, since neither its edges nor the pinned flux at its
    vertices can change without changing it.
    """

    __slots__ = ("order", "up", "tree", "sign", "verts", "edges", "key", "data")

    def __init__(self, order, up, tree, sign):
        self.order, self.up, self.tree, self.sign = order, up, tree, sign
        self.verts = sorted(order)
        self.edges = self.key = self.data = None

    def peel(self, r: list) -> list:
        """The flows on the tree edges whose divergence is r, a list in the
        order of ``order`` that sums to zero: the edge above a vertex
        carries the sum of r over the vertex's subtree.  r is summed in
        place."""
        up = self.up
        for i in range(len(r) - 1, 0, -1):
            r[up[i]] += r[i]
        return [s * x for s, x in zip(self.sign, r[1:])]


def _grow(adj: list, flat: bytes, verts) -> list:
    # the clusters of the flat edges over verts, a union of clusters, from
    # a breadth-first search of each from its smallest vertex
    seen = set()
    out = []
    for root in verts:
        if root in seen:
            continue
        seen.add(root)
        order, up, tree, sign = [root], [-1], [], []
        for i, v in enumerate(order):
            for w, e, into in adj[v]:
                if flat[e] and w not in seen:
                    seen.add(w)
                    order.append(w)
                    up.append(i)
                    tree.append(e)
                    sign.append(into)
        out.append(Cluster(order, up, tree, sign))
    return out


class FlatClusters:
    """Connected components of the graph restricted to a set of flat edges.

    ``labels[v]`` numbers the cluster of vertex v (0 .. count-1, in the
    order of the clusters' smallest vertices), ``sizes`` counts the
    vertices per cluster and :meth:`cluster` gives cluster k's
    :class:`Cluster`, with its breadth-first spanning tree.  A build from
    scratch takes O(n + m) time and memory.  :meth:`successor` gives the
    clusters of another set of flat edges from these: it searches again
    only the clusters with an end of a changed edge, and shares the others.
    Each cluster's search starts from its smallest vertex and takes the
    edges in the same order either way, so both give the same trees.
    """

    __slots__ = ("graph", "labels", "count", "sizes", "roots", "_adj", "_root",
                 "_of")

    def __init__(self, g: OrientedGraph, flat: np.ndarray):
        n = g.vertex_count
        self._adj = _adjacency(g)
        born = _grow(self._adj, flat.tobytes(), range(n))
        self._setup(g, np.empty(n, dtype=np.intp), [None] * n, born)

    def _setup(self, g, root, of, born):
        # root[v] is the smallest vertex of v's cluster, of[r] the Cluster
        # whose smallest vertex is r
        for c in born:
            of[c.order[0]] = c
        root[[v for c in born for v in c.order]] = [
            c.order[0] for c in born for _ in c.order]
        is_root = root == np.arange(g.vertex_count)
        first = is_root.cumsum() - 1
        self.graph, self._root, self._of = g, root, of
        self.labels = first[root]
        self.count = int(first[-1]) + 1
        self.roots = is_root.nonzero()[0]
        self.sizes = np.bincount(self.labels, minlength=self.count)

    def successor(self, flat: np.ndarray, changed: np.ndarray) -> tuple:
        """``(clusters, dead, born)``: the clusters of the flat edges
        ``flat``, which differ from this one's only on the edges
        ``changed``; this one's clusters with an end of a changed edge,
        which are gone; and the clusters searched in their place.  A
        cluster with no end of a changed edge is still a cluster, with the
        same spanning tree."""
        g = self.graph
        ends = [v for e in changed.tolist() for v in g.edges[e]]
        dead = [self._of[r] for r in set(self._root[ends].tolist())]
        of = self._of.copy()
        for c in dead:
            of[c.order[0]] = None
        born = _grow(self._adj, flat.tobytes(),
                     sorted(v for c in dead for v in c.order))
        out = FlatClusters.__new__(FlatClusters)
        out._adj = self._adj
        out._setup(g, self._root.copy(), of, born)
        return out, dead, born

    def cluster(self, k: int) -> Cluster:
        """Cluster k."""
        return self._of[self.roots[k]]

    def edges(self, k: int) -> list:
        """The edges with both ends in cluster k, in increasing order."""
        c = self.cluster(k)
        if c.edges is None:
            inside = set(c.order)
            # each edge once, from its tail
            c.edges = sorted(e for v in c.order for w, e, into in self._adj[v]
                             if into > 0.0 and w in inside)
        return c.edges

    def mean(self, x: np.ndarray) -> np.ndarray:
        """Per-vertex mean of x over the vertex's cluster."""
        lab = self.labels
        return (np.bincount(lab, x, self.count) / self.sizes)[lab]

    def forest_flow(self, r: np.ndarray) -> np.ndarray:
        """The flow on the spanning forest whose divergence is r.

        r must sum to zero over every cluster; the flow is unique on the
        forest and zero on every other edge (see :meth:`Cluster.peel`).
        """
        h = np.zeros(self.graph.edge_count)
        r = r.tolist()
        for c in filter(None, self._of):
            h[c.tree] = c.peel([r[v] for v in c.order])
        return h


def max_flow(node_count: int, arcs, source: int, sink: int) -> tuple:
    """Maximum flow by Dinic's algorithm on integer capacities.

    ``arcs`` lists ``(tail, head, capacity, back_capacity)``; an undirected
    edge of capacity c is one arc with both capacities c.  Returns
    ``(value, flows, cut)``: the flow value, the net flow on each arc
    (tail to head, at most ``capacity`` and at least ``-back_capacity``),
    and a boolean list marking the vertices reachable from the source in
    the residual network, the source side of the minimum cut closest to
    the source.  Exact for Python integers.  The blocking-flow search is
    iterative, since level graphs can be deeper than the recursion limit.
    """
    adj = [[] for _ in range(node_count)]
    head = []
    res = []
    for a, b, cap, back in arcs:
        adj[a].append(len(head))
        head.append(b)
        res.append(cap)
        adj[b].append(len(head))
        head.append(a)
        res.append(back)
    value = 0
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = [source]
        for v in queue:
            lw = level[v] + 1
            for k in adj[v]:
                w = head[k]
                if res[k] > 0 and level[w] < 0:
                    level[w] = lw
                    queue.append(w)
        if level[sink] < 0:
            break
        nxt = [0] * node_count
        stack = []
        v = source
        while True:
            if v == sink:
                push = min([res[k] for k in stack])
                first = -1
                for i, k in enumerate(stack):
                    res[k] -= push
                    res[k ^ 1] += push
                    if first < 0 and res[k] == 0:
                        first = i
                value += push
                # retreat to the tail of the first saturated arc
                v = head[stack[first] ^ 1]
                del stack[first:]
                continue
            out = adj[v]
            lw = level[v] + 1
            for i in range(nxt[v], len(out)):
                k = out[i]
                if res[k] > 0 and level[head[k]] == lw:
                    nxt[v] = i
                    stack.append(k)
                    v = head[k]
                    break
            else:
                if v == source:
                    break
                level[v] = -1
                v = head[stack.pop() ^ 1]
                nxt[v] += 1
    flows = [arc[2] - res[2 * k] for k, arc in enumerate(arcs)]
    return value, flows, [lv >= 0 for lv in level]


def route_demands(parts, tails, heads, flow) -> tuple:
    """Route the integer demands of disjoint parts of a graph in one max-flow.

    ``parts`` lists ``(vertices, edges, capacity, demand)``: edge j runs
    ``tails[j]`` to ``heads[j]`` with ``capacity`` either way; ``demand``
    is the divergence asked at each vertex.  ``flow``, a starting flow, is
    updated in place.  Returns, per part, whether its demand is met, and
    the vertices reached from the source: a failed part's vertices not
    reached form its most violated set.
    """
    node = {v: k for k, v in enumerate(v for p in parts for v in p[0])}
    inflow = [0] * len(node)
    source, sink = len(node), len(node) + 1
    arcs = []
    spans = []
    for vertices, edges, cap, demand in parts:
        for j in edges:
            inflow[node[heads[j]]] += flow[j]
            inflow[node[tails[j]]] -= flow[j]
        first = len(arcs)
        arcs.extend((node[tails[j]], node[heads[j]], cap - flow[j], cap + flow[j])
                    for j in edges)
        sinks = []
        for v, r in zip(vertices, demand):
            r -= inflow[node[v]]
            if r > 0:
                sinks.append(len(arcs))
                arcs.append((node[v], sink, r, 0))
            elif r < 0:
                arcs.append((source, node[v], -r, 0))
        spans.append((edges, first, sinks))
    _, flows, reach = max_flow(len(node) + 2, arcs, source, sink)
    met = []
    for edges, first, sinks in spans:
        for k, j in enumerate(edges, first):
            flow[j] += flows[k]
        met.append(all(flows[k] == arcs[k][2] for k in sinks))
    return met, {v for v, k in node.items() if reach[k]}


def next_fusion(g: OrientedGraph, pattern: SignPattern, u: np.ndarray,
                d: np.ndarray) -> tuple:
    """First step x along ``u + x * d`` at which a non-flat edge closes.

    An edge closes when ``d`` moves its ends together against its label
    (an edge just split moves apart, even where u is still equal across
    it).  Returns x (``inf`` if no edge closes) and the mask of the edges
    that close by x up to a relative 1e-12, which meet there exactly.
    """
    diffs = u[g.tails] - u[g.heads]
    ddiffs = d[g.tails] - d[g.heads]
    idx = np.flatnonzero(pattern.labels * ddiffs < 0.0)
    closing = np.zeros(g.edge_count, dtype=bool)
    if idx.size == 0:
        return math.inf, closing
    cross = -diffs[idx] / ddiffs[idx]
    x = float(cross.min())
    closing[idx[cross <= x + 1e-12 * abs(x)]] = True
    return x, closing


def event_cap(g: OrientedGraph) -> int:
    """Cap on the events of one flow or path, ``16 m + 64``."""
    return 16 * g.edge_count + 64


def failure_site(g: OrientedGraph, name: str, x: float) -> str:
    """The ``at x = ... (n vertices, m edges)`` tail of a flow or path failure."""
    return "at %s = %r (%d vertices, %d edges)" % (name, x, g.vertex_count,
                                                   g.edge_count)


_INTP = np.dtype(np.intp).itemsize


class PatternKernel:
    """Closed forms and exact cluster tests attached to one sign pattern.

    Let ``b = div(-labels)`` be the pinned flux of the non-flat edges and
    ``s = -(cluster mean of b)`` over the clusters of flat edges; a pinned
    edge whose ends the flat edges join is set flat, since u is equal
    across it.  With ``c = cluster_mean(f)``, ``w = f - c`` (the pull of
    the datum f) and ``beta = b + s``, the regularization path at alpha is
    ``c + alpha * s`` iff the pinned edges keep their signs and, with
    ``t = 1 / alpha``, each cluster carries a flow in [-1, 1] on its flat
    edges with divergence ``t * w - beta``; such t form an interval.

    Without a datum the pull is zero and only t = 0 matters: a cluster is
    calibrable when the test passes there, and ``s`` is the gradient flow's
    direction on every calibrable cluster.  The min cut of a cluster that
    is not names the cut along which it splits, as in the decomposition
    algorithm for the minimum-norm base (Fujishige 1980; Hochbaum 2001).

    At ``t = p / q``, scaled by ``q |C| unit`` (``f * unit`` are integers),
    a cluster's test has integer data and goes to :func:`route_demands`.
    For a fixed datum the test depends only on the cluster's vertices, their
    pinned flux b and t, since every edge inside a cluster is flat.
    ``memo``, a dict that the kernels of one flow or path share, keeps each
    test under that key: its verdict, the step its min cut gives, and its
    flow.  A cluster that no event changed finds its tests there.  Once the
    memo's clusters hold more than n vertices, a successor drops the tests
    of the clusters it does not have, so they hold at most 2n.

    A flow or path builds its first kernel from scratch and each later one
    with :meth:`successor`, which rebuilds only the clusters an event fused
    or split.  Each cluster's spanning-tree flows are computed once, when
    it forms: the integer calibration flow and, with a datum, the flow of
    the pull, from which the witness at any t follows.
    """

    __slots__ = ("graph", "pattern", "clusters", "pinned", "slope", "f",
                 "intercept", "pull", "beta", "memo", "_given", "_values",
                 "_forest", "_pull_flow", "_failed", "_calibration", "_start")

    def __init__(self, g: OrientedGraph, pattern: SignPattern,
                 f: Optional[np.ndarray] = None):
        n, m = g.vertex_count, g.edge_count
        self.graph, self.f, self.memo = g, f, {}
        self._values = None if f is None else f.tolist()
        self.pinned, self.slope, self.beta = np.empty(n), np.empty(n), np.empty(n)
        self.intercept, self.pull, self._pull_flow = 0.0, 0.0, None
        if f is not None:
            self.intercept, self.pull, self._pull_flow = np.empty(n), np.empty(n), np.zeros(m)
        self._forest, self._failed = np.zeros(m), bytearray(n)
        clusters = FlatClusters(g, pattern.flat)
        self._build(pattern, clusters, [], list(filter(None, clusters._of)))

    def successor(self, labels) -> "PatternKernel":
        """The kernel of the edge labels ``labels``, built from this one.

        It equals ``PatternKernel(g, SignPattern(labels), f)`` and shares
        this kernel's memo.  Only the clusters with an end of an edge whose
        label changed are searched again; the others keep their spanning
        trees, tree flows, memo keys and values.
        """
        given = SignPattern(labels)
        changed = (given.labels != self._given).nonzero()[0]
        clusters, dead, born = self.clusters.successor(given.flat, changed)
        out = PatternKernel.__new__(PatternKernel)
        out.graph, out.f, out.memo, out._values = self.graph, self.f, self.memo, self._values
        out.pinned, out.slope, out.beta = self.pinned.copy(), self.slope.copy(), self.beta.copy()
        out.intercept, out.pull, out._pull_flow = 0.0, 0.0, None
        if self.f is not None:
            out.intercept, out.pull = self.intercept.copy(), self.pull.copy()
            out._pull_flow = self._pull_flow.copy()
        out._forest, out._failed = self._forest.copy(), bytearray(self._failed)
        out._build(given, clusters, dead, born)
        # live clusters are disjoint, so a memo whose clusters hold more
        # than n vertices holds dead ones: keep only this kernel's
        if sum(len(verts) for verts, _ in out.memo) > _INTP * out.graph.vertex_count:
            for key in [key for key in out.memo if not out._holds(key)]:
                del out.memo[key]
        return out

    def _build(self, given, clusters, dead, born):
        # the kernel of the labels given, whose clusters replace the dead
        # ones by the born ones.  The values at the vertices and tree edges
        # of the born clusters are set here; the others stand, since no
        # other cluster's edges or pinned flux changed.  _failed holds a
        # byte per smallest vertex
        self._given, self.clusters = given.labels, clusters
        failed = self._failed
        for c in dead:
            failed[c.order[0]] = False
        gone = [e for c in dead for e in c.tree]
        if gone:
            self._forest[gone] = 0.0
            if self._pull_flow is not None:
                self._pull_flow[gone] = 0.0
        adj, lab, f = clusters._adj, memoryview(given.labels), self._values
        verts, pinned, slope, beta, intercept, pull = [], [], [], [], [], []
        inside, tree, flows, pulled = [], [], [], []
        for c in born:
            order = c.order
            size = len(order)
            members = set(order) if c.tree else ()
            b = []
            for v in order:
                x = 0.0
                for w, e, into in adj[v]:
                    if lab[e]:
                        # a pinned edge inside the cluster is set flat,
                        # since u is equal across it; the search left it
                        # out of the tree
                        if w not in members:
                            x += lab[e] * into
                        elif into > 0.0:
                            inside.append(e)
                b.append(x)
            total = sum(b)
            s = -(total / size)
            verts += order
            pinned += b
            slope += [s] * size
            beta += [x + s for x in b]
            if f is not None:
                # summed in vertex order, as np.bincount does
                mean = 0.0
                for v in c.verts:
                    mean += f[v]
                mean /= size
                drift = [f[v] - mean for v in order]
                intercept += [mean] * size
                pull += drift
            if c.tree:
                flow = c.peel([total - size * x for x in b])
                failed[order[0]] = max(map(abs, flow)) > size
                tree += c.tree
                flows += flow
                if f is not None:
                    pulled += c.peel(drift)
        self.pinned[verts], self.slope[verts], self.beta[verts] = pinned, slope, beta
        self._forest[tree] = flows
        if f is not None:
            self.intercept[verts], self.pull[verts] = intercept, pull
            self._pull_flow[tree] = pulled
        self.pattern = given
        if inside:
            labels = given.labels.copy()
            labels[inside] = 0
            self.pattern = SignPattern(labels)
        self._calibration = self._start = None

    def calibration(self) -> tuple:
        """The integer forest flow with divergence ``sum_P b - |P| b`` on each
        cluster P, |P| at each edge, and the clusters where it exceeds |P|;
        the others are calibrable."""
        if self._calibration is None:
            cl = self.clusters
            edge_size = cl.sizes[cl.labels[self.graph.tails]].astype(float)
            failed = np.frombuffer(self._failed, dtype=bool)[cl.roots]
            self._calibration = self._forest, edge_size, failed
        return self._calibration

    def _key(self, k: int) -> tuple:
        # cluster k's key in the memo: its vertices and their pinned flux
        c = self.clusters.cluster(k)
        if c.key is None:
            c.key = (np.asarray(c.verts, dtype=np.intp).tobytes(),
                     self.pinned[c.verts].astype(np.int64).tobytes())
        return c.key

    def _holds(self, key: tuple) -> bool:
        # whether the cluster of a memo key is one of this kernel's
        verts = np.frombuffer(key[0], dtype=np.intp)
        lab = self.clusters.labels[verts]
        if self.clusters.sizes[lab[0]] != verts.size or (lab != lab[0]).any():
            return False
        return self.pinned[verts].astype(np.int64).tobytes() == key[1]

    def _tests(self, key: tuple) -> dict:
        # the tests run on the cluster of key in this call, by t as a
        # (numerator, denominator) pair, each as (t, verdict, step, flow):
        # step is the _cut of a failed test, flow its flow over the
        # capacity, on the cluster's flat edges in increasing order
        return self.memo.get(key, {})

    def _cluster(self, k: int) -> tuple:
        # cluster k's vertices, flat edges, size, unit, and the integers
        # n*unit*w and n*beta
        c = self.clusters.cluster(k)
        if c.data is None:
            verts = c.verts
            b = self.pinned[verts].astype(np.int64).tolist()
            n, sb = len(verts), sum(b)
            unit, w = 1, [0] * n
            if self.f is not None:
                ratios = [x.as_integer_ratio() for x in self.f[verts].tolist()]
                unit = max(den for _, den in ratios)
                big_f = [num * (unit // den) for num, den in ratios]
                w = [n * x - sum(big_f) for x in big_f]
            c.data = (verts, self.clusters.edges(k), n, unit, w, [n * x - sb for x in b])
        return c.data

    def _route(self, tests: list) -> list:
        # the tests of the clusters k at t of the (k, t) pairs (see
        # _tests).  The memo's are reused; the others run in one max-flow,
        # each cluster started from an integer flow scaled to its
        # capacities.  The clusters are disjoint, and a start within the
        # capacities shifts every cut's capacity by a constant, so each
        # verdict and cut closest to the source is that of a cold max-flow
        # on the cluster alone
        keys = [self._key(k) for k, _ in tests]
        found = [self._tests(key).get((t.numerator, t.denominator))
                 for key, (_, t) in zip(keys, tests)]
        todo = [i for i, entry in enumerate(found) if entry is None]
        if not todo:
            return found
        g = self.graph
        if self._start is None:
            forest, edge_size, _ = self.calibration()
            start = np.clip(forest, -edge_size, edge_size)
            self._start = start.astype(np.int64).tolist()
        flow = [0] * g.edge_count
        parts = []
        for i in todo:
            k, t = tests[i]
            verts, edges, n, unit, w, beta = self._cluster(k)
            qu = t.denominator * unit
            for j in edges:
                flow[j] = self._start[j] * qu
            parts.append((verts, edges, qu * n,
                          [t.numerator * x - qu * y for x, y in zip(w, beta)]))
        met, reached = route_demands(parts, g.tails.tolist(), g.heads.tolist(), flow)
        for i, (verts, edges, cap, _), ok in zip(todo, parts, met):
            k, t = tests[i]
            step = None if ok else self._cut(k, set(verts) - reached)
            found[i] = t, ok, step, np.array([flow[j] / cap for j in edges])
            self.memo.setdefault(keys[i], {})[t.numerator, t.denominator] = found[i]
        return found

    def splits(self, alpha: float) -> list:
        """``(alpha', t', pins)`` for each cluster that splits at some alpha' >= alpha.

        A cluster passing the forest test at t = 0 is calibrable and never
        splits.  For the others, a Newton (Dinkelbach) search from t = 0
        runs the max-flow test; while it fails, t moves to where the sink
        side S of the min cut becomes tight, ``(cap(S) + beta(S)) / w(S)``.
        The last S splits off at the exact ``t' = 1 / alpha'``; ``pins``
        sets the flow into S to +1 on the edges crossing it.  A split due
        by alpha is reported at alpha, with t' None.  Where w(S) >= 0, as
        always under zero pull, S splits off at once.
        """
        t_now = 1 / Fraction(alpha) if alpha > 0 else None
        tests = [(k, Fraction(0), None)
                 for k in np.flatnonzero(self.calibration()[2]).tolist()]
        out = []
        while tests:
            found = self._route([(k, t) for k, t, _ in tests])
            failed = []
            # t rises strictly at every failed test, up to the current t
            for (k, t, pins), (_, ok, step, _) in zip(tests, found):
                if ok:
                    if pins is not None:
                        out.append((float(1 / t), t, pins))
                    continue
                t_new, pins = step
                if t_new is None or t_now is not None and t_new >= t_now:
                    out.append((alpha, None, pins))
                else:
                    failed.append((k, t_new, pins))
            tests = failed
        return out

    def _cut(self, k: int, cut: set) -> tuple:
        # the t where cut is tight (None if w(cut) >= 0), and the pins
        verts, edges, n, unit, w, beta = self._cluster(k)
        g = self.graph
        pins = {}
        for j in edges:
            into = int(g.heads[j]) in cut
            if into != (int(g.tails[j]) in cut):
                pins[j] = -1 if into else 1
        w_cut = sum(x for v, x in zip(verts, w) if v in cut)
        beta_cut = sum(y for v, y in zip(verts, beta) if v in cut)
        if w_cut >= 0:
            return None, pins
        return Fraction((len(pins) * n + beta_cut) * unit, w_cut), pins

    def _between(self, k: int, t: Fraction) -> Optional[np.ndarray]:
        # cluster k's flow at t from two feasible flows at t_lo < t < t_hi:
        # its tests in the memo, and at t = 0 a forest flow in the box.  The
        # divergence is affine in t and the box convex, so their convex
        # combination is a flow at t; weights x and fl(1 - x) keep it in
        # [-1, 1] under rounding
        tests = self._tests(self._key(k)).values()
        ends = [(s, flow) for s, ok, _, flow in tests if ok]
        forest, edge_size, failed = self.calibration()
        if not failed[k]:
            part = self.clusters.edges(k)
            ends.append((Fraction(0), forest[part] / edge_size[part]))
        if not ends:
            return None
        (lo, h_lo), (hi, h_hi) = (min(ends, key=lambda e: e[0]),
                                  max(ends, key=lambda e: e[0]))
        if not lo < t < hi:
            return None
        x = float((hi - t) / (hi - lo))
        return x * h_lo + (1.0 - x) * h_hi

    def witness(self, t: Fraction = Fraction(0)) -> np.ndarray:
        """A flow on the flat edges with divergence ``t * w - beta``, zero on
        the pinned edges; t > 0 needs a datum.

        Each cluster takes its forest flow, ``t`` times that of the pull
        plus the calibration flow over |C|, if it fits in [-1, 1]; else the
        flow of its max-flow test at the exact t, which the split search or
        an earlier event may have run already; else, when feasible flows of
        its tests lie on both sides of t, their convex combination; else
        a new max-flow test at t.  A cluster with no flow in [-1, 1] gets
        one that misses the divergence; the caller's certificate finds it.
        """
        g = self.graph
        forest, edge_size, failed = self.calibration()
        h = forest / edge_size
        if t:
            h += float(t) * self._pull_flow
            misfit = np.unique(self.clusters.labels[g.tails[np.abs(h) > 1.0]]).tolist()
        else:
            misfit = np.flatnonzero(failed).tolist()
        if not misfit:
            return h
        todo = []
        for k in misfit:
            entry = self._tests(self._key(k)).get((t.numerator, t.denominator))
            flow = entry[3] if entry is not None else self._between(k, t)
            if flow is None:
                todo.append(k)
            else:
                h[self.clusters.edges(k)] = flow
        if todo:
            for k, entry in zip(todo, self._route([(k, t) for k in todo])):
                h[self.clusters.edges(k)] = entry[3]
        return h


def subdifferential_membership(g: OrientedGraph, u, candidate,
                               tol: Tolerances | None = None) -> MembershipResult:
    """Decide whether ``candidate`` lies in the total-variation subdifferential at ``u``.

    Projects the candidate onto the divergence image of the pattern box of
    ``u`` and compares the residual against a solver-resolution threshold
    ``max(solve_tol, 100 * solve_tol * (1 + ||candidate||_2))`` (the exact
    contract is residual zero).  Raises :class:`ConvergenceError` when the
    inner projection does not converge, so an unresolved solve is never
    reported as a clean negative verdict.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    u = ensure_vertex_field(g, u, "u")
    candidate = ensure_vertex_field(g, candidate, "candidate")
    box = pattern_box(sign_pattern(g, u, tol))
    h, report = project_onto_div_box(g, candidate, box, tol)
    if not report.converged:
        raise ConvergenceError("membership projection did not converge", report)
    residual = float(np.linalg.norm(g._div(h) - candidate))
    threshold = max(tol.solve_tol,
                    100.0 * tol.solve_tol * (1.0 + float(np.linalg.norm(candidate))))
    member = residual <= threshold
    return MembershipResult(member, h if member else None, residual, threshold, report)
