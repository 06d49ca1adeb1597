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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .engine import (DEFAULT_TOL, GroupBallSpec, SolveReport, Tolerances,
                     ensure_edge_field, ensure_integer, ensure_number,
                     ensure_vertex_field)
from .errors import ValidationError

_ZERO = Fraction(0)


def _endpoints(n: int, edges) -> tuple:
    # the checked tail and head index arrays of an edge sequence; its
    # temporaries are freed before the connectivity check runs
    pairs = np.asarray(edges)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError("edges must be a sequence of (tail, head) pairs")
    # an integer array can still hold bools: numpy turns a list that
    # mixes them with integers into one
    bools = not isinstance(edges, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for pair in edges for x in pair)
    if pairs.dtype.kind not in "iu" or bools:
        raise ValidationError("edge endpoints must be integers")
    pairs = pairs.astype(np.intp, copy=False)
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
    return tails.copy(), heads.copy()


class OrientedGraph:
    """A finite connected oriented graph stored as tail and head index arrays.

    Memory is O(n + m): the divergence and its adjoint are computed from
    the index arrays.

    Parameters
    ----------
    vertex_count : number of vertices, an integer of at least 1.
    edges : sequence of (tail, head) vertex index pairs, integers (Python
        or numpy, not bools).  Self-loops,
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
        n = ensure_integer(vertex_count, "vertex_count", 1)
        self.tails, self.heads = _endpoints(n, edges)
        self.vertex_count = n
        self.edge_count = self.tails.size

        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValidationError("names must have one entry per vertex")
        self.names = names

        self.degree = (np.bincount(self.tails, minlength=n)
                       + np.bincount(self.heads, minlength=n))
        self.max_degree = int(self.degree.max()) if self.edge_count else 0

        if n > 1 and _reached(_adjacency(self)) < n:
            raise ValidationError("graph must be connected")

        self.cartesian = None
        self.grid_coords = None
        if cartesian is not None:
            self._init_cartesian(cartesian, grid_coords)

    @property
    def edges(self) -> tuple:
        """The (tail, head) pairs in edge order, built on each call."""
        return tuple(zip(self.tails.tolist(), self.heads.tolist()))

    def _init_cartesian(self, cartesian, grid_coords):
        mm = ensure_integer(cartesian[0], "cartesian shape", 1)
        nn = ensure_integer(cartesian[1], "cartesian shape", 1)
        if mm * nn != self.vertex_count:
            raise ValidationError(
                "cartesian shape (%d, %d) inconsistent with %d vertices"
                % (mm, nn, self.vertex_count))
        if grid_coords is None:
            raise ValidationError("cartesian graphs require grid_coords")
        coords = tuple((ensure_integer(i, "grid coordinate"),
                        ensure_integer(j, "grid coordinate")) for i, j in grid_coords)
        if len(coords) != self.vertex_count:
            raise ValidationError("grid_coords must list every vertex")
        taken = bytearray(mm * nn)
        for i, j in coords:
            if not (1 <= i <= mm and 1 <= j <= nn):
                raise ValidationError("grid coordinate (%d, %d) out of range" % (i, j))
            if taken[(i - 1) * nn + j - 1]:
                raise ValidationError("duplicate grid coordinate (%d, %d)" % (i, j))
            taken[(i - 1) * nn + j - 1] = 1
        # the edges are distinct, so they are the grid's when there are as
        # many and each runs (i+1, j) -> (i, j) or (i, j+1) -> (i, j)
        pos = np.array(coords, dtype=np.intp)
        step = pos[self.tails] - pos[self.heads]
        if (self.edge_count != 2 * mm * nn - mm - nn
                or not (step.min(axis=1) == 0).all()
                or not (step.max(axis=1) == 1).all()):
            raise ValidationError("edge set does not match the Cartesian grid")
        self.cartesian = (mm, nn)
        self.grid_coords = coords

    def edge_index(self, tail: int, head: int) -> int:
        """Index of the edge with the given (tail, head) pair, in O(m)."""
        k = np.flatnonzero((self.tails == tail) & (self.heads == head))
        if k.size == 0:
            raise ValidationError("no edge (%d, %d)" % (tail, head))
        return int(k[0])

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
        # into[i, j] holds the edges into grid position (i, j) from (i + 1, j)
        # and from (i, j + 1)
        pos = np.fromiter(itertools.chain.from_iterable(self.grid_coords), np.intp,
                          2 * self.vertex_count).reshape(-1, 2) - 1
        head, tail = pos[self.heads], pos[self.tails]
        into = np.empty((mm, nn, 2), dtype=np.intp)
        right = (tail[:, 1] > head[:, 1]).astype(np.intp)
        into[head[:, 0], head[:, 1], right] = np.arange(self.edge_count)
        # in grid order, row i < M has pairs at j < N and a single at j = N,
        # and row M singles at j < N; the far corner (M, N) has no edge in
        pairs = into[:-1, :-1].reshape(-1, 2).tolist()
        groups = []
        for i, k in enumerate(into[:-1, -1, 0].tolist()):
            groups += map(tuple, pairs[i * (nn - 1):(i + 1) * (nn - 1)])
            groups.append((k,))
        groups += zip(into[-1, :-1, 1].tolist())
        return tuple(groups)

    def coupled_ball(self, radius: float) -> GroupBallSpec:
        """GroupBallSpec for the coupled constraint set at the given radius."""
        return GroupBallSpec(self.coupled_groups(), radius, self.edge_count)

    def __repr__(self):
        tag = "" if self.cartesian is None else ", cartesian=%dx%d" % self.cartesian
        return "OrientedGraph(%d vertices, %d edges%s)" % (
            self.vertex_count, self.edge_count, tag)


class SignPattern:
    """Per-edge labels in {-1, 0, +1}; 0 marks a flat edge."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        arr = np.asarray(labels, dtype=np.int8)
        # the bytes of -1, 0 and 1 deleted leave none
        if arr.ndim != 1 or arr.tobytes().translate(None, b"\xff\x00\x01"):
            raise ValidationError("labels must be a 1-D array over {-1, 0, 1}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.labels = arr

    @classmethod
    def _of(cls, labels: np.ndarray) -> "SignPattern":
        # the pattern of int8 labels over {-1, 0, 1}, which it takes over
        # unchecked
        out = cls.__new__(cls)
        labels.setflags(write=False)
        out.labels = labels
        return out

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
        return not self.labels.any()

    def __repr__(self):
        return "SignPattern(%s)" % np.array2string(self.labels, separator="")


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a subdifferential membership query.

    ``member`` is the verdict; ``witness`` is a feasible flow whose
    divergence matches the candidate when the verdict is positive (any
    feasible witness; only its divergence is determined).  ``residual`` is
    ``||div H - candidate||_2``, an upper bound on the distance to the
    subdifferential, and ``threshold`` the cutoff that
    ``max |div H - candidate|`` (``report.optimality``) was compared against,
    :func:`witness_cutoff` of the candidate.
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
    scale = float(u.max() - u.min()) if scale is None else ensure_number(scale, "scale")
    thr = tol.flat_tol * scale
    labels = np.sign(d).astype(np.int8)
    labels[np.abs(d) <= thr] = 0
    return SignPattern(labels)


def _adjacency(g: OrientedGraph) -> tuple:
    # every vertex's edges, those out of the vertex first, each part in
    # increasing edge order: vertex v's are edge[ptr[v]:ptr[v + 1]].  As
    # (ptr, edge, tails, heads), memoryviews, which Python indexes fast
    ends = np.concatenate([g.tails, g.heads])
    ptr = np.zeros(g.vertex_count + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=g.vertex_count), out=ptr[1:])
    edge = np.argsort(ends, kind="stable") % max(g.edge_count, 1)
    return tuple(map(memoryview, (ptr, edge, g.tails, g.heads)))


def _reached(adj: tuple) -> int:
    # the number of vertices that a breadth-first sweep of the adjacency
    # from vertex 0 reaches: a byte per vertex marks those seen, and one
    # queue, an index array, holds them in the order they are reached
    ptr, edge, tails, heads = adj
    seen = bytearray(len(ptr) - 1)
    seen[0] = 1
    queue = memoryview(np.zeros(len(seen), dtype=np.intp))
    done, end = 0, 1
    while done < end:
        v = queue[done]
        done += 1
        for e in edge[ptr[v]:ptr[v + 1]]:
            w = heads[e] if tails[e] == v else tails[e]
            if not seen[w]:
                seen[w] = 1
                queue[end] = w
                end += 1
    return end


class Cluster:
    """One cluster with a flat edge, and its breadth-first spanning tree.

    ``order`` lists the vertices as the search from the smallest one
    reaches them; for i >= 1, ``up[i]`` is the position in ``order`` of
    vertex ``order[i]``'s parent, ``tree[i - 1]`` the edge between them and
    ``sign[i - 1]`` +1.0 where that edge points into ``order[i]``.  It is
    the cluster's only tree: it carries the calibration flow, the flow of
    the pull and a repaired witness's divergence error (see :meth:`peel`).
    ``verts`` lists the vertices in increasing order.  :class:`PatternKernel`
    sets ``sums``, the cluster's exact line, when the cluster forms.
    ``data``, the cluster's network (see :meth:`PatternKernel._cluster`), is
    built once, on first use, and each test of the cluster is one max-flow
    on it; ``tests`` is a dict of those tests by t, as a ``(numerator,
    denominator)`` pair, each as ``(t, verdict, step, flow)`` (see
    :meth:`PatternKernel._test`).  ``span``, the t that the cluster's
    certificate covers, runs from the passing test that ends its split
    search, 0 if none ran (:meth:`PatternKernel.splits`), up to the t at
    which :meth:`PatternKernel.prove` checked it, None before.  They hold
    as long as the cluster lives, since neither its edges nor the pinned
    flux at its vertices can change without changing it, and a kernel's
    datum is fixed.  A vertex with no flat edge has no Cluster.
    """

    __slots__ = ("order", "up", "tree", "sign", "data", "sums", "tests", "span")

    def __init__(self, order, up, tree, sign):
        self.order, self.up, self.tree, self.sign = order, up, tree, sign
        self.data = self.sums = self.tests = None
        self.span = _ZERO, None

    @property
    def verts(self) -> list:
        return sorted(self.order)

    def peel(self, r: list) -> list:
        """The flows on the tree edges whose divergence is r, a list in the
        order of ``order`` that sums to zero: the edge above a vertex
        carries the sum of r over the vertex's subtree.  r is summed in
        place."""
        up = self.up
        for i in range(len(r) - 1, 0, -1):
            r[up[i]] += r[i]
        return [s * x for s, x in zip(self.sign, r[1:])]


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
        # the level search stops at the vertex that labels the sink: the
        # blocking-flow search finds dead ends beyond the sink's level, and
        # the last search, which misses the sink, labels the source side
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
            if level[sink] >= 0:
                break
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


def next_fusion(g: OrientedGraph, pattern: SignPattern, u: np.ndarray,
                d: np.ndarray) -> tuple:
    """First step x along ``u + x * d`` at which a non-flat edge closes.

    An edge closes when ``d`` moves its ends together against its label
    (an edge just split moves apart, even where u is still equal across
    it).  Returns x (``inf`` if no edge closes), the mask of the edges
    that close by x up to a relative 1e-12, the candidates for the first
    fusion in exact arithmetic, and the differences ``u(tail) - u(head)``
    and ``d(tail) - d(head)`` over every edge, from which the gaps along
    the step follow.
    """
    diffs = u[g.tails] - u[g.heads]
    ddiffs = d[g.tails] - d[g.heads]
    idx = (pattern.labels * ddiffs < 0.0).nonzero()[0]
    closing = np.zeros(g.edge_count, dtype=bool)
    if idx.size == 0:
        return math.inf, closing, diffs, ddiffs
    cross = -diffs[idx] / ddiffs[idx]
    x = float(cross.min())
    closing[idx[cross <= x + 1e-12 * abs(x)]] = True
    return x, closing, diffs, ddiffs


def event_cap(g: OrientedGraph) -> int:
    """Cap on the events of one flow or path, ``16 m + 64``."""
    return 16 * g.edge_count + 64


def failure_site(g: OrientedGraph, name: str, x: float) -> str:
    """The ``at x = ... (n vertices, m edges)`` tail of a flow or path failure."""
    return "at %s = %r (%d vertices, %d edges)" % (name, x, g.vertex_count,
                                                   g.edge_count)


def witness_cutoff(r) -> float:
    """The largest error ``max |div h - r|`` that a witness flow h for the
    divergence r, an array or a list, may leave: 1e-10 of ``1 + max |r|``."""
    return 1e-10 * (1.0 + float(max(map(abs, r))))


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

    Without a datum the pull is zero and the tests do not depend on t: a
    cluster is calibrable when its test passes, and ``s`` is the gradient
    flow's direction on every calibrable cluster (the flow is the path
    with zero pull).  The min cut of a cluster that is not names the cut
    along which it splits, as in the decomposition algorithm for the
    minimum-norm base (Fujishige 1980; Hochbaum 2001).

    Every line is exact.  The kernel holds one integer view of its data,
    ``_exact``: over one power-of-two ``unit``, the datum f, or without
    one the field ``u`` (zero if none is given).  Each cluster gets its
    exact sums ``(sum of b, unit * sum of c)`` when it forms, kept on its
    :class:`Cluster` (a vertex with no flat edge: its pinned flux and its
    entry of ``_exact``), and its intercept ``c`` is their mean, rounded
    once, and so is each vertex's pull ``f - c``.  With a datum c is the
    cluster mean of f; without one the lines start at the cluster means of
    u and are carried through events (see :meth:`advance`).

    At ``t = p / q``, scaled by ``q |C| unit`` (``f * unit`` are integers),
    a cluster's test has integer data and is one max-flow on the cluster's
    network, which :meth:`_cluster` builds once.  For a fixed datum the
    test depends only on the cluster's vertices, their pinned flux b and t,
    since every edge inside a cluster is flat.  Each test is kept on its
    :class:`Cluster`, in ``tests``: its verdict, the step its min cut
    gives, and its flow.  ``maxflows`` counts the max-flows that the kernel
    has run.

    A kernel is one state that the events of a flow or path update in
    place: :meth:`advance` takes the labels they change, and rebuilds only
    the clusters that an event fused or split; a cluster that no event
    changed keeps its tests.  Each
    cluster's spanning-tree flows are computed once, when it forms: the
    integer calibration flow, that flow over |C| and, with a datum, the
    flow of the pull, from which its forest flow at any t follows; each
    cluster's certificate is checked once, for its life (:meth:`prove`).
    Every certificate and witness takes each cluster's flow from
    :meth:`_flows` (routed by :meth:`_cover` where none fits) and checks it
    on the cluster's own edges and vertices (:meth:`_misses`).
    ``moved`` lists the vertices whose values the last build set, None for
    a kernel built from scratch.

    The clusters are the connected components of the flat edges.
    ``root[v]`` is the smallest vertex of v's cluster, and ``_of`` keeps,
    by that vertex, the Cluster of each cluster with a flat edge, with its
    breadth-first spanning tree; a vertex with no flat edge is its own
    cluster, found in bulk by a build from scratch.  The adjacency ``_adj``
    is a pair of index arrays.  Each cluster forms in one breadth-first
    search from its smallest vertex, which takes the edges in the same
    order and reads each vertex's edges once: it finds the tree, then the
    pinned flux, the sums and the tree flows follow.  So a build from
    scratch and :meth:`advance` give the same trees.

    A kernel holds per-vertex arrays (``pinned``, ``slope``, ``beta``,
    ``intercept``, with a datum ``pull``, ``root``), per-edge arrays (its
    one label array, which ``pattern`` reads, the forest flows, without a
    datum the witness), the Clusters whose forest flow leaves [-1, 1] by
    smallest vertex and the Clusters with a flat edge, its only Python
    objects.  A build from scratch takes O(n + m) time and memory, and
    Python work only at the vertices with a flat edge.  A vertex with no
    flat edge never fails a test and never splits.
    """

    __slots__ = ("graph", "pattern", "root", "pinned", "slope", "f", "intercept",
                 "pull", "beta", "maxflows", "moved", "_labels", "_adj", "_of", "_inside",
                 "_exact", "_forest", "_scaled", "_pull_flow", "_failing", "_fresh")

    def __init__(self, g: OrientedGraph, pattern: SignPattern,
                 f: Optional[np.ndarray] = None, u: Optional[np.ndarray] = None):
        n, m = g.vertex_count, g.edge_count
        self.graph, self.f, self.maxflows = g, f, 0
        # the data as integers over one power-of-two unit: each value is
        # frac 2^exp, frac 2^53 an integer
        data = f if f is not None else np.zeros(n) if u is None else np.asarray(u, dtype=float)
        frac, exp = np.frexp(data)
        exp = np.where(frac != 0.0, exp - 53, 0)
        low = min(int(exp.min()), 0)
        self._exact = 1 << -low, [p << k for p, k in zip((frac * 2.0 ** 53).astype(np.int64).tolist(),
                                                          (exp - low).tolist())]
        self.pinned, self.slope, self.beta = np.empty(n), np.empty(n), np.empty(n)
        self.intercept, self.pull, self._pull_flow = np.empty(n), 0.0, None
        if f is not None:
            self.pull, self._pull_flow = np.zeros(n), np.zeros(m)
        self._forest, self._scaled = np.zeros(m), np.zeros(m)
        self._failing, self._fresh = {}, {}
        # the pattern is read through a view that rejects writes
        self._labels = pattern.labels.copy()
        self.pattern = SignPattern._of(self._labels.view())
        self._adj, self.root, self._of = _adjacency(g), np.arange(n), {}
        flat = pattern.flat
        alone = np.ones(n, dtype=bool)
        alone[g.tails[flat]] = alone[g.heads[flat]] = False
        ones = np.flatnonzero(alone)
        # the build's loop at a vertex with no flat edge, in bulk: every
        # edge at it is pinned, b its pinned flux (floats, which bincount
        # gives only where there is an edge), s = -(b / 1), its exact mean
        # rounded once, 0.0 + data, and with a datum its pull 0.0
        b = (np.bincount(g.tails, pattern.labels, n)
             - np.bincount(g.heads, pattern.labels, n))[ones].astype(float)
        s = -b
        self.pinned[ones], self.slope[ones], self.beta[ones] = b, s, b + s
        self.intercept[ones] = 0.0 + data[ones]
        self._build([], np.flatnonzero(~alone).tolist())
        self.moved = None

    def advance(self, t: Fraction, relabel: dict) -> None:
        """Apply the events at the exact parameter x = 1 / t (x = 0 at t =
        0), which set the label of each edge of ``relabel``, a dict of edge
        to label in {-1, 0, 1}, in place.

        With a datum the kernel then equals ``PatternKernel(g,
        SignPattern(labels), f)``, for its pattern's labels with relabel's
        written in, but for ``maxflows``, which it carries on; without one,
        it carries the lines through the events at x: each cluster it forms
        starts on the sum of the lines of its dead parts at x.
        Only the clusters with an end of an edge whose label changed are
        searched again, where an edge that the last build set flat changed
        unless relabel gives it back its label; the others keep their
        spanning trees, tree flows, values and tests.
        """
        lab, inside = memoryview(self._labels), self._inside
        changed = [e for e in set(relabel).union(inside)
                   if relabel.get(e, lab[e]) != inside.get(e, lab[e])]
        for e, x in relabel.items():
            lab[e] = x
        root, of = memoryview(self.root), self._of
        _, _, tails, heads = self._adj
        # the clusters with an end of a changed edge, which are gone, as
        # pairs of the smallest vertex and the Cluster, None for a vertex
        # with no flat edge; their vertices form the clusters in their place
        dead = [(r, of.pop(r, None))
                for r in {root[v] for e in changed for v in (tails[e], heads[e])}]
        verts = sorted(v for r, c in dead for v in ([r] if c is None else c.order))
        parts = None if self.f is not None else {r: self._sums(r, c) for r, c in dead}
        self._build([c for _, c in dead if c], verts, parts, t)

    def edges_at(self, verts: np.ndarray) -> np.ndarray:
        """The edges with an end in the vertices verts, in increasing order."""
        ptr, edge, _, _ = self._adj
        return np.array(sorted({e for v in verts.tolist() for e in edge[ptr[v]:ptr[v + 1]]}),
                        dtype=np.intp)

    def sums_at(self, v: int) -> tuple:
        """``(size, sum of b, sum of c)`` of vertex v's cluster, exact: the
        sum of the pinned flux b, an int, and that of the intercepts c
        times ``unit``, an int with a datum and a Fraction without."""
        r = int(self.root[v])
        return self._sums(r, self._of.get(r))

    def _sums(self, r: int, c: Optional[Cluster]) -> tuple:
        # (size, sum of b, sum of c) of the cluster whose smallest vertex is
        # r and whose Cluster is c, None for a vertex with no flat edge
        if c is None:
            return 1, int(self.pinned[r]), self._exact[1][r]
        return (len(c.order),) + c.sums

    def _build(self, dead: list, verts: list, parts: Optional[dict] = None,
               t: Fraction = _ZERO) -> None:
        # the kernel of its labels, whose clusters replace the dead
        # Clusters by those of verts, a sorted union of clusters.  The
        # values at their vertices and at the edges of the dead and born
        # clusters are set here, one entry at a time; the others stand,
        # since no other cluster's edges or pinned flux changed.  Each
        # cluster forms in one breadth-first search from its smallest
        # vertex, which reads each vertex's edges once and keeps the pinned
        # ones; a born Cluster waits in _fresh for its certificate (see
        # prove).  Its exact sums (see _sums) are those of the pinned flux
        # b and of _exact over its vertices; without a datum, where advance
        # passes parts, the sums of the dead clusters by smallest vertex,
        # the lines keep their sum through the events at x = 1 / t (x = 0
        # at t = 0): n c = (the sum of the lines before, at x) + x * b.
        # Its intercept is their exact mean rounded once, and so is, with a
        # datum, each vertex's pull f - c
        failing, fresh, free = self._failing, self._fresh, self.f is None
        forest, scaled = memoryview(self._forest), memoryview(self._scaled)
        pinned, slope, beta, intercept = (memoryview(x) for x in (
            self.pinned, self.slope, self.beta, self.intercept))
        if not free:
            pull, pulled = memoryview(self.pull), memoryview(self._pull_flow)
        for c in dead:
            r = c.order[0]
            fresh.pop(r, None)
            if failing.pop(r, None) and free:
                # its witness may be the flow of its max-flow test
                for e in self._cluster(c)[1]:
                    scaled[e] = 0.0
            for e in c.tree:
                forest[e] = scaled[e] = 0.0
                if not free:
                    pulled[e] = 0.0
        unit, exact = self._exact
        if parts is not None:
            # in integers: x unit = big_u / big_t, and each dead part's sum
            # of lines at x, (sum of c) - x unit b, as a numerator over a
            # denominator, with its vertex count
            big_u, big_t = (unit * t.denominator, t.numerator) if t else (0, 1)
            at_x = {r: (n, total.numerator * big_t - big_u * b * total.denominator,
                        total.denominator * big_t) for r, (n, b, total) in parts.items()}
        ptr, edge, tails, heads = self._adj
        lab, root, of = memoryview(self._labels), memoryview(self.root), self._of
        seen, moved, inside = set(), [], []
        for r in verts:
            if r in seen:
                continue
            seen.add(r)
            order, up, tree, sign, pins = [r], [-1], [], [], []
            for i, v in enumerate(order):
                kept = []
                for e in edge[ptr[v]:ptr[v + 1]]:
                    if lab[e]:
                        kept.append(e)
                        continue
                    w, into = heads[e], 1.0
                    if w == v:
                        w, into = tails[e], -1.0
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                        up.append(i)
                        tree.append(e)
                        sign.append(into)
                pins.append(kept)
            size, members, b = len(order), set(order), []
            for v, kept in zip(order, pins):
                x = 0.0
                for e in kept:
                    # a pinned edge inside the cluster is set flat, since u
                    # is equal across it, and kept once, from its tail
                    w = tails[e]
                    if w != v:
                        if w not in members:
                            x -= lab[e]
                    elif heads[e] not in members:
                        x += lab[e]
                    else:
                        inside.append(e)
                b.append(x)
            total = sum(b)
            s = -(total / size)
            for v, x in zip(order, b):
                pinned[v], slope[v], beta[v] = x, s, x + s
            if parts is None:
                line = sum([exact[v] for v in order])
            else:
                # root still holds each vertex's dead cluster
                count = {}
                for v in order:
                    count[root[v]] = count.get(root[v], 0) + 1
                num, den = big_u * int(total), big_t
                for p, k in count.items():
                    n, num_p, den_p = at_x[p]
                    num, den = num * n * den_p + k * num_p * den, den * n * den_p
                line = Fraction(num, den)
            den = line.denominator * unit * size
            value = line.numerator / den  # int / int, rounded once
            for v in order:
                root[v] = r
                intercept[v] = value
            moved += order
            if not tree:
                exact[r] = line
            else:
                c = Cluster(order, up, tree, sign)
                of[r] = fresh[r] = c
                c.sums = int(total), line
                flow = c.peel([total - size * x for x in b])
                if max(map(abs, flow)) > size:
                    failing[r] = c
                for e, x in zip(tree, flow):
                    forest[e], scaled[e] = x, x / size
            if not free:
                # n unit (f - c) / (n unit), rounded once (the sums of f are
                # ints): a float f - c would be off by c's rounding, which t
                # = 1 / alpha scales
                drift = [(size * exact[v] - line) / den for v in order]
                for v, x in zip(order, drift):
                    pull[v] = x
                if tree:
                    for e, x in zip(tree, c.peel(drift)):
                        pulled[e] = x
        self.moved, self._inside = moved, {e: lab[e] for e in inside}
        for e in inside:
            lab[e] = 0

    def _cluster(self, c: Cluster) -> tuple:
        # the Cluster c's network, built once: its vertices and its flat
        # edges in increasing order, each edge's tail and head and each
        # vertex of order as positions among the vertices, each tree edge's
        # position among the edges, unit, and the integers n*unit*w and
        # n*beta at the vertices; without a datum w is zero
        if c.data is None:
            ptr, edge, tails, heads = self._adj
            verts = c.verts
            at = {v: k for k, v in enumerate(verts)}
            # each edge once, from its tail
            edges = sorted(e for v in c.order for e in edge[ptr[v]:ptr[v + 1]]
                           if tails[e] == v and heads[e] in at)
            where = {e: j for j, e in enumerate(edges)}
            b = self.pinned[verts].astype(np.int64).tolist()
            n, (sb, total) = len(verts), c.sums
            unit, w = 1, [0] * n
            if self.f is not None:
                unit, exact = self._exact
                w = [n * exact[v] - total for v in verts]
            c.data = (verts, edges, [at[tails[e]] for e in edges],
                      [at[heads[e]] for e in edges], [at[v] for v in c.order],
                      [where[e] for e in c.tree], unit, w, [n * x - sb for x in b])
        return c.data

    def _route(self, tests: list) -> list:
        # the tests of the Clusters c at t of the (c, t) pairs, as in
        # Cluster.tests: each cluster's stored test, else _test's
        return [(c.tests or {}).get((t.numerator, t.denominator)) or self._test(c, t)
                for c, t in tests]

    def _test(self, c: Cluster, t: Fraction) -> tuple:
        # the Cluster c's test at t, stored in c.tests: one max-flow on its
        # network, nodes 0 to n - 1 its vertices, n the source and n + 1
        # the sink, and arcs its edges, then each vertex's source or sink
        # arc, in that order.  step is the _cut of a failed test, flow its
        # flow over the capacity, on the edges.  It starts from the
        # calibration flow clipped to the capacities and scaled; a start
        # within the capacities shifts every cut's capacity by a constant,
        # so the verdict and the cut closest to the source are those of a
        # cold max-flow
        verts, edges, tails, heads, _, tree, unit, w, beta = self._cluster(c)
        n, qu, forest = len(verts), t.denominator * unit, memoryview(self._forest)
        cap, flow, inflow = qu * n, [0] * len(edges), [0] * n
        for j, e in zip(tree, c.tree):
            flow[j] = int(min(max(forest[e], -n), n)) * qu
        for a, b, y in zip(tails, heads, flow):
            inflow[b] += y
            inflow[a] -= y
        arcs = [(a, b, cap - y, cap + y) for a, b, y in zip(tails, heads, flow)]
        sinks = []
        for k, (x, y, z) in enumerate(zip(w, beta, inflow)):
            r = t.numerator * x - qu * y - z
            if r > 0:
                sinks.append(len(arcs))
                arcs.append((k, n + 1, r, 0))
            elif r < 0:
                arcs.append((n, k, -r, 0))
        self.maxflows += 1
        _, flows, reach = max_flow(n + 2, arcs, n, n + 1)
        ok = all(flows[k] == arcs[k][2] for k in sinks)
        found = (t, ok, None if ok else self._cut(c, reach),
                 np.array([(y + z) / cap for y, z in zip(flow, flows)]))
        if c.tests is None:
            c.tests = {}
        c.tests[t.numerator, t.denominator] = found
        return found

    def splits(self, t_now: Fraction) -> list:
        """``(t', pins)`` for each cluster that splits at some t' <= t_now,
        the current t = 1 / alpha (t_now = 0, at alpha = 0, bounds nothing).

        A cluster passing the forest test at t = 0 is calibrable and never
        splits.  For the others, a Newton (Dinkelbach) search from t = 0
        runs the max-flow test; while it fails, t moves to where the sink
        side S of the min cut becomes tight, ``(cap(S) + beta(S)) / w(S)``.
        The last S splits off at the exact ``t' = 1 / alpha'``; ``pins``
        sets the flow into S to +1 on the edges crossing it.  A split due
        by t_now is reported with t' None.  Where w(S) >= 0, as always
        under zero pull, S splits off at once.  The passing test that ends
        a cluster's search, at 0 or t', sets the low end of its ``span``.
        """
        tests = [(c, _ZERO, None) for _, c in sorted(self._failing.items())]
        out = []
        while tests:
            found = self._route([(c, t) for c, t, _ in tests])
            failed = []
            # t rises strictly at every failed test, up to the current t
            for (c, t, pins), (_, ok, step, _) in zip(tests, found):
                if ok:
                    c.span = t, c.span[1]
                    if pins is not None:
                        out.append((t, pins))
                    continue
                t_new, pins = step
                if t_new is None or t_now and t_new >= t_now:
                    out.append((None, pins))
                else:
                    failed.append((c, t_new, pins))
            tests = failed
        return out

    def _cut(self, c: Cluster, reach: list) -> tuple:
        # the t where the vertices of c that the max-flow did not reach,
        # by position, are tight (None if w of them >= 0), and the pins
        _, edges, tails, heads, _, _, unit, w, beta = self._cluster(c)
        pins = {}
        for e, a, b in zip(edges, tails, heads):
            if reach[a] != reach[b]:
                pins[e] = 1 if reach[b] else -1
        w_cut = sum(x for x, r in zip(w, reach) if not r)
        beta_cut = sum(y for y, r in zip(beta, reach) if not r)
        if w_cut >= 0:
            return None, pins
        return Fraction((len(pins) * len(w) + beta_cut) * unit, w_cut), pins

    def meet(self, e: int) -> Optional[Fraction]:
        """The exact t = 1 / x at which the lines ``c + x * s`` of the
        clusters at the ends of edge e meet, from each cluster's exact sums
        of c and of the pinned flux b; None if their intercepts are equal.
        Every cluster gets its sums when it forms, so a fusion costs O(1)."""
        unit = self._exact[0]
        _, _, tails, heads = self._adj
        (na, ba, fa), (nb, bb, fb) = self.sums_at(tails[e]), self.sums_at(heads[e])
        # c = f_sum / (unit size) and s = -b_sum / size on each side; the
        # lines meet at t = (s_head - s_tail) / (c_tail - c_head).  The sums
        # of f are fractions p / q, so one gcd reduces t
        (pa, qa), (pb, qb) = (fa.numerator, fa.denominator), (fb.numerator, fb.denominator)
        gap = pa * qb * nb - pb * qa * na
        return Fraction((ba * nb - bb * na) * unit * qa * qb, gap) if gap else None

    def _living(self, t: Fraction) -> list:
        # a (c, t) pair for every living Cluster, by smallest vertex
        return [(c, t) for _, c in sorted(self._of.items())]

    def settle(self, t: Fraction) -> None:
        """Split clusters, in place, until every cluster has a flow at t
        (with a datum): each cluster whose forest flow leaves [-1, 1] (see
        :meth:`_flows`) runs its max-flow test at t, each that fails splits
        along its min cut, pinned as in :meth:`splits`, and the parts are
        tested again.  The decomposition algorithm: at most n - 1 splits,
        exact, with no tolerance (Chambolle & Darbon 2009)."""
        while True:
            pairs = self._living(t)
            relabel = {}
            for _, ok, step, _ in self._route([pairs[i] for i in self._flows(pairs)[1]]):
                if not ok:
                    relabel.update(step[1])
            if not relabel:
                return
            self.advance(_ZERO, relabel)

    def prove(self, t: Fraction, t_end: Fraction) -> Optional[str]:
        """None if the segment from t down to ``t_end`` is certified, else
        the cause; with a datum, float(t) raises OverflowError beyond floats.

        Each Cluster formed since the last call is checked once, for its
        life: its demand ``t * w - beta`` is affine in t, so two flows that
        pass the witness check on its edges and vertices cover the t between
        them, here its flows (:meth:`_cover`) at t and at the low end of its
        ``span``, which it then takes as ``(low, t)``.  Without a datum the
        flow does not read t and becomes the cluster's part of the witness.
        Each living span covers the segment: t only falls, and the low ends
        above 0 are compared with ``t_end``.
        """
        fresh = list(self._fresh.values())
        self._fresh.clear()
        datum = self.f is not None
        # the high ends, then the low ends
        pairs = [(c, t if datum else _ZERO) for c in fresh]
        if datum:
            pairs += [(c, c.span[0]) for c in fresh if c.span[0] != t]
        cause = None
        for (c, x), (edges, h) in zip(pairs, self._cover(pairs)):
            if not datum and c.order[0] in self._failing:
                self._scaled[edges] = h  # the flow of its test at t = 0
            cause = cause or self._misses(c, edges, h, x)
        for c in fresh:
            c.span = c.span[0], t
        if cause is None and datum and any(c.span[0] > t_end for c in self._failing.values()):
            cause = "a cluster's certificate ends inside the segment"
        return cause

    def _flows(self, pairs: list, start: Optional[np.ndarray] = None) -> tuple:
        # (flows, left): the (edges, flow) at t of the Cluster c of each
        # (c, t) pair, lists over the edges, where one fits in [-1, 1]: its
        # forest flow on its tree (an overshoot of at most 1e-12, which
        # rounding alone gives, clipped), else start repaired on its tree
        # (see _repair), if given; None where neither fits, and left lists
        # the positions of those pairs, which no max-flow has routed
        scaled = memoryview(self._scaled)
        pulled = None if self.f is None else memoryview(self._pull_flow)
        out, left, last = [], [], None
        for c, t in pairs:
            if t is not last:
                last, x = t, float(t)
            h = [scaled[e] + x * pulled[e] if x else scaled[e] for e in c.tree]
            top = max(map(abs, h))
            if top > 1.0 + 1e-12:
                entry = None if start is None else self._repair(c, start, x)
                if entry is None:
                    left.append(len(out))
            else:
                if top > 1.0:
                    h = [math.copysign(1.0, y) if abs(y) > 1.0 else y for y in h]
                entry = c.tree, h
            out.append(entry)
        return out, left

    def _repair(self, c: Cluster, start: np.ndarray, x: float) -> Optional[tuple]:
        # (edges, flow): start, a flow in [-1, 1], on the edges of the
        # Cluster c plus the flow on its spanning tree that carries start's
        # divergence error against the demand at t = x, None where that
        # leaves [-1, 1].  Each vertex sums its inflow and its outflow in
        # edge order, as OrientedGraph._div does
        verts, edges, tails, heads, order, tree, _, _, _ = self._cluster(c)
        flow, k = start[edges], len(verts)
        err = x * self.pull[verts] - self.beta[verts] - (np.bincount(heads, flow, k)
                                                         - np.bincount(tails, flow, k))
        flow[tree] += c.peel(err[order].tolist())
        return None if float(np.abs(flow).max()) > 1.0 else (edges, flow.tolist())

    def _cover(self, pairs: list, start: Optional[np.ndarray] = None,
               early: bool = False) -> Optional[list]:
        # the (edges, flow) at t of the Cluster c of each (c, t) pair: its
        # flow from _flows where one fits, else its test's, stored or run
        # now, on its edges.  None if early and a cluster needs a max-flow
        out, left = self._flows(pairs, start)
        if early and left:
            return None
        for i, entry in zip(left, self._route([pairs[i] for i in left])):
            out[i] = self._cluster(pairs[i][0])[1], entry[3].tolist()
        return out

    def _misses(self, c: Cluster, edges: list, h: list, t: Fraction) -> Optional[str]:
        # the witness check of the flow h on the edges of the Cluster c
        # against the demand t * w - beta at its vertices; a vertex with no
        # flat edge has flow 0 and demand exactly 0 (beta = b - b)
        _, _, tails, heads = self._adj
        x, order, beta = float(t), c.order, memoryview(self.beta)
        pull = memoryview(self.pull) if x else None
        r = [x * pull[v] - beta[v] if x else -beta[v] for v in order]
        div = dict.fromkeys(order, 0.0)
        for e, y in zip(edges, h):
            div[heads[e]] += y
            div[tails[e]] -= y
        residual = max([abs(div[v] - y) for v, y in zip(order, r)])
        if max(map(abs, h)) > 1.0 or residual > witness_cutoff(r):
            return "a cluster has no witness flow (residual %.3g)" % residual
        return None

    def witness(self, t: Fraction = Fraction(0)) -> np.ndarray:
        """A flow on the flat edges with divergence ``t * w - beta``, zero on
        the pinned edges.  Without a datum w is zero and t is not read.

        Each cluster takes its forest flow, ``t`` times that of the pull
        plus the calibration flow over |C|, if it fits in [-1, 1] (an
        overshoot of at most 1e-12, which rounding alone gives, is clipped);
        else the flow of its max-flow test at the exact t, stored or run
        now (see :meth:`_cover`).  A cluster with no flow in [-1, 1] gets one in
        [-1, 1] that misses the divergence; the caller's check finds it.

        Without a datum it is the kernel's own array of the flows that
        :meth:`prove` checked, which :meth:`advance` updates: read it before
        the next advance.
        """
        if self.f is None:
            return self._scaled
        h = np.zeros(self.graph.edge_count)
        for edges, x in self._cover(self._living(t)):
            h[edges] = x
        return h


def subdifferential_membership(g: OrientedGraph, u, candidate,
                               tol: Tolerances | None = None) -> MembershipResult:
    """Decide whether ``candidate`` lies in the total-variation subdifferential at ``u``.

    Exact, with no iterative solve: the kernel of u's sign pattern (at
    ``tol.flat_tol``) with datum ``candidate`` gives at t = 1 a flow H
    (:meth:`PatternKernel.witness`), pinned on the non-flat edges and in
    [-1, 1] on the flat ones, whose divergence is the candidate less each
    cluster's mean mismatch where the cluster admits one.  The candidate is
    a member iff ``max |div H - candidate|`` is at most
    :func:`witness_cutoff` of the candidate.  The report has 0 iterations
    and method ``kkt-forest``, or ``kkt-maxflow`` when a cluster needed a
    max-flow.
    """
    u = ensure_vertex_field(g, u, "u")
    candidate = ensure_vertex_field(g, candidate, "candidate")
    kernel = PatternKernel(g, sign_pattern(g, u, tol), candidate)
    h = kernel.witness(Fraction(1)) - kernel.pattern.labels
    mismatch = g._div(h) - candidate
    # .sum(), not a BLAS dot product, whose bits follow the thread count
    residual = math.sqrt(float((mismatch * mismatch).sum()))
    error, cutoff = float(np.abs(mismatch).max()), witness_cutoff(candidate)
    member = error <= cutoff
    report = SolveReport(0, 0.5 * residual * residual, error, True,
                         method="kkt-maxflow" if kernel.maxflows else "kkt-forest")
    return MembershipResult(member, h if member else None, residual, cutoff, report)
