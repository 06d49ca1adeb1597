import math
from fractions import Fraction

import numpy as np
import pytest

from graphtv import (OrientedGraph, SignPattern, Tolerances, ValidationError,
                     divergence, edge_differences, sign_pattern,
                     subdifferential_membership, total_variation)
from graphtv.instances import (cartesian_graph, nonequivalence_instance, path_graph,
                               random_connected_graph, random_vertex_field,
                               two_vertex_graph)

from dense_operator import dense_divergence
from sampling import box_point, cluster_of, numbering, pattern_box

TOL = 1e-12
SEED = 20240817


def _cluster_mean(root, x):
    # per-vertex mean of x over the vertices with the vertex's root,
    # summed in vertex order
    n = root.size
    return (np.bincount(root, x, n) / np.maximum(np.bincount(root, minlength=n), 1))[root]


def _exact_means(root, x):
    # per-vertex exact mean of x over the vertices with the vertex's root,
    # and x less that mean, each rounded once
    from fractions import Fraction
    sums, sizes = {}, {}
    for r, v in zip(root.tolist(), x.tolist()):
        sums[r] = sums.get(r, 0) + Fraction(v)
        sizes[r] = sizes.get(r, 0) + 1
    means = [sums[r] / sizes[r] for r in root.tolist()]
    return (np.array([float(c) for c in means]),
            np.array([float(Fraction(v) - c) for v, c in zip(x.tolist(), means)]))


def brute_divergence(g, h):
    # reference implementation with explicit loops
    out = np.zeros(g.vertex_count)
    for k, (tail, head) in enumerate(g.edges):
        out[head] += h[k]
        out[tail] -= h[k]
    return out


def test_construction_rejects_bad_edges():
    with pytest.raises(ValidationError, match="self-loop at vertex 0"):
        OrientedGraph(3, [(0, 0), (1, 2)])
    with pytest.raises(ValidationError,
                       match="duplicate or antiparallel edge between 0 and 1"):
        OrientedGraph(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValidationError,
                       match="duplicate or antiparallel edge between 1 and 0"):
        OrientedGraph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValidationError, match="graph must be connected"):
        OrientedGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match=r"edge \(0, 3\) out of vertex range"):
        OrientedGraph(3, [(0, 3), (1, 2)])
    with pytest.raises(ValidationError, match=r"\(tail, head\) pairs"):
        OrientedGraph(3, [(0, 1, 2), (1, 2, 0)])
    # the first bad edge in input order is the one reported
    with pytest.raises(ValidationError, match="self-loop at vertex 2"):
        OrientedGraph(3, [(0, 1), (2, 2), (1, 0), (0, 5)])
    # endpoints and vertex counts must be integers, not values numpy
    # would cast to one
    for edges in ([(0, 1.7), (1, 2)], [(0, 1.0), (1, 2)], [("0", "1"), ("1", "2")],
                  [(0, True), (1, 2)], [(True, False)], np.array([[0.0, 1.0], [1.0, 2.0]])):
        with pytest.raises(ValidationError, match="endpoints must be integers"):
            OrientedGraph(3, edges)
    for count in (2.5, 3.0, "3", True):
        with pytest.raises(ValidationError, match="vertex_count must be an integer"):
            OrientedGraph(count, [(0, 1), (1, 2)])
    # so must sizes and grid coordinates, where int() would truncate them
    grid = cartesian_graph(3, 3)
    for build, cause in ((lambda: cartesian_graph(3.7, 2.2), "grid side"),
                         (lambda: cartesian_graph(3, True), "grid side"),
                         (lambda: path_graph(4.9), "path length"),
                         (lambda: OrientedGraph(9, grid.edges, cartesian=(3.7, 3.2), grid_coords=[
                             (i + 0.9, j + 0.5) for i, j in grid.grid_coords]), "cartesian shape"),
                         (lambda: OrientedGraph(9, grid.edges, cartesian=(3, 3), grid_coords=[
                             (i + 0.9, j + 0.5) for i, j in grid.grid_coords]), "grid coordinate")):
        with pytest.raises(ValidationError, match=cause + " must be an integer"):
            build()
    # numpy integers stay valid, and so does one vertex with no edges
    g = OrientedGraph(np.int64(3), np.array([[0, 1], [1, 2]], dtype=np.int32))
    assert g.edges == ((0, 1), (1, 2))
    assert OrientedGraph(3, [(np.int64(0), np.int64(1)), (1, 2)]).edges == g.edges
    assert OrientedGraph(1, []).edge_count == 0
    assert cartesian_graph(np.int64(3), np.int32(3)).edges == grid.edges
    assert path_graph(np.int64(5)).vertex_count == 5
    coords = [(np.int64(i), np.int64(j)) for i, j in grid.grid_coords]
    assert OrientedGraph(9, grid.edges, cartesian=(np.int64(3), 3),
                         grid_coords=coords).grid_coords == grid.grid_coords


def test_edge_index_lookup():
    g, _ = nonequivalence_instance()
    for k, (tail, head) in enumerate(g.edges):
        assert g.edge_index(tail, head) == k
    tail, head = g.edges[0]
    with pytest.raises(ValidationError, match="no edge"):
        g.edge_index(head, tail)


def test_divergence_matches_brute_force():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        g = random_connected_graph(rng)
        h = rng.normal(size=g.edge_count)
        assert np.abs(divergence(g, h) - brute_divergence(g, h)).max() < TOL


def test_index_kernel_adjoint_matches_brute_force():
    # the unvalidated index kernel that every solver iteration applies
    rng = np.random.default_rng(SEED + 6)
    for _ in range(25):
        g = random_connected_graph(rng)
        h = rng.normal(size=g.edge_count)
        u = rng.normal(size=g.vertex_count)
        assert np.abs(g._div(h) - brute_divergence(g, h)).max() < TOL
        brute_adjoint = np.array([u[head] - u[tail] for tail, head in g.edges])
        assert np.array_equal(g._div_adjoint(u), brute_adjoint)
        assert np.array_equal(g._div_adjoint(u), -edge_differences(g, u))
        assert np.array_equal(dense_divergence(g).T @ u, g._div_adjoint(u))
        assert abs(float(g._div(h) @ u) - float(h @ g._div_adjoint(u))) < 1e-9


def test_divergence_sums_to_zero():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        g = random_connected_graph(rng)
        h = rng.normal(size=g.edge_count)
        assert abs(divergence(g, h).sum()) < 1e-9


def test_divergence_adjoint_to_differences():
    # <div h, u> = -<h, differences(u)>
    rng = np.random.default_rng(SEED + 2)
    for _ in range(25):
        g = random_connected_graph(rng)
        h = rng.normal(size=g.edge_count)
        u = rng.normal(size=g.vertex_count)
        lhs = float(divergence(g, h) @ u)
        rhs = -float(h @ edge_differences(g, u))
        assert abs(lhs - rhs) < 1e-9


def test_total_variation_figure_instance():
    g, f = nonequivalence_instance()
    assert abs(total_variation(g, f) - 1048.0) < TOL


def test_total_variation_orientation_invariant():
    rng = np.random.default_rng(SEED + 3)
    g = random_connected_graph(rng)
    u = rng.normal(size=g.vertex_count)
    # every other edge flipped
    g2 = OrientedGraph(g.vertex_count, [(b, a) if k % 2 == 0 else (a, b)
                                        for k, (a, b) in enumerate(g.edges)])
    assert abs(total_variation(g, u) - total_variation(g2, u)) < TOL


def test_incidence_operator_norm_bound():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        g = random_connected_graph(rng)
        d = dense_divergence(g)
        top = np.linalg.norm(d @ d.T, ord=2)
        assert top <= 2.0 * g.max_degree + 1e-9


def test_sign_pattern_thresholding():
    g = two_vertex_graph()  # single edge v0 -> v1
    pat = sign_pattern(g, np.array([0.0, 10.0]))
    assert pat.labels.tolist() == [-1]  # tail minus head = 0 - 10
    pat = sign_pattern(g, np.array([10.0, 0.0]))
    assert pat.labels.tolist() == [1]
    # differences below flat_tol * scale collapse to zero
    pat = sign_pattern(g, np.array([0.0, 1e-9]), scale=1.0)
    assert pat.labels.tolist() == [0]
    assert pat.all_flat


def test_sign_pattern_label_range():
    assert SignPattern([-1, 0, 1]).labels.tolist() == [-1, 0, 1]
    assert len(SignPattern([])) == 0
    for bad in ([0, 2], [-2, 1], [[0, 1]]):
        with pytest.raises(ValidationError):
            SignPattern(bad)


def _reference_trees(g, flat):
    # each cluster's breadth-first tree from its smallest vertex, taking a
    # vertex's edges out of it, then those into it, each in increasing
    # order, as (order, up, tree, sign); a Python loop over a list of
    # (neighbour, edge, direction) per vertex
    adj = [[] for _ in range(g.vertex_count)]
    for e, (a, b) in enumerate(g.edges):
        adj[a].append((b, e, 1.0))
    for e, (a, b) in enumerate(g.edges):
        adj[b].append((a, e, -1.0))
    seen, trees = set(), []
    for root in range(g.vertex_count):
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
        trees.append((order, up, tree, sign))
    return trees


def test_flat_clusters_match_union_find():
    # the clusters of a kernel's flat edges; its pinned edges label +1
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 5)
    for _ in range(25):
        g = random_connected_graph(rng)
        flat = rng.random(g.edge_count) < 0.5
        u = random_vertex_field(rng, g.vertex_count)
        # reference: union-find over the flat edges, then a mean per root
        root = list(range(g.vertex_count))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for k in np.flatnonzero(flat):
            root[find(int(g.tails[k]))] = find(int(g.heads[k]))
        roots = np.array([find(v) for v in range(g.vertex_count)])
        expected = np.array([u[roots == r].mean() for r in roots])
        kernel = PatternKernel(g, SignPattern(np.where(flat, 0, 1)))
        smallest, labels, _ = numbering(kernel)
        assert smallest.size == np.unique(roots).size
        # the spanning trees of the reference search, a vertex with no
        # flat edge a tree of its own
        for k, ref in enumerate(_reference_trees(g, flat)):
            c = cluster_of(kernel, smallest[k])
            assert (c.order, c.up, c.tree, c.sign) == ref
        same = roots[:, None] == roots[None, :]
        assert np.array_equal(same, labels[:, None] == labels[None, :])
        assert np.abs(_cluster_mean(kernel.root, u) - expected).max() < 1e-12
        # the flow on the spanning forest, each tree's peeled, realizes any
        # divergence that sums to zero per cluster
        r = u - expected
        forest, rs = np.zeros(g.edge_count), r.tolist()
        for v0 in smallest:
            c = cluster_of(kernel, v0)
            forest[c.tree] = c.peel([rs[v] for v in c.order])
        assert np.abs(divergence(g, forest) - r).max() < 1e-12


def test_max_flow_known_min_cut():
    from graphtv.graph import max_flow
    # the textbook network of Cormen et al., section 26.2: value 23, and the
    # cut closest to the source is {s, v1, v2, v4}
    arcs = [(0, 1, 16, 0), (0, 2, 13, 0), (2, 1, 4, 0), (1, 3, 12, 0),
            (3, 2, 9, 0), (2, 4, 14, 0), (4, 3, 7, 0), (3, 5, 20, 0),
            (4, 5, 4, 0)]
    value, flows, cut = max_flow(6, arcs, 0, 5)
    assert value == 23
    assert cut == [True, True, True, False, True, False]
    net = [0] * 6
    for (a, b, cap, back), x in zip(arcs, flows):
        assert -back <= x <= cap
        net[a] -= x
        net[b] += x
    assert net == [-23, 0, 0, 0, 0, 23]
    # an undirected edge carries flow against its listed orientation
    value, flows, cut = max_flow(4, [(0, 2, 5, 0), (1, 2, 3, 3), (1, 3, 5, 0)], 0, 3)
    assert (value, flows, cut) == (3, [3, -3, 3], [True, False, True, False])
    # level graphs deeper than the recursion limit
    n = 5000
    value, _, cut = max_flow(n, [(k, k + 1, 1, 0) for k in range(n - 1)], 0, n - 1)
    assert value == 1 and cut == [True] + [False] * (n - 1)


def test_route_demands_batches_disjoint_parts():
    # batched cluster tests rest on this: in one max-flow over
    # disjoint parts, each part gets the verdict and the reached set it
    # gets alone, from any start within its capacities
    from graphtv.graph import route_demands
    from graphtv.instances import cartesian_graph
    g = cartesian_graph(8, 8)
    tails, heads = g.tails.tolist(), g.heads.tolist()
    # eight 2x4 blocks of the row-major grid
    block = [(v // 16) * 2 + (v % 8) // 4 for v in range(64)]
    rng = np.random.default_rng(SEED + 5)
    verdicts = []
    for _ in range(12):
        parts = []
        for b in range(8):
            vertices = [v for v in range(64) if block[v] == b]
            edges = [j for j in range(g.edge_count)
                     if block[tails[j]] == b and block[heads[j]] == b]
            demand = rng.integers(-3, 4, len(vertices))
            demand[-1] -= demand.sum()
            parts.append((vertices, edges, int(rng.integers(1, 4)), demand.tolist()))
        start = [0] * g.edge_count
        for _, edges, cap, _ in parts:
            for j in edges:
                start[j] = int(rng.integers(-cap, cap + 1))
        met, reached = route_demands(parts, tails, heads, list(start))
        for part, ok in zip(parts, met):
            for flow in (list(start), [0] * g.edge_count):
                alone, alone_reached = route_demands([part], tails, heads, flow)
                assert alone == [ok]
                assert alone_reached == reached & set(part[0])
            verdicts.append(ok)
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


def test_pattern_box_pins_nonflat_edges():
    # the box the tests draw members from, and the flow membership
    # certifies a member with, which lies in it
    g, f = nonequivalence_instance()
    pat = sign_pattern(g, f)
    box = pattern_box(pat)
    pinned = pat.nonflat
    assert np.all(box.lower[pinned] == box.upper[pinned])
    assert np.all(box.lower[pinned] == -pat.labels[pinned])
    assert np.all(box.lower[~pinned] == -1.0)
    assert np.all(box.upper[~pinned] == 1.0)
    res = subdifferential_membership(g, f, divergence(g, box_point(box, np.random.default_rng(SEED))))
    assert res.member and box.contains(res.witness)


def test_membership_two_vertex():
    # dJ(u) at u = (0, 10) is {div H : H = -1} = {(-1, 1)}
    g = two_vertex_graph()
    u = np.array([0.0, 10.0])
    res = subdifferential_membership(g, u, np.array([-1.0, 1.0]))
    assert res.member
    assert res.residual <= res.threshold
    res = subdifferential_membership(g, u, np.array([1.0, -1.0]))
    assert not res.member
    res = subdifferential_membership(g, u, np.array([-0.5, 0.5]))
    assert not res.member  # interior scaling is not in the face


def test_membership_definition_random():
    # every member must satisfy the subgradient inequality against random h
    rng = np.random.default_rng(SEED + 5)
    g = random_connected_graph(rng, max_vertices=8)
    u = random_vertex_field(rng, g.vertex_count)
    pat = sign_pattern(g, u)
    box = pattern_box(pat)
    h_flow = box_point(box, rng)
    cand = divergence(g, h_flow)
    res = subdifferential_membership(g, u, cand)
    assert res.member
    ju = total_variation(g, u)
    for _ in range(50):
        w = random_vertex_field(rng, g.vertex_count)
        assert total_variation(g, w) >= ju + float(cand @ (w - u)) - 1e-7


def test_membership_scales_with_alpha():
    g, f = nonequivalence_instance()
    # optimality of the regularized solution: (f - u)/alpha in dJ(u)
    from graphtv import rof_solve
    sol = rof_solve(g, f, 1.0)
    res = subdifferential_membership(g, sol.u, f - sol.u)
    assert res.member


def test_membership_runs_no_iterative_solve(monkeypatch):
    # membership is the kernel's exact cluster test: no projection runs
    # and no solve tolerance is read
    import graphtv.engine
    import graphtv.graph
    from graphtv import rof_solve
    from graphtv.instances import cartesian_graph

    def refuse(*args, **kwargs):
        raise AssertionError("iterative solve")

    assert not hasattr(graphtv.graph, "project_onto_div_box")
    g, f = nonequivalence_instance()
    sol = rof_solve(g, f, 1.0)
    monkeypatch.setattr(graphtv.engine, "project_onto_div_box", refuse)
    assert subdifferential_membership(g, sol.u, f - sol.u).member
    assert not subdifferential_membership(g, sol.u, 2.0 * (f - sol.u)).member
    grid = cartesian_graph(6, 6)
    rng = np.random.default_rng(SEED + 6)
    cand = divergence(grid, rng.uniform(-1.0, 1.0, grid.edge_count))
    loose = Tolerances(solve_tol=1e300)
    res = subdifferential_membership(grid, np.zeros(36), cand, loose)
    assert res.member and res.report.iterations == 0
    cand[0] += 1e-6
    assert not subdifferential_membership(grid, np.zeros(36), cand, loose).member


def _membership_draw(rng, k):
    # a graph, a field u (tied values in half the draws) and a candidate:
    # the divergence of a point of u's pattern box with some flat edges at
    # a corner (a member), scaled out by 1.5, or perturbed by 1e-3
    from graphtv.instances import cartesian_graph
    g = (cartesian_graph(3 + k % 4, 3 + (k // 4) % 4) if k % 2
         else random_connected_graph(rng, max_vertices=10))
    n = g.vertex_count
    u = (rng.integers(0, 3, n).astype(float) if (k // 3) % 2
         else random_vertex_field(rng, n))
    box = pattern_box(sign_pattern(g, u))
    h = box_point(box, rng)
    corner = rng.uniform(size=h.size) < 0.3
    h[corner] = np.where(rng.uniform(size=int(corner.sum())) < 0.5,
                         box.lower[corner], box.upper[corner])
    cand = divergence(g, h)
    if k % 3 == 1:
        cand = 1.5 * cand
    elif k % 3 == 2:
        cand = cand + 1e-3 * rng.normal(size=n)
    return g, u, cand, box


def test_membership_agrees_with_projection():
    # the verdict of a projection onto the pattern box's divergence image
    # at solve_tol 1e-9, and its distance, which the kernel's residual
    # bounds from above
    from graphtv.engine import project_onto_div_box
    rng = np.random.default_rng(SEED + 40)
    verdicts = set()
    for k in range(240):
        g, u, cand, box = _membership_draw(rng, k)
        res = subdifferential_membership(g, u, cand)
        h, rep = project_onto_div_box(g, cand, box, Tolerances(solve_tol=1e-9))
        assert rep.converged
        distance = float(np.linalg.norm(divergence(g, h) - cand))
        assert res.member == (distance <= 1e-7 * (1.0 + np.linalg.norm(cand)))
        assert res.residual >= distance - 1e-9
        if res.member:
            assert res.residual <= 1e-10 * np.sqrt(g.vertex_count) * (1.0 + np.abs(cand).max())
            assert np.abs(res.witness).max() <= 1.0
        verdicts.add((res.member, res.report.method))
    assert verdicts == {(True, "kkt-forest"), (True, "kkt-maxflow"),
                        (False, "kkt-forest"), (False, "kkt-maxflow")}


def test_membership_max_flow_member():
    # u constant on a 6x6 grid: one cluster, whose forest flow of the
    # divergence of a random flow in [-1, 1] leaves the box
    from graphtv.instances import cartesian_graph
    g = cartesian_graph(6, 6)
    rng = np.random.default_rng(SEED + 7)
    cand = divergence(g, rng.uniform(-1.0, 1.0, g.edge_count))
    res = subdifferential_membership(g, np.full(36, 2.0), cand)
    assert res.member and res.report.method == "kkt-maxflow"
    assert np.abs(res.witness).max() <= 1.0
    assert np.abs(divergence(g, res.witness) - cand).max() <= res.threshold


def test_membership_residual_ignores_blas_threads():
    # a random candidate at a random u on a 128x128 grid, under one and
    # under two BLAS threads in fresh processes: u has no flat edge, so no
    # max-flow runs, and the residual, a sum over 16384 vertices, must have
    # the same bits.  A BLAS dot product (np.linalg.norm) splits it over
    # threads, and on this draw its last bit followed their number
    import os
    import subprocess
    import sys

    import graphtv
    src = os.path.dirname(os.path.dirname(graphtv.__file__))
    code = ("import numpy as np, graphtv as gt\n"
            "from graphtv.instances import cartesian_graph, random_vertex_field\n"
            "rng = np.random.default_rng(%d)\n"
            "g = cartesian_graph(128, 128)\n"
            "u = random_vertex_field(rng, g.vertex_count)\n"
            "res = gt.subdifferential_membership(g, u, rng.normal(size=g.vertex_count))\n"
            "print(res.member, res.report.method, res.residual.hex())\n" % (SEED + 14))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0].startswith("False kkt-forest ")
    assert outs[0] == outs[1]


def test_membership_flips_at_the_reported_threshold():
    # the threshold a membership verdict reports is the cutoff of the one
    # witness check: a candidate off the subdifferential by just under it
    # is a member, by just over it is not.  The error sits at a vertex with
    # no flat edge, where the witness leaves the whole error
    rng = np.random.default_rng(SEED + 12)
    g = cartesian_graph(4, 4)
    u = rng.integers(0, 3, g.vertex_count).astype(float)
    pat = sign_pattern(g, u)
    alone = np.flatnonzero(np.bincount(np.concatenate([g.tails[pat.flat], g.heads[pat.flat]]),
                                       minlength=g.vertex_count) == 0)
    assert alone.size
    cand = divergence(g, box_point(pattern_box(pat), rng))
    base = subdifferential_membership(g, u, cand)
    assert base.member
    for v in alone:
        for factor, member in ((0.99, True), (1.01, False)):
            bent = cand.copy()
            bent[v] += factor * base.threshold
            res = subdifferential_membership(g, u, bent)
            assert res.member is member
            assert (res.report.optimality <= res.threshold) is member


def test_coupled_groups_cover_grid_edges():
    g, _ = nonequivalence_instance()
    groups = g.coupled_groups()
    sizes = sorted(len(grp) for grp in groups)
    # 3x3 grid: 4 interior pair groups and singletons for the border edges
    assert sizes.count(2) == 4
    covered = sorted(k for grp in groups for k in grp)
    assert covered == list(range(g.edge_count))


def test_coupled_groups_and_edges_keep_their_order():
    # the group order decides the isotropic solve's summation bits; the
    # instance's vertex order is a permutation of the grid's
    g, _ = nonequivalence_instance()
    assert g.edges == ((1, 0), (2, 1), (3, 1), (1, 4), (5, 0), (0, 6), (3, 5), (4, 6),
                       (8, 3), (8, 2), (2, 7), (7, 4))
    assert g.coupled_groups() == ((7, 5), (0, 4), (6,), (11, 3), (1, 2), (8,), (10,), (9,))
    g = cartesian_graph(3, 4)
    assert g.edges == ((4, 0), (1, 0), (5, 1), (2, 1), (6, 2), (3, 2), (7, 3), (8, 4),
                       (5, 4), (9, 5), (6, 5), (10, 6), (7, 6), (11, 7), (9, 8), (10, 9),
                       (11, 10))
    assert g.coupled_groups() == ((0, 1), (2, 3), (4, 5), (6,), (7, 8), (9, 10), (11, 12),
                                  (13,), (14,), (15,), (16,))


def test_cartesian_and_connectivity_rejections():
    grid = cartesian_graph(3, 3)
    edges, coords = list(grid.edges), list(grid.grid_coords)

    def build(edges=edges, shape=(3, 3), coords=coords):
        return OrientedGraph(9, edges, cartesian=shape, grid_coords=coords)

    assert build().coupled_groups() == grid.coupled_groups()
    reversed_one = [(b, a) if k == 4 else (a, b) for k, (a, b) in enumerate(edges)]
    for bad, cause in (
            (lambda: build(coords=None), "cartesian graphs require grid_coords"),
            (lambda: build(coords=coords[:-1]), "grid_coords must list every vertex"),
            (lambda: build(coords=coords + [(1, 1)]), "grid_coords must list every vertex"),
            (lambda: build(coords=coords[:4] + [(4, 1)] + coords[5:]),
             r"grid coordinate \(4, 1\) out of range"),
            (lambda: build(coords=coords[:4] + [(2, 0)] + coords[5:]),
             r"grid coordinate \(2, 0\) out of range"),
            (lambda: build(coords=coords[:4] + [(1, 2)] + coords[5:]),
             r"duplicate grid coordinate \(1, 2\)"),
            (lambda: build(edges=reversed_one), "edge set does not match the Cartesian grid"),
            (lambda: build(edges=edges[:-1]), "edge set does not match the Cartesian grid"),
            (lambda: build(edges=edges + [(4, 0)]), "edge set does not match the Cartesian grid"),
            (lambda: build(edges=edges[:-1] + [(8, 4)]),
             "edge set does not match the Cartesian grid"),
            (lambda: build(edges=edges[:-1] + [(2, 0)]),
             "edge set does not match the Cartesian grid"),
            (lambda: build(coords=coords[1:2] + coords[:1] + coords[2:]),
             "edge set does not match the Cartesian grid"),
            (lambda: build(shape=(2, 3)), r"cartesian shape \(2, 3\) inconsistent with 9"),
            (lambda: build(shape=(9, 0)), r"cartesian shape \(9, 0\) inconsistent with 9"),
            (lambda: OrientedGraph(2, []), "graph must be connected"),
            (lambda: OrientedGraph(5, [(0, 1), (1, 2), (3, 4)]), "graph must be connected")):
        with pytest.raises(ValidationError, match=cause):
            bad()


def test_tolerances_validation():
    with pytest.raises(ValidationError):
        Tolerances(flat_tol=0.0)
    with pytest.raises(ValidationError):
        Tolerances(solve_tol=-1e-9)
    # a bool is not a number of the threshold's kind, though it compares as 1
    for bad in (dict(flat_tol=True), dict(solve_tol=True)):
        with pytest.raises(ValidationError):
            Tolerances(**bad)


def _kernel_bytes(kernel, t):
    # what an advanced kernel must reproduce, as bytes.  The clusters' tests
    # are dropped first: a stored flow comes from a max-flow with another
    # start
    for c in kernel._of.values():
        c.tests = None
    if kernel.f is None:
        kernel.prove(Fraction(0), Fraction(0))
    failed = np.array(sorted(kernel._failing))
    parts = [*numbering(kernel)[1:], kernel.pattern.labels,
             kernel.pinned, kernel.slope, kernel.beta, np.asarray(kernel.intercept),
             np.asarray(kernel.pull), failed, kernel._forest, kernel.witness()]
    if kernel.f is not None:
        parts.append(kernel.witness(t))
    return [x.tobytes() for x in parts]


def _check_values(kernel, labels):
    # the kernel's values against numpy's arithmetic, in which a kernel was
    # built before it advanced in place: a pinned edge inside a cluster
    # turns flat, and the sums of the pinned flux run in vertex order, as
    # np.bincount sums.  The intercept is the exact cluster mean of f,
    # rounded once, and so is the pull f - c
    g, root = kernel.graph, kernel.root
    inside = (labels != 0) & (root[g.tails] == root[g.heads])
    pattern = np.where(inside, 0, labels).astype(np.int8)
    pinned = divergence(g, -pattern.astype(float))
    slope = -_cluster_mean(root, pinned)
    expected = [pattern, pinned, slope, pinned + slope]
    actual = [kernel.pattern.labels, kernel.pinned, kernel.slope, kernel.beta]
    if kernel.f is not None:
        expected += list(_exact_means(root, kernel.f))
        actual += [kernel.intercept, kernel.pull]
    assert [x.tobytes() for x in actual] == [x.tobytes() for x in expected]


def _advance_chains(seed):
    # random fusions, splits along random cuts, single vertices split off,
    # vertices with no flat edge fused into a neighbour's cluster and
    # relabelled edges on grids, random graphs and paths, with and without
    # a datum, from tied data and from untied data, where every vertex is
    # its own cluster.  Each kernel advances as the event loop advances
    # it, by a dict of the edges relabelled; it must then equal the kernel
    # built from scratch from its labels, byte for byte.  A kernel without a datum keeps the witness that its
    # certificate checked on each cluster as it formed, which must equal
    # that of the kernel built from scratch, from its forest flows and
    # max-flows run afresh, bit for bit
    from fractions import Fraction
    from graphtv.graph import PatternKernel
    from graphtv.instances import cartesian_graph, path_graph
    rng = np.random.default_rng(seed)
    graphs = [cartesian_graph(6, 6), cartesian_graph(4, 7), path_graph(40)]
    graphs += [random_connected_graph(rng) for _ in range(3)]
    for g in graphs:
        n, m = g.vertex_count, g.edge_count
        f = random_vertex_field(rng, n)
        # a negative zero, which a cluster's mean of f turns positive
        f[rng.integers(n)] = -0.0
        ties = sign_pattern(g, rng.integers(0, 3, n).astype(float))
        for start, datum in ((ties, None), (ties, f), (sign_pattern(g, f), None),
                             (sign_pattern(g, f), f)):
            kernel = PatternKernel(g, start, datum)
            for _ in range(30):
                labels = kernel.pattern.labels.copy()
                _, cl, sizes = numbering(kernel)
                move = rng.integers(5)
                if move == 0:
                    changed = rng.choice(m, rng.integers(1, 4))
                    labels[changed] = 0
                elif move == 1:
                    k = cl[rng.integers(n)]
                    side = rng.random(n) < 0.5
                    cut = (cl[g.tails] == k) & (side[g.tails] != side[g.heads])
                    labels[cut] = np.where(side[g.heads[cut]], -1, 1)
                    changed = np.flatnonzero(cut)
                elif move == 2:
                    changed = rng.choice(m, rng.integers(1, 4))
                    labels[changed] = rng.integers(-1, 2, changed.size)
                else:
                    # move 3 pins every edge at a vertex; move 4 sets flat
                    # one edge at a vertex with no flat edge
                    alone = np.flatnonzero(sizes[cl] == 1)
                    v = rng.integers(n) if move == 3 or not alone.size else rng.choice(alone)
                    at = np.flatnonzero((g.tails == v) | (g.heads == v))
                    if move == 3:
                        changed = at
                        labels[at] = rng.choice([-1, 1], at.size)
                    else:
                        changed = [rng.choice(at)]
                        labels[changed] = 0
                fresh = PatternKernel(g, SignPattern(labels), datum)
                kernel.advance(Fraction(0), {int(e): labels[e] for e in changed})
                _check_values(kernel, labels)
                if datum is None:
                    kernel.prove(Fraction(0), Fraction(0))
                    fresh.prove(Fraction(0), Fraction(0))
                    assert kernel.witness().tobytes() == fresh.witness().tobytes()
                t = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
                assert _kernel_bytes(kernel, t) == _kernel_bytes(fresh, t)
                if datum is not None:
                    # the sums a fusion carries, against those summed anew
                    e = int(rng.integers(m))
                    assert kernel.meet(e) == fresh.meet(e)


def test_successor_equals_a_kernel_built_from_scratch(monkeypatch):
    import graphtv.graph
    _advance_chains(SEED + 9)
    # an advance whose search drops a born vertex with no flat edge, or
    # leaves one part of a split cluster with its old label, must fail the
    # comparison
    grow, advance = graphtv.graph._grow, graphtv.graph.PatternKernel.advance

    def drop_a_vertex(born, ones):
        return born, ones[:-1]

    def skip_a_part(born, ones):
        return (born if len(born) < 2 else born[:-1]), ones

    for drop in (drop_a_vertex, skip_a_part):
        def mutated(self, t, relabel, drop=drop):
            monkeypatch.setattr(graphtv.graph, "_grow", lambda *args: drop(*grow(*args)))
            try:
                return advance(self, t, relabel)
            finally:
                monkeypatch.setattr(graphtv.graph, "_grow", grow)

        monkeypatch.setattr(graphtv.graph.PatternKernel, "advance", mutated)
        with pytest.raises(AssertionError):
            _advance_chains(SEED + 9)


def test_patterns_stay_immutable():
    # a kernel copies the pattern it is given and advances its own labels:
    # the pattern given keeps its labels, and the kernel's pattern is a
    # view of the kernel's labels that rejects writes, before and after an
    # advance
    from graphtv.graph import PatternKernel
    g = cartesian_graph(4, 4)
    f = random_vertex_field(np.random.default_rng(SEED + 12), g.vertex_count)
    given = sign_pattern(g, np.round(2.0 * f))
    before = given.labels.copy()
    kernel = PatternKernel(g, given, f)
    edge = int(np.flatnonzero(given.labels)[0])
    for step in range(2):
        with pytest.raises(ValueError):
            kernel.pattern.labels[edge] = 0
        if step == 0:
            kernel.advance(Fraction(0), {edge: 0})
    assert kernel.pattern.labels[edge] == 0
    assert given.labels.tobytes() == before.tobytes()


def _exact_lines(kernel):
    # each vertex's line (c, s) as fractions, from its cluster's exact sums
    from fractions import Fraction
    unit, exact = kernel._exact
    lines = []
    for v in range(kernel.graph.vertex_count):
        c = kernel._of.get(int(kernel.root[v]))
        (b, total), size = ((int(kernel.pinned[v]), exact[v]), 1) if c is None else (
            c.sums, len(c.order))
        lines.append((Fraction(total) / (unit * size), Fraction(-b, size)))
    return lines


def test_kernel_without_a_datum_carries_its_lines():
    # a kernel without a datum starts its lines at the cluster means of u
    # and keeps their sum through each advance's events at the exact
    # parameter at = 1 / t: on every new cluster, the sum of the new lines at `at`
    # is that of the lines before, exactly, and each float intercept is its
    # exact line rounded once.  Random fusions, cuts and relabelled edges,
    # as in the chains above, on tied and untied starts
    from fractions import Fraction
    from graphtv.graph import PatternKernel
    from graphtv.instances import cartesian_graph
    rng = np.random.default_rng(SEED + 10)
    for g in (cartesian_graph(6, 6), path_graph(40), random_connected_graph(rng)):
        n, m = g.vertex_count, g.edge_count
        u = random_vertex_field(rng, n)
        for start in (sign_pattern(g, rng.integers(0, 3, n).astype(float)),
                      sign_pattern(g, u)):
            kernel = PatternKernel(g, start, u=u)
            lines = _exact_lines(kernel)
            for r in numbering(kernel)[0]:
                verts = cluster_of(kernel, r).verts
                assert lines[verts[0]][0] == sum(map(Fraction, u[verts])) / len(verts)
            at = Fraction(0)
            for _ in range(30):
                labels = kernel.pattern.labels.copy()
                cl = numbering(kernel)[1]
                move = rng.integers(3)
                if move == 0:
                    changed = rng.choice(m, rng.integers(1, 4))
                    labels[changed] = 0
                elif move == 1:
                    k = cl[rng.integers(n)]
                    side = rng.random(n) < 0.5
                    cut = (cl[g.tails] == k) & (side[g.tails] != side[g.heads])
                    labels[cut] = np.where(side[g.heads[cut]], -1, 1)
                    changed = np.flatnonzero(cut)
                else:
                    changed = rng.choice(m, rng.integers(1, 4))
                    labels[changed] = rng.integers(-1, 2, changed.size)
                at += Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
                before = lines
                kernel.advance(1 / at, {e: labels[e] for e in changed.tolist()})
                lines = _exact_lines(kernel)
                root = kernel.root
                for r in np.unique(root).tolist():
                    verts = np.flatnonzero(root == r).tolist()
                    assert (sum(c + at * s for c, s in (lines[v] for v in verts))
                            == sum(c + at * s for c, s in (before[v] for v in verts)))
                assert kernel.intercept.tolist() == [float(c) for c, _ in lines]


def test_every_intercept_is_its_exact_cluster_mean_rounded_once():
    # one line model: every intercept of a kernel, built from scratch or
    # advanced, with or without a datum, is the exact mean of its
    # cluster's data, rounded once, and so is a datum's pull f - c.  With a datum the data are f, through
    # fusions, cuts and relabelled edges; without one, the field u, whose
    # sums fusions add up.  Values of many magnitudes, ties and a -0.0; a
    # float mean summed in vertex order is off in its last bit on some
    from fractions import Fraction
    from graphtv.graph import PatternKernel
    rng = np.random.default_rng(SEED + 11)
    off = 0
    for g in (cartesian_graph(6, 6), cartesian_graph(4, 7), path_graph(40),
              random_connected_graph(rng), random_connected_graph(rng)):
        n, m = g.vertex_count, g.edge_count
        data = random_vertex_field(rng, n) * 10.0 ** rng.uniform(-3, 3, n)
        data[rng.integers(n)] = -0.0
        start = sign_pattern(g, rng.integers(0, 3, n).astype(float))
        for datum in (True, False):
            kernel = PatternKernel(g, start, data) if datum else PatternKernel(g, start, u=data)
            for step in range(25):
                root = kernel.root
                exact, pull = _exact_means(root, data)
                assert kernel.intercept.tobytes() == exact.tobytes(), (datum, step)
                if datum:
                    assert kernel.pull.tobytes() == pull.tobytes(), step
                off += int((_cluster_mean(root, data) != exact).sum())
                labels = kernel.pattern.labels.copy()
                cl = numbering(kernel)[1]
                move = rng.integers(3) if datum else 0
                if move == 0:
                    changed = rng.choice(m, rng.integers(1, 4))
                    labels[changed] = 0
                elif move == 1:
                    k = cl[rng.integers(n)]
                    side = rng.random(n) < 0.5
                    cut = (cl[g.tails] == k) & (side[g.tails] != side[g.heads])
                    labels[cut] = np.where(side[g.heads[cut]], -1, 1)
                    changed = np.flatnonzero(cut)
                else:
                    changed = rng.choice(m, rng.integers(1, 4))
                    labels[changed] = rng.integers(-1, 2, changed.size)
                kernel.advance(Fraction(int(rng.integers(1, 40)), 7),
                               {int(e): labels[e] for e in changed})
    assert off > 0


def test_lone_vertices_keep_the_signed_zeros_of_the_cluster_loop():
    # a vertex with no flat edge is set in bulk with the float operations
    # of the loop over a cluster: its slope is -(b / 1), -0.0 where its
    # pinned flux b is 0, its exact mean of f rounded once is 0.0 + f, 0.0
    # for a datum of -0.0, and its exact pull f - c is 0.0, also on a
    # graph with no edge
    from graphtv.graph import PatternKernel
    for g, labels, slope in ((OrientedGraph(1, []), [], [-0.0]),
                             (OrientedGraph(3, [(0, 1), (2, 1)]), [1, 1], [-1.0, 2.0, -1.0]),
                             (OrientedGraph(3, [(0, 1), (1, 2)]), [1, 1], [-1.0, -0.0, 1.0])):
        kernel = PatternKernel(g, SignPattern(labels), np.full(g.vertex_count, -0.0))
        assert kernel.slope.tobytes() == np.array(slope).tobytes()
        assert kernel.beta.tobytes() == np.zeros(g.vertex_count).tobytes()
        assert kernel.intercept.tobytes() == np.zeros(g.vertex_count).tobytes()
        assert kernel.pull.tobytes() == np.zeros(g.vertex_count).tobytes()


def test_kernel_keeps_under_400_bytes_per_vertex():
    # a kernel keeps a fixed set of per-vertex and per-edge arrays, and a
    # Cluster only for each cluster with a flat edge; with a Cluster of
    # five lists per vertex and a tuple per edge end it kept 620-880 bytes
    # per vertex here.  The inputs are built outside the traced window
    import tracemalloc
    from graphtv import rof_solve
    from graphtv.graph import PatternKernel
    from graphtv.instances import cartesian_graph, path_graph
    for g, alpha in ((path_graph(20000), 0.1), (cartesian_graph(64, 64), 0.1),
                     (cartesian_graph(64, 64), 2.0)):
        f = random_vertex_field(np.random.default_rng(0), g.vertex_count)
        pattern = sign_pattern(g, rof_solve(g, f, alpha).u)
        tracemalloc.start()
        try:
            kernel = PatternKernel(g, pattern, f)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert numbering(kernel)[0].size < g.vertex_count
        assert kept < 400 * g.vertex_count, (g, alpha, kept / g.vertex_count)


def test_graph_keeps_under_64_bytes_per_vertex():
    # a graph keeps its tail and head index arrays and the degrees; with a
    # tuple per edge and a dict entry per edge it kept about 232 bytes per
    # vertex here.  The edge list is built outside the traced window
    import tracemalloc
    n = 10 ** 5
    edges = [(i + 1, i) for i in range(n - 1)]
    tracemalloc.start()
    try:
        g = OrientedGraph(n, edges)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.edge_count == n - 1
    assert kept < 64 * n, kept / n


def test_graph_construction_peaks_under_10_mb():
    # the constructor of a 10^5-vertex path, edge list built outside the
    # traced window, peaks at 7.6 MB here: its checks' temporaries die
    # before the connectivity sweep, which marks a byte per vertex and
    # keeps one queue.  A cluster search with every edge flat, with its
    # lists and seen set, took it to 25.4 MB
    import tracemalloc
    n = 10 ** 5
    edges = [(i + 1, i) for i in range(n - 1)]
    tracemalloc.start()
    try:
        OrientedGraph(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak / 2 ** 20
    with pytest.raises(ValidationError, match="graph must be connected"):
        OrientedGraph(n, edges[:n // 2] + edges[n // 2 + 1:])


def test_next_fusion_with_no_closing_edge():
    # lines that move every pinned edge's ends apart, or a pattern with no
    # pinned edge, close no edge: x is inf and the mask all False.  The
    # differences and rates across the edges come back either way
    from graphtv.graph import next_fusion
    g = path_graph(4)
    u = np.array([0.0, 1.0, 3.0, 6.0])
    pattern = sign_pattern(g, u)
    assert pattern.nonflat.all()
    for pat, d in ((pattern, 2.0 * u), (SignPattern(np.zeros(g.edge_count)), -u)):
        x, closing, gaps, rates = next_fusion(g, pat, u, d)
        assert x == math.inf
        assert closing.dtype == bool and closing.shape == (g.edge_count,)
        assert not closing.any()
        assert gaps.tobytes() == edge_differences(g, u).tobytes()
        assert rates.tobytes() == edge_differences(g, d).tobytes()
    x, closing, _, _ = next_fusion(g, pattern, u, -u)
    assert x == 1.0 and closing.all()
