"""An exact reference for the regularization path and the gradient flow.

Test-only code that shares no code with the library: it reads a graph's
``tails`` and ``heads`` only, computes in Fractions and runs no max-flow.

Clusters are the components of the flat edges, and each other edge keeps
its label, the sign of u(tail) - u(head).  With the pinned flux b(v), the
labels of the non-flat edges out of v less those into v, a cluster C of n
vertices moves on the line ``c + x * s`` with ``s = -b(C) / n``.  On the
path (x = alpha) c is the mean of f over C; on the flow (x = t) the line
goes through C's value where C formed.  A flow in [-1, 1] on C's edges with
divergence ``(f - c) / alpha - (b + s)`` exists exactly when
``p(S) <= alpha * (q(S) + cut(S))`` for every vertex subset S of C, with
p = f - c, q = b + s and cut(S) the number of C's edges between S and the
rest (Gale 1957; Hoffman 1960); the flow has p = 0.  Every subset is
enumerated.  A split lets the most violated subset rise, pinning the edges
that cross it; two clusters fuse where their lines meet across an edge.
Events at the same exact x share a segment.
"""

from fractions import Fraction


def _components(n, tails, heads, labels):
    # the clusters of the flat edges, as sorted vertex lists, and each
    # vertex's cluster; a labelled edge inside a cluster turns flat
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for e, label in enumerate(labels):
        if not label:
            parent[find(tails[e])] = find(heads[e])
    for e in range(len(labels)):
        if find(tails[e]) == find(heads[e]):
            labels[e] = 0
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    clusters = sorted(groups.values())
    of = [0] * n
    for i, verts in enumerate(clusters):
        for v in verts:
            of[v] = i
    return clusters, of


def _split(verts, tails, heads, b, f):
    # (x, S): the least x at which a subset's bound fails, and the most
    # violated subset there, the fastest growing and then the largest, as
    # a set; (None, None) if no bound ever fails.  f is None on the flow
    k, local = len(verts), {v: i for i, v in enumerate(verts)}
    nbr = [0] * k
    for t, h in zip(tails, heads):
        if t in local and h in local:
            nbr[local[t]] |= 1 << local[h]
            nbr[local[h]] |= 1 << local[t]
    # p and q scaled by n and by the largest denominator of f, a power of
    # two that every other divides
    den = 1 if f is None else max(f[v].denominator for v in verts)
    big_f = [0 if f is None else int(f[v] * den) for v in verts]
    sum_f, sum_b = sum(big_f), sum(b[v] for v in verts)
    p = [k * x - sum_f for x in big_f]
    q = [k * b[v] - sum_b for v in verts]
    size = 1 << k
    bp, bq, cut, count = [0] * size, [0] * size, [0] * size, [0] * size
    best = None
    for mask in range(1, size - 1):
        low = mask & -mask
        i, rest = low.bit_length() - 1, mask ^ low
        bp[mask], bq[mask] = bp[rest] + p[i], bq[rest] + q[i]
        cut[mask] = cut[rest] + bin(nbr[i]).count("1") - 2 * bin(nbr[i] & rest).count("1")
        count[mask] = count[rest] + 1
        r = den * (bq[mask] + k * cut[mask])
        if r < 0:
            # the bound p(S) <= x r / den fails beyond x = p(S) / r
            key = (Fraction(bp[mask], r), r, -count[mask])
            if best is None or key < best[0]:
                best = key, mask
    if best is None:
        return None, None
    return best[0][0], {v for i, v in enumerate(verts) if best[1] >> i & 1}


def trajectory(g, f, flow=False):
    """The exact path (``flow=False``, x = alpha) or flow (x = t) of the
    datum f: a list of segments ``(x, c, s)``, each from its exact start x
    on, where vertex v is at ``c[v] + x * s[v]``; the last segment starts
    at the final breakpoint, with s zero."""
    n, tails, heads = g.vertex_count, g.tails.tolist(), g.heads.tolist()
    f = [Fraction(v) for v in f.tolist()]
    labels = [(f[t] > f[h]) - (f[t] < f[h]) for t, h in zip(tails, heads)]
    x, value, segments, known = Fraction(0), f[:], [], {}
    for _ in range(16 * len(labels) + 64):
        while True:
            clusters, of = _components(n, tails, heads, labels)
            b = [0] * n
            for e, label in enumerate(labels):
                b[tails[e]] += label
                b[heads[e]] -= label
            lines, splits = [], []
            for verts in clusters:
                s = Fraction(-sum(b[v] for v in verts), len(verts))
                c = sum(f[v] for v in verts) / len(verts) if not flow else value[verts[0]] - x * s
                lines.append((c, s))
                key = tuple(verts), tuple(b[v] for v in verts)
                if key not in known:
                    known[key] = _split(verts, tails, heads, b, None if flow else f)
                splits.append(known[key])
            fusions = []
            for e, label in enumerate(labels):
                (ci, si), (cj, sj) = lines[of[tails[e]]], lines[of[heads[e]]]
                if label and label * (si - sj) < 0:
                    fusions.append(((cj - ci) / (si - sj), e))
            # the events due at x, splits first; else the next segment
            due = [side for at, side in splits if at is not None and at <= x]
            for side in due:
                for e, (t, h) in enumerate(zip(tails, heads)):
                    if (t in side) != (h in side) and of[t] == of[h]:
                        labels[e] = -1 if h in side else 1
            if not due:
                closed = [e for at, e in fusions if at <= x]
                for e in closed:
                    labels[e] = 0
                if not closed:
                    break
        segments.append((x, [lines[of[v]][0] for v in range(n)],
                         [lines[of[v]][1] for v in range(n)]))
        if not any(labels):
            return segments
        x = min([at for at, _ in splits if at is not None] + [at for at, _ in fusions])
        value = [c + x * s for c, s in zip(*segments[-1][1:])]
    raise AssertionError("event cap exceeded")


def breakpoints(segments):
    """The segments' starts, each rounded once, equal floats merged."""
    out = []
    for x, _, _ in segments:
        if not out or float(x) != out[-1]:
            out.append(float(x))
    return out


def value_at(segments, x):
    """The exact values at x, a Fraction."""
    _, c, s = [seg for seg in segments if seg[0] <= x][-1]
    return [ci + x * si for ci, si in zip(c, s)]
