"""Exact maximum-weight matchings.

The engine, ``_blossom``, is Edmonds' primal-dual blossom method for a
maximum-weight matching of maximum cardinality, as written up by Z. Galil,
"Efficient Algorithms for Finding Maximum Matching in Graphs", ACM Computing
Surveys 18(1), 1986.  It is a port of networkx 3.6's
``max_weight_matching(G, maxcardinality=True)`` (BSD-3-Clause, Copyright (c)
2004-2025 NetworkX Developers) onto plain lists over a complete graph:
vertices are 0..n-1 and blossoms take ids n..2n-1 from a free list.  It makes
every choice networkx makes (neighbours scanned in ascending order, the queue
popped last in first out, the blossom leaves in networkx's order, the first
strict minimum in each delta scan, vertices before blossoms and blossoms in
creation order), so both return the same matching, ties included.  Weights
and duals are doubled and held as Python ints, so every quantity is exact
whatever the size of the weights.

Every engine result is checked by ``check_matching_certificate``: the vertex
and blossom duals the engine ends with must be feasible, tight on each
matched edge, and every blossom with a positive dual must be full, which
proves by LP duality that the matching is a maximum-weight perfect matching.
Size-constrained matchings go through the dummy-vertex reduction.  The
tests check the engine against an independent subset DP
(``tests/brute_force.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .graph import Matching, WeightedCompleteGraph, make_matching


def max_weight_perfect_matching_matrix(w: Sequence[Sequence[int]]) -> list:
    """Maximum-weight perfect matching of a complete graph given as a square
    symmetric weight matrix.  Returns sorted (u, v) pairs with u < v, after
    ``check_matching_certificate`` has accepted the engine's duals."""
    n = len(w)
    if n % 2 != 0:
        raise ValueError("perfect matching needs an even vertex count")
    w2 = [[0] * n for _ in range(n)]
    for u in range(n):
        row, row2 = w[u], w2[u]
        for v in range(u + 1, n):
            row2[v] = w2[v][u] = 2 * int(row[v])
    mate, dual, blossoms = _blossom(w2)
    check_matching_certificate(w, mate, dual, blossoms)
    return [(u, v) for u, v in enumerate(mate) if u < v]


def check_matching_certificate(
    w: Sequence[Sequence[int]], mate: list, dual: list, blossoms: list
) -> None:
    """Raise ``AssertionError`` unless the duals prove ``mate`` optimal.

    ``mate[v]`` is v's partner, ``dual[v]`` is twice v's dual and
    ``blossoms`` lists ``(vertices, z)`` pairs.  The certificate holds when
    ``mate`` is a perfect matching, every z is non-negative, every pair has
    ``dual[i] + dual[j] - 2 w(i, j) + 2 * sum(z of blossoms holding both)``
    non-negative and zero on matched pairs, and every blossom with positive z
    has an odd vertex count and is full, with all but one vertex matched
    inside it.  Then no perfect matching is heavier (LP duality).  Only the
    upper triangle of ``w`` is read, all in exact integers.
    """
    n = len(w)
    if len(mate) != n or len(dual) != n:
        raise AssertionError("certificate has the wrong size")
    for v, m in enumerate(mate):
        if not (0 <= m < n and m != v and mate[m] == v):
            raise AssertionError(f"vertex {v} is not perfectly matched")
    inner = [[0] * n for _ in range(n)]
    for verts, z in blossoms:
        if z < 0:
            raise AssertionError("negative blossom dual")
        if z == 0:
            continue
        members = set(verts)
        if len(members) % 2 == 0 or len(members) != len(verts):
            raise AssertionError("blossom is not an odd vertex set")
        if sum(mate[v] in members for v in verts) != len(verts) - 1:
            raise AssertionError("blossom with positive dual is not full")
        for i in verts:
            row = inner[i]
            for j in verts:
                row[j] += 2 * z
    for i in range(n):
        di, row, extra, mi = dual[i], w[i], inner[i], mate[i]
        for j in range(i + 1, n):
            s = di + dual[j] - 2 * int(row[j]) + extra[j]
            if s < 0:
                raise AssertionError(f"dual infeasible on edge ({i}, {j})")
            if s and mi == j:
                raise AssertionError(f"matched edge ({i}, {j}) is not tight")


def _trampoline(step, *args) -> None:
    """Run the generator ``step`` as a recursion on an explicit stack: each
    tuple it yields is the arguments of a nested call, run to completion
    before it resumes."""
    stack = [step(*args)]
    while stack:
        for nested in stack[-1]:
            stack.append(step(*nested))
            break
        else:
            stack.pop()


def _blossom(w2: list) -> tuple:
    """Maximum-weight maximum-cardinality matching of the complete graph with
    doubled weights ``w2`` (symmetric rows of Python ints, zero diagonal).

    Returns ``(mate, dual, blossoms)``: ``mate[v]`` (-1 if single), the
    doubled vertex duals, and ``(vertices, z)`` for every blossom left, in
    creation order.  Labels are 0 (free), 1 (S), 2 (T) and 5 (S with a
    breadcrumb); edges are ``(v, w)`` tuples and -1 stands for "none".
    """
    n = len(w2)
    nb = 2 * n
    vertices = range(n)
    dual = [max(map(max, w2), default=0) // 2] * n
    mate = [-1] * n
    label = [0] * nb
    labeledge = [None] * nb
    bestedge = [None] * nb
    inblossom = list(range(n))
    parent = [-1] * nb
    base = list(range(n)) + [-1] * n
    childs = [None] * nb
    edges = [None] * nb
    mybest = [None] * nb
    zdual = {}  # blossom id -> z, in creation order
    free = list(range(nb - 1, n - 1, -1))
    allow = []
    queue = []

    def slack(e):
        i, j = e
        return dual[i] + dual[j] - w2[i][j]

    def leaves(b):
        # networkx's order: a stack of sub-blossoms, popped from the end
        out = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w, t, v):
        # Give w's top-level blossom label t, reached from v (-1: none); a
        # T-blossom passes label S on to the mate of its base.
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = (v, w) if v >= 0 else None
            bestedge[w] = bestedge[b] = None
            if t == 1:
                queue.extend(leaves(b))
                return
            v = base[b]
            w, t = mate[v], 1

    def scan_blossom(v, w):
        # Trace back from v and w in turn, leaving breadcrumbs; return the
        # base of the new blossom, or -1 for an augmenting path.
        path = []
        top = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                top = base[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[b][0]
                v = labeledge[inblossom[v]][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return top

    def add_blossom(top, v, w):
        bb, bv, bw = inblossom[top], inblossom[v], inblossom[w]
        b = free.pop()
        base[b] = top
        parent[bb] = b
        path = []
        edgs = [(v, w)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            x, y = labeledge[bw]
            edgs.append((y, x))
            bw = inblossom[x]
        childs[b] = path
        edges[b] = edgs
        label[b] = 1
        labeledge[b] = labeledge[bb]
        zdual[b] = 0
        for x in leaves(b):
            if label[inblossom[x]] == 2:
                queue.append(x)
            inblossom[x] = b
        # (slack, least-slack edge) from b to each other S-blossom, in the
        # order they are first seen; a sub-blossom's own list, else its leaves
        # against every vertex outside b.
        bestto = {}
        for s in path:
            cand, mybest[s] = mybest[s], None
            if cand is None:
                cand = [(x, y) for x in leaves(s) for y in vertices if inblossom[y] != b]
            for k in cand:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1:
                    ks = dual[i] + dual[j] - w2[i][j]
                    if bj not in bestto or ks < bestto[bj][0]:
                        bestto[bj] = ks, k
            bestedge[s] = None
        mybest[b] = [k for _, k in bestto.values()]
        bestedge[b] = min(bestto.values(), key=itemgetter(0), default=(0, None))[1]

    def expand_blossom(b, endstage):
        for s in childs[b]:
            parent[s] = -1
            if s >= n and endstage and zdual[s] == 0:
                yield (s, endstage)
            else:
                for x in leaves(s):
                    inblossom[x] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms of an expanding T-blossom, from the
            # one it was entered through round to its base.
            cb, eb = childs[b], edges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = cb.index(entrychild)
            if j & 1:
                j -= len(cb)
                jstep = 1
            else:
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                if jstep == 1:
                    p, q = eb[j]
                else:
                    q, p = eb[j - 1]
                label[w] = label[q] = 0
                assign_label(w, 2, v)
                allow[p][q] = allow[q][p] = 1
                j += jstep
                if jstep == 1:
                    v, w = eb[j]
                else:
                    w, v = eb[j - 1]
                allow[v][w] = allow[w][v] = 1
                j += jstep
            bw = cb[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while cb[j] != entrychild:
                bv = cb[j]
                j += jstep
                if label[bv] == 1:
                    continue
                for v in leaves(bv):
                    if label[v]:
                        break
                if label[v]:
                    label[v] = 0
                    label[mate[base[bv]]] = 0
                    assign_label(v, 2, labeledge[v][0])
        label[b] = 0
        labeledge[b] = bestedge[b] = None
        childs[b] = edges[b] = mybest[b] = None
        parent[b] = base[b] = -1
        del zdual[b]
        free.append(b)

    def augment_blossom(b, v):
        # Swap matched and unmatched edges on the alternating path through
        # b from v to its base, and make v's sub-blossom the base.
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= n:
            yield (t, v)
        cb, eb = childs[b], edges[b]
        i = j = cb.index(t)
        if i & 1:
            j -= len(cb)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = cb[j]
            if jstep == 1:
                w, x = eb[j]
            else:
                x, w = eb[j - 1]
            if t >= n:
                yield (t, w)
            j += jstep
            t = cb[j]
            if t >= n:
                yield (t, x)
            mate[w] = x
            mate[x] = w
        childs[b] = cb[i:] + cb[:i]
        edges[b] = eb[i:] + eb[:i]
        base[b] = base[childs[b][0]]

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    _trampoline(augment_blossom, bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j = labeledge[bt]
                if bt >= n:
                    _trampoline(augment_blossom, bt, j)
                mate[j] = s

    while True:
        # One stage: grow alternating trees until an augmenting path is found.
        label[:] = [0] * nb
        labeledge[:] = [None] * nb
        bestedge[:] = [None] * nb
        for b in zdual:
            mybest[b] = None
        allow[:] = [bytearray(n) for _ in vertices]
        queue.clear()
        for v in vertices:
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dv, row, arow = dual[v], w2[v], allow[v]
                # Only this scan and add_blossom write bestedge[bv] while v
                # is scanned, so its slack is kept here.
                bslack = None if bestedge[bv] is None else slack(bestedge[bv])
                for w in vertices:
                    if w == v:
                        continue
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if not arow[w]:
                        kslack = dv + dual[w] - row[w]
                        if kslack > 0:
                            # Not allowable: track least-slack edges.
                            if label[bw] == 1:
                                if bslack is None or kslack < bslack:
                                    bestedge[bv], bslack = (v, w), kslack
                            elif label[w] == 0:
                                e = bestedge[w]
                                if e is None or kslack < dual[e[0]] + dual[e[1]] - w2[e[0]][e[1]]:
                                    bestedge[w] = (v, w)
                            continue
                        arow[w] = allow[w][v] = 1
                    lb = label[bw]
                    if lb == 0:
                        assign_label(w, 2, v)
                    elif lb == 1:
                        top = scan_blossom(v, w)
                        if top == -1:
                            augment_matching(v, w)
                            augmented = True
                            break
                        add_blossom(top, v, w)
                        bv = inblossom[v]
                        bslack = None if bestedge[bv] is None else slack(bestedge[bv])
                    elif label[w] == 0:
                        label[w] = 2
                        labeledge[w] = (v, w)
            if augmented:
                break

            # No augmenting path under the current duals: find the least
            # delta that admits a new edge or empties a T-blossom's dual.
            deltatype, delta, deltaedge, deltablossom = -1, 0, None, -1
            for v in vertices:
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        deltatype, delta, deltaedge = 2, d, bestedge[v]
            for b in (*vertices, *zdual):
                if parent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                    d = slack(bestedge[b]) // 2
                    if deltatype == -1 or d < delta:
                        deltatype, delta, deltaedge = 3, d, bestedge[b]
            for b, z in zdual.items():
                if parent[b] == -1 and label[b] == 2 and (deltatype == -1 or z < delta):
                    deltatype, delta, deltablossom = 4, z, b
            if deltatype == -1:
                # Maximum cardinality reached: a last delta makes the duals
                # a certificate.
                deltatype, delta = 1, max(0, min(dual, default=0))

            for v in vertices:
                lb = label[inblossom[v]]
                if lb == 1:
                    dual[v] -= delta
                elif lb == 2:
                    dual[v] += delta
            for b in zdual:
                if parent[b] == -1:
                    if label[b] == 1:
                        zdual[b] += delta
                    elif label[b] == 2:
                        zdual[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                _trampoline(expand_blossom, deltablossom, False)
            else:
                v, w = deltaedge
                allow[v][w] = allow[w][v] = 1
                queue.append(v)

        if not augmented:
            break
        # End of a stage: expand the top-level S-blossoms whose dual is zero.
        for b in list(zdual):
            if b in zdual and parent[b] == -1 and label[b] == 1 and zdual[b] == 0:
                _trampoline(expand_blossom, b, True)

    return mate, dual, [(leaves(b), z) for b, z in zdual.items()]


def max_weight_perfect_matching(g: WeightedCompleteGraph) -> Matching:
    if g.n % 2 != 0:
        raise ValueError(f"n={g.n} is odd; no perfect matching")
    return make_matching(max_weight_perfect_matching_matrix(g.w))


def max_weight_matching_of_size(g: WeightedCompleteGraph, p: int) -> Matching:
    """Maximum-weight matching among matchings of cardinality exactly p.

    Adds n-2p auxiliary vertices joined to every real vertex with a uniform
    weight exceeding the sum of all real weights (auxiliary pairs get 0), takes
    a maximum-weight perfect matching of the enlarged graph and discards the
    auxiliary edges.  With non-negative weights the restriction is optimal
    among exact-size-p matchings.
    """
    if p < 0 or 2 * p > g.n:
        raise ValueError(f"infeasible matching size p={p} for n={g.n}")
    if p == 0:
        return Matching(())
    n, d = g.n, g.n - 2 * p
    big = 1 + g.total_weight()
    w = [row + [big] * d for row in g.w.tolist()] + [[big] * n + [0] * d for _ in range(d)]
    edges = max_weight_perfect_matching_matrix(w)
    real = [e for e in edges if e[1] < n]
    if len(real) != p:
        raise AssertionError("dummy reduction produced wrong cardinality")
    return make_matching(real)
