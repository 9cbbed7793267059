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

The engine spends its time scanning the row of each vertex it pops.  Each
scan is one pass over ``zip(inblossom, dual, row)``: it computes every
slack once, calls an edge allowable exactly when its slack is zero (the
``_blossom`` docstring says why networkx's allowed-edge marks add nothing),
and compares against least slacks it keeps as ints.  Weights are read once
per row as Python ints (``ndarray.tolist``), never one numpy scalar at a
time.

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
    symmetric weight matrix (a numpy integer matrix, or lists of Python
    ints).  Returns sorted (u, v) pairs with u < v, after
    ``check_matching_certificate`` has accepted the engine's duals.  Only
    the upper triangle of ``w`` is read."""
    n = len(w)
    if n % 2 != 0:
        raise ValueError("perfect matching needs an even vertex count")
    rows = w.tolist() if hasattr(w, "tolist") else w
    w2 = [[0] * n for _ in range(n)]
    for u, (row, row2) in enumerate(zip(rows, w2)):
        for v in range(u + 1, n):
            row2[v] = w2[v][u] = 2 * row[v]
    mate, dual, blossoms = _blossom(w2)
    check_matching_certificate(rows, mate, dual, blossoms)
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
    upper triangle of ``w`` is read, a row at a time, all in exact integers;
    a failure names the first faulty pair in (i, j) order.
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
    rows = w.tolist() if hasattr(w, "tolist") else w
    for i in range(n):
        di, row, extra, mi = dual[i], rows[i], inner[i], mate[i]
        for j in range(i + 1, n):
            s = di + dual[j] - 2 * row[j] + extra[j]
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

    The slack of an edge between two top-level blossoms is ``dual[v] +
    dual[w] - w2[v][w]``, and it is never negative.  An edge is allowable
    exactly when its slack is 0, so no allowed-edge marks are kept.
    networkx marks an edge when it finds it tight (in a scan, as the delta
    edge, or on the path of an expanding T-blossom), and every marked edge
    has an endpoint labelled S at that moment.  An S vertex stays S for the
    rest of the stage and each delta lowers its dual, while the other
    endpoint's dual rises by at most that delta (T), or stays or falls
    (free or S).  So no delta raises a marked edge's slack above 0, and
    the marks only ever name edges whose slack is 0.

    ``freeslack[w]`` holds the slack of ``bestedge[w]`` (None with it) for
    the vertices whose own label is 0.  The edge's other end is S, so its
    slack falls by each delta while w's top-level blossom is free, stays
    while it is T, and is not read again once it is S; the delta step
    applies that.
    """
    n = len(w2)
    nb = 2 * n
    vertices = range(n)
    dual = [max(map(max, w2), default=0) // 2] * n
    mate = [-1] * n
    label = [0] * nb
    labeledge = [None] * nb
    bestedge = [None] * nb
    freeslack = [None] * n
    inblossom = list(range(n))
    parent = [-1] * nb
    base = list(range(n)) + [-1] * n
    childs = [None] * nb
    edges = [None] * nb
    mybest = [None] * nb
    zdual = {}  # blossom id -> z, in creation order
    free = list(range(nb - 1, n - 1, -1))
    queue = []

    def slack(e):
        return None if e is None else dual[e[0]] + dual[e[1]] - w2[e[0]][e[1]]

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
            bestedge[w] = bestedge[b] = freeslack[w] = None
            if t == 1:
                if b < n:
                    queue.append(b)
                else:
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
                for x in leaves(s) if s >= n else (s,):
                    dx = dual[x]
                    for y, by, dy, wy in zip(vertices, inblossom, dual, w2[x]):
                        if by != b and label[by] == 1:
                            ks = dx + dy - wy
                            old = bestto.get(by)
                            if old is None or ks < old[0]:
                                bestto[by] = ks, (x, y)
            else:
                for k in cand:
                    i, j = k if inblossom[k[1]] != b else k[::-1]
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
            jstep = 1 if j & 1 else -1
            if j & 1:
                j -= len(cb)
            v, w = labeledge[b]
            while j != 0:
                q = eb[j][1] if jstep == 1 else eb[j - 1][0]
                label[w] = label[q] = 0
                assign_label(w, 2, v)
                j += jstep
                if jstep == 1:
                    v, w = eb[j]
                else:
                    w, v = eb[j - 1]
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
        jstep = 1 if i & 1 else -1
        if i & 1:
            j -= len(cb)
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
        freeslack[:] = [None] * n
        for b in zdual:
            mybest[b] = None
        queue.clear()
        for v, b, m in zip(vertices, inblossom, mate):
            if m == -1 and b == v:
                label[v] = 1
                queue.append(v)
            elif m == -1 and label[b] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dv, row = dual[v], w2[v]
                # Only this scan and add_blossom write bestedge[bv] while v
                # is scanned, so its slack is kept here.
                be = bestedge[bv]
                bslack = None if be is None else dual[be[0]] + dual[be[1]] - w2[be[0]][be[1]]
                for w, bw, dw, x in zip(vertices, inblossom, dual, row):
                    if bw == bv:
                        continue
                    kslack = dv + dw - x
                    if kslack > 0:
                        # Not allowable: track least-slack edges.
                        if label[bw] == 1:
                            if bslack is None or kslack < bslack:
                                bestedge[bv], bslack = (v, w), kslack
                        elif label[w] == 0:
                            s = freeslack[w]
                            if s is None or kslack < s:
                                bestedge[w], freeslack[w] = (v, w), kslack
                        continue
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
                        bslack = slack(bestedge[bv])
                    elif label[w] == 0:
                        label[w] = 2
                        labeledge[w] = (v, w)
            if augmented:
                break

            # No augmenting path under the current duals: find the least
            # delta that admits a new edge or empties a T-blossom's dual.
            deltatype, delta, deltaedge, deltablossom = -1, 0, None, -1
            for v, bv, d in zip(vertices, inblossom, freeslack):
                if d is not None and label[bv] == 0 and (deltatype == -1 or d < delta):
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

            for v, bv in zip(vertices, inblossom):
                lb = label[bv]
                if lb == 1:
                    dual[v] -= delta
                elif lb == 2:
                    dual[v] += delta
                elif freeslack[v] is not None:
                    freeslack[v] -= delta
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
                queue.append(deltaedge[0])

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
