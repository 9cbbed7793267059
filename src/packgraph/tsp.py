"""MAX TSP solvers and the offset-based cycle-to-path splitters.

The exact solver is a maximum-weight Held-Karp over (subset, endpoint)
states, vectorized per popcount layer.  Because it is exact, its tour weight
dominates any approximate tour, so every downstream ratio guarantee that is
stated for an approximate TSP black box remains valid with it plugged in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graph import (
    HamiltonianCycle,
    KPathPacking,
    WeightedCompleteGraph,
    path_weight,
    require_divisible,
    tilde_weight,
)

EXACT_TSP_CAP = 18
_NEG = np.int64(-(1 << 50))


@lru_cache(maxsize=8)
def _masks_by_popcount(m: int):
    masks = np.arange(1 << m, dtype=np.int64)
    pc = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        pc += (masks >> j) & 1
    return [masks[pc == c] for c in range(m + 1)]


def exact_max_tsp(g: WeightedCompleteGraph, cap: int = EXACT_TSP_CAP) -> HamiltonianCycle:
    """Maximum-weight Hamiltonian cycle by dynamic programming.

    States are (visited subset of V \\ {0}, last vertex); transitions add one
    vertex at a time and the tour closes back to vertex 0.
    """
    n = g.n
    if n > cap:
        raise ValueError(f"n={n} above exact TSP cap {cap}")
    if n == 3:
        return HamiltonianCycle((0, 1, 2))
    m = n - 1
    W = g.w[1:, 1:].astype(np.int64)  # W[i, j] = w(i+1, j+1)
    w0 = g.w[0, 1:].astype(np.int64)  # w(0, j+1)
    full = 1 << m
    dp = np.full((full, m), _NEG, dtype=np.int64)
    parent = np.full((full, m), -1, dtype=np.int8)
    for j in range(m):
        dp[1 << j, j] = w0[j]
    layers = _masks_by_popcount(m)
    for c in range(2, m + 1):
        masks = layers[c]
        for j in range(m):
            bit = np.int64(1 << j)
            sel = masks[(masks & bit) != 0]
            if sel.size == 0:
                continue
            cand = dp[sel ^ bit] + W[:, j]  # (s, m); invalid i stay hugely negative
            best = cand.argmax(axis=1)
            dp[sel, j] = cand[np.arange(sel.size), best]
            parent[sel, j] = best
    closing = dp[full - 1] + w0
    j = int(closing.argmax())
    order = [j]
    mask = full - 1
    while parent[mask, j] >= 0:
        i = int(parent[mask, j])
        mask ^= 1 << j
        j = i
        order.append(j)
    order.append(-1)  # placeholder for vertex 0
    tour = tuple([0] + [x + 1 for x in reversed(order[:-1])])
    return HamiltonianCycle(tour)


def heuristic_max_tsp(g: WeightedCompleteGraph) -> HamiltonianCycle:
    """Greedy heaviest-edge tour construction; deterministic, no ratio claim."""
    n = g.n
    edges = sorted(
        ((u, v) for u in range(n) for v in range(u + 1, n)),
        key=lambda e: (-g.weight(*e), e),
    )
    deg = [0] * n
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    adj = [[] for _ in range(n)]
    taken = 0
    for u, v in edges:
        if taken == n - 1:
            break
        if deg[u] >= 2 or deg[v] >= 2:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        comp[ru] = rv
        deg[u] += 1
        deg[v] += 1
        adj[u].append(v)
        adj[v].append(u)
        taken += 1
    # walk the single open path and close it
    start = next(x for x in range(n) if deg[x] <= 1)
    tour = [start]
    prev = -1
    cur = start
    while len(tour) < n:
        nxt = next(x for x in adj[cur] if x != prev)
        prev, cur = cur, nxt
        tour.append(cur)
    return HamiltonianCycle(tuple(tour))


def split_cycle_best_offset(
    g: WeightedCompleteGraph, H: HamiltonianCycle, k: int, objective: str = "plain"
) -> KPathPacking:
    """Delete every k-th tour edge at the best of the k rotations.

    Each path follows the tour direction starting just after a deleted edge.
    ``plain`` maximizes total path weight (>= (1-1/k) w(H) by averaging);
    ``alg2`` maximizes (k-2)*sum(w(P)) + 2*sum(tilde(P)) over the canonical
    odd-position pairing, which averages to ((k-1)^2+1)/k * w(H) for even k.
    """
    n = g.n
    require_divisible(n, k)
    if objective not in ("plain", "alg2"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "alg2" and k % 2 != 0:
        raise ValueError("alg2 objective needs even k")
    order = H.order
    best_val = None
    best_paths = None
    for r in range(k):
        paths = []
        for b in range(n // k):
            s = r + 1 + b * k
            paths.append(tuple(order[(s + i) % n] for i in range(k)))
        total = sum(path_weight(g, p) for p in paths)
        if objective == "plain":
            val = total
        else:
            val = (k - 2) * total + 2 * sum(tilde_weight(g, p) for p in paths)
        if best_val is None or val > best_val:
            best_val = val
            best_paths = paths
    return KPathPacking(k=k, paths=tuple(best_paths))


def split_objective_value(
    g: WeightedCompleteGraph, packing: KPathPacking, objective: str
) -> int:
    """Objective value of a k-path packing under a splitter objective."""
    total = sum(path_weight(g, p) for p in packing.paths)
    if objective == "plain":
        return total
    if objective == "alg2":
        return (packing.k - 2) * total + 2 * sum(
            tilde_weight(g, p) for p in packing.paths
        )
    raise ValueError(f"unknown objective {objective!r}")
