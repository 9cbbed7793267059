"""MAX TSP solvers and the offset-based cycle-to-path splitters.

``_held_karp`` is the one subset-DP kernel of the package: a maximum-weight
Held-Karp over (subset, endpoint) states, vectorized per popcount layer.  It
gives the exact tour here, and the exact oracle's best k-cycles and k-paths
in ``oracles``.  Because the tour is exact, its weight dominates any
approximate tour, so every downstream ratio guarantee that is stated for an
approximate TSP black box remains valid with it plugged in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graph import (
    _INT64_MAX,
    HamiltonianCycle,
    KPathPacking,
    WeightedCompleteGraph,
    path_weight,
    require_divisible,
    tilde_weight,
)

EXACT_TSP_CAP = 18
# _UNSET marks a Held-Karp state with no path.  Every weight is below 2^63,
# so _UNSET plus one weight stays negative, below every real sum.
_UNSET = np.iinfo(np.int64).min


@lru_cache(maxsize=8)
def _masks_by_popcount(m: int):
    masks = np.arange(1 << m, dtype=np.int64)
    pc = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        pc += (masks >> j) & 1
    return [masks[pc == c] for c in range(m + 1)]


@lru_cache(maxsize=8)
def _popcount_rank(m: int) -> np.ndarray:
    """rank[mask]: the position of mask among the m-bit masks of its popcount."""
    rank = np.empty(1 << m, dtype=np.int64)
    for masks in _masks_by_popcount(m):
        rank[masks] = np.arange(masks.size)
    return rank


def _held_karp(w: np.ndarray, first: np.ndarray, top: int, anchored: bool):
    """Maximum-weight Held-Karp over the m vertices of the m x m matrix w.

    Yields the popcount layers 1..top: in the layer of popcount c, row
    rank[S] of the masks S of popcount c holds dp[S, j], the heaviest path
    through S ending at j, where a path starts at some v with weight
    first[v] (``anchored``: at v = min(S)).  States with no path hold _UNSET.
    """
    m = len(first)
    max_w = int(max(w.max(), first.max()))
    if (m + 1) * max_w > _INT64_MAX:
        raise ValueError(f"weights up to {max_w} overflow int64 sums of {m + 1} weights")
    layers = _masks_by_popcount(m)
    rank = _popcount_rank(m)
    dp = np.full((m, m), _UNSET, dtype=np.int64)
    np.fill_diagonal(dp, first)  # layer 1 lists 1 << v at row v
    yield dp
    for c in range(2, top + 1):
        masks = layers[c]
        nxt = np.full((masks.size, m), _UNSET, dtype=np.int64)
        for j in range(m):
            bit = 1 << j
            has = (masks & bit) != 0
            if anchored:
                has &= (masks & (bit - 1)) != 0  # j is not the start min(S)
            rows = np.flatnonzero(has)
            nxt[rows, j] = (dp[rank[masks[rows] ^ bit]] + w[:, j]).max(axis=1)
        dp = nxt
        yield dp


def exact_max_tsp(g: WeightedCompleteGraph) -> HamiltonianCycle:
    """Maximum-weight Hamiltonian cycle by dynamic programming.

    Held-Karp over the paths from vertex 0 through subsets of V \\ {0}; the
    tour closes back to vertex 0 and is read back from the last vertex,
    each step taking the first predecessor of maximum weight.
    """
    n = g.n
    if n > EXACT_TSP_CAP:
        raise ValueError(f"n={n} above exact TSP cap {EXACT_TSP_CAP}")
    if n == 3:
        return HamiltonianCycle((0, 1, 2))
    m = n - 1
    W = g.w[1:, 1:].astype(np.int64)  # W[i, j] = w(i+1, j+1)
    w0 = g.w[0, 1:].astype(np.int64)  # w(0, j+1)
    dps = list(_held_karp(W, w0, m, anchored=False))
    rank = _popcount_rank(m)
    mask = (1 << m) - 1
    j = int((dps[-1][0] + w0).argmax())
    order = [j]
    for c in range(m - 1, 0, -1):
        mask ^= 1 << j
        j = int((dps[c - 1][rank[mask]] + W[:, j]).argmax())
        order.append(j)
    return HamiltonianCycle((0,) + tuple(x + 1 for x in reversed(order)))


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
