"""MAX TSP solver and the offset-based cycle-to-path splitters.

``_held_karp`` is the one subset-DP kernel of the package: a maximum-weight
Held-Karp over (subset, endpoint) states, vectorized per popcount layer.  It
gives the exact tour here, and the exact oracle's best k-cycles and k-paths
in ``oracles``.  Each layer is stored vertex-major, ``dp[j, rank[S]]``, so
that one step of the DP is an add and an elementwise max over contiguous
rows.  The layers hold the narrowest of int16, int32 and int64 that the sum
of m + 1 weights fits in; every sum read back from them is taken in int64
or Python ints.  Because the tour is exact, its weight dominates any
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

    Yields the popcount layers 1..top: the layer of popcount c is an
    (m, C(m, c)) array whose column rank[S], for the masks S of popcount c,
    holds dp[j, S], the heaviest path through S ending at j, where a path
    starts at some v with weight first[v] (``anchored``: at v = min(S)).
    States with no path hold the least value of the layers' dtype.

    The dtype is int16 when m + 1 weights, a tour or a closed block, sum to
    at most 2^15 - 1, int32 when they sum to at most 2^31 - 1, else int64;
    heavier weights raise ValueError.  The no-path value plus one weight
    then stays below every real sum.

    A step extends each column of layer c - 1 by the edge to j, a max over
    the m contiguous rows, and keeps the masks without j (anchored: with a
    vertex below j).  Removing bit j keeps masks in order, so these are, in
    order, the sources of the masks of layer c that end at j.  The masks
    that end at each j, and their sources, are found once per layer, and
    the steps share one buffer for the sums.
    """
    m = len(first)
    max_w = int(max(w.max(), first.max()))
    bound = (m + 1) * max_w
    if bound > _INT64_MAX:
        raise ValueError(f"weights up to {max_w} overflow int64 sums of {m + 1} weights")
    dtype = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    unset = np.iinfo(dtype).min
    w = w.astype(dtype)
    layers = _masks_by_popcount(m)
    bits = 1 << np.arange(m, dtype=np.int32)[:, None]
    dp = np.full((m, m), unset, dtype=dtype)
    np.fill_diagonal(dp, first)  # layer 1 lists 1 << v at column v
    yield dp
    for c in range(2, top + 1):
        # int32 holds the masks (the 2^m of them are listed, so m < 31) and
        # halves the (m, C(m, c)) temporaries of the membership tests
        prev, masks = layers[c - 1].astype(np.int32), layers[c].astype(np.int32)
        # row j: the masks that end at j, and their sources, the masks without j
        ends = (masks & bits) != 0
        sources = (prev & bits) == 0
        if anchored:  # j is not the start min(S)
            ends &= (masks & -masks) < bits
            sources &= (prev & -prev) < bits
        nxt = np.full((m, masks.size), unset, dtype=dtype)
        buf = np.empty_like(dp)
        for j in range(m):
            np.add(dp, w[:, j, None], out=buf)
            nxt[j][ends[j]] = np.maximum.reduce(buf, axis=0)[sources[j]]
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
    j = int((dps[-1][:, 0] + w0).argmax())
    order = [j]
    for c in range(m - 1, 0, -1):
        mask ^= 1 << j
        j = int((dps[c - 1][:, rank[mask]] + W[:, j]).argmax())
        order.append(j)
    return HamiltonianCycle((0,) + tuple(x + 1 for x in reversed(order)))


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
    if objective == "alg2" and k % 2 != 0:
        raise ValueError("alg2 objective needs even k")
    order = H.order
    best_val = best = None
    for r in range(k):
        paths = tuple(
            tuple(order[(r + 1 + b * k + i) % n] for i in range(k)) for b in range(n // k)
        )
        P = KPathPacking(k=k, paths=paths)
        val = split_objective_value(g, P, objective)
        if best_val is None or val > best_val:
            best_val, best = val, P
    return best


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
