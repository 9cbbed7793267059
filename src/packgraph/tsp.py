"""MAX TSP solver and the offset-based cycle-to-path splitters.

``_held_karp`` is the one subset-DP kernel of the package: a maximum-weight
Held-Karp over (subset, endpoint) states, vectorized per popcount layer.  It
gives the exact tour here, and the exact oracle's best k-cycles and k-paths
in ``oracles``.  Each layer is stored vertex-major, ``dp[j, rank[S]]``, so
that one step of the DP is an add and an elementwise max over contiguous
rows, taken for many path ends at once.  The layers hold the narrowest of
int16, int32 and int64 that the sum of m + 1 weights fits in; every sum
read back from them is taken in int64 or Python ints.  Because the tour is
exact, its weight dominates any approximate tour, so every downstream ratio
guarantee that is stated for an approximate TSP black box remains valid
with it plugged in.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

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
# the most entries the sums of one Held-Karp step take (unless one row of
# sums is larger): a layer whose path ends do not fit takes several steps
_STEP_BUDGET = 1 << 18


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


def _step_rows(size: int, m: int) -> int:
    """The path ends one Held-Karp step serves on a layer of ``size`` entries."""
    return min(m, max(1, _STEP_BUDGET // size))


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
    that end at each j are found once per layer, and the sources of the
    next layer's steps from them.

    One step serves a run of ends j at once: it adds the edges into them to
    the whole layer, takes the max over the source axis, and assigns the
    sources to the ends in row-major order, which pairs them as above
    because each row holds as many ends as sources.  A run spans as many
    rows as keep its sums within ``_STEP_BUDGET`` entries, at least one, so
    the middle layers of m = 17 still take one row per step.  All steps
    share one buffer for the sums, allocated once per call.
    """
    m = len(first)
    max_w = int(max(w.max(), first.max()))
    bound = (m + 1) * max_w
    if bound > _INT64_MAX:
        raise ValueError(f"weights up to {max_w} overflow int64 sums of {m + 1} weights")
    dtype = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    unset = np.iinfo(dtype).min
    wt = w.T.astype(dtype)  # wt[j, i] = w[i, j], the edge into the end j
    layers = _masks_by_popcount(m)
    bits = 1 << np.arange(m, dtype=np.int32)[:, None]
    dp = np.full((m, m), unset, dtype=dtype)
    np.fill_diagonal(dp, first)  # layer 1 lists 1 << v at column v
    yield dp
    # one buffer for the sums of every step, sized for the largest
    sizes = [m * comb(m, c) for c in range(1, top)]  # the layers the steps read
    buf = np.empty(max([_step_rows(s, m) * s for s in sizes], default=0), dtype=dtype)

    def tests(c):
        # row j of layer c: the masks S that end at j, j in S (anchored: and
        # j above the start min(S)), and, anchored, the masks with j above
        # min(S); int32 holds the masks (the 2^m of them are listed, so
        # m < 31) and halves the (m, C(m, c)) temporaries
        masks = layers[c].astype(np.int32)
        has = (masks & bits) != 0
        if not anchored:
            return has, None
        above = (masks & -masks) < bits
        return has & above, above

    ends, above = tests(1)
    for c in range(2, top + 1):
        # row j: the masks of layer c - 1 that j extends, those without j
        # (anchored: with a vertex below j), and the masks of layer c that
        # end at j
        sources = ~ends if above is None else above ^ ends
        ends, above = tests(c)
        nxt = np.full(ends.shape, unset, dtype=dtype)
        rows = _step_rows(dp.size, m)
        for j in range(0, m, rows):
            at = ends[j : j + rows]
            # sums[r, i, S] = dp[i, S] + w[i, j + r]; the max over i extends S to j + r
            sums = buf[: len(at) * dp.size].reshape(len(at), m, -1)
            np.add(dp, wt[j : j + rows, :, None], out=sums)
            nxt[j : j + rows][at] = np.maximum.reduce(sums, axis=1)[sources[j : j + rows]]
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
