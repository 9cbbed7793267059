"""Brute-force references the tests check the library against.

Each shares no code with what it checks: ``brute_force_optimal_packing``
enumerates partitions for the exact oracle's subset DP,
``brute_force_matching`` is a subset DP over free vertices for the blossom
matching engine, and ``brute_force_metric_violation`` walks every triple for
the vectorised triangle check.
"""

from functools import cache
from itertools import combinations, permutations

from packgraph.graph import (
    Matching,
    WeightedCompleteGraph,
    cycle_weight,
    make_matching,
    path_weight,
    require_divisible,
)

BRUTE_FORCE_MAX_N = 16


def brute_force_optimal_packing(
    g: WeightedCompleteGraph, k: int, kind: str = "cycle", max_n: int = 10
):
    """Pure partition enumeration, each block weighed over all its vertex
    orders; independent check of the DP for small n."""
    n = g.n
    require_divisible(n, k)
    if n > max_n:
        raise ValueError(f"n={n} above brute-force cap {max_n}")

    def block_weight(verts) -> int:
        weigh = cycle_weight if kind == "cycle" else path_weight
        return max(weigh(g, p) for p in permutations(verts))

    best = [-1]

    def rec(remaining: list, acc: int):
        if not remaining:
            if acc > best[0]:
                best[0] = acc
            return
        anchor = remaining[0]
        for rest in combinations(remaining[1:], k - 1):
            verts = (anchor,) + rest
            left = [v for v in remaining[1:] if v not in rest]
            rec(left, acc + block_weight(verts))

    rec(list(range(n)), 0)
    return best[0]


def brute_force_matching(g: WeightedCompleteGraph, p: int) -> Matching:
    """Maximum over all matchings of size exactly p, by an exact DP over the
    set of vertices still free: the lowest of them is either left unmatched
    or paired with a later one.  Shares no code with the blossom engine."""
    if p < 0 or 2 * p > g.n:
        raise ValueError(f"infeasible matching size p={p} for n={g.n}")
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError("instance above brute-force cap")
    n = g.n
    w = g.w.tolist()

    @cache
    def best(rest: int, r: int):
        # (weight, edges) of the heaviest r edges within the vertex set rest
        if r == 0:
            return 0, ()
        if rest.bit_count() < 2 * r:
            return None
        low = rest & -rest
        i = low.bit_length() - 1
        rest ^= low
        top = best(rest, r)
        for j in range(i + 1, n):
            if rest >> j & 1:
                wt, tail = best(rest ^ (1 << j), r - 1)
                wt += w[i][j]
                if top is None or wt > top[0]:
                    top = (wt, ((i, j),) + tail)
        return top

    return make_matching(best((1 << n) - 1, p)[1])


def brute_force_metric_violation(g: WeightedCompleteGraph):
    """The triple ``is_metric`` reports, one triple at a time: the first u,
    then the first v > u, with w(u,v) > w(u,x) + w(x,v) for the first x of
    least w(u,x) + w(x,v); None when every triangle holds."""
    w = g.w.tolist()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            x = min((x for x in range(g.n) if x not in (u, v)), key=lambda x: w[u][x] + w[x][v])
            if w[u][v] > w[u][x] + w[x][v]:
                return u, x, v
    return None
