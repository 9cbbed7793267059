"""k-cycle packing algorithms.

Covers the TSP-splitting constructions (tour -> k-paths -> k-cycles), the
matching-based construction for odd k, and the two contraction-based
algorithms for k = 4 (general and metric).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graph import (
    HamiltonianCycle,
    KCyclePacking,
    KPathPacking,
    Matching,
    WeightedCompleteGraph,
    cycle_weight,
    is_metric,
    make_matching,
    matching_weight,
    require_divisible,
)
from .matching import (
    max_weight_matching_of_size,
    max_weight_perfect_matching,
    max_weight_perfect_matching_matrix,
)
from .tsp import exact_max_tsp, split_cycle_best_offset

TspSolver = Callable[[WeightedCompleteGraph], HamiltonianCycle]


@dataclass(frozen=True)
class EdgeGroupPlan:
    """Partition of a size-p matching into groups plus isolated vertices.

    ``groups[i]`` is a list of matching edges; ``isolated[i]`` is the vertex
    (int, cycle construction) or ordered vertex pair (path construction)
    spliced into group i.
    """

    groups: tuple
    isolated: tuple

    def matching(self) -> Matching:
        return make_matching(e for grp in self.groups for e in grp)


def _warn_if_not_metric(g, algo: str, stacklevel: int = 3) -> None:
    # ratio guarantees, not validity, depend on metricity, so warn not abort;
    # a private helper one call below the public function passes stacklevel=4
    # so that the warning points at the caller of the public function
    if g.class_tag in ("metric", "one_two"):
        return
    ok, triple = is_metric(g)
    if not ok:
        warnings.warn(
            f"{algo}: input is not metric (violating triple {triple}); "
            "the approximation guarantee does not apply",
            stacklevel=stacklevel,
        )


def complete_paths(g: WeightedCompleteGraph, P: KPathPacking) -> KCyclePacking:
    """Close each path v1..vk into the cycle v1..vk v1."""
    return KCyclePacking(k=P.k, cycles=tuple(P.paths))


def cycle_candidates_from_path(path: Sequence[int]):
    """The k-1 closures of a path: C_j = v1..vj vk v(k-1)..v(j+1) v1."""
    k = len(path)
    for j in range(1, k):
        yield tuple(path[:j]) + tuple(reversed(path[j:]))


def best_cycle_from_path(g: WeightedCompleteGraph, path: Sequence[int]) -> tuple:
    """Heaviest of the k-1 closures; ties to the smallest index."""
    best = None
    best_w = -1
    for cand in cycle_candidates_from_path(path):
        cw = cycle_weight(g, cand)
        if cw > best_w:
            best_w = cw
            best = cand
    return best


def alg1_metric_kcp(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KCyclePacking:
    """Tour -> plain best-offset split -> plain completion.

    Output weight is at least (1 - 1/k) of the tour weight on every input.
    """
    require_divisible(g.n, k)
    return _alg1(g, k, tsp_solver(g))[0]


def _alg1(g: WeightedCompleteGraph, k: int, H: HamiltonianCycle):
    """Alg.1 on the tour H; returns (packing, the split k-path packing)."""
    _warn_if_not_metric(g, "alg1", stacklevel=4)
    P = split_cycle_best_offset(g, H, k, objective="plain")
    return complete_paths(g, P), P


def alg2_metric_kcp_even(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KCyclePacking:
    """Tour -> pairing-aware split -> best closure per path (even k).

    On metric inputs the output weight is at least
    (1 - 1/k + 1/(k(k-1))) of the tour weight.
    """
    if k % 2 != 0:
        raise ValueError("alg2 needs even k")
    require_divisible(g.n, k)
    return _alg2(g, k, tsp_solver(g))[0]


def _alg2(g: WeightedCompleteGraph, k: int, H: HamiltonianCycle):
    """Alg.2 on the tour H; returns (packing, the split k-path packing whose
    i-th path closes into the i-th cycle)."""
    _warn_if_not_metric(g, "alg2", stacklevel=4)
    P = split_cycle_best_offset(g, H, k, objective="alg2")
    cycles = tuple(best_cycle_from_path(g, p) for p in P.paths)
    return KCyclePacking(k=k, cycles=cycles), P


# ---------------------------------------------------------------------------
# Alg.3: matching-based construction for odd k


def default_plan(
    g: WeightedCompleteGraph, matching: Matching, groups: int, iso_per_group: int
) -> EdgeGroupPlan:
    """Deterministic plan: edges sorted by descending weight fill the groups
    round-robin; isolated vertices are assigned in ascending id order."""
    edges = sorted(matching.edges, key=lambda e: (-g.weight(*e), e))
    grp = [[] for _ in range(groups)]
    for i, e in enumerate(edges):
        grp[i % groups].append(e)
    iso = sorted(set(range(g.n)) - matching.covered())
    if len(iso) != groups * iso_per_group:
        raise ValueError("isolated vertex count mismatch")
    if iso_per_group == 1:
        assigned = tuple(iso)
    else:
        assigned = tuple(
            tuple(iso[i * iso_per_group : (i + 1) * iso_per_group])
            for i in range(groups)
        )
    return EdgeGroupPlan(groups=tuple(tuple(x) for x in grp), isolated=assigned)


def _order_group_edges(g: WeightedCompleteGraph, edges: Sequence[tuple]) -> list:
    """Two heaviest edges at positions 1 and m, the rest descending between."""
    s = sorted(edges, key=lambda e: (-g.weight(*e), e))
    if len(s) <= 2:
        return list(s)
    return [s[0]] + s[2:] + [s[1]]


def _best_orientation(
    g: WeightedCompleteGraph, ends: Sequence[int], edges: Sequence[tuple]
) -> list:
    """Orient each group edge to maximize the spliced chain weight.

    The chain ends[0] t1 h1 ... tm hm ends[1] (for a cycle, ends = (v, v))
    gains w(h_i, t_(i+1)) between consecutive edges, so a two-state DP along
    the chain (edge i kept or flipped) finds the exact maximum.  Among the
    maxima it returns the one with the least flip integer sum(2^i over the
    flipped i), preferring "kept" from the last edge down.  The exact
    maximum dominates the uniform-random expectation, so the (3m+1)/(2m)
    per-group bound is preserved.
    """
    # ori[i][f]: edge i kept (f = 0) or flipped; ends[1] closes the chain as
    # one more "edge" whose two states are alike
    ori = [(e, (e[1], e[0])) for e in edges] + [((ends[1], ends[1]),) * 2]
    # best[i][f]: heaviest connectors from ends[0] up to the tail of ori[i][f]
    best = [[g.weight(ends[0], ori[0][f][0]) for f in (0, 1)]]
    for i in range(1, len(ori)):
        best.append([
            max(best[i - 1][p] + g.weight(ori[i - 1][p][1], ori[i][f][0]) for p in (0, 1))
            for f in (0, 1)
        ])
    f, chain = 0, []
    for i in range(len(edges), 0, -1):
        tail = ori[i][f][0]
        f = next(
            p for p in (0, 1)
            if best[i - 1][p] + g.weight(ori[i - 1][p][1], tail) == best[i][f]
        )
        chain.append(ori[i - 1][f])
    return chain[::-1]


def alg3_matching_kcp_odd(
    g: WeightedCompleteGraph, k: int, plan: Optional[EdgeGroupPlan] = None
) -> KCyclePacking:
    """Matching-based k-cycle packing for odd k.

    Takes a maximum-weight matching of size (n/k)(k-1)/2, splices one isolated
    vertex into each group of (k-1)/2 edges, and orients the edges to maximize
    each group's cycle.  A plan override reproduces adversarial fixtures; it
    must use a matching of optimal weight.
    """
    if k % 2 == 0 or k < 3:
        raise ValueError("alg3 needs odd k >= 3")
    require_divisible(g.n, k)
    return _splice_matching(g, k, "cycle", plan)[0]


def _splice_matching(
    g: WeightedCompleteGraph, k: int, kind: str, plan: Optional[EdgeGroupPlan]
):
    """Alg.3 (cycles, odd k) and Alg.5 (paths, even k): a maximum-weight
    matching of size (n/k)m in groups of m = (k-1)/2 resp. (k-2)/2 edges,
    each group spliced with its isolated vertex resp. endpoint pair.

    Returns (packing, the plan used).
    """
    iso = 1 if kind == "cycle" else 2
    _warn_if_not_metric(g, "alg3" if kind == "cycle" else "alg5", stacklevel=4)
    groups = g.n // k
    p = groups * ((k - iso) // 2)
    opt_matching = max_weight_matching_of_size(g, p)
    if plan is None:
        plan = default_plan(g, opt_matching, groups, iso_per_group=iso)
    else:
        got = plan.matching()
        if got.size != p or matching_weight(g, got) != matching_weight(g, opt_matching):
            raise ValueError("plan inconsistent with the maximum-weight matching")
    blocks = []
    for edges, ends in zip(plan.groups, plan.isolated):
        ends = (ends, ends) if kind == "cycle" else ends
        oriented = _best_orientation(g, ends, _order_group_edges(g, edges))
        block = (ends[0],) + tuple(v for e in oriented for v in e)
        blocks.append(block if kind == "cycle" else block + (ends[1],))
    if kind == "cycle":
        return KCyclePacking(k=k, cycles=tuple(blocks)), plan
    return KPathPacking(k=k, paths=tuple(blocks)), plan


# ---------------------------------------------------------------------------
# k = 4 contraction algorithms


def _contract_best_connector(g: WeightedCompleteGraph, mstar: Matching):
    """Collapse each matching edge to a super-vertex; between two
    super-vertices keep the heaviest of the four connecting edges."""
    ed = mstar.edges
    s = len(ed)
    wmat = [[0] * s for _ in range(s)]
    conn = {}
    for i in range(s):
        for j in range(i + 1, s):
            best = None
            best_w = -1
            for x in ed[i]:
                for y in ed[j]:
                    wxy = g.weight(x, y)
                    if wxy > best_w:
                        best_w = wxy
                        best = (x, y)
            wmat[i][j] = wmat[j][i] = best_w
            conn[(i, j)] = best
    return wmat, conn


def alg6_general_4cp(
    g: WeightedCompleteGraph, matching_override: Optional[Matching] = None
):
    """Contraction-based general 4CP.

    Returns (cycle packing, the intermediate 4-path packing P4); the path
    packing weight equals w(M*) + w(contracted matching).
    """
    require_divisible(g.n, 4)
    return _alg6(g, matching_override or max_weight_perfect_matching(g))[:2]


def _alg6(g: WeightedCompleteGraph, mstar: Matching):
    """Alg.6 on the perfect matching M*; returns (cycle packing, P4, weight
    of the maximum-weight perfect matching of the contracted graph)."""
    if 2 * mstar.size != g.n:
        raise ValueError("matching override is not perfect")
    wmat, conn = _contract_best_connector(g, mstar)
    super_match = max_weight_perfect_matching_matrix(wmat)
    paths = []
    for i, j in super_match:
        x, y = conn[(i, j)]
        u = next(z for z in mstar.edges[i] if z != x)
        z = next(t for t in mstar.edges[j] if t != y)
        paths.append((u, x, y, z))
    P4 = KPathPacking(k=4, paths=tuple(paths))
    return complete_paths(g, P4), P4, sum(wmat[i][j] for i, j in super_match)


def alg7_metric_4cp(
    g: WeightedCompleteGraph, matching_override: Optional[Matching] = None
) -> KCyclePacking:
    """Contraction-based metric 4CP.

    Between two matching edges ux and yz the two super-edges are the pairs
    {xy, zu} and {xz, yu}; keeping the heavier one and matching the
    super-vertices yields the maximum-weight 4-cycle packing containing every
    edge of M*.
    """
    require_divisible(g.n, 4)
    _warn_if_not_metric(g, "alg7")
    mstar = matching_override or max_weight_perfect_matching(g)
    if matching_override is not None and 2 * mstar.size != g.n:
        raise ValueError("matching override is not perfect")
    ed = mstar.edges
    s = len(ed)
    wmat = [[0] * s for _ in range(s)]
    config = {}
    for i in range(s):
        u, x = ed[i]
        for j in range(i + 1, s):
            y, z = ed[j]
            c1 = g.weight(x, y) + g.weight(z, u)  # cycle u x y z u
            c2 = g.weight(x, z) + g.weight(y, u)  # cycle u x z y u
            if c1 >= c2:
                wmat[i][j] = wmat[j][i] = c1
                config[(i, j)] = (u, x, y, z)
            else:
                wmat[i][j] = wmat[j][i] = c2
                config[(i, j)] = (u, x, z, y)
    super_match = max_weight_perfect_matching_matrix(wmat)
    cycles = tuple(config[(i, j)] for i, j in super_match)
    return KCyclePacking(k=4, cycles=cycles)
