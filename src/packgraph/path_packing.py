"""k-path packing algorithms.

TSP-splitting (Alg.4-style), the matching-based construction for even k
(Alg.5-style), their combination, and the two 4-path packing algorithms.
"""

from __future__ import annotations

from typing import Optional

from .cycle_packing import (
    EdgeGroupPlan,
    TspSolver,
    _splice_matching,
    _warn_if_not_metric,
    alg6_general_4cp,
)
from .graph import (
    HamiltonianCycle,
    KPathPacking,
    Matching,
    WeightedCompleteGraph,
    packing_weight,
    require_divisible,
)
from .matching import max_weight_matching_of_size, max_weight_perfect_matching
from .tsp import exact_max_tsp, split_cycle_best_offset


def alg4_tsp_kpp(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KPathPacking:
    """Tour -> plain best-offset split; weight >= (1 - 1/k) of the tour."""
    require_divisible(g.n, k)
    return _alg4(g, k, tsp_solver(g))


def _alg4(g: WeightedCompleteGraph, k: int, H: HamiltonianCycle) -> KPathPacking:
    return split_cycle_best_offset(g, H, k, objective="plain")


def alg5_matching_kpp_even(
    g: WeightedCompleteGraph, k: int, plan: Optional[EdgeGroupPlan] = None
) -> KPathPacking:
    """Matching-based k-path packing for even k >= 4.

    Size-p matching with p = (n/k)(k-2)/2, groups of (k-2)/2 edges with two
    isolated endpoints each, orientations maximizing each spliced path.  On
    metric inputs the total weight is >= (3k-4)/(2k-4) of the matching weight.
    """
    if k % 2 != 0 or k < 4:
        raise ValueError("alg5 needs even k >= 4")
    require_divisible(g.n, k)
    return _splice_matching(g, k, "path", plan)[0]


def metric_kpp_combined(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KPathPacking:
    """Heavier of the TSP-split and matching-based packings (ties to the
    TSP route).  Guarantee (27k^2-48k+16)/(32k^2-36k-24) on metric inputs."""
    if k % 2 != 0 or k < 4:
        raise ValueError("combined kPP needs even k >= 4")
    require_divisible(g.n, k)
    return _kpp_combined(g, k, tsp_solver(g))[0]


def _kpp_combined(g: WeightedCompleteGraph, k: int, H: HamiltonianCycle):
    """Combined kPP on the tour H; returns (packing, the split packing, the
    matching-based packing, its plan)."""
    a = _alg4(g, k, H)
    b, plan = _splice_matching(g, k, "path", None)
    return (a if packing_weight(g, a) >= packing_weight(g, b) else b), a, b, plan


def general_4pp(
    g: WeightedCompleteGraph, matching_override: Optional[Matching] = None
) -> KPathPacking:
    """The 4-path packing produced by the general 4CP contraction."""
    _, P4 = alg6_general_4cp(g, matching_override)
    return P4


def alg8_metric_4pp(g: WeightedCompleteGraph) -> KPathPacking:
    """Metric 4PP: the heavier of the contraction packing and a size-n/4
    matching spliced with isolated endpoint pairs (14/17 guarantee).

    Endpoints are swapped so that w(u,x) + w(y,z) >= w(z,x) + w(y,u), which
    on metric inputs makes each path weigh at least twice its matching edge.
    """
    require_divisible(g.n, 4)
    return _alg8(g, max_weight_perfect_matching(g))[0]


def _alg8(g: WeightedCompleteGraph, mstar: Matching):
    """Alg.8 with M* for the contraction; returns (packing, the spliced
    packing, the size-n/4 matching it splices)."""
    _warn_if_not_metric(g, "alg8", stacklevel=4)
    P4 = general_4pp(g, mstar)
    mm = max_weight_matching_of_size(g, g.n // 4)
    iso = sorted(set(range(g.n)) - mm.covered())
    paths = []
    for i, (x, y) in enumerate(mm.edges):
        u, z = iso[2 * i], iso[2 * i + 1]
        if g.weight(u, x) + g.weight(y, z) >= g.weight(z, x) + g.weight(y, u):
            paths.append((u, x, y, z))
        else:
            paths.append((z, x, y, u))
    spliced = KPathPacking(k=4, paths=tuple(paths))
    pick = P4 if packing_weight(g, P4) >= packing_weight(g, spliced) else spliced
    return pick, spliced, mm
