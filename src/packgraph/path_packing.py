"""k-path packing algorithms.

TSP-splitting (Alg.4), the matching-based construction for even k (Alg.5),
their combination, and the two 4-path packing algorithms.  Each is one
``AlgorithmSpec`` of ``cycle_packing``, defined with its body and audits,
and its public function is one call of that spec.
"""

from __future__ import annotations

from typing import Optional

from .cycle_packing import (
    METRIC,
    _NO_MAX,
    AuditEntry,
    EdgeGroupPlan,
    F,
    Run,
    TspSolver,
    _algorithm,
    _contract,
    _splice_matching,
    _split_tour,
)
from .graph import (
    WEIGHT_CLASSES,
    KPathPacking,
    Matching,
    WeightedCompleteGraph,
    matching_weight,
    packing_weight,
)
from .tsp import exact_max_tsp


@_algorithm("alg4", "path", range(3, _NO_MAX), dict.fromkeys(METRIC, lambda k: F(k - 1, k)))
def ALG4(r: Run):
    return _split_tour(r)


def alg4_tsp_kpp(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KPathPacking:
    """Tour -> plain best-offset split; weight >= (1 - 1/k) of the tour."""
    return ALG4(Run(g, k, tsp_solver))[0]


@_algorithm("alg5", "path", range(4, _NO_MAX, 2), dict.fromkeys(METRIC))
def ALG5(r: Run):
    return _splice_matching(r, "path")


def alg5_matching_kpp_even(
    g: WeightedCompleteGraph, k: int, plan: Optional[EdgeGroupPlan] = None
) -> KPathPacking:
    """Matching-based k-path packing for even k >= 4.

    Size-p matching with p = (n/k)(k-2)/2, groups of (k-2)/2 edges with two
    isolated endpoints each, orientations maximizing each spliced path.  On
    metric inputs the total weight is >= (3k-4)/(2k-4) of the matching weight.
    """
    return ALG5(Run(g, k, plan=plan))[0]


@_algorithm("kpp-combined", "path", range(4, _NO_MAX, 2), dict.fromkeys(
    METRIC, lambda k: F(27 * k * k - 48 * k + 16, 32 * k * k - 36 * k - 24)))
def KPP_COMBINED(r: Run):
    split, split_audits = _split_tour(r)
    spliced, group_audits = _splice_matching(r, "path")
    pick = split if packing_weight(r.g, split) >= packing_weight(r.g, spliced) else spliced
    return pick, split_audits + group_audits


def metric_kpp_combined(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KPathPacking:
    """Heavier of the TSP-split and matching-based packings (ties to the
    TSP route).  Guarantee (27k^2-48k+16)/(32k^2-36k-24) on metric inputs."""
    return KPP_COMBINED(Run(g, k, tsp_solver))[0]


@_algorithm("general4pp", "path", range(4, 5), dict.fromkeys(WEIGHT_CLASSES, lambda k: F(3, 4)))
def GENERAL_4PP(r: Run):
    return KPathPacking(4, _contract(r.g, r.matching, closed=False)[0]), []


def general_4pp(
    g: WeightedCompleteGraph, matching_override: Optional[Matching] = None
) -> KPathPacking:
    """The 4-path packing produced by the general 4CP contraction."""
    return GENERAL_4PP(Run(g, 4, matching_override=matching_override))[0]


@_algorithm("alg8", "path", range(4, 5), dict.fromkeys(METRIC, lambda k: F(14, 17)))
def ALG8(r: Run):
    g = r.g
    P4 = KPathPacking(4, _contract(g, r.matching, closed=False)[0])
    mm = r.matching_of_size(g.n // 4)
    iso = sorted(set(range(g.n)) - mm.covered())
    paths = []
    for i, (x, y) in enumerate(mm.edges):
        u, z = iso[2 * i], iso[2 * i + 1]
        if g.weight(u, x) + g.weight(y, z) >= g.weight(z, x) + g.weight(y, u):
            paths.append((u, x, y, z))
        else:
            paths.append((z, x, y, u))
    spliced = KPathPacking(4, tuple(paths))
    pick = P4 if packing_weight(g, P4) >= packing_weight(g, spliced) else spliced
    lhs, rhs = packing_weight(g, spliced), 2 * matching_weight(g, mm)
    return pick, [AuditEntry("spliced_vs_matching", F(lhs), F(rhs))]


def alg8_metric_4pp(g: WeightedCompleteGraph) -> KPathPacking:
    """Metric 4PP: the heavier of the contraction packing and a size-n/4
    matching spliced with isolated endpoint pairs (14/17 guarantee).

    Endpoints are swapped so that w(u,x) + w(y,z) >= w(z,x) + w(y,u), which
    on metric inputs makes each path weigh at least twice its matching edge.
    """
    return ALG8(Run(g, 4))[0]

