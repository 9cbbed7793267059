"""Weight-class reduction {1,2} -> {0,1} and the 9/11 wrapper for 3CP."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import (
    KCyclePacking,
    WeightedCompleteGraph,
    check_weight_class,
    require_divisible,
    validate_packing,
)

# a k-cycle packing solver for {0,1} graphs
ZeroOneSolver = Callable[[WeightedCompleteGraph], KCyclePacking]


def lift_12_to_01(g: WeightedCompleteGraph) -> WeightedCompleteGraph:
    """Subtract 1 from every edge weight.

    Packings keep their structure; a k-cycle packing loses exactly n weight
    and a k-path packing exactly n - n/k (one unit per edge).
    """
    if not check_weight_class(g, "one_two"):
        raise ValueError("weights must all be in {1, 2}")
    w = g.w - 1
    np.fill_diagonal(w, 0)
    return WeightedCompleteGraph(n=g.n, w=w, denom=g.denom, class_tag="zero_one")


def reduction_offset(n: int, k: int, kind: str) -> int:
    """Weight shift between a packing on the {1,2} graph and its lift."""
    return n if kind == "cycle" else n - n // k


def solve_12_via_01(g: WeightedCompleteGraph, k: int, solve: ZeroOneSolver) -> KCyclePacking:
    """Lift, run the {0,1} k-cycle packing solver ``solve``, reinterpret
    its packing on g.

    With a rho-approximate solver the result is (1+rho)/2-approximate on g.
    """
    lifted = lift_12_to_01(g)
    packing = solve(lifted)
    err = validate_packing(lifted, packing, k, "cycle")
    if err:
        raise ValueError(f"plugged solver returned an invalid packing: {err}")
    return packing  # identical structure is valid on g as well


def three_cp_9_11(g: WeightedCompleteGraph, solve: ZeroOneSolver) -> KCyclePacking:
    """3CP on {1,2} graphs through the {0,1} reduction.

    The 9/11 guarantee needs a 3CP solver ``solve`` meeting the known {0,1}
    3CP lower bound; an exact one dominates it.
    """
    require_divisible(g.n, 3)
    return solve_12_via_01(g, 3, solve)
