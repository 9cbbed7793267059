"""Tight-example fixtures with adversarial overrides and scripted checks.

Vertices are 0-indexed; fixture ``v<i>`` labels from the figures map to
index ``i - 1``.  Each fixture bundles the instance, the adversarial
matching/plan override that reproduces the published ratio, and the expected
values; ``run_fixture_checks`` re-derives every expected value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from .cycle_packing import EdgeGroupPlan
from .graph import (
    KCyclePacking,
    Matching,
    WeightedCompleteGraph,
    check_weight_class,
    make_matching,
    matching_weight,
    packing_weight,
)
from .matching import max_weight_matching_of_size
from .oracles import ALGORITHMS, best_k_tour_on_set, optimal_k_packing, run_algorithm


@dataclass(frozen=True)
class Fixture:
    id: str
    k: int
    algorithm: str  # the registered algorithm whose tight example this is
    graph: WeightedCompleteGraph
    matching_override: Matching
    plan_override: Optional[EdgeGroupPlan] = None
    expected: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """What the fixture's algorithm packs: "cycle" or "path"."""
        return ALGORITHMS[self.algorithm].kind


def _graph_from_edges(n, default, heavy, heavy_weight, class_tag):
    w = np.full((n, n), default, dtype=np.int64)
    np.fill_diagonal(w, 0)
    for u, v in heavy:
        w[u, v] = w[v, u] = heavy_weight
    return WeightedCompleteGraph(n=n, w=w, class_tag=class_tag)


def _fig2() -> Fixture:
    # 5 rows of 5; each row's 5-cycle edges weigh 2, every other edge 1
    def u(i, j):  # 1-indexed row/column labels
        return 5 * (i - 1) + (j - 1)

    heavy = []
    for i in range(1, 6):
        for j in range(1, 5):
            heavy.append((u(i, j), u(i, j + 1)))
        heavy.append((u(i, 5), u(i, 1)))
    g = _graph_from_edges(25, 1, heavy, 2, "metric")
    matching = make_matching(
        [(u(i, 1), u(i, 2)) for i in range(1, 6)]
        + [(u(i, 3), u(i, 4)) for i in range(1, 6)]
    )
    groups = []
    iso = []
    for i in range(1, 6):
        r = i % 5 + 1
        groups.append(((u(i, 1), u(i, 2)), (u(r, 3), u(r, 4))))
        iso.append((u((i + 1) % 5 + 1, 5),))
    plan = EdgeGroupPlan(groups=tuple(groups), isolated=tuple(iso))
    return Fixture(
        id="fig2_5cp",
        k=5,
        algorithm="alg3",
        graph=g,
        matching_override=matching,
        plan_override=plan,
        expected={
            "matching_weight": 20,
            "alg_weight": 35,
            "row_cycle_weight": 10,
            "opt_weight": 50,
            "ratio": Fraction(7, 10),
        },
    )


def _k4(id, algorithm, graph, matching_weight, opt_weight, alg_weight, ratio) -> Fixture:
    """A k = 4 tight example on ``graph()``: M* is overridden by the pairs
    {0 1, 2 3, ...}, and the expected values are the published w(M*), OPT,
    ALG and ratio."""
    g = graph()
    pairs = make_matching((i, i + 1) for i in range(0, g.n, 2))
    return Fixture(
        id, 4, algorithm, g, pairs,
        expected={
            "matching_weight": matching_weight,
            "opt_weight": opt_weight,
            "alg_weight": alg_weight,
            "ratio": ratio,
        },
    )


def _one_based(edges):
    return [(a - 1, b - 1) for a, b in edges]


# the weight-1 edges of Fig. 3, a 12-ring with six chords, and of Fig. 4
_FIG3_EDGES = _one_based(
    [(i, i % 12 + 1) for i in range(1, 13)] + [(1, 6), (7, 12), (2, 9), (3, 8), (4, 11), (5, 10)]
)
_FIG4_EDGES = _one_based([(15, 16), (16, 1), (2, 3), (3, 4), (7, 8), (8, 9), (10, 11), (11, 12)])


def _fig5_graph() -> WeightedCompleteGraph:
    # per-color edge lists from the figure (1-indexed labels)
    orange = [(1, 2), (5, 6)]
    blue = [(2, 3), (4, 5), (1, 8), (6, 7), (1, 7), (2, 4), (6, 8), (3, 5)]
    red = [(7, 8), (3, 4), (1, 6), (1, 5), (2, 6), (2, 5), (3, 8), (4, 8), (3, 7), (4, 7)]
    gray = [(1, 3), (1, 4), (2, 8), (2, 7), (3, 6), (4, 6), (5, 8), (5, 7)]
    w = np.zeros((8, 8), dtype=np.int64)
    for weight, edges in ((4, orange), (3, blue), (2, red), (1, gray)):
        for a, b in _one_based(edges):
            w[a, b] = w[b, a] = weight
    return WeightedCompleteGraph(n=8, w=w, class_tag="metric")


# the k = 4 tight examples, one row each: id, algorithm, graph, then the
# published w(M*), OPT, ALG and ratio; fig3_lifted_12 is Fig. 3 shifted to
# {1,2}, tight for the 7/8 claim
_K4 = (
    ("fig3_general4cp", "alg6", partial(_graph_from_edges, 12, 0, _FIG3_EDGES, 1, "zero_one"),
     6, 12, 9, Fraction(3, 4)),
    ("fig4_general4pp", "general4pp", partial(_graph_from_edges, 16, 0, _FIG4_EDGES, 1, "zero_one"),
     4, 8, 6, Fraction(3, 4)),
    ("fig5_metric4cp", "alg7", _fig5_graph, 12, 24, 20, Fraction(5, 6)),
    ("fig3_lifted_12", "alg7", partial(_graph_from_edges, 12, 1, _FIG3_EDGES, 2, "one_two"),
     12, 24, 21, Fraction(7, 8)),
)
_BUILDERS = {"fig2_5cp": _fig2, **{row[0]: partial(_k4, *row) for row in _K4}}
# each id's short name: its id without the last "_" part (fig3_lifted_12 -> fig3_lifted)
_ALIASES = {fid.rsplit("_", 1)[0]: fid for fid in _BUILDERS}

FIXTURE_IDS = tuple(_BUILDERS)


def get_fixture(fixture_id: str) -> Fixture:
    fid = _ALIASES.get(fixture_id, fixture_id)
    try:
        return _BUILDERS[fid]()
    except KeyError:
        raise ValueError(f"unknown fixture {fixture_id!r}") from None


def _oracle_values(fx: Fixture) -> dict:
    return {"opt_weight": optimal_k_packing(fx.graph, fx.k, fx.kind)[1]}


def _fig2_rows(fx: Fixture) -> dict:
    """fig2's values from its five rows, as the full n=25 DP does not fit
    the memory budget: the weight of each row's best 5-cycle (-1 unless all
    are alike) and, as the optimum, the weight of the packing of the rows
    where it meets an upper bound (else -1).  Each vertex has exactly two
    edges in a cycle packing, so OPT <= floor(1/2 sum_v (its two heaviest
    weights))."""
    rows = tuple(tuple(range(5 * i, 5 * i + 5)) for i in range(5))
    row_w = {best_k_tour_on_set(fx.graph, row, "cycle")[1] for row in rows}
    rows_w = packing_weight(fx.graph, KCyclePacking(k=5, cycles=rows))
    bound = int(np.sort(fx.graph.w, axis=1)[:, -2:].sum()) // 2
    return {
        "row_cycle_weight": row_w.pop() if len(row_w) == 1 else -1,
        "opt_weight": rows_w if rows_w == bound else -1,
    }


# the fixtures whose optimum comes from values of their own, not the oracle
_OWN_VALUES = {"fig2_5cp": _fig2_rows}


def run_fixture_checks(fixture_id: str, packing=None) -> list:
    """Re-derive every expected value; returns (name, expected, actual) rows
    in the order of ``Fixture.expected``.

    ``packing`` is the packing of the fixture's algorithm under its override
    when the caller has already run it; otherwise it is run here.
    """
    fx = get_fixture(fixture_id)
    g = fx.graph
    assert check_weight_class(g, g.class_tag)
    if packing is None:
        override = fx.plan_override or fx.matching_override
        packing, _ = run_algorithm(g, fx.algorithm, fx.k, override=override)
    # w(M) of a heaviest matching of the override's size
    p = fx.matching_override.size
    actual = {
        "matching_weight": matching_weight(g, max_weight_matching_of_size(g, p)),
        "alg_weight": packing_weight(g, packing),
        **_OWN_VALUES.get(fx.id, _oracle_values)(fx),
    }
    actual["ratio"] = Fraction(actual["alg_weight"], actual["opt_weight"])
    return [(name, expected, actual[name]) for name, expected in fx.expected.items()]
