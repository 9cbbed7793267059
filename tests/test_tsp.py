from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_matrix, uniform_graph
from packgraph.graph import (
    HamiltonianCycle,
    cycle_weight,
    generate_instance,
    matching_weight,
    packing_weight,
    path_weight,
    tilde_weight,
)
from packgraph.matching import max_weight_perfect_matching
from packgraph.oracles import optimal_k_packing
from packgraph.tsp import (
    exact_max_tsp,
    heuristic_max_tsp,
    split_cycle_best_offset,
    split_objective_value,
)


def _brute_force_tsp(g):
    best = -1
    for p in permutations(range(1, g.n)):
        best = max(best, cycle_weight(g, (0,) + p))
    return best


def test_exact_tsp_two_heavy_edges():
    g = graph_from_matrix(
        [[0, 10, 1, 1], [10, 0, 1, 1], [1, 1, 0, 10], [1, 1, 10, 0]]
    )
    H = exact_max_tsp(g)
    assert cycle_weight(g, H.order) == 22


def test_exact_tsp_triangle_and_uniform():
    g = graph_from_matrix([[0, 2, 3], [2, 0, 5], [3, 5, 0]])
    assert cycle_weight(g, exact_max_tsp(g).order) == 10
    g = uniform_graph(6, 4)
    assert cycle_weight(g, exact_max_tsp(g).order) == 24


def test_exact_tsp_matches_brute_force():
    for seed in range(6):
        g = generate_instance(7, "general", seed=seed)
        assert cycle_weight(g, exact_max_tsp(g).order) == _brute_force_tsp(g)


def test_exact_tsp_cap():
    g = uniform_graph(19, 1)
    with pytest.raises(ValueError, match="above exact TSP cap 18"):
        exact_max_tsp(g)


def test_exact_tsp_refuses_weights_beyond_int64_sums():
    rng = np.random.default_rng(0)
    w = np.triu(rng.integers(1 << 59, 1 << 61, size=(8, 8)), 1)
    with pytest.raises(ValueError, match="overflow"):
        exact_max_tsp(graph_from_matrix(w + w.T))
    heaviest = ((1 << 63) - 1) // 8  # the heaviest weight whose tour sum fits
    g = uniform_graph(8, heaviest)
    assert cycle_weight(g, exact_max_tsp(g).order) == 8 * heaviest


def test_heuristic_tsp():
    g = graph_from_matrix([[0, 2, 3], [2, 0, 5], [3, 5, 0]])
    assert cycle_weight(g, heuristic_max_tsp(g).order) == 10
    g = uniform_graph(8, 3)
    assert cycle_weight(g, heuristic_max_tsp(g).order) == 24
    for seed in range(5):
        h = generate_instance(10, "metric", seed=seed)
        assert cycle_weight(h, heuristic_max_tsp(h).order) <= cycle_weight(
            h, exact_max_tsp(h).order
        )


def test_split_uniform_is_tight():
    g = uniform_graph(12, 5)
    H = HamiltonianCycle(order=tuple(range(12)))
    P = split_cycle_best_offset(g, H, 4, "plain")
    assert packing_weight(g, P) == 12 * 5 * 3 // 4


def test_split_keeps_heavy_edge():
    n, k = 8, 4
    w = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(w, 0)
    w[2, 3] = w[3, 2] = 100
    g = graph_from_matrix(w)
    P = split_cycle_best_offset(g, HamiltonianCycle(order=tuple(range(n))), k, "plain")
    pairs = {frozenset(e) for p in P.paths for e in zip(p, p[1:])}
    assert frozenset((2, 3)) in pairs


def test_split_alg2_objective_dominates_all_offsets_average():
    for seed in range(5):
        g = generate_instance(12, "metric", seed=seed)
        H = exact_max_tsp(g)
        hw = cycle_weight(g, H.order)
        k = 4
        P = split_cycle_best_offset(g, H, k, "alg2")
        obj = split_objective_value(g, P, "alg2")
        assert Fraction(obj) >= Fraction(((k - 1) ** 2 + 1) * hw, k)
        # and it really is the best of the k offsets
        n = g.n
        for off in range(k):
            paths = []
            for s in range(n // k):
                start = (off + s * k) % n
                paths.append(tuple(H.order[(start + t) % n] for t in range(k)))
            val = sum(
                (k - 2) * path_weight(g, p) + 2 * tilde_weight(g, p) for p in paths
            )
            assert obj >= val


def test_split_errors():
    g = uniform_graph(12, 1)
    H = HamiltonianCycle(order=tuple(range(12)))
    with pytest.raises(ValueError):
        split_cycle_best_offset(g, H, 5, "plain")
    with pytest.raises(ValueError):
        split_cycle_best_offset(g, H, 3, "alg2")


@given(st.integers(0, 500), st.sampled_from([3, 4, 6]))
@settings(max_examples=30, deadline=None)
def test_split_plain_guarantee(seed, k):
    g = generate_instance(12, "general", seed=seed)
    H = exact_max_tsp(g)
    hw = cycle_weight(g, H.order)
    P = split_cycle_best_offset(g, H, k, "plain")
    assert Fraction(packing_weight(g, P)) >= Fraction((k - 1) * hw, k)


def test_metric_tsp_lower_bounds():
    # exact tour weight dominates both packing-based lower bounds
    for seed in range(4):
        g = generate_instance(12, "metric", seed=seed)
        hw = cycle_weight(g, exact_max_tsp(g).order)
        for k in (3, 4, 6):
            _, opt = optimal_k_packing(g, k, "cycle")
            assert Fraction(2 * k * hw) >= Fraction((2 * k - 1) * opt)
            if k % 2 == 0:
                mw = matching_weight(g, max_weight_perfect_matching(g))
                assert Fraction(8 * hw) >= Fraction(5 * opt + 4 * mw)
