from fractions import Fraction
from itertools import permutations
from math import comb

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
from packgraph.oracles import (
    best_k_tour_on_set,
    brute_force_optimal_packing,
    optimal_k_packing,
)
from packgraph.tsp import (
    _STEP_BUDGET,
    _held_karp,
    _popcount_rank,
    exact_max_tsp,
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


def _reference_held_karp(w, first, top, anchored):
    """Per popcount c = 1..top, the dict {(S, j): heaviest path through the
    mask S ending at j}, from a path start v of weight first[v] (anchored:
    v = min(S)); pure Python."""
    m = len(first)
    layers = [{(1 << v, v): first[v] for v in range(m)}]
    for _ in range(2, top + 1):
        nxt = {}
        for (S, i), val in layers[-1].items():
            for j in range(m):
                if S >> j & 1 or (anchored and 1 << j < S & -S):
                    continue
                key, cand = (S | 1 << j, j), val + w[i][j]
                if cand > nxt.get(key, -1):
                    nxt[key] = cand
        layers.append(nxt)
    return layers


@st.composite
def _kernel_inputs(draw):
    """A zero-diagonal m x m matrix, not always symmetric, and path starts,
    whose heaviest weight is small, or the largest that keeps m + 1 weights
    within int16 or int32, or one above either."""
    m = draw(st.integers(1, 9))
    l16, l32 = (int(np.iinfo(t).max) // (m + 1) for t in (np.int16, np.int32))
    heaviest, dtype = draw(st.sampled_from([
        (9, np.int16), (l16, np.int16), (l16 + 1, np.int32), (l32, np.int32),
        (l32 + 1, np.int64),
    ]))
    vals = st.integers(0, heaviest)
    w = [[0 if i == j else draw(vals) for j in range(m)] for i in range(m)]
    first = [draw(vals) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        w[0][m - 1] = heaviest
    else:
        first[draw(st.integers(0, m - 1))] = heaviest
    return w, first, draw(st.integers(1, m)), draw(st.booleans()), dtype


def _assert_kernel_matches_the_reference(w, first, top, anchored, dtype):
    m = len(first)
    layers = list(_held_karp(np.array(w), np.array(first), top, anchored))
    reference = _reference_held_karp(w, first, top, anchored)
    assert len(layers) == len(reference) == top
    rank = _popcount_rank(m)
    for c, (dp, ref) in enumerate(zip(layers, reference), start=1):
        assert dp.dtype == dtype
        masks = [S for S in range(1 << m) if bin(S).count("1") == c]
        assert dp.shape == (m, len(masks))
        unset = np.iinfo(dp.dtype).min
        got = dp.tolist()
        for S in masks:
            for j in range(m):
                assert got[j][rank[S]] == ref.get((S, j), unset), (c, S, j)


@given(_kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_held_karp_matches_a_dict_reference(case):
    _assert_kernel_matches_the_reference(*case)


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_held_karp_steps_split_into_row_runs_match_the_reference(dtype, anchored):
    # at m = 13 the last layer's steps span fewer rows than its 13 path ends,
    # and the last run is shorter than the others
    m, top = 13, 7
    rows = _STEP_BUDGET // (m * comb(m, top - 1))
    assert 1 < rows < m and m % rows != 0
    heaviest = int(np.iinfo(np.int16).max) // (m + 1)
    if dtype == np.int64:
        heaviest = int(np.iinfo(np.int32).max) // (m + 1) + 1
    rng = np.random.default_rng(top)
    w = rng.integers(0, heaviest + 1, size=(m, m))
    np.fill_diagonal(w, 0)
    w[0, m - 1] = heaviest
    first = rng.integers(0, heaviest + 1, size=m)
    _assert_kernel_matches_the_reference(w.tolist(), first.tolist(), top, anchored, dtype)


_INT16_MAX = int(np.iinfo(np.int16).max)


def _straddling_graph(n, m, over, seed):
    """A random n-vertex graph whose heaviest weight puts (m + 1) weights,
    the kernel's overflow bound, just within int16 (``over`` 0) or just
    past it (``over`` 1); the heaviest edge is (0, n - 1)."""
    heaviest = _INT16_MAX // (m + 1) + over
    assert ((m + 1) * heaviest > _INT16_MAX) == bool(over)
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(0, heaviest + 1, size=(n, n)), 1)
    w[0, n - 1] = heaviest
    return graph_from_matrix(w + w.T)


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("n", range(4, 10))
def test_readers_agree_across_the_int16_rung(n, over):
    # the tour's kernel runs on m = n - 1 vertices: n = 7 puts its bound at
    # 32767 and n = 8 at 32768
    g = _straddling_graph(n, n - 1, over, seed=n)
    assert cycle_weight(g, exact_max_tsp(g).order) == _brute_force_tsp(g)


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize(
    "n, k, kind",
    [(6, 3, "cycle"), (6, 2, "path"), (6, 6, "cycle"), (7, 7, "path"),
     (8, 4, "cycle"), (8, 4, "path"), (9, 3, "cycle")],
)
def test_oracle_readers_agree_across_the_int16_rung(n, k, kind, over):
    # the oracle's kernel runs on all n vertices (m = n): n = 6 puts its
    # bound at 32767 and n = 7 at 32768
    g = _straddling_graph(n, n, over, seed=n + k)
    packing, weight = optimal_k_packing(g, k, kind)
    assert weight == brute_force_optimal_packing(g, k, kind)
    assert packing_weight(g, packing) == weight
    # a block's kernel runs on its k vertices (m = k); the heaviest edge
    # (0, n - 1) lies in the block
    h = _straddling_graph(n, k, over, seed=n + k)
    S = [*range(k - 1), n - 1]
    weigh = cycle_weight if kind == "cycle" else path_weight
    best = max(weigh(h, p) for p in permutations(S))
    order, w = best_k_tour_on_set(h, S, kind)
    assert w == weigh(h, order) == best


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
