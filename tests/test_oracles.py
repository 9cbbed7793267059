from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import brute_force_optimal_packing
from conftest import graph_from_matrix, uniform_graph
from packgraph import oracles
from packgraph.fixtures import get_fixture
from packgraph.graph import (
    KCyclePacking,
    KPathPacking,
    cycle_weight,
    generate_instance,
    make_matching,
    packing_weight,
    path_weight,
    validate_packing,
)
from packgraph.oracles import (
    ALGORITHMS,
    OracleCapError,
    _require_packing_fit,
    audit_instance,
    best_k_tour_on_set,
    optimal_k_packing,
    run_algorithm,
)
from packgraph.tsp import _footprint, _held_karp, _popcounts, exact_max_tsp


def test_best_k_tour_triangle_path_drops_lightest():
    g = graph_from_matrix([[0, 2, 7], [2, 0, 4], [7, 4, 0]])
    order, w = best_k_tour_on_set(g, [0, 1, 2], "path")
    assert w == 7 + 4  # drop the weight-2 edge
    order, w = best_k_tour_on_set(g, [0, 1, 2], "cycle")
    assert w == 13


def test_best_k_tour_subset():
    g = generate_instance(10, "general", seed=3)
    order, w = best_k_tour_on_set(g, [1, 4, 7, 9], "cycle")
    assert sorted(order) == [1, 4, 7, 9]
    # cycle weight is invariant under rotation of the reported order
    assert cycle_weight(g, order) == w


@pytest.mark.parametrize("S", [[0, 0, 1], [0, 1, -1], [0, 1, 99]])
@pytest.mark.parametrize("kind", ["cycle", "path"])
def test_best_k_tour_refuses_a_set_that_is_not_distinct_vertices(kind, S):
    # a repeated vertex, a negative index (which numpy would wrap to 5) and
    # one past the last vertex
    g = generate_instance(6, "metric", seed=0)
    with pytest.raises(ValueError, match=r"distinct vertices in range\(6\)"):
        best_k_tour_on_set(g, S, kind)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["cycle", "path"]),
    st.integers(2, 8),
    st.sampled_from(["general", "metric", "zero_one", "one_two"]),
    st.integers(0, 10**6),
)
def test_best_k_tour_is_the_first_maximum_of_all_orders(kind, k, klass, seed):
    # reference: the distinct orders in permutations order (cycles start at
    # min(S); a path and its reversal, or a cycle and its mirror, once), the
    # first of maximum weight wins
    if kind == "cycle" and k < 3:
        k = 3
    g = generate_instance(10, klass, seed=seed)
    S = sorted(np.random.default_rng(seed).choice(10, size=k, replace=False).tolist())
    if kind == "cycle":
        orders = [(S[0],) + p for p in permutations(S[1:]) if p[0] < p[-1]]
        weigh = cycle_weight
    else:
        orders = [p for p in permutations(S) if p[0] < p[-1]]
        weigh = path_weight
    weights = [weigh(g, p) for p in orders]
    best = weights.index(max(weights))
    assert best_k_tour_on_set(g, S, kind) == (orders[best], weights[best])


def test_optimal_packing_fixture_values():
    assert optimal_k_packing(get_fixture("fig3").graph, 4, "cycle")[1] == 12
    assert optimal_k_packing(get_fixture("fig5").graph, 4, "cycle")[1] == 24
    assert optimal_k_packing(get_fixture("fig4").graph, 4, "path")[1] == 8


def test_optimal_packing_is_valid():
    g = generate_instance(12, "general", seed=8)
    for kind in ("cycle", "path"):
        packing, w = optimal_k_packing(g, 4, kind)
        assert validate_packing(g, packing, 4, kind) is None
        assert packing_weight(g, packing) == w


def test_dp_matches_brute_force():
    for seed in range(6):
        g = generate_instance(9, "general", seed=seed)
        assert (
            optimal_k_packing(g, 3, "cycle")[1]
            == brute_force_optimal_packing(g, 3, "cycle")
        )
    for seed in range(4):
        g = generate_instance(8, "general", seed=seed)
        for kind in ("cycle", "path"):
            assert (
                optimal_k_packing(g, 4, kind)[1]
                == brute_force_optimal_packing(g, 4, kind)
            )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_oracle_matches_brute_force_property(data):
    n = data.draw(st.integers(3, 10), label="n")
    kind = data.draw(st.sampled_from(["cycle", "path"]), label="kind")
    # k <= 8 keeps the brute force's per-block order enumeration small
    ks = [k for k in range(2 if kind == "path" else 3, min(n, 8) + 1) if n % k == 0]
    k = data.draw(st.sampled_from(ks), label="k")
    klass = data.draw(st.sampled_from(["general", "metric", "zero_one", "one_two"]))
    g = generate_instance(n, klass, seed=data.draw(st.integers(0, 10**6), label="seed"))
    best = brute_force_optimal_packing(g, k, kind)
    packing, w = optimal_k_packing(g, k, kind)
    assert w == best
    assert validate_packing(g, packing, k, kind) is None
    assert packing_weight(g, packing) == best


def _full_table_packing(g, k, kind):
    """The partition DP over full 2^n tables: bw[B] for every k-set B, f[M]
    for every set M whose popcount k divides, each the first maximum over
    the blocks of M (min(M) and k-1 of its others) in combinations order,
    walked back from the full set.  Returns (packing, weight)."""
    n = g.n
    w = g.w.astype(np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = np.array([bin(M).count("1") for M in range(1 << n)])
    fp = _footprint(n, k, int(w.max()))
    top = _held_karp(w, np.zeros(n, dtype=np.int64), k, kind == "cycle", _popcounts(n)[0], fp)[-1]
    sets = masks[popcount == k]
    if kind == "cycle":
        top = top + w[:, [(int(B) & -int(B)).bit_length() - 1 for B in sets]]
    bw = np.zeros(1 << n, dtype=np.int64)
    bw[sets] = top.max(axis=0)

    def blocks(M):  # an (len(M), C(p-1, k-1)) array, M of popcount p
        bits = M[:, None] & (1 << np.arange(n, dtype=np.int64))
        bits = bits[bits != 0].reshape(M.size, -1)
        cols = list(combinations(range(1, bits.shape[1]), k - 1))
        return bits[:, :1] | np.array([bits[:, c].sum(axis=1) for c in cols]).T

    f = np.zeros(1 << n, dtype=np.int64)
    for p in range(k, n + 1, k):
        M = masks[popcount == p]
        B = blocks(M)
        f[M] = (f[M[:, None] ^ B] + bw[B]).max(axis=1)
    packed, left = [], np.array([(1 << n) - 1], dtype=np.int64)
    while left[0]:
        B = blocks(left)[0]
        block = int(B[(f[left[0] ^ B] + bw[B]).argmax()])
        verts = [v for v in range(n) if block >> v & 1]
        packed.append(best_k_tour_on_set(g, verts, kind)[0])
        left = left ^ block
    if kind == "cycle":
        return KCyclePacking(k=k, cycles=tuple(packed)), int(f[-1])
    return KPathPacking(k=k, paths=tuple(packed)), int(f[-1])


_ADMISSIBLE = [
    (n, k, kind)
    for n in range(3, 13)
    for kind in ("cycle", "path")
    for k in range(3 if kind == "cycle" else 2, n + 1)
    if n % k == 0
]


@pytest.mark.parametrize("n, k, kind", _ADMISSIBLE)
@settings(max_examples=5, deadline=None)
@given(
    klass=st.sampled_from(["general", "metric", "zero_one", "one_two"]),
    seed=st.integers(0, 10**6),
)
@example(klass="zero_one", seed=0)
def test_oracle_matches_the_full_table_dp(n, k, kind, klass, seed):
    # the same weights and the same packings, block order, vertex order and
    # ties included ({0,1} weights tie the most), as the DP over every set
    g = generate_instance(n, klass, seed=seed)
    expected = _full_table_packing(g, k, kind)
    assert optimal_k_packing(g, k, kind) == expected


@pytest.mark.parametrize("k, kind", [(1, "path"), (2, "cycle"), (1, "cycle")])
def test_degenerate_k_is_refused(k, kind):
    g = generate_instance(6, "general", seed=0)
    with pytest.raises(ValueError, match=f"a k-{kind} needs k >= "):
        optimal_k_packing(g, k, kind)
    with pytest.raises(ValueError, match=f"a k-{kind} needs k >= "):
        best_k_tour_on_set(g, range(k), kind)


def test_oracle_refuses_weights_beyond_int64_sums():
    g = uniform_graph(8, 1 << 60)
    with pytest.raises(ValueError, match="overflow"):
        optimal_k_packing(g, 4, "cycle")
    assert optimal_k_packing(uniform_graph(8, 1 << 59), 4, "cycle")[1] == 8 << 59
    assert optimal_k_packing(uniform_graph(8, 1 << 59), 8, "path")[1] == 7 << 59


def test_oracle_answers_k_equal_n():
    # a k-cycle packing with k = n is a heaviest tour: an anchored block of
    # the kernel on n vertices against an unanchored tour on n - 1, also at
    # sizes past n = 16, where the oracle used to stop
    cases = [(12, klass) for klass in ("general", "metric", "zero_one", "one_two")]
    for n, klass in cases + [(n, klass) for n in (19, 20) for klass in ("metric", "general")]:
        g = generate_instance(n, klass, seed=1)
        packing, w = optimal_k_packing(g, n, "cycle")
        assert w == packing_weight(g, packing) == cycle_weight(g, exact_max_tsp(g).order)
    # a Hamiltonian path lies between a tour minus its lightest edge and the tour
    g = generate_instance(10, "general", seed=1)
    packing, w = optimal_k_packing(g, 10, "path")
    assert validate_packing(g, packing, 10, "path") is None
    tour = exact_max_tsp(g).order
    tw = cycle_weight(g, tour)
    lightest = min(g.weight(u, v) for u, v in zip(tour, tour[1:] + tour[:1]))
    assert tw - lightest <= w == packing_weight(g, packing) <= tw


def test_oracle_caps():
    g = generate_instance(24, "general", seed=0)
    assert _require_packing_fit(g, 3, "cycle")[0].fits  # ~170 MB, below the budget
    with pytest.raises(OracleCapError):
        optimal_k_packing(g, 8, "cycle")
    g = generate_instance(18, "general", seed=0)
    with pytest.raises(ValueError):
        brute_force_optimal_packing(g, 3, "cycle")
    g = generate_instance(10, "general", seed=0)
    with pytest.raises(ValueError):
        optimal_k_packing(g, 4, "cycle")  # 10 not divisible by 4


def test_audit_refuses_before_running_anything(monkeypatch):
    # n = 22, k = 11 is refused by the oracle while its tour fits the budget
    # and, at n = 18, is audited against the optimum
    calls = []

    def counted(g):
        calls.append(g.n)
        return exact_max_tsp(g)

    monkeypatch.setattr(oracles, "exact_max_tsp", counted)
    with pytest.raises(OracleCapError, match="11-cycle packing on n=22"):
        audit_instance(generate_instance(22, "metric", seed=0), 11, ["alg1"], tsp_solver=counted)
    assert calls == []
    (report,) = audit_instance(generate_instance(18, "metric", seed=0), 6, ["alg1"],
                               tsp_solver=counted)
    assert calls == [18] and "tsp_vs_opt_kcp" in [a.name for a in report.gated]


def test_audit_refuses_an_unread_override_before_the_oracle(monkeypatch):
    # at n = 21, k = 7 the exact oracle is the costliest step of the audit;
    # the matching override alg3 does not read is refused before it runs
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return optimal_k_packing(*args)

    monkeypatch.setattr(oracles, "optimal_k_packing", counted)
    g = generate_instance(21, "metric", seed=0)
    pairs = make_matching((v, v + 1) for v in range(0, 12, 2))
    with pytest.raises(ValueError, match="^alg3 does not read a matching override$"):
        audit_instance(g, 7, ["alg3"], override=pairs)
    assert calls == []
    audit_instance(generate_instance(9, "metric", seed=0), 3, ["alg3"])
    assert calls == [(3, "cycle")]


def test_audit_fig5_alg7():
    fx = get_fixture("fig5")
    (rep,) = audit_instance(
        fx.graph, 4, ["alg7"], override=fx.matching_override
    )
    assert rep.ratio == Fraction(5, 6)
    assert rep.all_audits_hold


def test_audit_fig3_alg6():
    fx = get_fixture("fig3")
    (rep,) = audit_instance(
        fx.graph, 4, ["alg6"], override=fx.matching_override
    )
    assert rep.ratio == Fraction(3, 4)
    assert rep.all_audits_hold


def test_audit_runs_every_algorithm():
    g = generate_instance(12, "one_two", seed=2)
    algos = ["alg2", "alg4", "alg6", "alg7", "alg8", "kpp-combined", "reduce12"]
    reports = audit_instance(g, 4, algos)
    assert [r.algorithm for r in reports] == algos
    for r in reports:
        assert r.all_audits_hold
        assert 0 < r.ratio <= 1


def test_run_algorithm_unknown_name():
    g = generate_instance(8, "general", seed=0)
    with pytest.raises(ValueError):
        run_algorithm(g, "alg99", 4)


def test_algorithm_kind_table_complete():
    assert {spec.kind for spec in ALGORITHMS.values()} == {"cycle", "path"}
    for name in ("alg1", "alg3", "alg5", "general4pp", "3cp911"):
        assert name in ALGORITHMS
