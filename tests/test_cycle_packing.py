from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_matrix, malformed_alg3_plans, uniform_graph
from packgraph import cycle_packing as cp
from packgraph.fixtures import get_fixture
from packgraph.graph import (
    KPathPacking,
    PackingError,
    cycle_weight,
    generate_instance,
    matching_weight,
    packing_weight,
    path_weight,
    validate_packing,
)
from packgraph.matching import max_weight_matching_of_size
from packgraph.oracles import audit_instance, optimal_k_packing, run_algorithm


def test_complete_paths():
    w = np.ones((4, 4), dtype=np.int64)
    np.fill_diagonal(w, 0)
    w[0, 3] = w[3, 0] = 5
    g = graph_from_matrix(w)
    P = KPathPacking(k=4, paths=((0, 1, 2, 3),))
    C = cp.complete_paths(g, P)
    assert packing_weight(g, C) == packing_weight(g, P) + 5
    z = uniform_graph(8, 0)
    P = KPathPacking(k=4, paths=((0, 1, 2, 3), (4, 5, 6, 7)))
    assert packing_weight(z, cp.complete_paths(z, P)) == packing_weight(z, P)


def test_complete_paths_fig4():
    fx = get_fixture("fig4")
    from packgraph.path_packing import general_4pp

    P = general_4pp(fx.graph, fx.matching_override)
    C = cp.complete_paths(fx.graph, P)
    assert packing_weight(fx.graph, C) >= 6


def test_best_cycle_from_path():
    g = uniform_graph(5, 2)
    cyc = cp.best_cycle_from_path(g, (0, 1, 2, 3, 4))
    assert cycle_weight(g, cyc) == 10
    # candidates reconnect a prefix reversal; all k-1 of them are k-cycles
    cands = list(cp.cycle_candidates_from_path((0, 1, 2, 3)))
    assert len(cands) == 3
    for c in cands:
        assert sorted(c) == [0, 1, 2, 3]


def test_alg1_uniform_is_optimal():
    g = uniform_graph(12, 3, class_tag="metric")
    C = cp.alg1_metric_kcp(g, 4)
    assert validate_packing(g, C, 4, "cycle") is None
    assert packing_weight(g, C) == 36


def test_alg1_ratio_on_random_metric():
    for seed in range(5):
        g = generate_instance(12, "metric", seed=seed)
        C = cp.alg1_metric_kcp(g, 4)
        _, opt = optimal_k_packing(g, 4, "cycle")
        k = 4
        assert Fraction(packing_weight(g, C), opt) >= Fraction(
            (7 * k - 1) * (k - 1), 8 * k * k
        )


def test_alg2_even_k_only():
    g = generate_instance(12, "metric", seed=1)
    with pytest.raises(ValueError):
        cp.alg2_metric_kcp_even(g, 3)
    C = cp.alg2_metric_kcp_even(g, 4)
    assert validate_packing(g, C, 4, "cycle") is None
    g = uniform_graph(12, 2, class_tag="metric")
    assert packing_weight(g, cp.alg2_metric_kcp_even(g, 4)) == 24


def test_alg3_fig2_plan_override():
    fx = get_fixture("fig2")
    C = cp.alg3_matching_kcp_odd(fx.graph, 5, plan=fx.plan_override)
    assert packing_weight(fx.graph, C) == 35


def test_alg3_rejects_bad_plan():
    fx = get_fixture("fig2")
    g = fx.graph
    # a plan over a non-maximum matching must be refused
    edges = [(i, i + 5) for i in range(0, 20, 2)]  # vertical unit edges
    from packgraph.graph import make_matching

    m = make_matching(edges)
    assert matching_weight(g, m) < 20
    groups = tuple((m.edges[2 * i], m.edges[2 * i + 1]) for i in range(5))
    iso = tuple(sorted(set(range(25)) - m.covered()))
    plan = cp.EdgeGroupPlan(groups=groups, isolated=iso)
    with pytest.raises(ValueError):
        cp.alg3_matching_kcp_odd(g, 5, plan=plan)


def test_alg3_parity_errors():
    g = generate_instance(12, "metric", seed=0)
    with pytest.raises(ValueError):
        cp.alg3_matching_kcp_odd(g, 4)
    g = generate_instance(10, "metric", seed=0)
    with pytest.raises(ValueError):
        cp.alg3_matching_kcp_odd(g, 3)  # 10 not divisible by 3


def test_default_plan_refuses_too_few_isolated_vertices():
    g = generate_instance(12, "metric", seed=0)
    matching = max_weight_matching_of_size(g, 4)  # leaves 4 of 12 vertices isolated
    assert cp.default_plan(g, matching, 4, 1).isolated == tuple(
        (v,) for v in sorted(set(range(12)) - matching.covered()))
    with pytest.raises(ValueError, match="^isolated vertex count mismatch$"):
        cp.default_plan(g, matching, 4, 2)


def test_alg3_nonmetric_warns():
    g = generate_instance(10, "general", seed=5)
    with pytest.warns(UserWarning):
        C = cp.alg3_matching_kcp_odd(g, 5)
    assert validate_packing(g, C, 5, "cycle") is None


@pytest.mark.parametrize("name, k, iso", [("alg3", 3, 1), ("alg5", 4, 2)])
def test_splice_refuses_plan_ends_that_are_not_its_isolated_vertices(name, k, iso):
    g = generate_instance(12, "metric", seed=0)
    groups = 12 // k
    matching = max_weight_matching_of_size(g, groups * ((k - iso) // 2))
    plan = cp.default_plan(g, matching, groups, iso)
    assert run_algorithm(g, name, k, override=plan)[0] == run_algorithm(g, name, k)[0]
    v = plan.isolated[1][0]
    # a bare id, the other kind's count of ids, and matched vertices
    for ends in (v, (v,) * (3 - iso), plan.groups[1][0][:iso]):
        bad = cp.EdgeGroupPlan(plan.groups, plan.isolated[:1] + (ends,) + plan.isolated[2:])
        with pytest.raises(ValueError, match=r"^plan group 1: ends "):
            run_algorithm(g, name, k, override=bad)


def test_the_spec_refuses_the_invalid_packing_of_a_malformed_plan():
    g, _, plans = malformed_alg3_plans()
    for violation, plan in plans.items():
        message = f"^alg3 produced an invalid packing: {violation}"
        with pytest.raises(PackingError, match=message):
            run_algorithm(g, "alg3", 5, override=plan)
        with pytest.raises(PackingError, match=message):
            audit_instance(g, 5, ["alg3"], override=plan)


def test_group_cycle_contains_matching_and_isolated():
    g = generate_instance(15, "metric", seed=2)
    C = cp.alg3_matching_kcp_odd(g, 5)
    m = max_weight_matching_of_size(g, 6)
    iso = set(range(15)) - m.covered()
    used = {frozenset(e) for c in C.cycles for e in zip(c, c[1:] + c[:1])}
    for e in m.edges:
        assert frozenset(e) in used
    starts = {c[0] for c in C.cycles}
    assert starts == iso


def test_orientation_greedy_meets_group_bound():
    # m = 2 edges per group at n=15, k=5; one group of m = 13 at n=k=27
    for n, k in ((15, 5), (27, 27)):
        mm = (k - 1) // 2
        for seed in range(5):
            g = generate_instance(n, "metric", seed=seed)
            C = cp.alg3_matching_kcp_odd(g, k)
            m = max_weight_matching_of_size(g, n // k * mm)
            plan = cp.default_plan(g, m, n // k, 1)
            for edges, cyc in zip(plan.groups, C.cycles):
                assert len(edges) == mm
                gw = sum(g.weight(*e) for e in edges)
                assert Fraction(cycle_weight(g, cyc)) >= Fraction(
                    (3 * mm + 1) * gw, 2 * mm
                )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 8),
    st.sampled_from(["general", "metric", "zero_one", "one_two"]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_orientation_matches_exhaustive_search(m, klass, cycle, seed):
    # reference: every flip integer 0..2^m-1 in turn, the first maximum wins
    g = generate_instance(18, klass, seed=seed)
    perm = np.random.default_rng(seed).permutation(18).tolist()
    edges = [tuple(perm[2 * i : 2 * i + 2]) for i in range(m)]
    ends = (perm[2 * m],) * 2 if cycle else tuple(perm[2 * m : 2 * m + 2])
    best, best_w = None, -1
    for bits in range(1 << m):
        oriented = [(e[1], e[0]) if bits >> i & 1 else e for i, e in enumerate(edges)]
        chain = (ends[0],) + tuple(v for e in oriented for v in e) + (ends[1],)
        cw = path_weight(g, chain)
        if cw > best_w:
            best, best_w = oriented, cw
    assert cp._best_orientation(g, ends, edges) == best


def test_alg6_fig3():
    fx = get_fixture("fig3")
    C4, P4 = cp.alg6_general_4cp(fx.graph, fx.matching_override)
    assert packing_weight(fx.graph, C4) == 9
    # P4 = matching weight 6 plus three unit connector edges
    assert packing_weight(fx.graph, P4) == 9
    assert validate_packing(fx.graph, C4, 4, "cycle") is None
    assert validate_packing(fx.graph, P4, 4, "path") is None


def test_alg6_default_matching_ratio():
    for seed in range(5):
        g = generate_instance(8, "general", seed=seed)
        C4, _ = cp.alg6_general_4cp(g)
        _, opt = optimal_k_packing(g, 4, "cycle")
        assert Fraction(packing_weight(g, C4), opt) >= Fraction(3, 4)


def test_alg7_fig5():
    fx = get_fixture("fig5")
    C = cp.alg7_metric_4cp(fx.graph, fx.matching_override)
    assert packing_weight(fx.graph, C) == 20


def test_alg7_cycles_contain_matching():
    g = generate_instance(12, "metric", seed=3)
    from packgraph.matching import max_weight_perfect_matching

    m = max_weight_perfect_matching(g)
    C = cp.alg7_metric_4cp(g)
    used = {frozenset(e) for c in C.cycles for e in zip(c, c[1:] + c[:1])}
    for e in m.edges:
        assert frozenset(e) in used


def test_alg7_requires_multiple_of_4():
    g = generate_instance(10, "metric", seed=0)
    with pytest.raises(ValueError):
        cp.alg7_metric_4cp(g)
