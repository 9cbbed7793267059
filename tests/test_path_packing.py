from fractions import Fraction

import pytest

from conftest import uniform_graph
from packgraph import cycle_packing as cp
from packgraph import path_packing as pp
from packgraph.fixtures import get_fixture
from packgraph.graph import generate_instance, packing_weight, validate_packing
from packgraph.matching import max_weight_matching_of_size
from packgraph.oracles import optimal_k_packing, run_algorithm


def test_alg4_uniform_is_optimal():
    g = uniform_graph(12, 3, class_tag="metric")
    P = pp.alg4_tsp_kpp(g, 4)
    assert validate_packing(g, P, 4, "path") is None
    assert packing_weight(g, P) == 3 * 12 * 3 // 4


def test_alg4_guarantee():
    for seed in range(5):
        g = generate_instance(12, "metric", seed=seed)
        P = pp.alg4_tsp_kpp(g, 4)
        _, opt = optimal_k_packing(g, 4, "path")
        assert Fraction(packing_weight(g, P), opt) >= Fraction(3, 4)


def test_alg5_uniform():
    g = uniform_graph(12, 2, class_tag="metric")
    P = pp.alg5_matching_kpp_even(g, 4)
    assert validate_packing(g, P, 4, "path") is None
    assert packing_weight(g, P) == 2 * 12 * 3 // 4


def test_alg5_structure():
    g = generate_instance(12, "metric", seed=9)
    P = pp.alg5_matching_kpp_even(g, 6)
    # each path starts and ends at an isolated vertex of the size-p matching
    m = max_weight_matching_of_size(g, 4)
    iso = set(range(12)) - m.covered()
    ends = {p[0] for p in P.paths} | {p[-1] for p in P.paths}
    assert ends == iso
    used = {frozenset(e) for p in P.paths for e in zip(p, p[1:])}
    for e in m.edges:
        assert frozenset(e) in used


def test_alg5_parity_errors():
    g = generate_instance(10, "metric", seed=0)
    with pytest.raises(ValueError):
        pp.alg5_matching_kpp_even(g, 5)
    g = generate_instance(12, "metric", seed=0)
    with pytest.raises(ValueError):
        pp.alg5_matching_kpp_even(g, 2)


def test_kpp_combined_picks_better():
    for seed in range(4):
        g = generate_instance(12, "metric", seed=seed)
        P = pp.metric_kpp_combined(g, 6)
        a = packing_weight(g, pp.alg4_tsp_kpp(g, 6))
        b = packing_weight(g, pp.alg5_matching_kpp_even(g, 6))
        assert packing_weight(g, P) == max(a, b)


def test_kpp_combined_uniform_optimal():
    g = uniform_graph(16, 5, class_tag="metric")
    assert packing_weight(g, pp.metric_kpp_combined(g, 8)) == 5 * 16 * 7 // 8


def test_kpp_combined_k8_guarantee():
    for seed in range(5):
        g = generate_instance(16, "metric", seed=seed)
        P = pp.metric_kpp_combined(g, 8)
        _, opt = optimal_k_packing(g, 8, "path")
        assert Fraction(packing_weight(g, P), opt) >= Fraction(1360, 1736)


def test_general_4pp_fig4():
    fx = get_fixture("fig4")
    P = pp.general_4pp(fx.graph, fx.matching_override)
    assert packing_weight(fx.graph, P) == 6
    assert validate_packing(fx.graph, P, 4, "path") is None


def test_general_4pp_uniform_optimal():
    g = uniform_graph(8, 4)
    assert packing_weight(g, pp.general_4pp(g)) == 4 * 8 * 3 // 4


def test_alg8_uniform_optimal():
    g = uniform_graph(8, 4, class_tag="metric")
    assert packing_weight(g, pp.alg8_metric_4pp(g)) == 4 * 8 * 3 // 4


def test_alg8_guarantee():
    for seed in range(5):
        g = generate_instance(8, "metric", seed=seed)
        P = pp.alg8_metric_4pp(g)
        _, opt = optimal_k_packing(g, 4, "path")
        assert Fraction(packing_weight(g, P), opt) >= Fraction(14, 17)


def test_alg8_dominates_general_4pp():
    for seed in range(5):
        g = generate_instance(12, "metric", seed=seed)
        assert packing_weight(g, pp.alg8_metric_4pp(g)) >= packing_weight(
            g, pp.general_4pp(g)
        )


@pytest.mark.filterwarnings("ignore:alg8. input is not metric")
def test_alg8_contracts_the_matching_override():
    fx = get_fixture("fig3")  # {0, 1} weights: outside alg8's guarantee
    m = {frozenset(e) for e in fx.matching_override.edges}
    packing, _ = run_algorithm(fx.graph, "alg8", 4, matching_override=fx.matching_override)
    # here the contraction packing P4 wins, and each of its blocks u x y z
    # joins two override edges {u, x} and {y, z}
    for u, x, y, z in packing.paths:
        assert {frozenset((u, x)), frozenset((y, z))} <= m
    assert packing != run_algorithm(fx.graph, "alg8", 4)[0]


def test_kpp_combined_splices_on_the_run_plan():
    g = generate_instance(12, "metric", seed=0)
    default = cp.default_plan(g, max_weight_matching_of_size(g, 3), 3, 2)
    rotated = cp.EdgeGroupPlan(default.groups, default.isolated[1:] + default.isolated[:1])

    def group_audits(name, plan):
        _, audits = run_algorithm(g, name, 4, plan=plan)
        return [a for a in audits if a.name.startswith("group_path")]

    assert group_audits("kpp-combined", rotated) != group_audits("kpp-combined", None)
    assert group_audits("kpp-combined", rotated) == group_audits("alg5", rotated)
