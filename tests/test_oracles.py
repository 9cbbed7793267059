from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_matrix, uniform_graph
from packgraph.fixtures import get_fixture
from packgraph.graph import generate_instance, packing_weight, validate_packing
from packgraph.oracles import (
    ALGORITHMS,
    audit_instance,
    best_k_tour_on_set,
    brute_force_optimal_packing,
    optimal_k_packing,
    run_algorithm,
)


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
    from packgraph.graph import cycle_weight

    assert cycle_weight(g, order) == w


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


def test_oracle_caps():
    g = generate_instance(18, "general", seed=0)
    with pytest.raises(ValueError):
        optimal_k_packing(g, 3, "cycle")
    with pytest.raises(ValueError):
        brute_force_optimal_packing(g, 3, "cycle")
    g = generate_instance(10, "general", seed=0)
    with pytest.raises(ValueError):
        optimal_k_packing(g, 4, "cycle")  # 10 not divisible by 4


def test_audit_fig5_alg7():
    fx = get_fixture("fig5")
    (rep,) = audit_instance(
        fx.graph, 4, ["alg7"], matching_override=fx.matching_override
    )
    assert rep.ratio == Fraction(5, 6)
    assert rep.all_audits_hold


def test_audit_fig3_alg6():
    fx = get_fixture("fig3")
    (rep,) = audit_instance(
        fx.graph, 4, ["alg6"], matching_override=fx.matching_override
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
