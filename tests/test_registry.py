"""The algorithm registry: each spec runs its library algorithm unchanged,
refuses inadmissible k, warns once at the caller on input its guarantee
does not cover, and its audits hold wherever its proof applies."""

import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packgraph import cycle_packing as cp
from packgraph import matching
from packgraph import path_packing as pp
from packgraph import reductions as red
from packgraph.fixtures import get_fixture
from packgraph.graph import (
    KCyclePacking,
    KPathPacking,
    Matching,
    generate_instance,
    is_metric,
    make_matching,
    validate_packing,
)
from packgraph.oracles import ALGORITHMS, audit_instance, optimal_k_packing, run_algorithm

# name -> (public library call, an admissible (n, k, weight class))
PUBLIC = {
    "alg1": (lambda g, k: cp.alg1_metric_kcp(g, k), (12, 3, "metric")),
    "alg2": (lambda g, k: cp.alg2_metric_kcp_even(g, k), (12, 6, "one_two")),
    "alg3": (lambda g, k: cp.alg3_matching_kcp_odd(g, k), (10, 5, "metric")),
    "alg4": (lambda g, k: pp.alg4_tsp_kpp(g, k), (12, 4, "metric")),
    "alg5": (lambda g, k: pp.alg5_matching_kpp_even(g, k), (12, 6, "metric")),
    "kpp-combined": (lambda g, k: pp.metric_kpp_combined(g, k), (12, 4, "one_two")),
    "alg6": (lambda g, k: cp.alg6_general_4cp(g)[0], (12, 4, "general")),
    "general4pp": (lambda g, k: pp.general_4pp(g), (12, 4, "zero_one")),
    "alg7": (lambda g, k: cp.alg7_metric_4cp(g), (12, 4, "metric")),
    "alg8": (lambda g, k: pp.alg8_metric_4pp(g), (12, 4, "metric")),
    "reduce12": (
        lambda g, k: red.solve_12_via_01(g, k, lambda h: optimal_k_packing(h, k, "cycle")[0]),
        (12, 4, "one_two"),
    ),
    "3cp911": (
        lambda g, k: red.three_cp_9_11(g, lambda h: optimal_k_packing(h, 3, "cycle")[0]),
        (12, 3, "one_two"),
    ),
}

# the public functions that take k
PUBLIC_K = {
    "alg1": cp.alg1_metric_kcp,
    "alg2": cp.alg2_metric_kcp_even,
    "alg3": cp.alg3_matching_kcp_odd,
    "alg4": pp.alg4_tsp_kpp,
    "alg5": pp.alg5_matching_kpp_even,
    "kpp-combined": pp.metric_kpp_combined,
}

# each way into an algorithm; the warning must name the line that took it
ENTRY_POINTS = {
    "public": lambda g, name, k: PUBLIC[name][0](g, k),
    "run_algorithm": lambda g, name, k: run_algorithm(g, name, k),
    "audit_instance": lambda g, name, k: audit_instance(g, k, [name]),
}
METRIC_ONLY = sorted(
    name for name, spec in ALGORITHMS.items() if set(spec.guarantee) == {"metric", "one_two"}
)


def test_every_registered_algorithm_has_a_public_call():
    assert set(PUBLIC) == set(ALGORITHMS)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_registry_runs_the_library_algorithm(name):
    call, (n, k, klass) = PUBLIC[name]
    assert ALGORITHMS[name].admits(k) and klass in ALGORITHMS[name].guarantee
    for seed in range(3):
        g = generate_instance(n, klass, seed=seed)
        packing, _ = run_algorithm(g, name, k)
        assert packing == call(g, k)


def test_registry_runs_the_library_algorithm_with_overrides():
    fx = get_fixture("fig2")
    packing, _ = run_algorithm(fx.graph, "alg3", 5, override=fx.plan_override)
    assert packing == cp.alg3_matching_kcp_odd(fx.graph, 5, plan=fx.plan_override)
    for fid, name, call in (
        ("fig3", "alg6", lambda g, m: cp.alg6_general_4cp(g, m)[0]),
        ("fig4", "general4pp", pp.general_4pp),
        ("fig5", "alg7", cp.alg7_metric_4cp),
    ):
        fx = get_fixture(fid)
        m = fx.matching_override
        packing, _ = run_algorithm(fx.graph, name, 4, override=m)
        assert packing == call(fx.graph, m)


# the type of the override each body reads; none for the rest
READS = {
    "alg6": Matching, "alg7": Matching, "general4pp": Matching, "alg8": Matching,
    "alg3": cp.EdgeGroupPlan, "alg5": cp.EdgeGroupPlan, "kpp-combined": cp.EdgeGroupPlan,
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_spec_refuses_the_overrides_its_body_does_not_read(name):
    assert ALGORITHMS[name].reads is READS.get(name)
    _, (n, k, klass) = PUBLIC[name]
    g = generate_instance(n, klass, seed=0)
    pairs = make_matching((v, v + 1) for v in range(0, n, 2))
    plan = cp.EdgeGroupPlan(groups=(), isolated=())
    # no spec reads a bare list of edges
    for given, override in (("matching", pairs), ("plan", plan), ("list", list(pairs.edges))):
        if READS.get(name) is not type(override):
            with pytest.raises(ValueError, match=f"^{name} does not read a {given} override$"):
                run_algorithm(g, name, k, override=override)
            with pytest.raises(ValueError, match=f"^{name} does not read a {given} override$"):
                audit_instance(g, k, [name], override=override)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_run_algorithm_returns_a_valid_packing_or_refuses_k(data):
    name = data.draw(st.sampled_from(sorted(ALGORITHMS)))
    spec = ALGORITHMS[name]
    admissible = [k for k in range(13) if spec.admits(k)]
    k = data.draw(st.one_of(st.sampled_from(admissible), st.integers(-1, 12)))
    klass = data.draw(st.sampled_from(sorted(c for c in spec.guarantee if c != "unknown")))
    seed = data.draw(st.integers(0, 10_000))
    if not spec.admits(k):
        g = generate_instance(data.draw(st.integers(3, 12)), klass, seed=seed)
        with pytest.raises(ValueError, match=f"{name} needs"):
            run_algorithm(g, name, k)
        if name in PUBLIC_K:
            with pytest.raises(ValueError, match=f"{name} needs"):
                PUBLIC_K[name](g, k)
        return
    n = k * data.draw(st.integers(1, 12 // k))
    g = generate_instance(n, klass, seed=seed)
    packing, audits = run_algorithm(g, name, k)
    if name in PUBLIC_K:
        assert PUBLIC_K[name](g, k) == packing
    assert isinstance(packing, KCyclePacking if spec.kind == "cycle" else KPathPacking)
    assert packing.k == k
    assert validate_packing(g, packing, k, spec.kind) is None
    failing = [a for a in audits if not a.holds]
    assert not failing, failing


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("name", METRIC_ONLY)
def test_non_metric_input_warns_once_at_the_caller(name, entry):
    _, (n, k, _) = PUBLIC[name]
    g = generate_instance(n, "general", seed=0)
    assert not is_metric(g)[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ENTRY_POINTS[entry](g, name, k)
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
    assert str(caught[0].message).startswith(f"{name}: input is not metric")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "name, klass",
    [("alg6", "general"), ("general4pp", "general")] + [(n, "metric") for n in METRIC_ONLY],
)
def test_no_warning_where_the_guarantee_applies(name, klass, entry):
    _, (n, k, _) = PUBLIC[name]
    g = generate_instance(n, klass, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ENTRY_POINTS[entry](g, name, k)


def test_audit_instance_computes_each_size_p_matching_once(monkeypatch):
    calls = []
    real = cp.max_weight_matching_of_size

    def counted(g, p):
        calls.append(p)
        return real(g, p)

    monkeypatch.setattr(cp, "max_weight_matching_of_size", counted)
    g = generate_instance(12, "metric", seed=0)
    audit_instance(g, 4, ["alg8", "kpp-combined", "alg5"])
    assert calls == [3]


def test_audit_instance_contracts_m_star_once(monkeypatch):
    sizes = []
    real = matching._blossom

    def counted(w2):
        sizes.append(len(w2))
        return real(w2)

    monkeypatch.setattr(matching, "_blossom", counted)
    g = generate_instance(16, "metric", seed=0)
    audit_instance(g, 4, ["alg6", "general4pp", "alg8", "alg7"])
    # M*, the super-matrix of paths, M_{n/4}'s dummy matrix, the one of cycles
    assert sizes == [16, 8, 24, 8]


def test_audit_instance_checks_the_metric_once(monkeypatch):
    calls = []
    real = cp.is_metric

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cp, "is_metric", counted)
    g = generate_instance(12, "general", seed=0)
    names = ["alg7", "alg8", "kpp-combined", "alg4"]
    with pytest.warns(UserWarning) as record:
        audit_instance(g, 4, names)
    assert len(calls) == 1
    assert sorted(str(w.message).split(":")[0] for w in record) == sorted(names)


def test_readme_table_lists_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Algorithms", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = re.match(r"\| `([^`]+)` \|[^|]*\|[^|]*\| ([^|]+) \|", line)
        if m:
            rows[m.group(1)] = m.group(2).strip()
    assert rows == {name: spec.admissible_k for name, spec in ALGORITHMS.items()}
