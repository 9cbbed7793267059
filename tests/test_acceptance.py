"""End-to-end acceptance checks.

Each test here corresponds to one release criterion; the terminal summary
(see conftest) prints one pass/fail line per criterion.  All comparisons are
exact integer or rational arithmetic.
"""

import time
from fractions import Fraction
from functools import lru_cache

from brute_force import brute_force_matching
from packgraph.cli import guarantee_bound
from packgraph.fixtures import get_fixture, run_fixture_checks
from packgraph.graph import generate_instance, is_metric, matching_weight
from packgraph.matching import max_weight_matching_of_size
from packgraph.oracles import audit_instance

F = Fraction

# name -> (algorithm, k, weight class, instance sizes, guaranteed ratio)
SUITES = {
    "alg3_k5_metric": ("alg3", 5, "metric", [10] * 200, F(7, 10)),
    "alg2_k6_metric": ("alg2", 6, "metric", [12] * 200, F(91, 120)),
    "alg1_k7_metric": ("alg1", 7, "metric", [14] * 200, F(36, 49)),
    "kpp_k6_metric": ("kpp-combined", 6, "metric", [12] * 200, F(175, 228)),
    "alg6_k4_general": ("alg6", 4, "general", [8] * 100 + [12] * 100, F(3, 4)),
    "alg7_k4_metric": ("alg7", 4, "metric", [8] * 100 + [12] * 100, F(5, 6)),
    "alg7_k4_one_two": ("alg7", 4, "one_two", [8] * 100 + [12] * 100, F(7, 8)),
    "alg8_k4_metric": ("alg8", 4, "metric", [8] * 100 + [12] * 100, F(14, 17)),
    "cp3_911_one_two": ("3cp911", 3, "one_two", [9] * 100 + [12] * 100, F(9, 11)),
}


@lru_cache(maxsize=1)
def run_suites():
    data = {}
    t0 = time.perf_counter()
    for name, (algo, k, klass, sizes, _) in SUITES.items():
        reports = []
        for i, n in enumerate(sizes):
            g = generate_instance(n, klass, seed=10_000 + i)
            reports.extend(audit_instance(g, k, [algo]))
        data[name] = reports
    return data, time.perf_counter() - t0


def _checks(fixture_id, expectations):
    rows = run_fixture_checks(fixture_id)
    got = {name: actual for name, _, actual in rows}
    for name, expected, actual in rows:
        assert expected == actual, f"{fixture_id} {name}"
    for key, val in expectations.items():
        assert got[key] == val, (key, got[key], val)


def test_criterion_1_general_4cp_fixture():
    t0 = time.perf_counter()
    _checks(
        "fig3_general4cp",
        {"opt_weight": 12, "alg_weight": 9, "ratio": F(3, 4)},
    )
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_metric_4cp_fixture():
    t0 = time.perf_counter()
    fx = get_fixture("fig5_metric4cp")
    assert is_metric(fx.graph)[0]
    _checks(
        "fig5_metric4cp",
        {"matching_weight": 12, "opt_weight": 24, "alg_weight": 20,
         "ratio": F(5, 6)},
    )
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_general_4pp_fixture():
    t0 = time.perf_counter()
    _checks(
        "fig4_general4pp",
        {"opt_weight": 8, "alg_weight": 6, "ratio": F(3, 4)},
    )
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_matching_5cp_fixture():
    t0 = time.perf_counter()
    _checks(
        "fig2_5cp",
        {"matching_weight": 20, "alg_weight": 35, "row_cycle_weight": 10,
         "opt_weight": 50, "ratio": F(7, 10)},
    )
    assert time.perf_counter() - t0 < 5.0


def test_criterion_5_ratio_suites():
    data, elapsed = run_suites()
    for name, (_, _, _, sizes, bound) in SUITES.items():
        reports = data[name]
        assert len(reports) >= 200, name
        worst = min(r.ratio for r in reports)
        assert worst >= bound, f"{name}: min ratio {worst} < {bound}"
    assert elapsed < 300.0, f"suites took {elapsed:.1f} s"


def test_criterion_6_lemma_audits():
    data, _ = run_suites()
    expected_audit = {
        "alg1": "offset_plain",
        "alg2": "offset_alg2",
        "alg3": "group_cycle[0]",
        "kpp-combined": "group_path[0]",
        "alg6": "p4_identity",
        "alg7": "contains_matching_edges",
        "alg8": "spliced_vs_matching",
        "3cp911": "reduction_identity",
    }
    for name, reports in data.items():
        algo = SUITES[name][0]
        for i, r in enumerate(reports):
            assert r.all_audits_hold, f"{name}/{i}"
            names = {a.name for a in r.audits}
            assert expected_audit[algo] in names, (name, names)


def test_criterion_7_matching_differential():
    count = 0
    seed = 0
    while count < 100:
        n = 4 + seed % 9  # n in 4..12
        g = generate_instance(n, "general", seed=77_000 + seed)
        for p in range(n // 2 + 1):
            a = matching_weight(g, max_weight_matching_of_size(g, p))
            b = matching_weight(g, brute_force_matching(g, p))
            assert a == b, (n, p, seed)
        count += 1
        seed += 1


def test_criterion_8_tables_are_lower_bound_guarantees():
    # published ratios are guarantees, checked only as lower bounds; the
    # tight fixtures show they cannot be raised
    data, _ = run_suites()
    for name, (algo, k, klass, _, bound) in SUITES.items():
        assert guarantee_bound(algo, k, klass) == bound
        assert min(r.ratio for r in data[name]) >= bound
    tight = {
        ("alg3", 5, "metric"): "fig2_5cp",
        ("alg6", 4, "general"): "fig3_general4cp",
        ("alg7", 4, "metric"): "fig5_metric4cp",
        ("alg7", 4, "one_two"): "fig3_lifted_12",
    }
    for (algo, k, klass), fid in tight.items():
        assert get_fixture(fid).expected["ratio"] == guarantee_bound(algo, k, klass)
