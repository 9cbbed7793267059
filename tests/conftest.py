import numpy as np
import pytest

from packgraph.cycle_packing import EdgeGroupPlan, default_plan
from packgraph.graph import WeightedCompleteGraph, generate_instance
from packgraph.matching import max_weight_matching_of_size


def graph_from_matrix(rows, class_tag="general", denom=1):
    w = np.array(rows, dtype=np.int64)
    return WeightedCompleteGraph(n=w.shape[0], w=w, class_tag=class_tag, denom=denom)


def uniform_graph(n, c, class_tag="general"):
    w = np.full((n, n), c, dtype=np.int64)
    np.fill_diagonal(w, 0)
    return WeightedCompleteGraph(n=n, w=w, class_tag=class_tag)


def malformed_alg3_plans():
    """An n = 15 metric instance, its size-6 matching, and the default alg3
    k = 5 plan made invalid three ways, keyed by the violation its packing
    shows: the edges regrouped 3/1/2, group 1 reusing group 0's end, and the
    isolated vertices cut to two groups."""
    g = generate_instance(15, "metric", seed=0)
    matching = max_weight_matching_of_size(g, 6)
    plan = default_plan(g, matching, 3, 1)
    edges, iso = sum(plan.groups, ()), plan.isolated
    return g, matching, {
        "wrong length 7": EdgeGroupPlan((edges[:3], edges[3:4], edges[4:]), iso),
        "duplicated vertex 0": EdgeGroupPlan(plan.groups, (iso[0], iso[0], iso[2])),
        "expected 3 blocks, got 2": EdgeGroupPlan(plan.groups, iso[:2]),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# one pass/fail line per acceptance criterion in the terminal summary

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and not report.passed):
            _acceptance_outcomes[report.nodeid] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        status = "PASS" if _acceptance_outcomes[nodeid] else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")
