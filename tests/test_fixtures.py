import dataclasses

import pytest

from packgraph import fixtures
from packgraph.fixtures import FIXTURE_IDS, get_fixture, run_fixture_checks
from packgraph.graph import is_metric, validate_packing


@pytest.mark.parametrize("fid", FIXTURE_IDS)
def test_fixture_checks_pass(fid):
    for name, expected, actual in run_fixture_checks(fid):
        assert expected == actual, f"{fid} {name}"


def test_aliases():
    assert get_fixture("fig5").id == "fig5_metric4cp"
    with pytest.raises(ValueError):
        get_fixture("fig9")


def test_fixture_overrides_are_consistent():
    for fid in FIXTURE_IDS:
        fx = get_fixture(fid)
        assert fx.graph.n % fx.k == 0
        if fx.matching_override is not None:
            assert fx.matching_override.covered() <= set(range(fx.graph.n))
        if fx.plan_override is not None:
            m = fx.plan_override.matching()
            assert m.size == sum(len(grp) for grp in fx.plan_override.groups)


def test_metric_fixtures_are_metric():
    for fid in ("fig2_5cp", "fig5_metric4cp", "fig3_lifted_12"):
        assert is_metric(get_fixture(fid).graph)[0]


def test_fig2_optimum_is_bounded_from_above():
    # a 5-cycle packing of 25 vertices has 25 edges, each of weight <= 2, so
    # OPT <= 50; the fixture checks find the row packing of weight 50
    fx = get_fixture("fig2")
    assert fx.graph.w.max() <= 2
    assert fx.graph.n * 2 == fx.expected["opt_weight"] == 50


def test_fig2_rows_count_as_the_optimum_only_at_the_upper_bound(monkeypatch):
    build = fixtures._BUILDERS["fig2_5cp"]

    def variant():
        # row 1 loses its edge v5 v1 (off the plan's matching), and a cross
        # edge at each of its ends gains: the rows weigh 49, the bound on OPT
        # still reads 50, and the expected values claim the rows' weight
        fx = build()
        w = fx.graph.w.copy()
        for (u, v), weight in (((4, 0), 1), ((4, 9), 2), ((0, 5), 2)):
            w[u, v] = w[v, u] = weight
        return dataclasses.replace(fx, graph=dataclasses.replace(fx.graph, w=w),
                                   expected={**fx.expected, "opt_weight": 49})

    monkeypatch.setitem(fixtures._BUILDERS, "fig2_5cp", variant)
    checks = {name: (expected, actual) for name, expected, actual in run_fixture_checks("fig2")}
    assert checks["opt_weight"] == (49, -1)
