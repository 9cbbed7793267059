import os
import re
import subprocess
import sys
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import BRUTE_FORCE_MAX_N, brute_force_matching
from conftest import graph_from_matrix
from packgraph import matching
from packgraph.fixtures import get_fixture
from packgraph.graph import generate_instance, matching_weight
from packgraph.matching import (
    check_matching_certificate,
    max_weight_matching_of_size,
    max_weight_perfect_matching,
    max_weight_perfect_matching_matrix,
)

CLASSES = ("general", "metric", "zero_one", "one_two")


def test_perfect_matching_fixture_values():
    assert matching_weight(
        get_fixture("fig3").graph, max_weight_perfect_matching(get_fixture("fig3").graph)
    ) == 6
    g = get_fixture("fig5").graph
    m = max_weight_perfect_matching(g)
    assert matching_weight(g, m) == 12
    assert m.covered() == set(range(8))


def test_perfect_matching_needs_even_n():
    g = generate_instance(5, "general", seed=0)
    with pytest.raises(ValueError):
        max_weight_perfect_matching(g)
    with pytest.raises(ValueError, match="^perfect matching needs an even vertex count$"):
        max_weight_perfect_matching_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_size_matching_fig2():
    g = get_fixture("fig2").graph
    m = max_weight_matching_of_size(g, 10)
    assert m.size == 10
    assert matching_weight(g, m) == 20


def test_size_matching_edges():
    g = generate_instance(9, "general", seed=11)
    assert max_weight_matching_of_size(g, 0).size == 0
    m1 = max_weight_matching_of_size(g, 1)
    assert matching_weight(g, m1) == int(g.w.max())
    with pytest.raises(ValueError):
        max_weight_matching_of_size(g, 5)
    with pytest.raises(ValueError):
        max_weight_matching_of_size(g, -1)


def test_brute_force_single_edge():
    g = graph_from_matrix(
        [[0, 1, 7, 2], [1, 0, 3, 4], [7, 3, 0, 5], [2, 4, 5, 0]]
    )
    m = brute_force_matching(g, 1)
    assert m.edges == ((0, 2),)


def test_engine_matches_brute_force_small():
    for seed in range(12):
        n = 4 + 2 * (seed % 4)
        g = generate_instance(n, "general", seed=seed)
        for p in range(n // 2 + 1):
            a = matching_weight(g, max_weight_matching_of_size(g, p))
            b = matching_weight(g, brute_force_matching(g, p))
            assert a == b, (seed, n, p)


def test_matching_is_disjoint():
    g = generate_instance(10, "general", seed=99)
    m = max_weight_matching_of_size(g, 3)
    flat = [v for e in m.edges for v in e]
    assert len(flat) == len(set(flat)) == 6


# ---------------------------------------------------------------------------
# the blossom engine against networkx, its certificate, and the subset DP


def _networkx_matching(w):
    """Reference: networkx's blossom on the upper triangle of w."""
    import networkx as nx

    n = len(w)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            G.add_edge(u, v, weight=int(w[u][v]))
    return sorted(tuple(sorted(e)) for e in nx.max_weight_matching(G, maxcardinality=True))


def _pairings(verts):
    if not verts:
        yield ()
        return
    u = verts[0]
    for i in range(1, len(verts)):
        v = verts[i]
        rest = verts[1:i] + verts[i + 1 :]
        for tail in _pairings(rest):
            yield ((u, v),) + tail


def _enumerated_best_weight(g, p):
    """Reference: the heaviest size-p matching over every pairing of every
    2p-subset."""
    return max(
        sum(g.weight(u, v) for u, v in edges)
        for verts in combinations(range(g.n), 2 * p)
        for edges in _pairings(list(verts))
    )


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_engine_equals_networkx_tie_for_tie(data):
    n = data.draw(st.sampled_from(range(4, 25, 2)), label="n")
    if data.draw(st.booleans(), label="generated"):
        klass = data.draw(st.sampled_from(CLASSES), label="class")
        w = generate_instance(n, klass, seed=data.draw(st.integers(0, 10**6))).w
    else:
        hi = data.draw(st.integers(1, 4), label="hi")
        flat = data.draw(st.lists(st.integers(0, hi), min_size=n * n, max_size=n * n))
        w = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                w[u][v] = w[v][u] = flat[u * n + v]
    assert max_weight_perfect_matching_matrix(w) == _networkx_matching(w)


@given(n=st.integers(3, 14), seed=st.integers(0, 10**6), klass=st.sampled_from(CLASSES))
@settings(max_examples=40, deadline=None)
def test_engine_equals_networkx_on_dummy_vertex_matrices(n, seed, klass):
    g = generate_instance(n, klass, seed=seed)
    engine = matching.max_weight_perfect_matching_matrix
    for p in range(1, n // 2 + 1):
        with mock.patch.object(matching, "max_weight_perfect_matching_matrix", wraps=engine) as spy:
            max_weight_matching_of_size(g, p)
        ((w,), _) = spy.call_args
        assert engine(w) == _networkx_matching(w), (p, len(w))


@pytest.mark.parametrize("klass", ["metric", "general"])
@pytest.mark.parametrize("seed", range(3))
def test_engine_equals_networkx_on_blossom_heavy_dummy_matrices(klass, seed):
    # at n = 40 the p = n/4 matrix (60 vertices) makes 70-144 blossoms
    g = generate_instance(40, klass, seed=seed)
    engine = matching.max_weight_perfect_matching_matrix
    for p in (10, 16):
        with mock.patch.object(matching, "max_weight_perfect_matching_matrix", wraps=engine) as spy:
            max_weight_matching_of_size(g, p)
        ((w,), _) = spy.call_args
        assert len(w) == 80 - 2 * p
        assert engine(w) == _networkx_matching(w), p


def graph_from_symmetric(a):
    upper = np.triu(a, 1)
    return graph_from_matrix(upper + upper.T)


def _certificate(w):
    n = len(w)
    w2 = [[2 * int(w[u][v]) for v in range(n)] for u in range(n)]
    return matching._blossom(w2)


def test_certificate_rejects_corrupted_duals_blossoms_and_mates():
    # find a seeded instance whose certificate has a blossom with positive z
    for seed in range(200):
        w = generate_instance(12, "general", seed=seed).w.tolist()
        mate, dual, blossoms = _certificate(w)
        tight = [(verts, z) for verts, z in blossoms if z > 0]
        if tight:
            break
    assert tight, "no seed produced a blossom with positive dual"
    check_matching_certificate(w, mate, dual, blossoms)

    def rejects(mate=mate, dual=dual, blossoms=blossoms):
        with pytest.raises(AssertionError):
            check_matching_certificate(w, mate, dual, blossoms)

    for v in range(len(w)):
        rejects(dual=dual[:v] + [dual[v] - 1] + dual[v + 1 :])
    i = blossoms.index(tight[0])
    verts, z = tight[0]
    for bad in ((verts, z + 1), (verts, z - 1), (verts, -1), (verts[1:], z)):
        rejects(blossoms=blossoms[:i] + [bad] + blossoms[i + 1 :])
    a, b = 0, mate[0]
    c = next(v for v in range(len(w)) if v not in (a, b))
    d = mate[c]
    swapped = list(mate)
    swapped[a], swapped[b], swapped[c], swapped[d] = c, d, a, b
    rejects(mate=swapped)
    rejects(mate=[-1] + mate[1:])


def test_certificate_rejects_a_wrong_size_and_a_blossom_that_is_not_full():
    w = generate_instance(6, "general", seed=0).w.tolist()
    mate, dual = [1, 0, 3, 2, 5, 4], [0] * 6
    with pytest.raises(AssertionError, match="^certificate has the wrong size$"):
        check_matching_certificate(w, mate[:4], dual, [])
    with pytest.raises(AssertionError, match="^certificate has the wrong size$"):
        check_matching_certificate(w, mate, dual[:5], [])
    # no vertex of (0, 2, 4) is matched inside it
    with pytest.raises(AssertionError, match="^blossom with positive dual is not full$"):
        check_matching_certificate(w, mate, dual, [((0, 2, 4), 1)])


@pytest.mark.parametrize(
    "weights, mate, dual, message",
    [
        # a non-tight matched edge in row 0, an infeasible pair in row 2
        ({(2, 3): 5}, [1, 0, 3, 2], [1, 1, 0, 0], "matched edge (0, 1) is not tight"),
        # an infeasible pair in row 0, a non-tight matched edge in row 2
        ({(0, 1): 5}, [1, 0, 3, 2], [0, 0, 1, 1], "dual infeasible on edge (0, 1)"),
        # both in row 0: the non-tight matched edge, then the infeasible pair
        ({(0, 2): 5}, [1, 0, 3, 2], [1, 1, 0, 0], "matched edge (0, 1) is not tight"),
        # both in row 0: the infeasible pair, then the non-tight matched edge
        ({(0, 1): 5}, [2, 3, 0, 1], [1, 0, 1, 0], "dual infeasible on edge (0, 1)"),
    ],
)
def test_certificate_names_the_first_faulty_pair(weights, mate, dual, message):
    w = [[0] * 4 for _ in range(4)]
    for (u, v), x in weights.items():
        w[u][v] = w[v][u] = x
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        check_matching_certificate(w, mate, dual, [])


def test_size_matching_refuses_a_perfect_matching_that_pairs_two_dummies(monkeypatch):
    # n = 4, p = 1: vertices 4 and 5 are the dummies
    monkeypatch.setattr(
        matching, "max_weight_perfect_matching_matrix", lambda w: [(0, 1), (2, 3), (4, 5)]
    )
    g = generate_instance(4, "general", seed=0)
    with pytest.raises(AssertionError, match="^dummy reduction produced wrong cardinality$"):
        max_weight_matching_of_size(g, 1)


def test_engine_on_weights_near_int64_max_equals_networkx():
    rng = np.random.default_rng(61)
    for _ in range(5):
        g = graph_from_symmetric(rng.integers(2**61, 2**62, size=(10, 10)))
        assert list(max_weight_perfect_matching(g).edges) == _networkx_matching(g.w)
        big = 1 + sum(map(sum, g.w.tolist())) // 2
        for p in range(1, 5):
            size = g.n + g.n - 2 * p
            w = [[0] * size for _ in range(size)]
            for u in range(g.n):
                for v in range(size):
                    if u != v:
                        w[u][v] = w[v][u] = g.weight(u, v) if v < g.n else big
            expected = [e for e in _networkx_matching(w) if e[1] < g.n]
            assert list(max_weight_matching_of_size(g, p).edges) == expected


def test_size_matching_with_weights_beyond_int64_sums():
    rng = np.random.default_rng(58)
    for _ in range(6):
        g = graph_from_symmetric(rng.integers(2**58, 2**62, size=(8, 8)))
        assert g.total_weight() == sum(map(sum, g.w.tolist())) // 2
        for p in range(5):
            a = matching_weight(g, max_weight_matching_of_size(g, p))
            assert a == matching_weight(g, brute_force_matching(g, p)), p


@given(n=st.integers(3, 8), seed=st.integers(0, 10**6), klass=st.sampled_from(CLASSES))
@settings(max_examples=60, deadline=None)
def test_brute_force_equals_enumeration(n, seed, klass):
    g = generate_instance(n, klass, seed=seed)
    for p in range(n // 2 + 1):
        m = brute_force_matching(g, p)
        assert m.size == p
        assert matching_weight(g, m) == _enumerated_best_weight(g, p), p


def test_brute_force_refuses_above_cap():
    g = generate_instance(BRUTE_FORCE_MAX_N + 1, "general", seed=0)
    with pytest.raises(ValueError, match="cap"):
        brute_force_matching(g, 2)


def test_cli_import_leaves_networkx_out():
    code = "import sys, packgraph.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
