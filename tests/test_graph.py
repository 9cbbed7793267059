import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import brute_force_metric_violation
from conftest import graph_from_matrix, uniform_graph
from packgraph.fixtures import get_fixture
from packgraph.graph import (
    FormatError,
    HamiltonianCycle,
    KCyclePacking,
    KPathPacking,
    PackingError,
    WeightedCompleteGraph,
    check_weight_class,
    generate_instance,
    is_metric,
    load_instance,
    packing_weight,
    path_weight,
    require_block,
    save_instance,
    tilde_weight,
    validate_packing,
)

FIG3_OPT = KCyclePacking(
    k=4, cycles=((1, 2, 7, 8), (3, 4, 9, 10), (5, 6, 11, 0))
)
FIG5_OPT = KCyclePacking(k=4, cycles=((1, 2, 4, 3), (5, 6, 0, 7)))


def test_save_load_roundtrip():
    g = get_fixture("fig5").graph
    doc = save_instance(g)
    h = load_instance(doc)
    assert h.n == 8
    assert h.class_tag == "metric"
    assert (h.w == g.w).all()
    assert h.denom == g.denom


def _assert_roundtrip(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no declared class may be downgraded
        h = load_instance(save_instance(g))
    assert (h.n, h.class_tag, h.denom) == (g.n, g.class_tag, g.denom)
    assert h.w.dtype == np.int64 and (h.w == g.w).all()


@given(st.sampled_from(["general", "metric", "zero_one", "one_two"]),
       st.integers(3, 20), st.integers(0, 1 << 32), st.integers(1, 10**18))
@settings(max_examples=60, deadline=None)
def test_save_load_roundtrip_generated(class_tag, n, seed, denom):
    g = generate_instance(n, class_tag, seed=seed)
    _assert_roundtrip(WeightedCompleteGraph(n=n, w=g.w, denom=denom, class_tag=class_tag))


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(3, 20))
    upper = draw(st.lists(st.integers(0, (1 << 63) - 1),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    w = np.zeros((n, n), dtype=np.int64)
    w[np.triu_indices(n, 1)] = upper
    return w + w.T


@given(_symmetric_matrices(), st.integers(1, 10**18))
@settings(max_examples=60, deadline=None)
def test_save_load_roundtrip_random_matrices(w, denom):
    _assert_roundtrip(WeightedCompleteGraph(n=len(w), w=w, denom=denom))


# one document per FormatError of load_instance, and its message
MALFORMED_DOCUMENTS = [
    ("# only a comment\n", "empty document"),
    ("not a packgraph file", "bad header: 'not a packgraph file'"),
    ("packgraph 2 n=3 class=general\n1 2\n3\n", "bad header: 'packgraph 2 n=3 class=general'"),
    ("packgraph 1 n=3 general\n1 2\n3\n", "bad header token 'general'"),
    ("packgraph 1 k=3 class=general\n1 2\n3\n", "bad header fields: 'n'"),
    ("packgraph 1 n=three class=general\n1 2\n3\n", "bad header fields: invalid literal"),
    ("packgraph 1 n=3 class=metrc\n1 2\n3\n", "unknown class tag 'metrc'"),
    ("packgraph 1 n=3 class=general\n1 2\nx\n", "non-integer weight 'x'"),
    ("packgraph 1 n=3 class=general\n1 2\n", "expected 3 weights, got 2"),
    ("packgraph 1 n=3 class=general\n1 -2\n3\n", "negative weight"),
    (f"packgraph 1 n=3 class=general\n1 {2**63}\n3\n", f"weight {2**63} does not fit in int64"),
]


def test_load_rejects_garbage():
    for doc, message in MALFORMED_DOCUMENTS:
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            load_instance(doc)


def test_load_downgrades_bad_class_declaration():
    # declares metric but w(0,1)=5 > w(0,2)+w(2,1)=2
    doc = "packgraph 1 n=3 class=metric\n5 1\n1\n"
    with pytest.warns(UserWarning):
        g = load_instance(doc)
    assert g.class_tag == "unknown"


def test_load_comments_and_denom():
    doc = "# halves\npackgraph 1 n=3 class=general denom=2\n1 2  # row 0\n3\n"
    g = load_instance(doc)
    assert g.denom == 2
    assert g.weight(1, 2) == 3


def test_is_metric_examples():
    ok, trip = is_metric(uniform_graph(5, 3))
    assert ok and trip is None
    g = graph_from_matrix([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    ok, trip = is_metric(g)
    assert not ok
    u, x, v = trip
    assert g.weight(u, v) > g.weight(u, x) + g.weight(x, v)
    assert {u, v} == {0, 1} and x == 2


def test_is_metric_near_int64_max():
    assert is_metric(uniform_graph(5, 2**62)) == (True, None)
    top = 2**63 - 1
    g = graph_from_matrix(
        [[0, top, 2**61, 2**61], [top, 0, 2**61, 2**61], [2**61, 2**61, 0, 1], [2**61, 2**61, 1, 0]]
    )
    assert is_metric(g) == (False, (0, 2, 1))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_is_metric_reports_the_brute_force_triple(data):
    n = data.draw(st.integers(3, 12), label="n")
    if data.draw(st.booleans(), label="metric"):
        w = generate_instance(n, "metric", seed=data.draw(st.integers(0, 10**6))).w.copy()
        for u, v, bump in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 300)), max_size=3)):
            if u != v:
                w[u, v] = w[v, u] = w[u, v] + bump
    else:
        hi = data.draw(st.sampled_from((1, 4, 100, 2**62)), label="hi")
        flat = data.draw(st.lists(st.integers(0, hi), min_size=n * n, max_size=n * n))
        w = np.triu(np.array(flat, dtype=np.int64).reshape(n, n), 1)
        w = w + w.T
    g = graph_from_matrix(w)
    triple = brute_force_metric_violation(g)
    assert is_metric(g) == (triple is None, triple)


def test_generate_instance_classes():
    g = generate_instance(8, "one_two", seed=7)
    assert check_weight_class(g, "one_two")
    assert is_metric(g)[0]
    g = generate_instance(12, "zero_one", seed=3)
    assert check_weight_class(g, "zero_one")
    for dist in ("euclidean", "closure"):
        g = generate_instance(10, "metric", distribution=dist, seed=1)
        assert is_metric(g)[0]
    assert (
        generate_instance(9, "general", seed=4).w
        == generate_instance(9, "general", seed=4).w
    ).all()


def test_generate_instance_errors():
    with pytest.raises(ValueError):
        generate_instance(2, "general")
    with pytest.raises(ValueError):
        generate_instance(8, "lattice")


def test_tilde_weight_examples():
    assert tilde_weight(uniform_graph(4, 1), (0, 1, 2, 3)) == 2
    w = np.ones((6, 6), dtype=np.int64)
    np.fill_diagonal(w, 0)
    w[0, 1] = w[1, 0] = 1
    w[2, 3] = w[3, 2] = 4
    w[4, 5] = w[5, 4] = 9
    g = WeightedCompleteGraph(n=6, w=w)
    assert tilde_weight(g, (0, 1, 2, 3, 4, 5)) == 14
    with pytest.raises(ValueError):
        tilde_weight(g, (0, 1, 2))


@given(st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_tilde_at_most_path_weight(seed):
    g = generate_instance(8, "general", seed=seed)
    path = tuple(np.random.default_rng(seed).permutation(8))
    assert tilde_weight(g, path) <= path_weight(g, path)


def test_validate_packing_examples():
    g = get_fixture("fig3").graph
    assert validate_packing(g, FIG3_OPT, 4, "cycle") is None
    shared = KPathPacking(k=4, paths=((0, 1, 2, 3), (3, 4, 5, 6), (7, 8, 9, 10)))
    assert "duplicated vertex" in validate_packing(g, shared, 4, "path")
    partial = KCyclePacking(k=4, cycles=((0, 1, 2, 3), (4, 5, 6, 7)))
    msg = validate_packing(g, partial, 4, "cycle")
    assert "blocks" in msg or "missing vertex" in msg
    missing = KCyclePacking(k=4, cycles=((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 10)))
    assert validate_packing(g, missing, 4, "cycle") is not None
    assert validate_packing(g, FIG3_OPT, 5, "cycle") == "n=12 not divisible by k=5"
    assert validate_packing(g, FIG3_OPT, 3, "cycle") == "packing declares k=4, expected 3"
    far = KCyclePacking(k=4, cycles=FIG3_OPT.cycles[:2] + ((5, 6, 11, 12),))
    assert validate_packing(g, far, 4, "cycle") == "vertex 12 out of range"
    # twelve distinct ids in range, one of them not a vertex
    half = KCyclePacking(k=4, cycles=FIG3_OPT.cycles[:2] + ((5, 6, 11, 0.5),))
    assert validate_packing(g, half, 4, "cycle") == "missing vertex 0"
    # the least k is checked before n % k
    for k in (0, -3):
        empty = KCyclePacking(k=k, cycles=())
        assert validate_packing(g, empty, k, "cycle") == "cycles need k >= 3"
        with pytest.raises(PackingError, match="^cycles need k >= 3$"):
            packing_weight(g, empty)


def test_unknown_kind_and_repeated_tour_vertex_are_refused():
    g = get_fixture("fig3").graph
    message = "^kind must be cycle or path, got 'tree'$"
    with pytest.raises(ValueError, match=message):
        require_block(4, "tree")
    with pytest.raises(ValueError, match=message):
        validate_packing(g, FIG3_OPT, 4, "tree")
    with pytest.raises(PackingError, match="^tour repeats a vertex$"):
        HamiltonianCycle((0, 1, 1))


def test_validate_packing_reports_a_packing_of_the_other_kind():
    g = get_fixture("fig3").graph
    as_paths = KPathPacking(k=4, paths=FIG3_OPT.cycles)
    assert validate_packing(g, as_paths, 4, "path") is None
    assert validate_packing(g, as_paths, 4, "cycle") == (
        "expected a cycle packing, got a path packing")
    assert validate_packing(g, FIG3_OPT, 4, "path") == (
        "expected a path packing, got a cycle packing")


def test_packing_weight_examples():
    assert packing_weight(get_fixture("fig3").graph, FIG3_OPT) == 12
    assert packing_weight(get_fixture("fig5").graph, FIG5_OPT) == 24
    z = uniform_graph(4, 0)
    assert packing_weight(z, KCyclePacking(k=4, cycles=((0, 1, 2, 3),))) == 0


# one matrix per refusal of WeightedCompleteGraph, the fields that differ
# from its defaults, and the message
INVALID_GRAPHS = [
    ([[0, 1], [1, 0]], {}, "need at least 3 vertices, got 2"),
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], {"n": 4}, "weight matrix shape mismatch"),
    ([[0, -1, 2], [-1, 0, 3], [2, 3, 0]], {}, "negative weight"),
    ([[1, 1, 2], [1, 0, 3], [2, 3, 0]], {}, "self-loop weight must be zero"),
    ([[0, 1, 2], [4, 0, 3], [2, 3, 0]], {}, "weight matrix not symmetric"),
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], {"denom": 0}, "denominator must be positive"),
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], {"class_tag": "metrc"}, "unknown weight class 'metrc'"),
]


def test_graph_validation():
    for rows, fields, message in INVALID_GRAPHS:
        w = np.array(rows, dtype=np.int64)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightedCompleteGraph(**{"n": len(rows), "w": w, **fields})
