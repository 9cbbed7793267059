import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import brute_force_optimal_packing
from conftest import graph_from_matrix, uniform_graph
from packgraph.fixtures import get_fixture
from packgraph.graph import (
    HamiltonianCycle,
    cycle_weight,
    generate_instance,
    matching_weight,
    packing_weight,
    path_weight,
    tilde_weight,
)
from packgraph.matching import max_weight_perfect_matching
from packgraph.oracles import (
    _require_packing_fit,
    audit_instance,
    best_k_tour_on_set,
    optimal_k_packing,
)
from packgraph import tsp
from packgraph.tsp import (
    _MEMO,
    _MEMO_BYTES,
    MEMORY_BUDGET,
    OracleCapError,
    _Memo,
    _STEP_BUDGET,
    _footprint,
    _held_karp,
    _index_dtype,
    _popcounts,
    _step_tables,
    _tour_footprint,
    exact_max_tsp,
    split_cycle_best_offset,
    split_objective_value,
)


def _brute_force_tsp(g):
    best = -1
    for p in permutations(range(1, g.n)):
        best = max(best, cycle_weight(g, (0,) + p))
    return best


def test_exact_tsp_two_heavy_edges():
    g = graph_from_matrix(
        [[0, 10, 1, 1], [10, 0, 1, 1], [1, 1, 0, 10], [1, 1, 10, 0]]
    )
    H = exact_max_tsp(g)
    assert cycle_weight(g, H.order) == 22


def test_exact_tsp_triangle_and_uniform():
    g = graph_from_matrix([[0, 2, 3], [2, 0, 5], [3, 5, 0]])
    assert cycle_weight(g, exact_max_tsp(g).order) == 10
    g = uniform_graph(6, 4)
    assert cycle_weight(g, exact_max_tsp(g).order) == 24


def test_exact_tsp_matches_brute_force():
    for seed in range(6):
        g = generate_instance(7, "general", seed=seed)
        assert cycle_weight(g, exact_max_tsp(g).order) == _brute_force_tsp(g)


def _traced_peak(call):
    """The most bytes tracemalloc sees allocated at once during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _metric(n):
    return lambda: generate_instance(n, "metric", seed=0)


@pytest.mark.parametrize(
    "graph, call, mb",
    [
        (_metric(23), exact_max_tsp, 394),
        (_metric(22), lambda g: optimal_k_packing(g, 11, "path"), 316),
        (_metric(24), lambda g: optimal_k_packing(g, 8, "cycle"), 509),
        # fig2's weights (<= 2) give it int16 layers, its shape's smallest
        # estimate; ``solve --in fig2 --oracle`` falls back to the fixture's
        # scripted optimum on this refusal
        (lambda: get_fixture("fig2").graph, lambda g: optimal_k_packing(g, 5, "cycle"), 346),
    ],
    ids=["tour-n23", "oracle-n22-k11-path", "oracle-n24-k8-cycle", "oracle-fig2-n25-k5-cycle"],
)
def test_exact_dps_refuse_above_the_memory_budget_before_allocating(graph, call, mb):
    # the first sizes refused: the tour fits at n = 22, every k at n = 21,
    # k = 2 at n = 22 and k <= 6 at n = 24
    g = graph()
    refusals = []

    def refused():
        with pytest.raises(OracleCapError) as exc:
            call(g)
        refusals.append(str(exc.value))

    assert _traced_peak(refused) < 1 << 20
    budget = MEMORY_BUDGET >> 20
    (message,) = refusals
    assert f"needs an estimated {mb} MB, above the memory budget of {budget} MB" in message


@pytest.mark.parametrize(
    "n, k, kind",
    [(18, None, None), (20, None, None), (18, 6, "cycle"), (18, 9, "path"),
     (20, 4, "cycle"), (20, 10, "path")],
)
def test_memory_estimate_is_within_twice_the_traced_peak(monkeypatch, n, k, kind):
    g = generate_instance(n, "metric", seed=0)
    if k is None:
        estimate = _tour_footprint(g).total
        call = lambda: exact_max_tsp(g)  # noqa: E731
    else:
        estimate = _require_packing_fit(g, k, kind)[0].total
        call = lambda: optimal_k_packing(g, k, kind)  # noqa: E731
    # the estimate counts the index tables the call builds when none is
    # kept: every one of them comes from the memo, here an empty one
    monkeypatch.setattr(tsp, "_MEMO", _Memo(_MEMO_BYTES))
    peak = _traced_peak(call)
    assert peak <= estimate <= 2 * peak


def test_exact_tsp_refuses_weights_beyond_int64_sums():
    rng = np.random.default_rng(0)
    w = np.triu(rng.integers(1 << 59, 1 << 61, size=(8, 8)), 1)
    with pytest.raises(ValueError, match="overflow"):
        exact_max_tsp(graph_from_matrix(w + w.T))
    heaviest = ((1 << 63) - 1) // 8  # the heaviest weight whose tour sum fits
    g = uniform_graph(8, heaviest)
    assert cycle_weight(g, exact_max_tsp(g).order) == 8 * heaviest


def _reference_held_karp(w, first, top, anchored):
    """Per popcount c = 1..top, the dict {(S, j): heaviest path through the
    mask S ending at j}, from a path start v of weight first[v] (anchored:
    v = min(S)); pure Python."""
    m = len(first)
    layers = [{(1 << v, v): first[v] for v in range(m)}]
    for _ in range(2, top + 1):
        nxt = {}
        for (S, i), val in layers[-1].items():
            for j in range(m):
                if S >> j & 1 or (anchored and 1 << j < S & -S):
                    continue
                key, cand = (S | 1 << j, j), val + w[i][j]
                if cand > nxt.get(key, -1):
                    nxt[key] = cand
        layers.append(nxt)
    return layers


@st.composite
def _kernel_inputs(draw):
    """A zero-diagonal m x m matrix, not always symmetric, and path starts,
    whose heaviest weight is small, or the largest that keeps m + 1 weights
    within int16 or int32, or one above either."""
    m = draw(st.integers(1, 9))
    l16, l32 = (int(np.iinfo(t).max) // (m + 1) for t in (np.int16, np.int32))
    heaviest, dtype = draw(st.sampled_from([
        (9, np.int16), (l16, np.int16), (l16 + 1, np.int32), (l32, np.int32),
        (l32 + 1, np.int64),
    ]))
    vals = st.integers(0, heaviest)
    w = [[0 if i == j else draw(vals) for j in range(m)] for i in range(m)]
    first = [draw(vals) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        w[0][m - 1] = heaviest
    else:
        first[draw(st.integers(0, m - 1))] = heaviest
    return w, first, draw(st.integers(1, m)), draw(st.booleans()), dtype


def _assert_kernel_matches_the_reference(w, first, top, anchored, dtype):
    m = len(first)
    masks, rank = _popcounts(m)
    fp = _footprint(m, top, max(max(map(max, w)), max(first)))
    layers = _held_karp(np.array(w), np.array(first), top, anchored, masks, fp)
    reference = _reference_held_karp(w, first, top, anchored)
    assert len(layers) == len(reference) == top
    for c, (dp, ref) in enumerate(zip(layers, reference), start=1):
        assert dp.dtype == dtype
        masks = [S for S in range(1 << m) if bin(S).count("1") == c]
        assert dp.shape == (m, len(masks))
        unset = np.iinfo(dp.dtype).min
        got = dp.tolist()
        for S in masks:
            for j in range(m):
                assert got[j][rank[S]] == ref.get((S, j), unset), (c, S, j)


@given(_kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_held_karp_matches_a_dict_reference(case):
    _assert_kernel_matches_the_reference(*case)


def _kernel_case(m, top, dtype):
    """Random kernel inputs (w, first) on m vertices, drawn with the seed
    ``top``, whose heaviest weight makes the layers ``dtype`` (int16 or
    int64)."""
    heaviest = int(np.iinfo(np.int16).max) // (m + 1)
    if dtype == np.int64:
        heaviest = int(np.iinfo(np.int32).max) // (m + 1) + 1
    rng = np.random.default_rng(top)
    w = rng.integers(0, heaviest + 1, size=(m, m))
    np.fill_diagonal(w, 0)
    w[0, m - 1] = heaviest
    return w, rng.integers(0, heaviest + 1, size=m)


def _row_run_case(dtype, anchored):
    """Kernel inputs on m = 13 up to popcount 7, whose last layer's maxima
    are taken in runs of fewer rows than its 13 path ends, the last run
    shorter than the others; the heaviest weight makes the layers ``dtype``."""
    m, top = 13, 7
    rows = _STEP_BUDGET // (m * comb(m, top - 1))
    assert 1 < rows < m and m % rows != 0
    w, first = _kernel_case(m, top, dtype)
    return w.tolist(), first.tolist(), top, anchored, dtype


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_held_karp_steps_split_into_row_runs_match_the_reference(dtype, anchored):
    _assert_kernel_matches_the_reference(*_row_run_case(dtype, anchored))


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_held_karp_reads_kept_positions_and_built_masks_alike(monkeypatch, dtype, anchored):
    # the memo keeps each shape's gather index: absolute intp positions in
    # the small layers, positions within a row, uint16, in the larger ones
    # of m = 17; a memo of no bytes keeps nothing, so the call builds
    # raveled boolean masks (and the popcount tables)
    for m, top, index_dtypes in ((13, 7, {np.intp}), (17, 17, {np.intp, np.uint16})):
        monkeypatch.undo()  # the module's memo again
        w, first = _kernel_case(m, top, dtype)
        fp = _footprint(m, top, int(max(w.max(), first.max())))
        kept = _held_karp(w, first, top, anchored, _popcounts(m)[0], fp)
        steps = tsp._MEMO.entries[("held_karp", m, top, anchored)][1]
        assert {idx.dtype for (idx,) in steps} == set(map(np.dtype, index_dtypes))
        empty = _Memo(budget=0)
        monkeypatch.setattr(tsp, "_MEMO", empty)
        built = _held_karp(w, first, top, anchored, _popcounts(m)[0], fp)
        assert empty.misses == 2 and not empty.entries
        assert len(kept) == len(built) == top
        for a, b in zip(kept, built):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b), (m, top)


def _moved(step, red):
    """What one kernel step moves from the maxima ``red``, an (m, C(m, c - 1))
    array, to layer c: -1 where no path ends; read from the per-call
    boolean tables (sources, ends), or from a kept gather index (idx,)."""
    m = red.shape[0]
    if len(step) == 2:
        sources, ends = step
        out = np.full(ends.size, -1, dtype=red.dtype)
        out[ends] = red.ravel()[sources]
        return out.reshape(m, -1)
    (idx,) = step
    padded = np.hstack([red, np.full((m, 1), -1, dtype=red.dtype)])
    if idx.dtype == np.intp:
        return padded.take(idx)
    return np.take_along_axis(padded, idx.astype(np.intp), axis=1)


def test_gather_index_at_m19_takes_uint32_and_matches_the_boolean_tables():
    # no memo keeps the tour's index at m = 19; this reads its builder up to
    # layer 10, whose sentinel C(19, 9) = 92378 needs uint32
    m, top = 19, 10
    masks, _ = _popcounts(m)
    for anchored in (False, True):
        steps = zip(_step_tables(masks, top, anchored, True),
                    _step_tables(masks, top, anchored, False))
        for c, (kept, built) in enumerate(steps, start=2):
            assert kept[0].dtype == _index_dtype(m, c)
            red = np.arange(m * comb(m, c - 1)).reshape(m, -1)
            assert np.array_equal(_moved(kept, red), _moved(built, red)), (anchored, c)
        assert c == top and kept[0].dtype == np.uint32


def _kept_bytes(memo):
    """The bytes of the arrays the memo keeps, counted from the arrays, per
    kind of table (the first item of a key)."""
    kept = {}
    for key, (_, tables) in memo.entries.items():
        nbytes = sum(a.nbytes for chunk in tables for a in chunk if isinstance(a, np.ndarray))
        kept[key[0]] = kept.get(key[0], 0) + nbytes
    return kept


def test_memo_keeps_within_its_budget(monkeypatch):
    # n = 16 at every k, then the tours at m = 15, 17 and 18: every shape
    # but the kernel at m = 18, whose gather index (9.2 MB) is above half
    # the budget, is kept, and the tours at m = 15 and 17 are kept together;
    # the popcount tables and block columns are counted with the rest
    memo = _Memo(_MEMO_BYTES)
    monkeypatch.setattr(tsp, "_MEMO", memo)
    for kind, ks in (("path", (2, 4, 8, 16)), ("cycle", (4, 8, 16))):
        for k in ks:
            optimal_k_packing(generate_instance(16, "metric", seed=k), k, kind)
            kept = _kept_bytes(memo)
            assert sum(kept.values()) == memo.nbytes <= memo.budget
            assert kept["popcounts"] >= 8 << 16 and kept["columns"] > 0
            assert ("held_karp", 16, k, kind == "cycle") in memo.entries
    for n in (16, 18, 19):
        exact_max_tsp(generate_instance(n, "metric", seed=0))
        kept = _kept_bytes(memo)
        assert sum(kept.values()) == memo.nbytes <= memo.budget
        assert ("popcounts", n - 1) in memo.entries
    assert ("held_karp", 15, 15, False) in memo.entries
    assert ("held_karp", 17, 17, False) in memo.entries
    assert ("held_karp", 18, 18, False) not in memo.entries


def test_an_exact_call_leaves_at_most_the_memo_budget_allocated(monkeypatch):
    # the 2^21 popcount tables (20 MB charged) are above half the memo's
    # budget: the call builds them once, passes them down and drops them
    memo = _Memo(_MEMO_BYTES)
    monkeypatch.setattr(tsp, "_MEMO", memo)
    built = []
    build = tsp._popcount_tables
    monkeypatch.setattr(tsp, "_popcount_tables", lambda m: built.append(m) or build(m))
    g = generate_instance(21, "metric", seed=0)
    tracemalloc.start()
    try:
        optimal_k_packing(g, 3, "cycle")
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated <= _MEMO_BYTES
    assert built == [21] and ("popcounts", 21) not in memo.entries


def test_estimate_follows_the_installed_memo(monkeypatch):
    # the tour's gather index at m = 15 (1.3 MB) is charged only where the
    # memo keeps it, whichever memo was installed at the first estimate
    kept = _footprint(15, 15, 100)
    monkeypatch.setattr(tsp, "_MEMO", _Memo(budget=0))
    assert kept.total - _footprint(15, 15, 100).total == kept.steps > 0


def test_memo_evicts_the_least_recently_used():
    memo = _Memo(budget=800)

    def build(size):
        return lambda: iter([(np.zeros(size, dtype=np.uint8),)])

    for key in "abc":
        memo.tables(key, 100, build(100))
    memo.tables("a", 100, build(100))  # a hit: "b" is now the oldest
    for key in "defghi":
        memo.tables(key, 100, build(100))
    assert list(memo.entries) == ["c", "a", "d", "e", "f", "g", "h", "i"]
    assert memo.nbytes == 800 and memo.misses == 9
    # half the budget is kept, evicting the four least recently used
    assert isinstance(memo.tables("half", 400, build(400)), list)
    assert list(memo.entries) == ["f", "g", "h", "i", "half"]
    assert memo.nbytes == 800 and memo.misses == 10
    # above half the budget: built on each call, nothing evicted
    assert not isinstance(memo.tables("big", 401, build(401)), list)
    assert "big" not in memo.entries and memo.nbytes == 800 and memo.misses == 11


# the audit-small shapes of perfbench: (algorithm, k, weight class, n)
_AUDIT_SHAPES = [
    ("alg1", 7, "metric", 14), ("alg2", 6, "metric", 12),
    ("kpp-combined", 6, "metric", 12), ("alg3", 5, "metric", 10),
    ("alg6", 4, "general", 8), ("alg6", 4, "general", 12),
    ("alg7", 4, "metric", 8), ("alg7", 4, "metric", 12),
    ("alg7", 4, "one_two", 8), ("alg7", 4, "one_two", 12),
    ("alg8", 4, "metric", 8), ("alg8", 4, "metric", 12),
    ("3cp911", 3, "one_two", 9), ("3cp911", 3, "one_two", 12),
]


def test_memo_serves_a_second_audit_sweep_without_misses():
    def sweep(seed):
        for algo, k, klass, n in _AUDIT_SHAPES:
            audit_instance(generate_instance(n, klass, seed=seed), k, [algo])

    sweep(0)
    misses = _MEMO.misses
    sweep(1)
    assert _MEMO.misses == misses


_INT16_MAX = int(np.iinfo(np.int16).max)


def _straddling_graph(n, m, over, seed):
    """A random n-vertex graph whose heaviest weight puts (m + 1) weights,
    the kernel's overflow bound, just within int16 (``over`` 0) or just
    past it (``over`` 1); the heaviest edge is (0, n - 1)."""
    heaviest = _INT16_MAX // (m + 1) + over
    assert ((m + 1) * heaviest > _INT16_MAX) == bool(over)
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(0, heaviest + 1, size=(n, n)), 1)
    w[0, n - 1] = heaviest
    return graph_from_matrix(w + w.T)


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("n", range(4, 10))
def test_readers_agree_across_the_int16_rung(n, over):
    # the tour's kernel runs on m = n - 1 vertices: n = 7 puts its bound at
    # 32767 and n = 8 at 32768
    g = _straddling_graph(n, n - 1, over, seed=n)
    assert cycle_weight(g, exact_max_tsp(g).order) == _brute_force_tsp(g)


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize(
    "n, k, kind",
    [(6, 3, "cycle"), (6, 2, "path"), (6, 6, "cycle"), (7, 7, "path"),
     (8, 4, "cycle"), (8, 4, "path"), (9, 3, "cycle")],
)
def test_oracle_readers_agree_across_the_int16_rung(n, k, kind, over):
    # the oracle's kernel runs on all n vertices (m = n): n = 6 puts its
    # bound at 32767 and n = 7 at 32768
    g = _straddling_graph(n, n, over, seed=n + k)
    packing, weight = optimal_k_packing(g, k, kind)
    assert weight == brute_force_optimal_packing(g, k, kind)
    assert packing_weight(g, packing) == weight
    # a block's kernel runs on its k vertices (m = k); the heaviest edge
    # (0, n - 1) lies in the block
    h = _straddling_graph(n, k, over, seed=n + k)
    S = [*range(k - 1), n - 1]
    weigh = cycle_weight if kind == "cycle" else path_weight
    best = max(weigh(h, p) for p in permutations(S))
    order, w = best_k_tour_on_set(h, S, kind)
    assert w == weigh(h, order) == best


def test_split_uniform_is_tight():
    g = uniform_graph(12, 5)
    H = HamiltonianCycle(order=tuple(range(12)))
    P = split_cycle_best_offset(g, H, 4, "plain")
    assert packing_weight(g, P) == 12 * 5 * 3 // 4


def test_split_keeps_heavy_edge():
    n, k = 8, 4
    w = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(w, 0)
    w[2, 3] = w[3, 2] = 100
    g = graph_from_matrix(w)
    P = split_cycle_best_offset(g, HamiltonianCycle(order=tuple(range(n))), k, "plain")
    pairs = {frozenset(e) for p in P.paths for e in zip(p, p[1:])}
    assert frozenset((2, 3)) in pairs


def test_split_alg2_objective_dominates_all_offsets_average():
    for seed in range(5):
        g = generate_instance(12, "metric", seed=seed)
        H = exact_max_tsp(g)
        hw = cycle_weight(g, H.order)
        k = 4
        P = split_cycle_best_offset(g, H, k, "alg2")
        obj = split_objective_value(g, P, "alg2")
        assert Fraction(obj) >= Fraction(((k - 1) ** 2 + 1) * hw, k)
        # and it really is the best of the k offsets
        n = g.n
        for off in range(k):
            paths = []
            for s in range(n // k):
                start = (off + s * k) % n
                paths.append(tuple(H.order[(start + t) % n] for t in range(k)))
            val = sum(
                (k - 2) * path_weight(g, p) + 2 * tilde_weight(g, p) for p in paths
            )
            assert obj >= val


def test_split_errors():
    g = uniform_graph(12, 1)
    H = HamiltonianCycle(order=tuple(range(12)))
    with pytest.raises(ValueError):
        split_cycle_best_offset(g, H, 5, "plain")
    with pytest.raises(ValueError):
        split_cycle_best_offset(g, H, 3, "alg2")


@given(st.integers(0, 500), st.sampled_from([3, 4, 6]))
@settings(max_examples=30, deadline=None)
def test_split_plain_guarantee(seed, k):
    g = generate_instance(12, "general", seed=seed)
    H = exact_max_tsp(g)
    hw = cycle_weight(g, H.order)
    P = split_cycle_best_offset(g, H, k, "plain")
    assert Fraction(packing_weight(g, P)) >= Fraction((k - 1) * hw, k)


def test_metric_tsp_lower_bounds():
    # exact tour weight dominates both packing-based lower bounds
    for seed in range(4):
        g = generate_instance(12, "metric", seed=seed)
        hw = cycle_weight(g, exact_max_tsp(g).order)
        for k in (3, 4, 6):
            _, opt = optimal_k_packing(g, k, "cycle")
            assert Fraction(2 * k * hw) >= Fraction((2 * k - 1) * opt)
            if k % 2 == 0:
                mw = matching_weight(g, max_weight_perfect_matching(g))
                assert Fraction(8 * hw) >= Fraction(5 * opt + 4 * mw)
