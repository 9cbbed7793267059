"""MAX TSP solver and the offset-based cycle-to-path splitters.

``_held_karp`` is the one subset-DP kernel of the package: a maximum-weight
Held-Karp over (subset, endpoint) states, vectorized per popcount layer.  It
gives the exact tour here, and the exact oracle's best k-cycles and k-paths
in ``oracles``.  Each layer is stored vertex-major, ``dp[j, rank[S]]``, so
that one step of the DP is an add and an elementwise max over contiguous
rows, taken for many path ends at once.  The tables that move a layer's
maxima to the entries of the next depend only on the shape.  The memo keeps
them as one gather index per layer, whose sentinel column holds the
no-path value, for each shape whose index takes at most half its 10 MB
budget (the tour up to n = 18); a larger shape builds them as boolean
masks on every call.  The layers hold the narrowest of int16, int32 and
int64 that the sum of m + 1 weights fits in; every sum read back from them
is taken in int64 or Python ints.  Because the tour is
exact, its weight dominates any approximate tour, so every downstream ratio
guarantee that is stated for an approximate TSP black box remains valid
with it plugged in.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import NamedTuple

import numpy as np

from .graph import (
    _INT64_MAX,
    HamiltonianCycle,
    KPathPacking,
    WeightedCompleteGraph,
    path_weight,
    require_divisible,
    tilde_weight,
)

# the most bytes one exact computation may allocate: a call whose estimate
# (``_footprint``) is larger raises OracleCapError before it allocates
MEMORY_BUDGET = 256 << 20
# the most entries the sums of one Held-Karp step take (unless one row of
# sums is larger): a layer whose path ends do not fit takes several steps
_STEP_BUDGET = 1 << 18
# the most entries of one temporary array of the kernel's step tables and
# of the partition DP (unless the blocks of one set are more)
_CHUNK = 1 << 16
# a kept gather index of fewer entries holds absolute intp positions, read
# by one gather per step; a larger one holds positions within each row in
# a narrower dtype, read by one gather per row
_FLAT_INDEX = 1 << 15
# bytes of index tables the memo keeps: the popcount tables, the kernel's
# gather indexes and the partition DP's block columns and ranks of the
# shapes called most recently; 10 MB holds the tours at n = 16 and 18
# (6.9 MB with their popcount tables) with every audit-small shape's tables
_MEMO_BYTES = 10 << 20


class OracleCapError(ValueError):
    """An exact computation estimated to take more than ``MEMORY_BUDGET``."""


class _Memo:
    """A least-recently-used memo of the index tables of a DP shape, which
    counts the bytes it keeps.

    ``tables(key, nbytes, build)`` returns what the generator ``build()``
    yields for the shape ``key``, tuples holding arrays, which the caller
    predicts to take ``nbytes``.  Tables predicted to take at most half
    the budget are kept as a list, evicting the least recently used until
    the bytes of the arrays kept fit.  Larger ones are never kept: the
    generator itself is returned, and builds them chunk by chunk as the
    caller reads it.  It holds every index table the exact DPs keep.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict = OrderedDict()  # key -> (nbytes, tables)
        self.nbytes = 0
        self.misses = 0

    def tables(self, key, nbytes: int, build):
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        if not _keeps(nbytes, self.budget):
            return build()
        tables = list(build())
        kept = sum(a.nbytes for chunk in tables for a in chunk if isinstance(a, np.ndarray))
        self.entries[key] = (kept, tables)
        self.nbytes += kept
        while self.nbytes > self.budget:
            self.nbytes -= self.entries.popitem(last=False)[1][0]
        return tables


def _keeps(nbytes: int, budget: int) -> bool:
    """Whether a memo of ``budget`` bytes keeps tables predicted to take ``nbytes``."""
    return 2 * nbytes <= budget


_MEMO = _Memo(_MEMO_BYTES)


def _popcount_tables(m: int):
    """Yields one tuple: rank, then the m-bit masks of each popcount c =
    0..m in increasing order, all int32 (the 2^m masks are listed, so
    m < 31).  rank[mask] is the position of mask among the m-bit masks of
    its popcount.  It is also the position among the masks of any width
    that holds the mask, as the smaller masks of a popcount come first."""
    pc = np.zeros(1, dtype=np.uint8)  # pc[mask]: the popcount of the mask
    for _ in range(m):
        pc = np.concatenate([pc, pc + 1])  # the masks with the next bit set
    masks = [np.flatnonzero(pc == c).astype(np.int32) for c in range(m + 1)]
    del pc  # before the rank table is allocated
    rank = np.empty(1 << m, dtype=np.int32)
    for layer in masks:
        rank[layer] = np.arange(layer.size)
    yield (rank, *masks)


def _popcounts(m: int):
    """(masks, rank) of ``_popcount_tables(m)``, charged 10 bytes a mask as
    in ``_footprint``, so the memo keeps them up to m = 18."""
    ((rank, *masks),) = _MEMO.tables(("popcounts", m), 10 << m, lambda: _popcount_tables(m))
    return masks, rank


def _index_dtype(m: int, c: int) -> np.dtype:
    """The dtype of the kept gather index of step c on m vertices: intp
    for one of fewer than ``_FLAT_INDEX`` entries, else the narrowest
    unsigned dtype that holds its sentinel, C(m, c - 1)."""
    if m * comb(m, c) < _FLAT_INDEX:
        return np.dtype(np.intp)
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                if comb(m, c - 1) <= np.iinfo(t).max)


def _step_tables(layers: list, top: int, anchored: bool, gather: bool):
    """For each step c = 2..top of the kernel on m vertices, whose masks by
    popcount are ``layers``, the tables that move the maxima over layer
    c - 1 to the entries of layer c they reach.

    They come from (sources, ends), the (m, C(m, c - 1)) and (m, C(m, c))
    boolean tables whose row j holds the masks of layer c - 1 that j
    extends, those without j (anchored: with a vertex below j), and the
    masks of layer c that end at j.  Each layer's membership tests are
    computed once and give the next step's sources.  Without ``gather``
    the two tables are yielded raveled.  With it, the step's gather index
    is yielded alone: idx[j, r] is the rank of S - {j} in layer c - 1 when
    j ends the r-th mask S of layer c, else C(m, c - 1), the sentinel
    column, in ``_index_dtype(m, c)``.  An intp index holds absolute
    positions in the (m, C(m, c - 1) + 1) maxima, a narrower one positions
    within its row.
    """
    m = len(layers) - 1
    bits = 1 << np.arange(m, dtype=np.int32)[:, None]

    def tests(c):
        # row j of layer c: the masks S that end at j, j in S (anchored: and
        # j above the start min(S)), and, anchored, the masks with j above
        # min(S); the bits are tested a chunk of masks at a time, which
        # bounds the int32 temporary
        masks = layers[c]
        has = np.empty((m, masks.size), dtype=bool)
        step = max(1, _CHUNK // m)
        for s in range(0, masks.size, step):
            np.not_equal(masks[s : s + step] & bits, 0, out=has[:, s : s + step])
        if not anchored:
            return has, None
        above = (masks & -masks) < bits
        return has & above, above

    ends, above = tests(1)
    for c in range(2, top + 1):
        sources = ~ends if above is None else above ^ ends
        ends, above = tests(c)
        if not gather:
            yield sources.ravel(), ends.ravel()
            continue
        width = sources.shape[1]
        idx = np.full(ends.shape, width, dtype=_index_dtype(m, c))
        for j in range(m):
            # removing bit j keeps masks in order: the r-th end of row j
            # comes from its r-th source
            idx[j, ends[j]] = np.flatnonzero(sources[j])
        if idx.dtype == np.intp:
            idx += np.arange(0, m * (width + 1), width + 1)[:, None]
        yield (idx,)


def _step_rows(size: int, m: int) -> int:
    """The path ends one Held-Karp step serves on a layer of ``size`` entries."""
    return min(m, max(1, _STEP_BUDGET // size))


class _Footprint(NamedTuple):
    """What an exact computation allocates, as ``_footprint`` estimates it."""

    dtype: type  # of the kernel's layers
    sums: int  # entries of the kernel's buffer for the sums of a step
    reduced: int  # entries of the kernel's buffer for a layer's maxima
    steps: int  # bytes of the kernel's gather indexes, which the memo may keep
    work: int  # bytes the kernel's steps take at once, freed with its last layer
    total: int  # bytes of the whole call

    @property
    def fits(self) -> bool:
        return self.total <= MEMORY_BUDGET


def _footprint(m: int, top: int, max_w: int) -> _Footprint:
    """The allocations of the kernel on m vertices up to popcount ``top``
    with weights up to ``max_w``, under the budget of the installed ``_MEMO``.

    The layers take int16 when m + 1 weights, a tour or a closed block, sum
    to at most 2^15 - 1, int32 when they sum to at most 2^31 - 1, else
    int64; heavier weights raise ValueError.  The no-path value plus one
    weight then stays below every real sum.

    ``total`` adds up, in bytes:
    - the masks of m bits by popcount and their ranks, 4 bytes a mask each,
      and 2 more that list them;
    - the layers, in their dtype;
    - the gather indexes, where the memo keeps them;
    - ``work``, what the kernel's steps take, freed when the last layer is
      made.
    The gather index of step c has one entry per entry of layer c, in
    ``_index_dtype``.  A step takes its buffers of sums and maxima, the
    values it moves, and one layer's step tables, built with up to 6 bytes
    of boolean tables per entry of the largest layer.  The oracle adds its
    partition DP's share (``oracles._require_packing_fit``).
    """
    bound = (m + 1) * max_w
    if bound > _INT64_MAX:
        raise ValueError(f"weights up to {max_w} overflow int64 sums of {m + 1} weights")
    dtype = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    return _shape_footprint(m, top, dtype, _MEMO.budget)


@lru_cache(maxsize=256)
def _shape_footprint(m: int, top: int, dtype: type, budget: int) -> _Footprint:
    b = np.dtype(dtype).itemsize
    size = [m * comb(m, c) for c in range(top + 1)]  # entries of layer c
    sums = max([_step_rows(s, m) * s for s in size[1:top]], default=0)
    reduced = max(size[1:top], default=0) + m  # with the sentinel column
    steps = sum(m * comb(m, c) * _index_dtype(m, c).itemsize for c in range(2, top + 1))
    kept = steps if _keeps(steps, budget) else 0
    work = b * (sums + reduced + max(size)) + 6 * max(size)
    total = (10 << m) + b * sum(size) + kept + work
    return _Footprint(dtype, sums, reduced, steps, work, total)


def _require_fit(fp: _Footprint, what: str) -> _Footprint:
    """``fp``; OracleCapError, naming the estimate and the budget, unless it fits."""
    if not fp.fits:
        raise OracleCapError(
            f"{what} needs an estimated {-(-fp.total >> 20)} MB, "
            f"above the memory budget of {MEMORY_BUDGET >> 20} MB"
        )
    return fp


def _held_karp(
    w: np.ndarray, first: np.ndarray, top: int, anchored: bool, masks: list, fp: _Footprint
):
    """Maximum-weight Held-Karp over the m vertices of the m x m matrix w;
    ``masks`` lists the m-bit masks by popcount (``_popcounts(m)``), and
    ``fp = _footprint(m, top, max_w)``, for weights in w and first up to
    max_w, is the plan the caller checked against the budget.

    Returns the popcount layers 1..top: the layer of popcount c is an
    (m, C(m, c)) array whose column rank[S], for the masks S of popcount c,
    holds dp[j, S], the heaviest path through S ending at j, where a path
    starts at some v with weight first[v] (``anchored``: at v = min(S)).
    States with no path hold the least value of the layers' dtype, which
    ``fp`` gives.  The layers are views of one block allocated per
    call, which the allocator serves again to the next call of the same
    size without faulting its pages back in.

    A step extends each column of layer c - 1 by the edge to j, a max over
    the m contiguous rows, and keeps the masks without j (anchored: with a
    vertex below j).  Removing bit j keeps masks in order, so these are, in
    order, the sources of the masks of layer c that end at j.  These step
    tables (``_step_tables``) depend only on (m, top, anchored).  Where the
    memo keeps a shape, it holds one gather index per step, built once,
    that lists for each entry of layer c the column of the maxima it takes,
    or a sentinel column of the no-path value.  Elsewhere the tables are
    built layer by layer on every call, as raveled boolean masks of the
    sources and ends.

    The maxima of a layer are taken a run of ends j at a time: a run adds
    the edges into its ends to the whole layer and reduces over the source
    axis into its rows of one buffer, (m, C(m, c - 1) + 1) with the
    sentinel column where the index is kept.  A run spans as many rows as
    keep its sums within ``_STEP_BUDGET`` entries, at least one, so the
    middle layers of m = 17 take one row per run.  A kept index then fills
    layer c by one gather per step (intp positions) or per row (positions
    within the row); boolean masks fill it with the no-path value, then
    move the maxima of the sources to their ends by one gather and one
    scatter.  All steps share the buffers of sums and maxima, allocated
    once per call.
    """
    m = len(first)
    unset = np.iinfo(fp.dtype).min
    wt = w.T.astype(fp.dtype)  # wt[j, i] = w[i, j], the edge into the end j
    bounds = list(accumulate((m * comb(m, c) for c in range(1, top + 1)), initial=0))
    block = np.empty(bounds[-1], dtype=fp.dtype)  # each layer is filled when it is made
    dps = [block[a:b].reshape(m, -1) for a, b in zip(bounds, bounds[1:])]
    dps[0].fill(unset)
    np.fill_diagonal(dps[0], first)  # layer 1 lists 1 << v at column v
    buf = np.empty(fp.sums, dtype=fp.dtype)
    maxima = np.empty(fp.reduced, dtype=fp.dtype)
    gather = _keeps(fp.steps, _MEMO.budget)
    tables = _MEMO.tables(
        ("held_karp", m, top, anchored), fp.steps,
        lambda: _step_tables(masks, top, anchored, gather),
    )
    for dp, nxt, step in zip(dps, dps[1:], tables):
        width = dp.shape[1]
        red = maxima[: m * (width + gather)].reshape(m, -1)
        rows = _step_rows(dp.size, m)
        for j in range(0, m, rows):
            # sums[r, i, S] = dp[i, S] + w[i, j + r]; the max over i extends S to j + r
            sums = buf[: min(rows, m - j) * dp.size].reshape(-1, m, width)
            np.add(dp, wt[j : j + rows, :, None], out=sums)
            np.maximum.reduce(sums, axis=1, out=red[j : j + rows, :width])
        if not gather:
            sources, ends = step
            nxt.fill(unset)
            nxt.reshape(-1)[ends] = red.reshape(-1)[sources]
            continue
        (idx,) = step
        red[:, width] = unset
        if idx.dtype == np.intp:
            red.take(idx, out=nxt, mode="clip")
        else:
            for row, at, out in zip(red, idx, nxt):
                row.take(at, out=out, mode="clip")
    return dps


def _tour_footprint(g: WeightedCompleteGraph) -> _Footprint:
    """The allocations of ``exact_max_tsp(g)``."""
    return _footprint(g.n - 1, g.n - 1, int(g.w.max()))


def exact_max_tsp(g: WeightedCompleteGraph) -> HamiltonianCycle:
    """Maximum-weight Hamiltonian cycle by dynamic programming.

    Held-Karp over the paths from vertex 0 through subsets of V \\ {0}; the
    tour closes back to vertex 0 and is read back from the last vertex,
    each step taking the first predecessor of maximum weight.
    """
    n = g.n
    fp = _require_fit(_tour_footprint(g), f"the exact tour on n={n}")
    if n == 3:
        return HamiltonianCycle((0, 1, 2))
    m = n - 1
    W = g.w[1:, 1:].astype(np.int64)  # W[i, j] = w(i+1, j+1)
    w0 = g.w[0, 1:].astype(np.int64)  # w(0, j+1)
    masks, rank = _popcounts(m)
    dps = _held_karp(W, w0, m, False, masks, fp)
    mask = (1 << m) - 1
    j = int((dps[-1][:, 0] + w0).argmax())
    order = [j]
    for c in range(m - 1, 0, -1):
        mask ^= 1 << j
        j = int((dps[c - 1][:, rank[mask]] + W[:, j]).argmax())
        order.append(j)
    return HamiltonianCycle((0,) + tuple(x + 1 for x in reversed(order)))


def split_cycle_best_offset(
    g: WeightedCompleteGraph, H: HamiltonianCycle, k: int, objective: str = "plain"
) -> KPathPacking:
    """Delete every k-th tour edge at the best of the k rotations.

    Each path follows the tour direction starting just after a deleted edge.
    ``plain`` maximizes total path weight (>= (1-1/k) w(H) by averaging);
    ``alg2`` maximizes (k-2)*sum(w(P)) + 2*sum(tilde(P)) over the canonical
    odd-position pairing, which averages to ((k-1)^2+1)/k * w(H) for even k.
    """
    n = g.n
    require_divisible(n, k)
    if objective == "alg2" and k % 2 != 0:
        raise ValueError("alg2 objective needs even k")
    order = H.order
    best_val = best = None
    for r in range(k):
        paths = tuple(
            tuple(order[(r + 1 + b * k + i) % n] for i in range(k)) for b in range(n // k)
        )
        P = KPathPacking(k=k, paths=paths)
        val = split_objective_value(g, P, objective)
        if best_val is None or val > best_val:
            best_val, best = val, P
    return best


def split_objective_value(
    g: WeightedCompleteGraph, packing: KPathPacking, objective: str
) -> int:
    """Objective value of a k-path packing under a splitter objective."""
    total = sum(path_weight(g, p) for p in packing.paths)
    if objective == "plain":
        return total
    if objective == "alg2":
        return (packing.k - 2) * total + 2 * sum(
            tilde_weight(g, p) for p in packing.paths
        )
    raise ValueError(f"unknown objective {objective!r}")
