"""Exact oracles for optimal k-cycle/k-path packings, the algorithm
registry, and ratio audits.

The optimum is computed in two vectorized stages over vertex subsets.  The
Held-Karp kernel of ``tsp``, run up to popcount k, gives the best k-cycle or
k-path weight of every k-subset at once.  A partition DP then combines these
blocks, one popcount layer at a time, each block taking the lowest vertex
not yet covered so that no partition is counted twice.  So after r blocks
no vertex below r is left, and the DP fills only the sets that can be left:
of popcount p, those with no vertex below (n - p) / k.  Its index tables
depend only on (n, k) and come from the memo of ``tsp``.  The vertex order
of each chosen block is walked back from the kernel's layers.  Everything
is exact integer arithmetic; ratios are reported as Fractions.

``ALGORITHMS`` lists the ``AlgorithmSpec`` of every algorithm: those of
``cycle_packing`` and ``path_packing``, defined next to their helpers, and
the two {1,2} reductions defined here, which plug in the exact oracle.
``run_algorithm`` and ``audit_instance`` call a spec just as the public
functions do, so every entry point runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import cycle_packing as cp
from . import path_packing as pp
from . import reductions as red
from . import tsp
from .cycle_packing import _NO_MAX, METRIC, AlgorithmSpec, AuditEntry, F, Run, _algorithm
from .graph import (
    Matching,
    WeightedCompleteGraph,
    cycle_weight,
    make_packing,
    matching_weight,
    packing_weight,
    require_block,
    require_divisible,
)
from .matching import max_weight_perfect_matching  # noqa: F401  (re-exported)
from .tsp import (  # noqa: F401  (OracleCapError re-exported)
    _CHUNK,
    OracleCapError,
    _footprint,
    _held_karp,
    _keeps,
    _popcounts,
    _require_fit,
    _tour_footprint,
    exact_max_tsp,
)


def _walk(dps: list, rank: np.ndarray, w: np.ndarray, block: int, kind: str):
    """The lexicographically first heaviest order of the vertices of the
    mask ``block``, read from the Held-Karp layers ``dps`` (anchored for
    cycles).  Each step takes the lowest next vertex after which the rest
    still completes to the optimum.  The reversal of an optimal order is
    optimal too, so the order starts at the lower end of its path (a cycle
    at its lowest vertex, its second vertex below its last).
    Returns (order, weight).
    """
    row = dps[bin(block).count("1") - 1][:, rank[block]]
    if kind == "cycle":
        # after u -> v the rest of the cycle, back to its start a, is a path
        # from a through what is left, ending at v
        a = (block & -block).bit_length() - 1
        best = int((row + w[a]).max())
        anchor = 1 << a
    else:
        # after u -> v the rest of the path runs through what is left from v
        a = int(row.argmax())
        best = int(row[a])
        anchor = 0
    order, left, acc = [a], block ^ (1 << a), 0
    while left:
        u, rest = order[-1], left | anchor
        tail = dps[bin(rest).count("1") - 1][:, rank[rest]]
        # tail has a path only at the vertices left: take the first of them
        # that still completes to the optimum
        v = int((w[u] + tail == best - acc).argmax())
        acc += int(w[u, v])
        order.append(v)
        left ^= 1 << v
    return order, best


def best_k_tour_on_set(
    g: WeightedCompleteGraph, S: Sequence[int], kind: str = "cycle"
):
    """Maximum-weight k-cycle or k-path on the vertex set S.

    Returns (order tuple, weight).  The order is the lexicographically first
    of maximum weight among the orders that start with the lower end of the
    path (cycles: at min(S), second vertex below the last).  ValueError
    unless S lists distinct vertices of g.
    """
    S = sorted(S)
    if len(set(S)) != len(S) or not all(0 <= v < g.n for v in S):
        raise ValueError(f"S must list distinct vertices in range({g.n}), got {S}")
    k = len(S)
    require_block(k, kind)
    w = g.w[np.ix_(S, S)].astype(np.int64)
    fp = _require_fit(_footprint(k, k, int(w.max())), f"the exact {k}-{kind} on a set")
    masks, rank = _popcounts(k)
    dps = _held_karp(w, np.zeros(k, dtype=np.int64), k, kind == "cycle", masks, fp)
    order, weight = _walk(dps, rank, w, (1 << k) - 1, kind)
    return tuple(int(S[i]) for i in order), weight


def _block_columns(p: int, k: int) -> np.ndarray:
    """The (k-1)-subsets of the positions 1..p-1, in combinations order, as
    a (C(p-1, k-1), k-1) int64 array from the memo of ``tsp``."""
    size = comb(p - 1, k - 1) * (k - 1)

    def build():
        cols = chain.from_iterable(combinations(range(1, p), k - 1))
        yield (np.fromiter(cols, dtype=np.int64, count=size).reshape(-1, k - 1),)

    ((cols,),) = tsp._MEMO.tables(("columns", p, k), 8 * size, build)
    return cols


def _blocks_of(bits: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The blocks of masks of popcount p, given as ``bits``, the (p, masks)
    array whose row t holds each mask's t-th lowest bit: column i lists the
    blocks made of the lowest vertex of mask i and k-1 of its other
    vertices, in combinations order, ``cols = _block_columns(p, k)``."""
    blocks = bits[cols[:, 0]] | bits[0]
    for t in range(1, cols.shape[1]):
        blocks |= bits[cols[:, t]]
    return blocks


def _partition_tables(n: int, k: int, masks: list, rank: np.ndarray, cols: dict):
    """The index tables of the partition DP on n vertices with blocks of k,
    from the popcount tables ``masks, rank = _popcounts(n)`` and the block
    columns ``cols[p] = _block_columns(p, k)``.

    Yields (p, at, rest, block) per chunk of the masks of popcount p that
    the full set reaches, the p-subsets of {r, ..., n-1}, r = (n - p) / k.
    Shifted down by r, they are the first C(n - r, p) masks of popcount p,
    so a chunk of them is a slice ``at`` of the p-sets' vector.  Column i of
    ``rest`` and ``block`` holds, as intp, the positions of M - B, a reached
    set of popcount p - k, and the popcount ranks of B for the blocks B of
    the chunk's i-th set M.
    """
    for p in range(k, n + 1, k):
        r = (n - p) // k
        reached = masks[p][: comb(n - r, p)]  # shifted down by r
        step = _chunk_size(n, k, p)
        for s in range(0, reached.size, step):
            chunk = reached[s : s + step].astype(np.int64) << r
            bits = np.empty((p, chunk.size), dtype=np.int64)  # row t: each mask's t-th lowest bit
            left = chunk.copy()
            for t in range(p):
                np.bitwise_and(left, -left, out=bits[t])
                left ^= bits[t]
            blocks = _blocks_of(bits, cols[p])
            rest = _reached_rank(rank, n, k, p - k, chunk ^ blocks).astype(np.intp)
            yield p, slice(s, s + chunk.size), rest, rank[blocks].astype(np.intp)


def _reached_rank(rank: np.ndarray, n: int, k: int, p: int, masks):
    """The positions of the reached p-sets ``masks`` in the partition DP's
    vector of them: their popcount ranks (``rank`` of ``_popcounts(n)``)
    shifted down by r = (n - p) / k."""
    return rank[masks >> (n - p) // k]


def _chunk_size(n: int, k: int, p: int) -> int:
    """The masks of popcount p per chunk of the partition DP's index tables
    on n vertices with blocks of k."""
    return max(1, _CHUNK // max(comb(p - 1, k - 1), n))


def _require_packing_fit(g: WeightedCompleteGraph, k: int, kind: str):
    """The plan of ``optimal_k_packing(g, k, kind)``: (fp, nbytes), the
    kernel's ``_footprint`` with the partition DP's share added to its
    total, and the bytes of the DP's index tables, two ranks per (set,
    block) entry, which the memo may keep.  ValueError where k does not
    divide n or makes no block of the kind, OracleCapError where the plan
    does not fit the memory budget.

    The DP runs after the kernel's steps are freed, so the larger of the
    two counts.  It takes the block weights (the top layer and the edges
    that close the cycles); f, an int64 per reached set of each popcount
    p = k, 2k, ..., n; the block columns, k - 1 int64 per block of a p-set;
    and one chunk of index tables with the arrays that gather them, 64
    bytes per (set, block) entry.
    """
    n = g.n
    require_divisible(n, k)
    require_block(k, kind)
    fp = _footprint(n, k, int(g.w.max()))
    layers = range(k, n + 1, k)
    cols = {p: comb(p - 1, k - 1) for p in layers}  # the blocks of a p-set
    reach = {p: comb(n - (n - p) // k, p) for p in layers}
    blocks = 16 * sum(reach[p] * cols[p] for p in layers)
    chunk = max(min(_chunk_size(n, k, p), reach[p]) * cols[p] for p in layers)
    arrays = 2 * np.dtype(fp.dtype).itemsize * n * comb(n, k)  # the block weights
    arrays += 8 * sum(reach[p] + (k - 1) * cols[p] for p in layers)
    kept = blocks if _keeps(blocks, tsp._MEMO.budget) else 0
    total = fp.total + kept + max(0, arrays + 64 * chunk - fp.work)
    return _require_fit(fp._replace(total=total), f"the exact {k}-{kind} packing on n={n}"), blocks


def optimal_k_packing(
    g: WeightedCompleteGraph,
    k: int,
    kind: str = "cycle",
    max_n: Optional[int] = None,
):
    """Exact optimum via subset DP.  Returns (packing, weight).

    f[M], the best packing of the vertex set M, is filled only on the sets
    the full set reaches: the p-subsets of {r, ..., n-1}, r = (n - p) / k.
    Each block takes the lowest vertex left, so the r blocks taken before
    have taken r distinct lowest vertices, each above the one before, and
    what is left lies above them.  f[M] reads only f[M - B] for a block B
    with min(M), a set of the same kind, so the values, and the packing
    walked back from the full set, are those of the DP over every set.

    The DP runs on vectors: f[M] for each layer, over its reached sets
    only, and bw[B] for the k-sets, indexed by popcount rank.  The
    positions it gathers from depend only on (n, k) and come from the memo
    of ``tsp``.  The blocks are walked back from the full set, each the
    first maximum in combinations order.

    Raises OracleCapError, before allocating, where the call's memory
    estimate is above ``tsp.MEMORY_BUDGET`` or n is above ``max_n``.
    """
    n = g.n
    if max_n is not None and n > max_n:
        raise OracleCapError(f"n={n} above max_n={max_n}")
    fp, nbytes = _require_packing_fit(g, k, kind)
    w = g.w.astype(np.int64)
    masks, rank = _popcounts(n)
    cols = {p: _block_columns(p, k) for p in range(k, n + 1, k)}
    dps = _held_karp(w, np.zeros(n, dtype=np.int64), k, kind == "cycle", masks, fp)
    # bw[rank[B]]: the best k-cycle (closed at the lowest vertex, where each
    # path starts; rank[1 << v] = v) or k-path weight of each k-set B, in the
    # layers' dtype, which holds the k weights of a cycle
    bw = dps[-1]
    if kind == "cycle":
        sets = masks[k]
        bw = bw + w.astype(bw.dtype)[:, rank[sets & -sets]]
    bw = bw.max(axis=0)
    # f[p // k][_reached_rank(rank, n, k, p, M)]: the best packing of the reached p-set M
    f = [np.zeros(1, dtype=np.int64)]
    for p, at, rest, block in tsp._MEMO.tables(
        ("partition", n, k), nbytes, lambda: _partition_tables(n, k, masks, rank, cols)
    ):
        if len(f) == p // k:
            f.append(np.zeros(comb(n - (n - p) // k, p), dtype=np.int64))
        vals = f[-2][rest]
        vals += bw[block]
        f[-1][at] = vals.max(axis=0)
    blocks = []
    mask = (1 << n) - 1
    for p in range(n, 0, -k):
        bits = np.array([[1 << v] for v in range(n) if mask >> v & 1], dtype=np.int64)
        cands = _blocks_of(bits, cols[p])[:, 0]
        rest = f[p // k - 1][_reached_rank(rank, n, k, p - k, mask ^ cands)]
        block = int(cands[(rest + bw[rank[cands]]).argmax()])
        blocks.append(tuple(_walk(dps, rank, w, block, kind)[0]))
        mask ^= block
    return make_packing(kind, k, blocks), int(f[-1][0])


# ---------------------------------------------------------------------------
# the registry, ratio reports and lemma audits


@dataclass(slots=True)
class RatioReport:
    algorithm: str
    algorithm_weight: int
    oracle_weight: int
    ratio: Fraction
    audits: list = field(default_factory=list)
    packing: object = None
    # the audits a run must pass: the global ones, and the algorithm's own
    # where its proof covers the instance's weight class
    gated: list = field(default_factory=list)

    @property
    def all_audits_hold(self) -> bool:
        return all(a.holds for a in self.audits)


def _reduction_identity(g, k: int, packing) -> AuditEntry:
    lifted = red.lift_12_to_01(g)
    off = red.reduction_offset(g.n, k, "cycle")
    lhs, rhs = packing_weight(g, packing), packing_weight(lifted, packing) + off
    return AuditEntry("reduction_identity", F(lhs), F(rhs), equality=True)


@_algorithm("reduce12", "cycle", range(3, _NO_MAX), {"one_two": lambda k: F(1)})
def REDUCE12(r: Run):
    packing = red.solve_12_via_01(r.g, r.k, lambda h: optimal_k_packing(h, r.k, "cycle")[0])
    return packing, [_reduction_identity(r.g, r.k, packing)]


@_algorithm("3cp911", "cycle", range(3, 4), {"one_two": lambda k: F(9, 11)})
def THREE_CP_911(r: Run):
    packing = red.three_cp_9_11(r.g, lambda h: optimal_k_packing(h, 3, "cycle")[0])
    return packing, [_reduction_identity(r.g, r.k, packing)]


ALGORITHMS = {
    spec.name: spec
    for spec in (
        cp.ALG1, cp.ALG2, cp.ALG3, cp.ALG6, cp.ALG7, REDUCE12, THREE_CP_911,
        pp.ALG4, pp.ALG5, pp.KPP_COMBINED, pp.GENERAL_4PP, pp.ALG8,
    )
}


def algorithm_spec(name: str, k: int) -> AlgorithmSpec:
    """The registered algorithm ``name``; ValueError if the name is unknown
    or k is not admissible for it."""
    spec = ALGORITHMS.get(name)
    if spec is None:
        raise ValueError(f"unknown algorithm {name!r}")
    spec.require(k)
    return spec


def guarantee_bound(name: str, k: int, class_tag: str) -> Optional[Fraction]:
    """The proven lower bound on the approximation ratio of ``name`` at k on
    the weight class, assuming the exact TSP black box where one is involved;
    None where the paper proves none."""
    spec = ALGORITHMS.get(name)
    bound = spec.guarantee.get(class_tag) if spec and spec.admits(k) else None
    return bound(k) if bound else None


def run_algorithm(
    g: WeightedCompleteGraph,
    name: str,
    k: int,
    tsp_solver=exact_max_tsp,
    override: Optional[Matching | cp.EdgeGroupPlan] = None,
):
    """Run one named algorithm, with M* or its plan overridden if
    ``override`` is given; returns (packing, audit entries)."""
    return algorithm_spec(name, k)(Run(g, k, tsp_solver, override))


def audit_instance(
    g: WeightedCompleteGraph,
    k: int,
    algorithms: Sequence[str],
    tsp_solver=exact_max_tsp,
    override: Optional[Matching | cp.EdgeGroupPlan] = None,
) -> list:
    """Run each algorithm, compare against the exact oracle, audit lemmas.

    The tour, M*, the size-p matchings and the optima are computed once for
    the instance and shared by all algorithms and audits.  Each spec's
    ``check`` comes first, so an inadmissible k or an override an algorithm
    does not read is refused before any work.  The optima come next, one per
    kind: the cycle and path optima of one shape have the same estimate, so
    one that does not fit the memory budget raises OracleCapError before
    anything else is computed.  An algorithm's own audits are gated
    (``RatioReport.gated``) only on the weight classes its proof covers;
    elsewhere they are reported but may fail.  Besides, the kCP optimum is
    audited against the exact tour (metric classes, where the tour fits the
    budget) and against M* (even k).
    """
    specs = [algorithm_spec(name, k) for name in algorithms]
    r = Run(g, k, tsp_solver, override)
    for spec in specs:
        spec.check(r)
    tour_audit = g.class_tag in METRIC and _tour_footprint(g).fits
    kinds = {spec.kind for spec in specs}
    if tour_audit or (k % 2 == 0 and g.n % 2 == 0):
        kinds.add("cycle")
    optimum = {kind: optimal_k_packing(g, k, kind)[1] for kind in sorted(kinds)}
    global_audits = []
    if tour_audit:
        hw = cycle_weight(g, r.tour(exact_max_tsp).order)
        global_audits.append(
            AuditEntry("tsp_vs_opt_kcp", F(2 * k * hw), F((2 * k - 1) * optimum["cycle"]))
        )
    if k % 2 == 0 and g.n % 2 == 0:
        mw = matching_weight(g, r.mstar)
        global_audits.append(AuditEntry("matching_vs_opt_kcp", F(2 * mw), F(optimum["cycle"])))
    reports = []
    for spec in specs:
        opt = optimum[spec.kind]
        packing, audits = spec(r)
        w = packing_weight(g, packing)
        covered = g.class_tag in spec.guarantee
        reports.append(
            RatioReport(
                algorithm=spec.name,
                algorithm_weight=w,
                oracle_weight=opt,
                ratio=Fraction(w, opt) if opt else Fraction(1),
                audits=audits + global_audits,
                packing=packing,
                gated=(audits if covered else []) + global_audits,
            )
        )
    return reports
