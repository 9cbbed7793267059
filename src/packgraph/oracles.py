"""Exact oracles for optimal k-cycle/k-path packings, the algorithm
registry, and ratio audits.

The optimum is computed in two vectorized stages over vertex subsets.  The
Held-Karp kernel of ``tsp``, run up to popcount k, gives the best k-cycle or
k-path weight of every k-subset at once.  A partition DP then combines these
blocks, one popcount layer at a time, each block taking the lowest vertex
not yet covered so that no partition is counted twice.  So after r blocks
no vertex below r is left, and the DP fills only the sets that can be left:
of popcount p, those with no vertex below (n - p) / k.  The vertex order of
each chosen block is walked back from the kernel's layers.  Everything is
exact integer arithmetic; ratios are reported as Fractions.

``ALGORITHMS`` lists the ``AlgorithmSpec`` of every algorithm: those of
``cycle_packing`` and ``path_packing``, defined next to their helpers, and
the two {1,2} reductions defined here, which plug in the exact oracle.
``run_algorithm`` and ``audit_instance`` call a spec just as the public
functions do, so every entry point runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import cycle_packing as cp
from . import path_packing as pp
from . import reductions as red
from .cycle_packing import _NO_MAX, METRIC, AlgorithmSpec, AuditEntry, F, Run, _algorithm
from .graph import (
    KCyclePacking,
    KPathPacking,
    Matching,
    WeightedCompleteGraph,
    cycle_weight,
    matching_weight,
    packing_weight,
    path_weight,
    require_divisible,
    validate_packing,
)
from .matching import max_weight_perfect_matching  # noqa: F401  (re-exported)
from .tsp import _held_karp, _masks_by_popcount, _popcount_rank, exact_max_tsp


def _require_block(k: int, kind: str) -> None:
    """ValueError unless ``kind`` is cycle or path and k is large enough for one."""
    if kind == "cycle":
        if k < 3:
            raise ValueError(f"a k-cycle needs k >= 3, got k={k}")
    elif kind == "path":
        if k < 2:
            raise ValueError(f"a k-path needs k >= 2, got k={k}")
    else:
        raise ValueError(f"kind must be cycle or path, got {kind!r}")


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
    path (cycles: at min(S), second vertex below the last).
    """
    S = sorted(S)
    k = len(S)
    _require_block(k, kind)
    w = g.w[np.ix_(S, S)].astype(np.int64)
    dps = list(_held_karp(w, np.zeros(k, dtype=np.int64), k, kind == "cycle"))
    order, weight = _walk(dps, _popcount_rank(k), w, (1 << k) - 1, kind)
    return tuple(int(S[i]) for i in order), weight


def _default_cap(k: int) -> int:
    return 15 if k in (3, 5) else 16


class OracleCapError(ValueError):
    """The instance is larger than the exact oracle solves."""


_CHUNK = 1 << 16  # entries per temporary array of the partition DP


@lru_cache(maxsize=64)
def _block_columns(p: int, k: int) -> np.ndarray:
    """The (k-1)-subsets of the positions 1..p-1, in combinations order."""
    cols = list(combinations(range(1, p), k - 1))
    return np.array(cols, dtype=np.int64).reshape(-1, k - 1)


def _best_blocks(masks: np.ndarray, p: int, k: int, n: int, f, bw):
    """For each mask of popcount p: the best f[mask ^ B] + bw[B] over the
    blocks B made of the mask's lowest vertex and k-1 of its other vertices,
    the first maximum in combinations order.  Returns (values, blocks)."""
    bits = masks[:, None] & (1 << np.arange(n, dtype=np.int64))
    bits = bits[bits != 0].reshape(masks.size, p)  # each mask's vertices as bits, ascending
    cols = _block_columns(p, k)
    blocks = bits[:, :1]
    for t in range(k - 1):
        blocks = blocks | bits[:, cols[:, t]]
    vals = f[masks[:, None] ^ blocks] + bw[blocks]
    best = vals.argmax(axis=1)
    at = np.arange(masks.size)
    return vals[at, best], blocks[at, best]


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
    """
    n = g.n
    require_divisible(n, k)
    cap = _default_cap(k) if max_n is None else max_n
    if n > cap:
        raise OracleCapError(f"n={n} above oracle cap {cap} for k={k}")
    _require_block(k, kind)
    w = g.w.astype(np.int64)
    dps = list(_held_karp(w, np.zeros(n, dtype=np.int64), k, kind == "cycle"))
    layers = _masks_by_popcount(n)
    rank = _popcount_rank(n)
    # bw[mask]: the best k-cycle (closed at the lowest vertex, where each
    # path starts; rank[1 << v] = v) or k-path weight of each k-subset mask
    masks = layers[k]
    ends = dps[-1] + w[:, rank[masks & -masks]] if kind == "cycle" else dps[-1]
    bw = np.zeros(1 << n, dtype=np.int64)
    bw[masks] = ends.max(axis=0)
    f = np.zeros(1 << n, dtype=np.int64)  # f[mask]: best packing of mask, where reached
    for p in range(k, n + 1, k):
        # r = (n - p) / k blocks before have taken every vertex below r
        low = (1 << (n - p) // k) - 1
        masks = layers[p][(layers[p] & low) == 0]
        step = max(1, _CHUNK // max(comb(p - 1, k - 1), n))
        for s in range(0, masks.size, step):
            chunk = masks[s : s + step]
            f[chunk] = _best_blocks(chunk, p, k, n, f, bw)[0]
    blocks = []
    mask = (1 << n) - 1
    for p in range(n, 0, -k):
        _, (block,) = _best_blocks(np.array([mask], dtype=np.int64), p, k, n, f, bw)
        blocks.append(tuple(_walk(dps, rank, w, int(block), kind)[0]))
        mask ^= int(block)
    if kind == "cycle":
        packing = KCyclePacking(k=k, cycles=tuple(blocks))
    else:
        packing = KPathPacking(k=k, paths=tuple(blocks))
    return packing, int(f[-1])


def brute_force_optimal_packing(
    g: WeightedCompleteGraph, k: int, kind: str = "cycle", max_n: int = 10
):
    """Pure partition enumeration, each block weighed over all its vertex
    orders; independent check of the DP for small n."""
    n = g.n
    require_divisible(n, k)
    if n > max_n:
        raise ValueError(f"n={n} above brute-force cap {max_n}")

    def block_weight(verts) -> int:
        weigh = cycle_weight if kind == "cycle" else path_weight
        return max(weigh(g, p) for p in permutations(verts))

    best = [-1]

    def rec(remaining: list, acc: int):
        if not remaining:
            if acc > best[0]:
                best[0] = acc
            return
        anchor = remaining[0]
        for rest in combinations(remaining[1:], k - 1):
            verts = (anchor,) + rest
            left = [v for v in remaining[1:] if v not in rest]
            rec(left, acc + block_weight(verts))

    rec(list(range(n)), 0)
    return best[0]


# ---------------------------------------------------------------------------
# the registry, ratio reports and lemma audits


@dataclass
class RatioReport:
    instance_id: str
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


def exact_oracle_solver(kind: str, k: int) -> red.PluggableSolver:
    """The exact oracle wrapped as a pluggable solver (ratio 1)."""
    return red.PluggableSolver(kind, k, lambda h: optimal_k_packing(h, k, kind)[0])


def _reduction_identity(g, k: int, packing) -> AuditEntry:
    lifted = red.lift_12_to_01(g)
    off = red.reduction_offset(g.n, k, "cycle")
    lhs, rhs = packing_weight(g, packing), packing_weight(lifted, packing) + off
    return AuditEntry("reduction_identity", F(lhs), F(rhs), equality=True)


@_algorithm("reduce12", "cycle", range(3, _NO_MAX), {"one_two": lambda k: F(1)})
def REDUCE12(r: Run):
    packing = red.solve_12_via_01(r.g, exact_oracle_solver("cycle", r.k))
    return packing, [_reduction_identity(r.g, r.k, packing)]


@_algorithm("3cp911", "cycle", range(3, 4), {"one_two": lambda k: F(9, 11)})
def THREE_CP_911(r: Run):
    packing = red.three_cp_9_11(r.g, exact_oracle_solver("cycle", 3))
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
    matching_override: Optional[Matching] = None,
    plan: Optional[cp.EdgeGroupPlan] = None,
):
    """Run one named algorithm; returns (packing, audit entries)."""
    return algorithm_spec(name, k)(Run(g, k, tsp_solver, matching_override, plan))


def audit_instance(
    g: WeightedCompleteGraph,
    k: int,
    algorithms: Sequence[str],
    tsp_solver=exact_max_tsp,
    instance_id: str = "",
    matching_override: Optional[Matching] = None,
    plan: Optional[cp.EdgeGroupPlan] = None,
) -> list:
    """Run each algorithm, compare against the exact oracle, audit lemmas.

    The tour, M*, the size-p matchings and the optima are computed once for
    the instance and shared by all algorithms and audits.  Each optimum is
    computed before the algorithm runs, so an instance above the oracle's
    cap raises OracleCapError before any algorithm has run.  An algorithm's
    own audits are gated (``RatioReport.gated``) only on the weight classes
    its proof covers; elsewhere they are reported but may fail.  Besides,
    the kCP optimum is audited against the exact tour (metric classes) and
    against M* (even k).
    """
    specs = [algorithm_spec(name, k) for name in algorithms]
    r = Run(g, k, tsp_solver, matching_override, plan)
    optimum = cache(lambda kind: optimal_k_packing(g, k, kind)[1])
    global_audits = []
    if g.class_tag in METRIC and g.n <= 16:
        hw = cycle_weight(g, r.tour(exact_max_tsp).order)
        global_audits.append(
            AuditEntry("tsp_vs_opt_kcp", F(2 * k * hw), F((2 * k - 1) * optimum("cycle")))
        )
    if k % 2 == 0 and g.n % 2 == 0:
        mw = matching_weight(g, r.mstar)
        global_audits.append(AuditEntry("matching_vs_opt_kcp", F(2 * mw), F(optimum("cycle"))))
    reports = []
    for spec in specs:
        opt = optimum(spec.kind)
        packing, audits = spec(r)
        err = validate_packing(g, packing, k, spec.kind)
        if err:
            raise AssertionError(f"{spec.name} produced an invalid packing: {err}")
        w = packing_weight(g, packing)
        covered = g.class_tag in spec.guarantee
        reports.append(
            RatioReport(
                instance_id=instance_id,
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
