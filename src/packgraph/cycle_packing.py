"""k-cycle packing algorithms, and the frame every algorithm is defined in.

Each algorithm is one ``AlgorithmSpec``: what it packs, its admissible k,
the ratio the paper proves for it by weight class, and one body that maps a
``Run`` to (packing, audits), building the audits of its lemmas from its own
intermediates.  A ``Run`` holds the instance and the options of one run and
computes the shared intermediates (the tour, M*, the size-p matchings) once.
Calling the spec is the one gate of every entry point: it refuses an
inadmissible k and an override the body does not read (``check``), runs
the body, refuses an invalid packing, and warns once when the input lies
outside the classes the guarantee covers and is not metric.  Each public
function is one call of its spec.

Covers the TSP-splitting constructions (tour -> k-paths -> k-cycles), the
matching-based construction for odd k, and the two contraction-based
algorithms for k = 4 (general and metric).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import (
    WEIGHT_CLASSES,
    HamiltonianCycle,
    KCyclePacking,
    KPathPacking,
    Matching,
    PackingError,
    WeightedCompleteGraph,
    block_weight,
    cycle_weight,
    is_metric,
    make_matching,
    make_packing,
    matching_weight,
    packing_weight,
    path_weight,
    require_divisible,
    tilde_weight,
    validate_packing,
)
from .matching import (
    max_weight_matching_of_size,
    max_weight_perfect_matching,
    max_weight_perfect_matching_matrix,
)
from .tsp import exact_max_tsp, split_cycle_best_offset, split_objective_value

TspSolver = Callable[[WeightedCompleteGraph], HamiltonianCycle]
F = Fraction
METRIC = ("metric", "one_two")
_NO_MAX = sys.maxsize


@dataclass(frozen=True)
class EdgeGroupPlan:
    """Partition of a size-p matching into groups plus isolated vertices.

    ``groups[i]`` is a list of matching edges; ``isolated[i]``, the ends of
    group i, is the tuple of the isolated vertices spliced into it: ``(v,)``
    for a cycle, the ordered pair ``(u, z)`` for a path.
    """

    groups: tuple
    isolated: tuple

    def matching(self) -> Matching:
        return make_matching(e for grp in self.groups for e in grp)


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One inequality lhs >= rhs (or equality when ``equality`` is set)."""

    name: str
    lhs: Fraction
    rhs: Fraction
    equality: bool = False

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs if self.equality else self.lhs >= self.rhs


@dataclass
class Run:
    """One instance with the options of a run, and the intermediates computed
    for it: each is computed on first use, then shared by every algorithm and
    audit of the run."""

    g: WeightedCompleteGraph
    k: int
    tsp_solver: TspSolver = exact_max_tsp
    override: Optional[Matching | EdgeGroupPlan] = None  # M* or the plan
    _computed: dict = field(default_factory=dict)

    def _once(self, fn, *args):
        """``fn(g, *args)``, computed on the first call with these arguments."""
        key = (fn, *args)
        if key not in self._computed:
            self._computed[key] = fn(self.g, *args)
        return self._computed[key]

    def tour(self, solver=None) -> HamiltonianCycle:
        """The tour of ``solver``, by default the run's TSP solver."""
        return self._once(solver or self.tsp_solver)

    @cached_property
    def mstar(self) -> Matching:
        """The engine's maximum-weight perfect matching."""
        return max_weight_perfect_matching(self.g)

    @cached_property
    def matching(self) -> Matching:
        """M* as the contraction algorithms take it: the matching override,
        which must be perfect, if one is given."""
        m = self.override
        if not isinstance(m, Matching):
            return self.mstar
        if 2 * m.size != self.g.n:
            raise ValueError("matching override is not perfect")
        return m

    def matching_of_size(self, p: int) -> Matching:
        """A maximum-weight matching of exactly p edges."""
        return self._once(max_weight_matching_of_size, p)

    def contraction(self, closed: bool) -> tuple:
        """``_contract`` of the run's M*: the matched blocks (4-cycles if
        ``closed``, else 4-paths) and the weight of the super-matching."""
        return self._once(_contract, self.matching, closed)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm: what it packs, for which k, what the paper proves for
    it, and its body."""

    name: str
    kind: str  # "cycle" | "path"
    ks: range  # the admissible k: one k, or open-ended (up to _NO_MAX)
    # weight class -> the proven ratio as a function of k, or None where the
    # algorithm has no ratio of its own; the keys are the classes its proof,
    # and so every audit of a run, covers
    guarantee: dict
    body: Callable  # Run -> (packing, the audits of its lemmas)
    reads: Optional[type] = None  # the override type the body reads: Matching (M*), EdgeGroupPlan

    def admits(self, k) -> bool:
        return int(k) == k and int(k) in self.ks

    @property
    def admissible_k(self) -> str:
        ks = self.ks
        if len(ks) == 1:
            return f"k = {ks.start}"
        parity = "" if ks.step == 1 else ("odd " if ks.start % 2 else "even ")
        return f"{parity}k >= {ks.start}"

    def require(self, k) -> None:
        """ValueError unless k is admissible."""
        if not self.admits(k):
            raise ValueError(f"{self.name} needs {self.admissible_k}, got k={k}")

    def check(self, r: Run) -> None:
        """ValueError unless r.k is admissible and divides n, and the run's
        override, if any, is the one the body reads; computes nothing."""
        self.require(r.k)
        require_divisible(r.g.n, r.k)
        given = type(r.override)
        if r.override is not None and given is not self.reads:
            name = {Matching: "matching", EdgeGroupPlan: "plan"}.get(given, given.__name__)
            raise ValueError(f"{self.name} does not read a {name} override")

    def __call__(self, r: Run):
        """Run the algorithm; returns (packing, audits).  Raises ValueError
        where ``check`` does, and PackingError if the packing is not a valid
        k-packing of the instance.  The guarantee, not the validity of the
        packing, depends on the weight class, so input outside the covered
        classes gets a warning, not an error."""
        self.check(r)
        packing, audits = self.body(r)
        err = validate_packing(r.g, packing, r.k, self.kind)
        if err:
            raise PackingError(f"{self.name} produced an invalid packing: {err}")
        if r.g.class_tag not in self.guarantee:
            ok, triple = r._once(is_metric)
            if not ok:
                # the caller of the public function, run_algorithm or
                # audit_instance, each of which calls the spec itself
                warnings.warn(
                    f"{self.name}: input is not metric (violating triple {triple}); "
                    "the approximation guarantee does not apply",
                    stacklevel=3,
                )
        return packing, audits


def _algorithm(name: str, kind: str, ks: range, guarantee: dict, reads: Optional[type] = None):
    """Make the decorated body the algorithm ``name``, which reads the
    override ``reads``."""
    return lambda body: AlgorithmSpec(name, kind, ks, guarantee, body, reads)


# ---------------------------------------------------------------------------
# tour splitting: Alg.1 and Alg.2


def complete_paths(g: WeightedCompleteGraph, P: KPathPacking) -> KCyclePacking:
    """Close each path v1..vk into the cycle v1..vk v1."""
    return KCyclePacking(k=P.k, cycles=tuple(P.paths))


def cycle_candidates_from_path(path: Sequence[int]):
    """The k-1 closures of a path: C_j = v1..vj vk v(k-1)..v(j+1) v1."""
    k = len(path)
    for j in range(1, k):
        yield tuple(path[:j]) + tuple(reversed(path[j:]))


def best_cycle_from_path(g: WeightedCompleteGraph, path: Sequence[int]) -> tuple:
    """Heaviest of the k-1 closures; ties to the smallest index."""
    return max(cycle_candidates_from_path(path), key=lambda cand: cycle_weight(g, cand))


def _split_tour(r: Run):
    """The run's tour split at its best offset, and the averaging audit
    w(P) >= (1 - 1/k) w(H) of the split (Alg.1 and Alg.4)."""
    H = r.tour()
    P = split_cycle_best_offset(r.g, H, r.k, objective="plain")
    hw = cycle_weight(r.g, H.order)
    return P, [AuditEntry("offset_plain", F(packing_weight(r.g, P)), F((r.k - 1) * hw, r.k))]


@_algorithm("alg1", "cycle", range(3, _NO_MAX),
            dict.fromkeys(METRIC, lambda k: F(7 * k - 1, 8 * k) * F(k - 1, k)))
def ALG1(r: Run):
    P, audits = _split_tour(r)
    return complete_paths(r.g, P), audits


def alg1_metric_kcp(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KCyclePacking:
    """Tour -> plain best-offset split -> plain completion.

    Output weight is at least (1 - 1/k) of the tour weight on every input.
    """
    return ALG1(Run(g, k, tsp_solver))[0]


@_algorithm("alg2", "cycle", range(4, _NO_MAX, 2),
            dict.fromkeys(METRIC, lambda k: F(7, 8) * F((k - 1) ** 2 + 1, k * (k - 1))))
def ALG2(r: Run):
    g, k, H = r.g, r.k, r.tour()
    P = split_cycle_best_offset(g, H, k, objective="alg2")
    cycles = tuple(best_cycle_from_path(g, p) for p in P.paths)
    hw = cycle_weight(g, H.order)
    obj = split_objective_value(g, P, "alg2")
    audits = [AuditEntry("offset_alg2", F(obj), F(((k - 1) ** 2 + 1) * hw, k))]
    for i, (path, cyc) in enumerate(zip(P.paths, cycles)):
        audits.append(
            AuditEntry(
                f"path_cycle[{i}]",
                F(cycle_weight(g, cyc)),
                F((k - 2) * path_weight(g, path) + 2 * tilde_weight(g, path), k - 1),
            )
        )
    return KCyclePacking(k=k, cycles=cycles), audits


def alg2_metric_kcp_even(
    g: WeightedCompleteGraph, k: int, tsp_solver: TspSolver = exact_max_tsp
) -> KCyclePacking:
    """Tour -> pairing-aware split -> best closure per path (even k).

    On metric inputs the output weight is at least
    (1 - 1/k + 1/(k(k-1))) of the tour weight.
    """
    return ALG2(Run(g, k, tsp_solver))[0]


# ---------------------------------------------------------------------------
# Alg.3: matching-based construction for odd k (Alg.5 splices paths alike)


def default_plan(
    g: WeightedCompleteGraph, matching: Matching, groups: int, iso_per_group: int
) -> EdgeGroupPlan:
    """Deterministic plan: edges sorted by descending weight fill the groups
    round-robin; isolated vertices are assigned in ascending id order."""
    edges = sorted(matching.edges, key=lambda e: (-g.weight(*e), e))
    iso = sorted(set(range(g.n)) - matching.covered())
    if len(iso) != groups * iso_per_group:
        raise ValueError("isolated vertex count mismatch")
    return EdgeGroupPlan(
        groups=tuple(tuple(edges[i::groups]) for i in range(groups)),
        isolated=tuple(zip(*[iter(iso)] * iso_per_group)),  # runs of iso_per_group
    )


def _order_group_edges(g: WeightedCompleteGraph, edges: Sequence[tuple]) -> list:
    """Two heaviest edges at positions 1 and m, the rest descending between."""
    s = sorted(edges, key=lambda e: (-g.weight(*e), e))
    if len(s) <= 2:
        return list(s)
    return [s[0]] + s[2:] + [s[1]]


def _best_orientation(
    g: WeightedCompleteGraph, ends: Sequence[int], edges: Sequence[tuple]
) -> list:
    """Orient each group edge to maximize the spliced chain weight.

    The chain ends[0] t1 h1 ... tm hm ends[-1] (for a cycle, ends = (v,))
    gains w(h_i, t_(i+1)) between consecutive edges, so a two-state DP along
    the chain (edge i kept or flipped) finds the exact maximum.  Among the
    maxima it returns the one with the least flip integer sum(2^i over the
    flipped i), preferring "kept" from the last edge down.  The exact
    maximum dominates the uniform-random expectation, so the (3m+1)/(2m)
    per-group bound is preserved.
    """
    # ori[i][f]: edge i kept (f = 0) or flipped; ends[-1] closes the chain as
    # one more "edge" whose two states are alike
    ori = [(e, (e[1], e[0])) for e in edges] + [((ends[-1], ends[-1]),) * 2]
    # best[i][f]: heaviest connectors from ends[0] up to the tail of ori[i][f]
    best = [[g.weight(ends[0], ori[0][f][0]) for f in (0, 1)]]
    for i in range(1, len(ori)):
        best.append([
            max(best[i - 1][p] + g.weight(ori[i - 1][p][1], ori[i][f][0]) for p in (0, 1))
            for f in (0, 1)
        ])
    f, chain = 0, []
    for i in range(len(edges), 0, -1):
        tail = ori[i][f][0]
        f = next(
            p for p in (0, 1)
            if best[i - 1][p] + g.weight(ori[i - 1][p][1], tail) == best[i][f]
        )
        chain.append(ori[i - 1][f])
    return chain[::-1]


def _splice_matching(r: Run, kind: str):
    """Alg.3 (cycles, odd k) and Alg.5 (paths, even k): a maximum-weight
    matching of size (n/k)m in groups of m = (k-1)/2 resp. (k-2)/2 edges,
    each group spliced with its isolated vertex resp. endpoint pair, as the
    run's override, a plan, says if it has one.  The plan must use a
    matching of optimal weight, and the ends of each of its groups must be a
    tuple of isolated vertices, one for a cycle, two for a path.

    Returns (packing, the audits w(block) >= (3m+1)/(2m) w(group edges)).
    """
    g, k = r.g, r.k
    iso = 1 if kind == "cycle" else 2
    groups = g.n // k
    m = (k - iso) // 2
    opt_matching = r.matching_of_size(groups * m)
    plan = r.override
    if plan is None:
        plan = default_plan(g, opt_matching, groups, iso_per_group=iso)
    else:
        got = plan.matching()
        if got.size != groups * m or matching_weight(g, got) != matching_weight(g, opt_matching):
            raise ValueError("plan inconsistent with the maximum-weight matching")
        isolated = set(range(g.n)) - got.covered()
        for i, ends in enumerate(plan.isolated):
            if np.shape(ends) != (iso,) or not set(ends) <= isolated:
                raise ValueError(
                    f"plan group {i}: ends {ends!r} are not {iso} of the isolated vertices"
                )
    blocks = []
    for edges, ends in zip(plan.groups, plan.isolated):
        oriented = _best_orientation(g, ends, _order_group_edges(g, edges))
        blocks.append((ends[0], *(v for e in oriented for v in e), *ends[1:]))
    audits = [
        AuditEntry(
            f"group_{kind}[{i}]",
            F(block_weight(g, block, kind)),
            F((3 * m + 1) * sum(g.weight(*e) for e in edges), 2 * m),
        )
        for i, (edges, block) in enumerate(zip(plan.groups, blocks))
    ]
    return make_packing(kind, k, blocks), audits


@_algorithm("alg3", "cycle", range(3, _NO_MAX, 2),
            dict.fromkeys(METRIC, lambda k: F(3 * k - 1, 4 * k)), reads=EdgeGroupPlan)
def ALG3(r: Run):
    return _splice_matching(r, "cycle")


def alg3_matching_kcp_odd(
    g: WeightedCompleteGraph, k: int, plan: Optional[EdgeGroupPlan] = None
) -> KCyclePacking:
    """Matching-based k-cycle packing for odd k.

    Takes a maximum-weight matching of size (n/k)(k-1)/2, splices one isolated
    vertex into each group of (k-1)/2 edges, and orients the edges to maximize
    each group's cycle.  A plan override reproduces adversarial fixtures; it
    must use a matching of optimal weight.
    """
    return ALG3(Run(g, k, override=plan))[0]


# ---------------------------------------------------------------------------
# k = 4 contraction algorithms


def _contract(g: WeightedCompleteGraph, mstar: Matching, closed: bool):
    """Collapse each edge of the perfect matching M* to a super-vertex.

    Between super-vertices i < j, with M* edges a and b, the super-edge keeps
    the first heaviest 4-block through a and b:
    - paths (``closed`` unset): u x y z, x over a and then y over b, u and z
      their partners, weighing w(x, y);
    - cycles: a0 a1 b0 b1 before a0 a1 b1 b0, weighing their two edges
      outside M*.
    A maximum-weight perfect matching of the super-vertices then picks the
    blocks.  Returns (the matched blocks, the weight of that matching).
    """
    w = g.w.tolist()
    ed = mstar.edges
    s = len(ed)
    wmat = [[0] * s for _ in range(s)]
    best = {}
    for i, (a0, a1) in enumerate(ed):
        for j in range(i + 1, s):
            b0, b1 = ed[j]
            blocks = ((a1, a0, b0, b1), (a1, a0, b1, b0), (a0, a1, b0, b1), (a0, a1, b1, b0))
            top = -1
            for u, x, y, z in blocks[2:] if closed else blocks:
                bw = w[x][y] + w[z][u] if closed else w[x][y]
                if bw > top:
                    top, best[i, j] = bw, (u, x, y, z)
            wmat[i][j] = wmat[j][i] = top
    pairs = max_weight_perfect_matching_matrix(wmat)
    return tuple(best[i, j] for i, j in pairs), sum(wmat[i][j] for i, j in pairs)


@_algorithm("alg6", "cycle", range(4, 5), dict.fromkeys(WEIGHT_CLASSES, lambda k: F(3, 4)),
            reads=Matching)
def ALG6(r: Run):
    g, mstar = r.g, r.matching
    blocks, super_w = r.contraction(closed=False)
    C4, P4 = KCyclePacking(4, blocks), KPathPacking(4, blocks)
    mw = matching_weight(g, mstar)
    return C4, [
        AuditEntry("contains_matching", F(packing_weight(g, C4)), F(mw)),
        AuditEntry("p4_identity", F(packing_weight(g, P4)), F(mw + super_w), equality=True),
    ]


def alg6_general_4cp(
    g: WeightedCompleteGraph, matching_override: Optional[Matching] = None
):
    """Contraction-based general 4CP.

    Returns (cycle packing, the intermediate 4-path packing P4); the path
    packing weight equals w(M*) + w(contracted matching).
    """
    C4, _ = ALG6(Run(g, 4, override=matching_override))
    return C4, KPathPacking(4, C4.cycles)


@_algorithm("alg7", "cycle", range(4, 5),
            {"metric": lambda k: F(5, 6), "one_two": lambda k: F(7, 8)}, reads=Matching)
def ALG7(r: Run):
    cycles, _ = r.contraction(closed=True)
    used = {frozenset(e) for c in cycles for e in zip(c, c[1:] + c[:1])}
    contains = all(frozenset(e) in used for e in r.matching.edges)
    return KCyclePacking(4, cycles), [AuditEntry("contains_matching_edges", F(int(contains)), F(1))]


def alg7_metric_4cp(
    g: WeightedCompleteGraph, matching_override: Optional[Matching] = None
) -> KCyclePacking:
    """Contraction-based metric 4CP.

    Between two matching edges ux and yz the two super-edges are the pairs
    {xy, zu} and {xz, yu}; keeping the heavier one and matching the
    super-vertices yields the maximum-weight 4-cycle packing containing every
    edge of M*.
    """
    return ALG7(Run(g, 4, override=matching_override))[0]
