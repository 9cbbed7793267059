"""Complete weighted graphs, packing structures, instance I/O and generation.

Weights are stored as exact integers.  An instance may carry a denominator
(``denom``) so that rational weights are represented as ``w / denom``; every
algorithm and oracle works on the scaled integers, so all inequalities are
checked exactly with no floating point involved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

WEIGHT_CLASSES = ("general", "metric", "zero_one", "one_two", "unknown")
_INT64_MAX = int(np.iinfo(np.int64).max)


class FormatError(ValueError):
    """Malformed packgraph document."""


class PackingError(ValueError):
    """A packing violates its structural invariants."""


@dataclass(frozen=True)
class WeightedCompleteGraph:
    """Symmetric non-negative integer weights on all vertex pairs.

    ``w`` is an ``n x n`` numpy int64 array with zero diagonal.  Instances are
    immutable after construction and safe to share between workers.
    """

    n: int
    w: np.ndarray
    denom: int = 1
    class_tag: str = "general"

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need at least 3 vertices, got {self.n}")
        if self.w.shape != (self.n, self.n):
            raise ValueError("weight matrix shape mismatch")
        if (self.w < 0).any():
            raise ValueError("negative weight")
        if np.diagonal(self.w).any():
            raise ValueError("self-loop weight must be zero")
        if not (self.w == self.w.T).all():
            raise ValueError("weight matrix not symmetric")
        if self.denom < 1:
            raise ValueError("denominator must be positive")
        if self.class_tag not in WEIGHT_CLASSES:
            raise ValueError(f"unknown weight class {self.class_tag!r}")

    def weight(self, u: int, v: int) -> int:
        """Scaled integer weight of edge uv."""
        return int(self.w[u, v])

    def total_weight(self) -> int:
        return sum(map(sum, self.w.tolist())) // 2


@dataclass(frozen=True)
class HamiltonianCycle:
    order: tuple

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise PackingError("tour repeats a vertex")


@dataclass(frozen=True)
class Matching:
    edges: tuple

    @property
    def size(self) -> int:
        return len(self.edges)

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise PackingError(f"self-loop ({u}, {v}) in matching")
            if u in seen or v in seen:
                raise PackingError("matching edges share a vertex")
            seen.add(u)
            seen.add(v)

    def covered(self) -> set:
        return {x for e in self.edges for x in e}


def make_matching(edges: Iterable[Sequence[int]]) -> Matching:
    """Normalize edges to sorted (u < v) tuples, sorted overall."""
    return Matching(tuple(sorted(tuple(sorted(e)) for e in edges)))


@dataclass(frozen=True, slots=True)
class KPathPacking:
    k: int
    paths: tuple  # n/k ordered vertex tuples, each of length k
    kind = "path"

    @property
    def blocks(self) -> tuple:
        return self.paths


@dataclass(frozen=True, slots=True)
class KCyclePacking:
    k: int
    cycles: tuple  # n/k cyclic vertex tuples, each of length k
    kind = "cycle"

    @property
    def blocks(self) -> tuple:
        return self.cycles


_PACKINGS = {cls.kind: cls for cls in (KCyclePacking, KPathPacking)}
# the fewest vertices of a block of each kind
_LEAST_K = {"cycle": 3, "path": 2}


def make_packing(kind: str, k: int, blocks):
    """The k-cycle or k-path packing (``kind``) of ``blocks``."""
    return _PACKINGS[kind](k, tuple(blocks))


def require_block(k: int, kind: str) -> None:
    """ValueError unless ``kind`` is cycle or path and k is large enough for one."""
    if kind not in _LEAST_K:
        raise ValueError(f"kind must be cycle or path, got {kind!r}")
    if k < _LEAST_K[kind]:
        raise ValueError(f"a k-{kind} needs k >= {_LEAST_K[kind]}, got k={k}")


# ---------------------------------------------------------------------------
# packgraph v1 text format


def text_lines(text: str) -> list:
    """The non-blank lines of ``text``, stripped, with ``#`` comments removed."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def load_instance(text: str) -> WeightedCompleteGraph:
    """Parse a packgraph v1 document.

    Line 1: ``packgraph 1 n=<int> class=<tag> [denom=<int>]``, followed by the
    strict upper-triangular weight table row by row.  ``#`` starts a comment.
    A declared class that fails validation is downgraded to ``unknown`` with a
    warning.
    """
    lines = text_lines(text)
    if not lines:
        raise FormatError("empty document")
    header = lines[0].split()
    if len(header) < 4 or header[0] != "packgraph" or header[1] != "1":
        raise FormatError(f"bad header: {lines[0]!r}")
    fields = {}
    for tok in header[2:]:
        if "=" not in tok:
            raise FormatError(f"bad header token {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    try:
        n = int(fields["n"])
        tag = fields["class"]
        denom = int(fields.get("denom", "1"))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header fields: {exc}") from exc
    if tag not in WEIGHT_CLASSES:
        raise FormatError(f"unknown class tag {tag!r}")
    entries = []
    for line in lines[1:]:
        for tok in line.split():
            try:
                entries.append(int(tok))
            except ValueError as exc:
                raise FormatError(f"non-integer weight {tok!r}") from exc
    expected = n * (n - 1) // 2
    if len(entries) != expected:
        raise FormatError(f"expected {expected} weights, got {len(entries)}")
    if any(e < 0 for e in entries):
        raise FormatError("negative weight")
    if any(e > _INT64_MAX for e in entries):
        raise FormatError(f"weight {max(entries)} does not fit in int64")
    w = np.zeros((n, n), dtype=np.int64)
    it = iter(entries)
    for u in range(n):
        for v in range(u + 1, n):
            x = next(it)
            w[u, v] = w[v, u] = x
    g = WeightedCompleteGraph(n=n, w=w, denom=denom, class_tag=tag)
    if tag != "unknown" and not check_weight_class(g, tag):
        warnings.warn(
            f"declared class {tag!r} fails validation; downgrading to 'unknown'",
            stacklevel=2,
        )
        g = WeightedCompleteGraph(n=n, w=w, denom=denom, class_tag="unknown")
    return g


def save_instance(g: WeightedCompleteGraph) -> str:
    head = f"packgraph 1 n={g.n} class={g.class_tag}"
    if g.denom != 1:
        head += f" denom={g.denom}"
    rows = [head]
    for u in range(g.n):
        if u < g.n - 1:
            rows.append(" ".join(str(int(g.w[u, v])) for v in range(u + 1, g.n)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# weight-class validation


def is_metric(g: WeightedCompleteGraph):
    """Triangle-inequality check.

    Returns ``(True, None)`` or ``(False, (u, x, v))`` where
    ``w(u,v) > w(u,x) + w(x,v)``: the first such v > u of the first such u,
    with the first x of least ``w(u,x) + w(x,v)``.  Sums are taken in uint64,
    where two non-negative int64 weights cannot overflow.
    """
    w = g.w.astype(np.uint64)
    for u in range(g.n - 1):
        # sums[x, v - u - 1] = w(u,x) + w(x,v) for v > u, barring x = u and x = v
        sums = w[u, :, None] + w[:, u + 1 :]
        sums[u] = np.iinfo(np.uint64).max
        np.fill_diagonal(sums[u + 1 :], np.iinfo(np.uint64).max)
        bad = np.flatnonzero(w[u, u + 1 :] > sums.min(axis=0))
        if bad.size:
            c = int(bad[0])
            return False, (u, int(sums[:, c].argmin()), u + 1 + c)
    return True, None


def check_weight_class(g: WeightedCompleteGraph, tag: str) -> bool:
    off = ~np.eye(g.n, dtype=bool)
    vals = g.w[off]
    if tag == "metric":
        return is_metric(g)[0]
    if tag == "zero_one":
        return bool(np.isin(vals, (0, 1)).all())
    if tag == "one_two":
        return bool(np.isin(vals, (1, 2)).all())
    return tag == "general"


# ---------------------------------------------------------------------------
# instance generation

# the heaviest weight ``generate_instance`` draws for the general class and
# for the closure distribution's raw weights
_MAX_WEIGHT = 100
# the uniformly drawn classes: each edge weight is drawn from lo..hi
_UNIFORM = {"general": (0, _MAX_WEIGHT), "zero_one": (0, 1), "one_two": (1, 2)}


def generate_instance(
    n: int,
    class_tag: str = "general",
    distribution: str = "default",
    seed: int = 0,
) -> WeightedCompleteGraph:
    """Deterministic random instance of the requested weight class.

    Metric distributions: ``euclidean`` (random planar points, distances
    scaled by 1000 and rounded up, which preserves the triangle inequality)
    and ``closure`` (all-pairs shortest paths over random weights).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rng = np.random.default_rng(seed)
    if class_tag in _UNIFORM:
        if distribution not in ("default", "uniform"):
            raise ValueError(f"unsupported distribution {distribution!r} for {class_tag}")
        lo, hi = _UNIFORM[class_tag]
        w = _symmetrize(rng.integers(lo, hi + 1, size=(n, n)))
    elif class_tag == "metric":
        if distribution in ("default", "euclidean"):
            pts = rng.random((n, 2)) * 1000.0
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            w = np.ceil(dist - 1e-9).astype(np.int64)
            np.fill_diagonal(w, 0)
        elif distribution == "closure":
            raw = _symmetrize(rng.integers(1, _MAX_WEIGHT + 1, size=(n, n)))
            w = _metric_closure(raw)
        else:
            raise ValueError(f"unsupported distribution {distribution!r} for metric")
    else:
        raise ValueError(f"cannot generate class {class_tag!r}")
    g = WeightedCompleteGraph(n=n, w=w, class_tag=class_tag)
    if not check_weight_class(g, class_tag):
        raise AssertionError("generated instance fails its class validator")
    return g


def _symmetrize(a: np.ndarray) -> np.ndarray:
    w = np.triu(a.astype(np.int64), 1)
    w = w + w.T
    return w


def _metric_closure(w: np.ndarray) -> np.ndarray:
    d = w.astype(np.int64).copy()
    n = d.shape[0]
    for x in range(n):
        d = np.minimum(d, d[:, x : x + 1] + d[x : x + 1, :])
    np.fill_diagonal(d, 0)
    return d


# ---------------------------------------------------------------------------
# packing evaluation


def tilde_weight(g: WeightedCompleteGraph, path: Sequence[int]) -> int:
    """Sum of the edges at odd positions of an even-length path."""
    k = len(path)
    if k % 2 != 0:
        raise ValueError("tilde weight needs an even-length path")
    return sum(g.weight(path[i], path[i + 1]) for i in range(0, k, 2))


def path_weight(g: WeightedCompleteGraph, path: Sequence[int]) -> int:
    return sum(g.weight(path[i], path[i + 1]) for i in range(len(path) - 1))


def cycle_weight(g: WeightedCompleteGraph, cyc: Sequence[int]) -> int:
    return path_weight(g, cyc) + g.weight(cyc[-1], cyc[0])


def block_weight(g: WeightedCompleteGraph, block: Sequence[int], kind: str) -> int:
    """Weight of one block: a cycle's includes its closing edge, a path's does not."""
    return cycle_weight(g, block) if kind == "cycle" else path_weight(g, block)


def require_divisible(n: int, k: int) -> None:
    """ValueError unless n vertices split into blocks of k."""
    if k < 1 or n % k != 0:
        raise ValueError(f"n={n} not divisible by k={k}")


def validate_packing(g, packing, k: int, kind: str) -> Optional[str]:
    """Return None if the packing is a valid k-cycle/k-path packing of g,
    otherwise a description of the first violation found."""
    if kind not in _LEAST_K:
        raise ValueError(f"kind must be cycle or path, got {kind!r}")
    if k < _LEAST_K[kind]:
        return f"{kind}s need k >= {_LEAST_K[kind]}"
    if g.n % k != 0:
        return f"n={g.n} not divisible by k={k}"
    if packing.kind != kind:
        return f"expected a {kind} packing, got a {packing.kind} packing"
    if packing.k != k:
        return f"packing declares k={packing.k}, expected {k}"
    blocks = packing.blocks
    if len(blocks) != g.n // k:
        return f"expected {g.n // k} blocks, got {len(blocks)}"
    seen = set()
    for blk in blocks:
        if len(blk) != k:
            return f"wrong length {len(blk)} in block {blk}"
        for v in blk:
            if not (0 <= v < g.n):
                return f"vertex {v} out of range"
            if v in seen:
                return f"duplicated vertex {v}"
            seen.add(v)
    missing = set(range(g.n)) - seen
    if missing:
        return f"missing vertex {min(missing)}"
    return None


def packing_weight(g: WeightedCompleteGraph, packing) -> int:
    """Total weight; cycles include the closing edge, paths do not."""
    err = validate_packing(g, packing, packing.k, packing.kind)
    if err:
        raise PackingError(err)
    return sum(block_weight(g, b, packing.kind) for b in packing.blocks)


def matching_weight(g: WeightedCompleteGraph, m: Matching) -> int:
    return sum(g.weight(u, v) for u, v in m.edges)
