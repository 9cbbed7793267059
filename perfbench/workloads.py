"""The benchmark's four workloads, their references and their checks.

Each workload turns a seed into a fixed list of operations (one pass).  An
operation calls public packgraph functions and returns their output; its
check compares that output with a reference of tie-break-independent optima
and with bounds taken from this file, never from the code under test.
References come from ``golden.json`` when the seed is recorded there and are
computed with the library otherwise.

Why these workloads (each one is dominated by a different module):

* ``audit-small``: ``audit_instance`` over the acceptance suites; the exact
  subset-DP oracle does most of the work.
* ``tour-scale``: the tour-splitting algorithms at n=16 and n=18; Held-Karp
  MAX TSP does most of the work and no oracle runs.
* ``match-scale``: the matching-based algorithms at n=40 and n=80; the
  blossom matching does most of the work and no oracle runs.
* ``cli-solve``: ``python -m packgraph.cli`` as a user types it; interpreter
  start and import do most of the work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from packgraph import cycle_packing as cp  # noqa: E402
from packgraph import fixtures, graph, matching, oracles, tsp  # noqa: E402
from packgraph import path_packing as pp  # noqa: E402

F = Fraction


# ---------------------------------------------------------------------------
# the paper's guarantees, kept here so that the code under test cannot
# loosen them


def paper_bound(algo: str, k: int, klass: str) -> Fraction:
    metric = klass in ("metric", "one_two")
    if algo == "alg1" and metric:
        return F((7 * k - 1) * (k - 1), 8 * k * k)
    if algo == "alg2" and metric and k % 2 == 0:
        return F(7 * ((k - 1) ** 2 + 1), 8 * k * (k - 1))
    if algo == "alg3" and metric and k % 2 == 1:
        return F(3 * k - 1, 4 * k)
    if algo == "alg4" and metric:
        return F(k - 1, k)
    if algo == "kpp-combined" and metric and k % 2 == 0:
        return F(27 * k * k - 48 * k + 16, 32 * k * k - 36 * k - 24)
    if algo == "alg7" and klass == "one_two":
        return F(7, 8)
    if algo == "alg7" and metric:
        return F(5, 6)
    if algo == "alg8" and metric:
        return F(14, 17)
    if algo in ("alg6", "general4pp"):
        return F(3, 4)
    if algo == "3cp911" and klass == "one_two":
        return F(9, 11)
    raise ValueError(f"no paper bound for {algo} k={k} {klass}")


def expected_audits(algo: str, k: int, n: int, klass: str) -> list:
    """Sorted names of the audits a report of ``algo`` on n vertices must
    carry: the lemmas of the algorithm's proof (per block where the proof has
    one) and the global audits of ``audit_instance``."""
    blocks = n // k
    per_algo = {
        "alg1": ["offset_plain"],
        "alg2": ["offset_alg2"] + [f"path_cycle[{i}]" for i in range(blocks)],
        "alg3": [f"group_cycle[{i}]" for i in range(blocks)],
        "alg4": ["offset_plain"],
        "kpp-combined": ["offset_plain"] + [f"group_path[{i}]" for i in range(blocks)],
        "alg6": ["contains_matching", "p4_identity"],
        "alg7": ["contains_matching_edges"],
        "alg8": ["spliced_vs_matching"],
        "general4pp": [],
        "3cp911": ["reduction_identity"],
    }[algo]
    if klass in ("metric", "one_two") and n <= 16:
        per_algo = per_algo + ["tsp_vs_opt_kcp"]
    if k % 2 == 0 and n % 2 == 0:
        per_algo = per_algo + ["matching_vs_opt_kcp"]
    return sorted(per_algo)


# audits that state an identity, lhs == rhs; every other audit is lhs >= rhs
EQUALITY_AUDITS = frozenset({"p4_identity", "reduction_identity"})


def audit_errors(audits, expected: list) -> list:
    """Errors of a list of (name, lhs, rhs): the names must be ``expected``
    and each audit must hold as this file states it."""
    errs = []
    names = sorted(name for name, _, _ in audits)
    if names != expected:
        errs.append(f"audits {names} are not the expected {expected}")
    for name, lhs, rhs in audits:
        if not (lhs == rhs if name in EQUALITY_AUDITS else lhs >= rhs):
            errs.append(f"audit {name} fails: {lhs} vs {rhs}")
    return errs


KIND = {
    "alg1": "cycle",
    "alg2": "cycle",
    "alg3": "cycle",
    "alg6": "cycle",
    "alg7": "cycle",
    "3cp911": "cycle",
    "alg4": "path",
    "kpp-combined": "path",
    "alg8": "path",
    "general4pp": "path",
}


# ---------------------------------------------------------------------------
# independent packing checks


def blocks_of(packing) -> tuple:
    return packing.cycles if hasattr(packing, "cycles") else packing.paths


def block_weight(w, block, kind: str) -> int:
    total = sum(int(w[block[i]][block[i + 1]]) for i in range(len(block) - 1))
    if kind == "cycle":
        total += int(w[block[-1]][block[0]])
    return total


def packing_errors(n: int, blocks, k: int, kind: str) -> list:
    """Empty when ``blocks`` partition range(n) into n/k blocks of k."""
    if kind == "cycle" and k < 3:
        return [f"cycles need k >= 3, got {k}"]
    if len(blocks) * k != n:
        return [f"{len(blocks)} blocks of {k} do not cover n={n}"]
    if any(len(b) != k for b in blocks):
        return [f"a block is not of size {k}"]
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(range(n)):
        return ["blocks are not a partition of the vertices"]
    return []


def packing_check(g, packing, k: int, kind: str):
    """(errors, weight) of a packing object returned by the library."""
    if getattr(packing, "k", k) != k:
        return [f"packing declares k={packing.k}, expected {k}"], 0
    if (kind == "cycle") != hasattr(packing, "cycles"):
        return [f"packing is not a {kind} packing"], 0
    blocks = blocks_of(packing)
    errs = packing_errors(g.n, blocks, k, kind)
    return errs, (0 if errs else sum(block_weight(g.w, b, kind) for b in blocks))


# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a pass: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, object], list]  # (output, reference) -> errors
    ref_index: int  # position of this op's reference in the pass reference
    traced_run: Optional[Callable[[Path], object]] = None  # run with spans


@dataclass
class Pass:
    ops: list
    reference: Callable[[], list]  # computed with the library when no golden
    graphs: list  # every input instance, in a fixed order

    def fingerprint(self) -> str:
        """Hash of the inputs, stored with a golden reference so that a
        reference is used only for the inputs it was recorded on."""
        h = hashlib.sha256()
        for g in self.graphs:
            h.update(repr((g.n, g.class_tag)).encode())
            h.update(g.w.tobytes())
        return h.hexdigest()


def inst_seed(seed: int, j: int) -> int:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed * 1000 + j


# ---------------------------------------------------------------------------
# audit-small

# (algorithm, k, weight class, n, copies); alg1 (k=7, the slowest audit) is
# 4 of 19 operations so that p90 sits inside its block.  p50 sits in the
# middle of the five n=12 audits of alg2, alg6 and alg7 on {1,2}, whose oracle
# times agree within a few per cent; the metric alg7 and 3cp911 audits at
# n=12 run 10-40% longer and stay above it.
AUDIT_SUITES = (
    ("alg1", 7, "metric", 14, 4),
    ("alg2", 6, "metric", 12, 1),
    ("kpp-combined", 6, "metric", 12, 1),
    ("alg3", 5, "metric", 10, 1),
    ("alg6", 4, "general", 8, 1),
    ("alg6", 4, "general", 12, 2),
    ("alg7", 4, "metric", 8, 1),
    ("alg7", 4, "metric", 12, 1),
    ("alg7", 4, "one_two", 8, 1),
    ("alg7", 4, "one_two", 12, 2),
    ("alg8", 4, "metric", 8, 1),
    ("alg8", 4, "metric", 12, 1),
    ("3cp911", 3, "one_two", 9, 1),
    ("3cp911", 3, "one_two", 12, 1),
)


def _audit_op(j: int, g, algo: str, k: int, klass: str) -> Op:
    kind = KIND[algo]
    bound = paper_bound(algo, k, klass)
    audits = expected_audits(algo, k, g.n, klass)

    @cache
    def witness():
        packing, _ = oracles.run_algorithm(g, algo, k, tsp_solver=tsp.exact_max_tsp)
        return packing_check(g, packing, k, kind)

    def check(reports, opt):
        if len(reports) != 1 or reports[0].algorithm != algo:
            return ["expected one report for " + algo]
        r = reports[0]
        errs = []
        if r.oracle_weight != opt:
            errs.append(f"oracle weight {r.oracle_weight} != reference {opt}")
        errs.extend(audit_errors([(a.name, a.lhs, a.rhs) for a in r.audits], audits))
        if r.ratio != F(r.algorithm_weight, r.oracle_weight):
            errs.append(f"ratio {r.ratio} != weight/oracle")
        if r.algorithm_weight > opt or F(r.algorithm_weight, opt) < bound:
            errs.append(f"weight {r.algorithm_weight} outside [{bound} * {opt}, {opt}]")
        perrs, pw = witness()
        errs.extend(perrs)
        if not perrs and pw != r.algorithm_weight:
            errs.append(f"packing weighs {pw}, report says {r.algorithm_weight}")
        return errs

    return Op(
        label=f"{algo}/{klass}/n{g.n}",
        run=lambda: oracles.audit_instance(g, k, [algo], tsp_solver=tsp.exact_max_tsp),
        check=check,
        ref_index=j,
    )


def build_audit_small(seed: int, workdir: Path) -> Pass:
    items = []
    for algo, k, klass, n, copies in AUDIT_SUITES:
        for _ in range(copies):
            j = len(items)
            items.append((graph.generate_instance(n, klass, seed=inst_seed(seed, j)), algo, k, klass))
    ops = [_audit_op(j, g, algo, k, klass) for j, (g, algo, k, klass) in enumerate(items)]

    def reference():
        return [oracles.optimal_k_packing(g, k, KIND[algo])[1] for g, algo, k, _ in items]

    return Pass(ops, reference, [g for g, *_ in items])


# ---------------------------------------------------------------------------
# tour-scale

# (n, k, instances); three n=16 instances per n=18 one put p50 inside the
# ~40 ms n=16 block and p90 inside the ~190 ms n=18 block
TOUR_SIZES = ((16, 4, 3), (18, 6, 1))

TOUR_ALGOS = {
    "alg1": (lambda g, k: cp.alg1_metric_kcp(g, k, tsp_solver=tsp.exact_max_tsp)),
    "alg2": (lambda g, k: cp.alg2_metric_kcp_even(g, k, tsp_solver=tsp.exact_max_tsp)),
    "alg4": (lambda g, k: pp.alg4_tsp_kpp(g, k, tsp_solver=tsp.exact_max_tsp)),
    "kpp-combined": (lambda g, k: pp.metric_kpp_combined(g, k, tsp_solver=tsp.exact_max_tsp)),
}


def tour_factor(algo: str, k: int) -> Fraction:
    """Share of the optimal tour weight that each algorithm's audit proves."""
    if algo == "alg2":
        return F((k - 1) ** 2 + 1, k * (k - 1))
    return F(k - 1, k)


def _tour_op(j: int, g, algo: str, k: int) -> Op:
    kind = KIND[algo]
    factor = tour_factor(algo, k)
    fn = TOUR_ALGOS[algo]

    def check(packing, tour_w):
        errs, w = packing_check(g, packing, k, kind)
        if not errs and w < factor * tour_w:
            errs.append(f"weight {w} < {factor} * tour {tour_w}")
        return errs

    return Op(f"{algo}/n{g.n}", lambda: fn(g, k), check, j)


def build_tour_scale(seed: int, workdir: Path) -> Pass:
    insts = []
    for n, k, count in TOUR_SIZES:
        for _ in range(count):
            insts.append((graph.generate_instance(n, "metric", seed=inst_seed(seed, len(insts))), k))
    ops = [_tour_op(j, g, algo, k) for j, (g, k) in enumerate(insts) for algo in TOUR_ALGOS]

    def reference():
        out = []
        for g, _ in insts:
            order = tsp.exact_max_tsp(g).order
            if sorted(order) != list(range(g.n)):
                raise AssertionError("exact_max_tsp returned no Hamiltonian cycle")
            out.append(block_weight(g.w, order, "cycle"))
        return out

    return Pass(ops, reference, [g for g, _ in insts])


# ---------------------------------------------------------------------------
# match-scale

# (n, instances); each instance is a metric and a general graph of size n.
# Blossom time varies by up to 20% between instances, so a pass holds
# several; a pass of ~7 s lets a run repeat it.  Sorted by latency the
# operations form blocks: n=40 alg6/general4pp (10), n=40 alg3 (5), n=40
# alg7 (5, holds p50), n=40 alg8 with n=80 alg6/general4pp (9, holds p75),
# n=80 alg3/alg7 (4), n=80 alg8 (2).
MATCH_SIZES = ((40, 5), (80, 2))

# algorithm -> (graph class, k, kind, call, reference key, factor): the
# output must weigh at least factor * reference[key]
MATCH_ALGOS = {
    "alg3": ("metric", 5, "cycle", lambda g: cp.alg3_matching_kcp_odd(g, 5), "m_alg3", F(7, 4)),
    "alg6": ("general", 4, "cycle", lambda g: cp.alg6_general_4cp(g)[0], "mstar_general", F(1)),
    "alg7": ("metric", 4, "cycle", lambda g: cp.alg7_metric_4cp(g), "mstar_metric", F(1)),
    "alg8": ("metric", 4, "path", lambda g: pp.alg8_metric_4pp(g), "m_quarter", F(2)),
    "general4pp": ("general", 4, "path", lambda g: pp.general_4pp(g), "mstar_general", F(1)),
}


def _match_op(j: int, graphs: dict, algo: str) -> Op:
    klass, k, kind, fn, key, factor = MATCH_ALGOS[algo]
    g = graphs[klass]

    def check(packing, ref):
        errs, w = packing_check(g, packing, k, kind)
        if not errs and w < factor * ref[key]:
            errs.append(f"weight {w} < {factor} * {key} {ref[key]}")
        return errs

    return Op(f"{algo}/n{g.n}", lambda: fn(g), check, j)


def build_match_scale(seed: int, workdir: Path) -> Pass:
    insts = []
    for n, count in MATCH_SIZES:
        for _ in range(count):
            s = inst_seed(seed, len(insts))
            insts.append({c: graph.generate_instance(n, c, seed=s) for c in ("metric", "general")})
    ops = [_match_op(j, gs, algo) for j, gs in enumerate(insts) for algo in MATCH_ALGOS]

    def mw(g, m):
        return sum(int(g.w[u][v]) for u, v in m.edges)

    def reference():
        out = []
        for gs in insts:
            gm, gg = gs["metric"], gs["general"]
            out.append({
                "mstar_metric": mw(gm, matching.max_weight_perfect_matching(gm)),
                "mstar_general": mw(gg, matching.max_weight_perfect_matching(gg)),
                "m_quarter": mw(gm, matching.max_weight_matching_of_size(gm, gm.n // 4)),
                "m_alg3": mw(gm, matching.max_weight_matching_of_size(gm, 2 * gm.n // 5)),
            })
        return out

    return Pass(ops, reference, [gs[c] for gs in insts for c in sorted(gs)])


# ---------------------------------------------------------------------------
# cli-solve

PAPER = ["--override-matching", "paper"]

# fixture id, algorithm, override flags, k, weight class, published
# algorithm weight and optimum (the figures' tight examples)
CLI_FIXTURES = (
    ("fig2", "alg3", PAPER + ["--override-plan", "paper"], 5, "metric", 35, 50),
    ("fig3", "alg6", PAPER, 4, "general", 9, 12),
    ("fig4", "general4pp", PAPER, 4, "general", 6, 8),
    ("fig5", "alg7", PAPER, 4, "metric", 20, 24),
    ("fig3_lifted", "alg7", PAPER, 4, "one_two", 21, 24),
)
CLI_N12 = ("alg7", 4, "metric")
BENCH_ALGOS = ("alg7", "alg8")
BENCH = {"n": 8, "k": 4, "count": 10, "class": "metric"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, workdir: Path):
    """Run one process to completion; returns (exit code, stdout, peak RSS in KiB).

    stderr goes to a file so that no pipe can fill while stdout is read, and
    ``os.wait4`` reaps the child to read its own resource usage.
    """
    errpath = workdir / "child.stderr"
    with open(errpath, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(errpath.read_text()[-2000:])
    return proc.returncode, out.decode(), usage.ru_maxrss


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return F(int(num), int(den))


def _solve_errors(doc: dict, g, algo: str, k: int, klass: str, opt: int) -> list:
    kind = KIND[algo]
    errs = []
    if (doc.get("algorithm"), doc.get("k"), doc.get("kind")) != (algo, k, kind):
        errs.append(f"report is for {doc.get('algorithm')} k={doc.get('k')}")
    blocks = doc.get("packing", [])
    perrs = packing_errors(g.n, blocks, k, kind)
    errs.extend(perrs)
    if not perrs and sum(block_weight(g.w, b, kind) for b in blocks) != doc.get("weight"):
        errs.append("reported weight is not the packing's weight")
    if doc.get("oracle_weight") != opt:
        errs.append(f"oracle weight {doc.get('oracle_weight')} != reference {opt}")
    w = doc.get("weight", 0)
    if _frac(doc.get("ratio", "0/1")) != F(w, opt) or w > opt or F(w, opt) < paper_bound(algo, k, klass):
        errs.append(f"ratio {doc.get('ratio')} fails the paper bound")
    audits = doc.get("audits", [])
    errs.extend(audit_errors([(a["name"], _frac(a["lhs"]), _frac(a["rhs"])) for a in audits],
                             expected_audits(algo, k, g.n, klass)))
    errs.extend(f"audit {a['name']} reported as failing" for a in audits if a["holds"] is not True)
    return errs


def _cli_op(label: str, args: list, workdir: Path, j: int, check) -> Op:
    def run():
        return run_child([sys.executable, "-m", "packgraph.cli"] + args, workdir)

    def traced_run(spans_path: Path):
        tracer_cli = str(HERE / "traced_cli.py")
        return run_child([sys.executable, tracer_cli, str(spans_path), repr(time.time())] + args, workdir)

    def checked(out, ref):
        rc, stdout, _ = out
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return check(stdout, ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    return Op(label, run, checked, j, traced_run)


def build_cli_solve(seed: int, workdir: Path) -> Pass:
    ops = []
    for fid, algo, flags, k, klass, alg_w, opt in CLI_FIXTURES:
        g = fixtures.get_fixture(fid).graph

        def check(stdout, _ref, g=g, algo=algo, k=k, klass=klass, alg_w=alg_w, opt=opt):
            doc = json.loads(stdout)
            errs = _solve_errors(doc, g, algo, k, klass, opt)
            if doc["weight"] != alg_w:
                errs.append(f"weight {doc['weight']} != published {alg_w}")
            return errs

        args = ["solve", "--in", fid, "--algo", algo, "--oracle"] + flags
        ops.append(_cli_op(f"solve/{fid}", args, workdir, 0, check))

    algo, k, klass = CLI_N12
    g12 = graph.generate_instance(12, klass, seed=inst_seed(seed, 0))
    path12 = workdir / f"n12-seed{seed}.pg"
    path12.write_text(graph.save_instance(g12))

    def check_n12(stdout, ref):
        return _solve_errors(json.loads(stdout), g12, algo, k, klass, ref["n12_opt"])

    args = ["solve", "--in", str(path12), "--algo", algo, "--k", str(k), "--oracle"]
    ops.append(_cli_op("solve/n12", args, workdir, 0, check_n12))

    bench_seed = inst_seed(seed, 100)
    bench_graphs = [
        graph.generate_instance(BENCH["n"], BENCH["class"], seed=bench_seed + i)
        for i in range(BENCH["count"])
    ]

    def check_bench(stdout, ref):
        rows = list(csv.reader(io.StringIO(stdout)))
        body = [r for r in rows[1:] if r[0] != "summary"]
        summaries = sorted(r[4] for r in rows[1:] if r[0] == "summary")
        expected = sorted((bench_seed + i, a) for i in range(BENCH["count"]) for a in BENCH_ALGOS)
        if sorted((int(r[0]), r[4]) for r in body) != expected or summaries != sorted(BENCH_ALGOS):
            return [f"rows {[r[:5] for r in body]} and summaries {summaries} are not one per instance"]
        errs = []
        for r in body:
            i, algo_r = int(r[0]) - bench_seed, r[4]
            opt = ref["bench"][i][BENCH_ALGOS.index(algo_r)]
            w, oracle_w = int(r[5]), int(r[6])
            bound = paper_bound(algo_r, BENCH["k"], BENCH["class"])
            if oracle_w != opt or w > opt or _frac(r[7]) != F(w, opt) or F(w, opt) < bound or r[9] != "1":
                errs.append(f"bench row {r} fails (reference optimum {opt})")
        return errs

    args = ["bench", "--k", str(BENCH["k"]), "--class", BENCH["class"], "--n", str(BENCH["n"]),
            "--count", str(BENCH["count"]), "--seed", str(bench_seed), "--algos", ",".join(BENCH_ALGOS)]
    ops.append(_cli_op("bench", args, workdir, 0, check_bench))

    def reference():
        return [{
            "n12_opt": oracles.optimal_k_packing(g12, k, KIND[algo])[1],
            "bench": [
                [oracles.optimal_k_packing(b, BENCH["k"], KIND[a])[1] for a in BENCH_ALGOS]
                for b in bench_graphs
            ],
        }]

    return Pass(ops, reference, [g12] + bench_graphs)


WORKLOADS = {
    "audit-small": build_audit_small,
    "tour-scale": build_tour_scale,
    "match-scale": build_match_scale,
    "cli-solve": build_cli_solve,
}
