"""Alternating pairs of benchmark runs on two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_11.json \\
        [--workloads audit-small tour-scale ...] [--pairs 10] [--seed 300] \\
        [--seconds 25]

PARENT and CHANGE are checkouts of the repository.  Pair i runs
``perfbench/run.py --workload W --seed SEED+i`` once in each, the parent
first in even pairs and the change first in odd ones, so that a drift of
the machine falls on both sides alike.  The metrics and their direction
come from CHANGE's ``BENCHMARK.json``.

Writes a JSON file with the machine (cores, Python, numpy), the two commits,
one run of the tier-1 tests per checkout (its wall time and pytest's last
line), a per-call table and, per workload and end-to-end metric, each
side's median [Q1, Q3] over the pairs, the ratio of the medians, the pairs
the change wins and ``past_bound``: whether the change's median is worse
than the parent's by more than the metric's ``bound`` (a share of the
parent's median); a run that fails any operation is counted.  Each run
writes a new file, rewritten after every workload, and ends by printing
one line per metric past its bound.

The per-call table times the exact DPs and the matching engine alone
(``CALL_SCRIPT``) in subprocesses of each checkout: ``CALL_PROCESSES``
per side in each of ``--pairs`` pairs, the sides alternating, the parent
first in even pairs.  Each subprocess times every call on
``CALL_REPEATS`` instances of the call's class (metric, except the
general n = 200 matching), after one call that builds the index tables
the later ones find, and keeps the median of these times.  Some
fresh processes run every call slower than the rest, so a side's row is
read from these per-process medians: the table holds each side's median
[Q1, Q3] over them, in ms, their ratio, and the pairs the change wins
(the median of its processes' medians in the pair below the parent's).
After each call's times the subprocess also reads the bytes the memo of
``tsp`` keeps and its own peak RSS (``ru_maxrss``), so the memory of the
kept tables sits beside their times: the table holds each side's median
of both over its subprocesses, in MB, as ``memo_mb`` and
``peak_rss_mb``.  The calls run in the order listed, so both count what
the calls before kept.  The memo keeps popcount tables up to 18 bits, so
the tour at n = 20 and the oracle at n = 21 rebuild theirs on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

CALL_REPEATS = 5
CALL_PROCESSES = 3

# run in a checkout: per call, the seconds of CALL_REPEATS calls (argv[1])
# on instances of the call's class, after one call that builds the index
# tables, then the bytes the memo keeps and the process's peak RSS in KiB
CALL_SCRIPT = """
import json, resource, sys, time
from packgraph import tsp
from packgraph.graph import generate_instance
from packgraph.matching import max_weight_matching_of_size, max_weight_perfect_matching
from packgraph.oracles import optimal_k_packing
from packgraph.tsp import exact_max_tsp

CALLS = {
    "exact_max_tsp(n=16)": (16, "metric", exact_max_tsp),
    "exact_max_tsp(n=18)": (18, "metric", exact_max_tsp),
    "exact_max_tsp(n=20)": (20, "metric", exact_max_tsp),
    "optimal_k_packing(n=14, k=7, cycle)": (14, "metric", lambda g: optimal_k_packing(g, 7, "cycle")),
    "optimal_k_packing(n=12, k=4, path)": (12, "metric", lambda g: optimal_k_packing(g, 4, "path")),
    "optimal_k_packing(n=21, k=3, cycle)": (21, "metric", lambda g: optimal_k_packing(g, 3, "cycle")),
    "max_weight_perfect_matching(n=80)": (80, "metric", max_weight_perfect_matching),
    "max_weight_matching_of_size(n=80, p=20)": (80, "metric", lambda g: max_weight_matching_of_size(g, 20)),
    "max_weight_perfect_matching(n=200, metric)": (200, "metric", max_weight_perfect_matching),
    "max_weight_perfect_matching(n=200, general)": (200, "general", max_weight_perfect_matching),
}
out = {}
for name, (n, klass, call) in CALLS.items():
    graphs = [generate_instance(n, klass, seed=s) for s in range(int(sys.argv[1]) + 1)]
    call(graphs[0])
    seconds = []
    for g in graphs[1:]:
        start = time.perf_counter()
        call(g)
        seconds.append(time.perf_counter() - start)
    out[name] = {"seconds": seconds, "memo_bytes": tsp._MEMO.nbytes,
                 "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
print(json.dumps(out))
"""


def src_env() -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_calls(checkout: Path) -> dict:
    """What ``CALL_SCRIPT`` reads per call in one subprocess of the checkout."""
    proc = subprocess.run([sys.executable, "-c", CALL_SCRIPT, str(CALL_REPEATS)],
                          cwd=checkout, env=src_env(),
                          capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: timing the calls failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def per_call(parent: Path, change: Path, pairs: int) -> dict:
    """Per call of ``CALL_SCRIPT``: each side's [median, Q1, Q3] in ms over
    its subprocesses' medians, ``CALL_PROCESSES`` per side in each of
    ``pairs`` pairs, the sides alternating; the ratio of the medians, the
    pairs the change wins, and each side's median over the subprocesses of
    the memo's bytes and the peak RSS after the call, in MB."""
    times = {"parent": {}, "change": {}}  # side -> name -> per pair, one median per process
    memory = {"parent": {}, "change": {}}  # side -> name -> one (memo, rss) per process
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order * CALL_PROCESSES:
            for name, res in time_calls(parent if side == "parent" else change).items():
                medians = times[side].setdefault(name, [[] for _ in range(pairs)])
                medians[i].append(statistics.median(res["seconds"]) * 1e3)
                memory[side].setdefault(name, []).append(
                    (res["memo_bytes"] / 2**20, res["maxrss_kb"] / 1024))
    table = {}
    for name, par_pairs in times["parent"].items():
        chg_pairs = times["change"][name]
        par, chg = (quartiles([t for ts in side for t in ts]) for side in (par_pairs, chg_pairs))
        wins = sum(statistics.median(c) < statistics.median(p) for p, c in zip(par_pairs, chg_pairs))
        table[name] = {"parent": par, "change": chg, "ratio": float(f"{chg[0] / par[0]:.4g}"),
                       "wins": wins}
        for i, key in enumerate(("memo_mb", "peak_rss_mb")):
            table[name][key] = {
                side: float(f"{statistics.median(r[i] for r in memory[side][name]):.4g}")
                for side in ("parent", "change")
            }
    return {"pairs": pairs, "processes": CALL_PROCESSES, "repeats": CALL_REPEATS,
            "unit": "ms", "calls": table}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run: its metrics and failures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output\n{proc.stderr}")
    return json.loads(lines[-1])


def tier1(checkout: Path) -> dict:
    """One run of the checkout's tier-1 tests: wall seconds and pytest's last line."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout, env=src_env(), capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "summary": lines[-1] if lines else proc.stderr[-500:]}


def commit(checkout: Path) -> str:
    """HEAD of the checkout, marked ``+worktree`` when its files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=False).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("+worktree" if git("status", "--porcelain", "--untracked-files=no") else "")


def quartiles(values: list) -> list:
    """[median, Q1, Q3], to 4 significant digits."""
    qs = [values[0]] * 3 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")
    return [float(f"{q:.4g}") for q in (qs[1], qs[0], qs[2])]


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: each side's [median, Q1, Q3], the ratio of the medians
    (change / parent), the pairs the change wins, the metric's bound and
    whether the change's median is worse than the parent's by more than it."""
    out = {}
    for m in metrics:
        name = m["name"]
        side = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in ("parent", "change")}
        higher = m["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(side["parent"], side["change"]))
        par, chg = quartiles(side["parent"]), quartiles(side["change"])
        # from the unrounded medians, as the quartiles are rounded
        par_med, chg_med = (statistics.median(side[s]) for s in ("parent", "change"))
        worse = par_med - chg_med if higher else chg_med - par_med
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": par,
            "change": chg,
            "ratio": float(f"{chg[0] / par[0]:.4g}") if par[0] else None,
            "wins": wins,
            "bound": m["bound"],
            "past_bound": worse > m["bound"] * abs(par_med),
        }
    return out


def past_bound(report: dict) -> list:
    """One line per workload and end-to-end metric whose change median is
    worse than the parent's by more than the metric's bound."""
    return [
        f"past bound: {w} {name} {m['parent'][0]} -> {m['change'][0]} {m['unit']} "
        f"(ratio {m['ratio']}, bound {m['bound']}, change wins {m['wins']}/{res['pairs']})"
        for w, res in report["workloads"].items()
        for name, m in res["metrics"].items()
        if m["past_bound"]
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=300)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    import numpy

    report = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "commits": {"parent": commit(args.parent), "change": commit(args.change)},
        "tier1": {s: tier1(getattr(args, s)) for s in ("parent", "change")},
        "per_call": per_call(args.parent, args.change, args.pairs),
        "workloads": {},
    }
    for w in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {s: run_once(getattr(args, s), w, seed, args.seconds) for s in order}
            runs.append(pair)
            print(w, seed, {s: round(pair[s]["metrics"]["ops_per_s"]["value"], 2) for s in order},
                  file=sys.stderr, flush=True)
        report["workloads"][w] = {
            "pairs": args.pairs,
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "seconds": args.seconds,
            "failed_runs": {s: sum(not r[s]["correct"] for r in runs) for s in ("parent", "change")},
            "metrics": summarize(runs, bench["end_to_end"]),
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for line in past_bound(report):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
