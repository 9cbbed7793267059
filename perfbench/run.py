"""packgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N [--seconds 25] --trace 0|1

Runs one workload (see ``workloads.py``) in a closed loop with one client:
the next operation starts when the previous one returns.  The loop runs
whole passes over the workload's operations, at least enough for ten samples
beyond the tail percentile, and starts another pass only if it is expected
to end within ``--seconds``.  Every output is checked afterwards, outside the timed
region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes untraced and then traced (spans around every public packgraph
function) and prints the per-layer metrics.  The last line of stdout is one
JSON object; the exit code is 1 if any operation failed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SETUP_PROBES = 7
RUN_SECONDS = 25  # BENCHMARK.json's run_seconds
# highest percentile each workload reports as its tail, with at least ten
# samples beyond it; fixed so that a faster commit is compared at the same
# percentile (``min_passes`` runs enough passes for the ten samples)
TAIL_PCT = {"audit-small": 90, "tour-scale": 90, "match-scale": 75, "cli-solve": 50}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and set-up


def environment() -> dict:
    import networkx
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def setup_probe(args) -> int:
    """Import packgraph and build the workload's inputs; print the times."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import packgraph.cli  # noqa: F401

    t_import = time.perf_counter() - t0
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, OUT)
    print(json.dumps({"import_s": t_import, "setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args, probes: list) -> None:
    """Set up once in a fresh process; append its times to ``probes``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    ).stdout
    probes.append(json.loads(out.strip().splitlines()[-1]))


def references(name: str, seed: int, p):
    """The golden reference when one was recorded on these exact inputs,
    otherwise one computed with the library."""
    entry = json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))
    if entry is None:
        return p.reference(), "computed"
    if entry["inputs"] != p.fingerprint():
        return p.reference(), "computed (golden recorded on other inputs)"
    return entry["reference"], "golden"


# ---------------------------------------------------------------------------
# measurement


def warm_up(ops) -> None:
    """Run the first operation of each kind once, untimed, so that first-call
    costs (page faults of a growing heap, lazy imports) stay out of the loop.
    CLI operations start a fresh process each time, as they do for a user."""
    seen = set()
    for op in ops:
        if op.traced_run is None and op.label not in seen:
            seen.add(op.label)
            op.run()


def run_passes(ops, seconds: float, min_passes: int, traced=None, between=None):
    """Closed loop over whole passes; returns (latencies, outputs, pass walls).

    An operation that raises counts as failed; its exception is its output.
    ``traced`` is (tracer, spans directory) for a traced run.  ``between``
    is called after each pass, outside the pass's wall time.
    """
    lat, outs, walls = [], [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if traced is not None:
                traced[0].op = len(outs)
            t0 = time.perf_counter()
            try:
                if traced is not None and op.traced_run is not None:
                    out = op.traced_run(traced[1] / f"op{len(outs)}.json")
                else:
                    out = op.run()
            except Exception as exc:  # a failing operation is a result to count
                out = exc
            lat.append(time.perf_counter() - t0)
            outs.append((i, out))
        walls.append(time.perf_counter() - t_pass)
        if between is not None:
            between()
        elapsed = time.perf_counter() - t_start
        if len(walls) >= min_passes and (
            traced is not None or elapsed + walls[-1] > seconds
        ):
            return lat, outs, walls


def check_outputs(ops, outs, refs) -> list:
    """Errors per operation, in run order; an empty list is a pass."""
    result = []
    for i, out in outs:
        if isinstance(out, Exception):
            result.append([f"raised {out!r}"])
        else:
            op = ops[i]
            try:
                result.append(op.check(out, refs[op.ref_index]))
            except Exception as exc:  # a check that cannot read the output fails it
                result.append([f"check raised {exc!r}"])
    return result


def percentile(values, pct: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def min_passes(workload: str, pass_ops: int) -> int:
    beyond = 1 - TAIL_PCT[workload] / 100.0
    return max(1, math.ceil(10 / (beyond * pass_ops) - 1e-9))


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(summary, traced_wall, n_ops, extra) -> dict:
    layers, funcs = summary["layers"], summary["funcs"]
    m = {}
    attributed = 0.0
    for layer in tracer.LAYERS + ("import",):
        row = layers.get(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
        attributed += row["self_s"]
        m[f"{layer}.calls"] = (row["calls"], "count")
        m[f"{layer}.self_s"] = (row["self_s"], "s")
        m[f"{layer}.share"] = (row["self_s"] / traced_wall, "share")
        m[f"{layer}.errors"] = (row["errors"], "count")
    interp = extra["interpreter_s"]
    m["interpreter.self_s"] = (interp, "s")
    m["interpreter.share"] = (interp / traced_wall, "share")
    rest = traced_wall - attributed - interp
    m["unattributed.self_s"] = (rest, "s")
    m["unattributed.share"] = (rest / traced_wall, "share")

    def fn(name):
        return funcs.get(name, {"calls": 0, "self_s": 0.0, "sizes": []})

    engine = fn("matching.max_weight_perfect_matching_matrix")
    m["oracles.optimal_k_packing.calls_per_op"] = (fn("oracles.optimal_k_packing")["calls"] / n_ops, "calls/op")
    m["oracles.best_k_tour_on_set.calls"] = (fn("oracles.best_k_tour_on_set")["calls"], "count")
    m["oracles.run_algorithm.self_s"] = (fn("oracles.run_algorithm")["self_s"], "s")
    m["tsp.exact_max_tsp.calls_per_op"] = (fn("tsp.exact_max_tsp")["calls"] / n_ops, "calls/op")
    m["matching.engine.calls_per_op"] = (engine["calls"] / n_ops, "calls/op")
    m["matching.engine.vertices_mean"] = (
        statistics.fmean(engine["sizes"]) if engine["sizes"] else 0.0, "vertices")
    m["import.packgraph_s"] = (extra["import_s"], "s")
    m["trace.overhead_share"] = (extra["overhead_share"], "share")
    return m


def merge_summaries(parts: list) -> dict:
    out = {"layers": {}, "funcs": {}}
    for part in parts:
        for key in ("layers", "funcs"):
            for name, row in part[key].items():
                acc = out[key].setdefault(name, {k: ([] if k == "sizes" else 0) for k in row})
                for k, v in row.items():
                    acc[k] = acc[k] + v
    return out


def run_traced(args, ops, n_passes: int, untraced_walls) -> dict:
    spans_dir = OUT / f"spans-{args.workload}-{args.seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer()
    in_process = ops[0].traced_run is None
    if in_process:
        tr.install()
    try:
        lat, outs, walls = run_passes(ops, 0.0, n_passes, traced=(tr, spans_dir))
    finally:
        tr.uninstall()
    traced_wall = sum(walls)
    if in_process:
        tr.dump(spans_dir / "spans.jsonl")
        summary = tracer.summarize(tr.spans)
        interpreter_s = 0.0
    else:
        parts, interpreter_s = [], 0.0
        for n in range(len(outs)):
            doc = json.loads((spans_dir / f"op{n}.json").read_text())
            parts.append(tracer.summarize(doc["spans"]))
            interpreter_s += doc["start_s"]
        summary = merge_summaries(parts)
    untraced = statistics.median(untraced_walls)
    return {
        "outs": outs,
        "summary": summary,
        "traced_wall": traced_wall,
        "interpreter_s": interpreter_s,
        "overhead_share": (statistics.median(walls) - untraced) / untraced,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "packgraph" / "__init__.py").is_file():
        print(f"error: no packgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    p = workloads.WORKLOADS[args.workload](args.seed, OUT)
    refs, ref_source = references(args.workload, args.seed, p)
    need = min_passes(args.workload, len(p.ops))
    seconds = 0.0 if args.trace else args.seconds
    # interleave the kinds of operation so that a slow spell of the machine
    # does not fall on one kind only
    random.Random(0).shuffle(p.ops)
    warm_up(p.ops)
    probes: list = []

    def between_passes():
        # a pass leaves cyclic garbage (~10 MB on match-scale) that the
        # collector seldom reaches; collect it so that peak RSS does not grow
        # with the number of passes a run fits
        gc.collect()
        # the set-up probes run between passes, so that their median spans
        # the machine's slow and fast spells like the loop does
        if len(probes) < SETUP_PROBES:
            measure_setup(args, probes)

    lat, outs, walls = run_passes(p.ops, seconds, need, between=between_passes)
    while len(probes) < SETUP_PROBES:
        measure_setup(args, probes)
    rss_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = run_traced(args, p.ops, need, walls) if args.trace else None
    all_outs = outs + (trace["outs"] if trace else [])
    errors = check_outputs(p.ops, all_outs, refs)
    failed = sum(1 for e in errors if e)
    for (i, _), errs in zip(all_outs, errors):
        for e in errs[:3]:
            print(f"FAILED {p.ops[i].label}: {e}", file=sys.stderr)

    env = environment()
    by_op: dict = {}
    for (i, _), t in zip(outs, lat):
        by_op.setdefault(p.ops[i].label, []).append(t * 1e3)
    n = len(lat)
    tail = TAIL_PCT[args.workload]
    if trace is None:
        if p.ops[0].traced_run is not None:
            peak_kb = max((out[2] for _, out in outs if not isinstance(out, Exception)), default=0)
        else:
            peak_kb = rss_self_kb
        metrics = {
            "ops_per_s": (len(p.ops) / statistics.median(walls), "1/s"),
            "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, tail) * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(q["setup_s"] for q in probes), "s"),
        }
    else:
        trace["import_s"] = statistics.median(q["import_s"] for q in probes)
        metrics = layer_metrics(trace["summary"], trace["traced_wall"], len(trace["outs"]), trace)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "references": ref_source,
        "passes": len(walls),
        "samples": n,
        "tail_percentile": tail,
        "latency_by_op_ms": {k: statistics.median(v) for k, v in by_op.items()},
        "pass_walls_s": walls,
        "failed_ops_share": failed / len(all_outs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {n} operations in {len(walls)} passes, "
          f"{sum(walls):.2f} s, references {ref_source}")
    print(f"latency_tail_ms is p{tail} over {n} samples")
    print(f"failed_ops_share {failed / len(all_outs):.6g} share ({failed} of {len(all_outs)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_outs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
