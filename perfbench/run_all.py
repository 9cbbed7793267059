"""Run every workload of the benchmark once and print its end-to-end metrics.

    python3 perfbench/run_all.py [--seed N]

Each workload runs as ``run.py --trace 0`` in its own process, for
``run.py``'s default of BENCHMARK.json's ``run_seconds``.  Prints one
line per metric, ``<workload> <metric> <value> <unit>``, and exits 1 if any
operation of any workload failed its check (or a workload did not report).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("audit-small", "tour-scale", "match-scale", "cli-solve")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"{name} failed {result['failed']} of {result['attempted']} operations")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
