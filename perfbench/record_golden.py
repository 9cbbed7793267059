"""Record the golden references of every workload for seeds 0..31.

    python3 perfbench/record_golden.py

The references are tie-break-independent optima (oracle weights, optimal
tour weights, matching weights) computed with the library at the current
commit; ``run.py`` checks every operation of a recorded seed against them.
"""

import json
import sys

import run
import workloads


SEEDS = 32


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    golden = {"commit": run.environment()["commit"], "seeds": SEEDS}
    for name, build in workloads.WORKLOADS.items():
        golden[name] = {}
        for seed in range(SEEDS):
            p = build(seed, run.OUT)
            golden[name][str(seed)] = {"inputs": p.fingerprint(), "reference": p.reference()}
        print(name, "recorded", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
