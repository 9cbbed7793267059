"""Run ``packgraph.cli`` with the span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_OUT SPAWN_TIME CLI_ARG...

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so interpreter start is the gap up to this script's first line.
Writes {"start_s", "script_s", "spans"} to SPANS_OUT and exits with the CLI's
exit code.
"""

import sys
import time

t0 = time.perf_counter()
start_s = time.time() - float(sys.argv[2])

import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.op = 0
t_import = time.perf_counter()
import packgraph.cli  # noqa: E402

tracer.spans.append([0, -1, "import.packgraph", t_import, time.perf_counter(), 0, None])
tracer.install()
rc = packgraph.cli.main(sys.argv[3:])
sys.stdout.flush()
script_s = time.perf_counter() - t0
tracer.uninstall()
with open(sys.argv[1], "w") as fh:
    json.dump({"start_s": start_s, "script_s": script_s, "spans": tracer.spans}, fh)
sys.exit(rc)
