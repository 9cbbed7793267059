"""Pinned outputs: SHA-256 digests of what the library and the CLI produce.

Each digest covers, for one algorithm and one k, the packings and audits
(name, lhs, rhs) of ``run_algorithm`` on the four generated classes at seeds
0-2; for one kind and one k, the packings of ``optimal_k_packing``; and the
stdout and exit code of ``solve --oracle`` on each fixture and of one
``bench``.  Past n = 12, where the exact DPs run their largest layers, one
digest per n covers the ``exact_max_tsp`` tours (n = 13..18) and one per n,
kind and k the ``optimal_k_packing`` packings (n = 13..16, every k that
divides n), on the four classes at seed 0.  A refactor that keeps every
packing, tie-breaks included, keeps every digest.  After a deliberate
change of output, rewrite the file with

    python tests/test_pinned_outputs.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

# so that the script runs without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from packgraph.cli import main  # noqa: E402
from packgraph.fixtures import FIXTURE_IDS, get_fixture  # noqa: E402
from packgraph.graph import generate_instance  # noqa: E402
from packgraph.oracles import ALGORITHMS, optimal_k_packing, run_algorithm  # noqa: E402
from packgraph.tsp import EXACT_TSP_CAP, exact_max_tsp  # noqa: E402

PINNED = Path(__file__).resolve().parent / "data" / "pinned_outputs.json"
CLASSES = ("general", "metric", "zero_one", "one_two")
SEEDS = range(3)
MAX_N = 12
MAX_K = 8
LARGE_TOUR_N = range(13, EXACT_TSP_CAP + 1)
LARGE_ORACLE_N = range(13, 17)
BENCH = ("bench", "--k", "4", "--class", "one_two", "--n", "8", "--count", "3",
         "--algos", "alg1,alg2,alg4,alg5,kpp-combined,alg6,alg7,alg8,general4pp,reduce12")


def _blocks(packing) -> list:
    blocks = packing.cycles if hasattr(packing, "cycles") else packing.paths
    return [type(packing).__name__, packing.k, [list(b) for b in blocks]]


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _instances(k: int):
    n = MAX_N - MAX_N % k
    return [generate_instance(n, klass, seed=seed) for klass in CLASSES for seed in SEEDS]


def _run(g, name: str, k: int) -> list:
    try:
        packing, audits = run_algorithm(g, name, k)
    except ValueError as exc:
        return ["error", type(exc).__name__, str(exc)]
    return _blocks(packing) + [[[a.name, str(a.lhs), str(a.rhs)] for a in audits]]


def _cli(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [code, out.getvalue()]


def _solve_argvs():
    for fid in FIXTURE_IDS:
        fx = get_fixture(fid)
        argv = ("solve", "--in", fid, "--algo", fx.algorithm, "--oracle")
        yield argv
        if fx.matching_override is not None:
            argv += ("--override-matching", "paper")
        if fx.plan_override is not None:
            argv += ("--override-plan", "paper")
        yield argv


def compute() -> dict:
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, spec in ALGORITHMS.items():
            for k in range(MAX_K + 1):
                if spec.admits(k):
                    runs = [_run(g, name, k) for g in _instances(k)]
                    digests[f"run_algorithm {name} k={k}"] = _digest(runs)
        for kind, low in (("cycle", 3), ("path", 2)):
            for k in range(low, MAX_K + 1):
                packings = [_blocks(optimal_k_packing(g, k, kind)[0]) for g in _instances(k)]
                digests[f"optimal_k_packing {kind} k={k}"] = _digest(packings)
        for n in LARGE_TOUR_N:
            tours = [list(exact_max_tsp(generate_instance(n, klass, seed=0)).order)
                     for klass in CLASSES]
            digests[f"exact_max_tsp n={n}"] = _digest(tours)
        for n in LARGE_ORACLE_N:
            graphs = [generate_instance(n, klass, seed=0) for klass in CLASSES]
            for kind, low in (("cycle", 3), ("path", 2)):
                for k in range(low, n + 1):
                    if n % k == 0:
                        packings = [_blocks(optimal_k_packing(g, k, kind)[0]) for g in graphs]
                        digests[f"optimal_k_packing {kind} n={n} k={k}"] = _digest(packings)
        for argv in list(_solve_argvs()) + [BENCH]:
            digests[" ".join(argv)] = _digest(_cli(argv))
    return digests


def test_outputs_match_the_pinned_digests():
    pinned = json.loads(PINNED.read_text())
    got = compute()
    assert got.keys() == pinned.keys()
    changed = [key for key in pinned if got[key] != pinned[key]]
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_pinned_outputs.py --record")
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(compute(), indent=1) + "\n")
