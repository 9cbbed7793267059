"""Command-line front door: gen / solve / fixtures / bench.

All commands are deterministic given their flags; identical invocations
produce byte-identical reports.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .cycle_packing import EdgeGroupPlan
from .fixtures import get_fixture, run_fixture_checks
from .graph import (
    generate_instance,
    load_instance,
    make_matching,
    packing_weight,
    require_divisible,
    save_instance,
    text_lines,
)
from .oracles import (
    ALGORITHMS,
    OracleCapError,
    RatioReport,
    algorithm_spec,
    audit_instance,
    guarantee_bound,
    run_algorithm,
)
from .tsp import exact_max_tsp


class VerificationFailure(Exception):
    pass


@contextmanager
def _file_errors(what: str):
    """Report an OSError raised in the block as a usage error about ``what``."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"{what}: {exc.strerror or exc}") from None


def _read_text(path: str, option: str) -> str:
    with _file_errors(f"cannot read {option} {path}"):
        return Path(path).read_text()


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with _file_errors(f"cannot write --out {out}"):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.k is not None and args.n % args.k != 0:
        raise ValueError(f"n={args.n} not divisible by k={args.k}")
    g = generate_instance(
        n=args.n,
        class_tag=getattr(args, "class"),
        distribution=args.dist,
        seed=args.seed,
    )
    _write_out(save_instance(g), args.out)
    return 0


# ---------------------------------------------------------------------------
# solve


def _load_input(source: str):
    """Either a fixture id (fig2, fig5_metric4cp, ...) or a file path."""
    try:
        fx = get_fixture(source)
        return fx.graph, fx
    except ValueError:
        pass
    if not Path(source).exists():
        raise ValueError(f"no such instance file or fixture: {source}")
    return load_instance(_read_text(source, "--in")), None


def _indices(tokens, stop: int, what: str) -> list:
    """The integers of ``tokens``; a usage error unless each is in 0..stop-1."""
    ids = []
    for t in tokens:
        try:
            i = int(t)
        except ValueError:
            raise ValueError(f"{what} {t!r} is not an integer") from None
        if not 0 <= i < stop:
            raise ValueError(f"{what} {i} outside 0..{stop - 1}")
        ids.append(i)
    return ids


def _parse_matching_file(path: str, n: int):
    """Each line: the two vertex ids of a matching edge."""
    edges = []
    for line in text_lines(_read_text(path, "--override-matching")):
        ids = _indices(line.split(), n, f"{path}: vertex id")
        if len(ids) != 2:
            raise ValueError(f"{path}: line {line!r} is not the two ids of an edge")
        edges.append(ids)
    try:
        return make_matching(edges)
    except ValueError as exc:  # a self-loop, or edges that share a vertex
        raise ValueError(f"{path}: {exc}") from None


def _parse_plan_file(path: str, matching, n: int):
    """Each line: edge indices into the matching, then ':', then the
    isolated vertex ids of the group."""
    if matching is None:
        raise ValueError("--override-plan needs --override-matching")
    groups, iso, used = [], [], set()
    for line in text_lines(_read_text(path, "--override-plan")):
        left, colon, right = line.partition(":")
        if not colon or ":" in right:
            raise ValueError(f"{path}: line {line!r} needs exactly one ':'")
        idx = _indices(left.split(), matching.size, f"{path}: edge index")
        for i in idx:
            if i in used:
                raise ValueError(f"{path}: edge index {i} used twice")
            used.add(i)
        groups.append(tuple(matching.edges[i] for i in idx))
        ids = _indices(right.split(), n, f"{path}: vertex id")
        if not ids:
            raise ValueError(f"{path}: a group without an isolated vertex")
        iso.append(tuple(ids))
    return EdgeGroupPlan(groups=tuple(groups), isolated=tuple(iso))


def _override(value: Optional[str], what: str, paper, parse):
    """The ``what`` override that an ``--override-*`` value names: none
    without a value, ``paper`` (the input fixture's) for "paper", else
    ``parse`` of the file."""
    if value != "paper":
        return parse(value) if value else None
    if paper is None:
        raise ValueError(f"no paper {what} override for this input")
    return paper


def _fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def cmd_solve(args) -> int:
    g, fx = _load_input(getattr(args, "in"))
    algo = args.algo
    k = args.k if args.k is not None else (fx.k if fx else None)
    if k is None:
        raise ValueError("--k is required for file inputs")
    kind = algorithm_spec(algo, k).kind
    require_divisible(g.n, k)
    # the matching is parsed first, as the index base of a plan file
    matching = _override(
        args.override_matching, "matching", fx and fx.matching_override,
        lambda path: _parse_matching_file(path, g.n),
    )
    plan = _override(
        args.override_plan, "plan", fx and fx.plan_override,
        lambda path: _parse_plan_file(path, matching, g.n),
    )
    override = plan or matching
    # the tour solver is passed at call time, so that a wrapper bound to
    # the name exact_max_tsp sees every call
    if args.oracle:
        try:
            (rep,) = audit_instance(g, k, [algo], tsp_solver=exact_max_tsp, override=override)
        except OracleCapError:
            # fixtures carry a scripted optimum instead
            if fx is None:
                raise
            rep = _fixture_oracle_report(g, fx, algo, k, override)
        packing = rep.packing
    else:
        packing, _ = run_algorithm(g, algo, k, exact_max_tsp, override=override)
    doc = {
        "instance": getattr(args, "in"),
        "algorithm": algo,
        "k": k,
        "kind": kind,
        "weight": packing_weight(g, packing),
        "denom": g.denom,
        "packing": [list(b) for b in packing.blocks],
    }
    if args.oracle:
        doc["oracle_weight"] = rep.oracle_weight
        doc["ratio"] = _fraction_str(rep.ratio)
        doc["ratio_decimal"] = float(rep.ratio)
        doc["audits"] = [
            {
                "name": a.name,
                "lhs": _fraction_str(a.lhs),
                "rhs": _fraction_str(a.rhs),
                "holds": a.holds,
            }
            for a in rep.audits
        ]
    if args.format == "json":
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        buf = io.StringIO()
        wtr = csv.writer(buf)
        flat = {k2: v for k2, v in doc.items() if not isinstance(v, (list, dict))}
        wtr.writerow(sorted(flat))
        wtr.writerow([flat[c] for c in sorted(flat)])
        _write_out(buf.getvalue(), args.out)
    return 0


def _fixture_oracle_report(g, fx, algo, k, override):
    packing, audits = run_algorithm(g, algo, k, exact_max_tsp, override=override)
    # the fixture's own run needs no second run for its checks
    paper = fx.plan_override or fx.matching_override
    scripted = (algo, k, override) == (fx.algorithm, fx.k, paper)
    for name, expected, actual in run_fixture_checks(fx.id, packing if scripted else None):
        if expected != actual:
            raise VerificationFailure(f"{fx.id} {name}: expected {expected}, got {actual}")
    w = packing_weight(g, packing)
    opt = fx.expected["opt_weight"]
    return RatioReport(
        algorithm=algo,
        algorithm_weight=w,
        oracle_weight=opt,
        ratio=Fraction(w, opt),
        audits=audits,
        packing=packing,
    )


# ---------------------------------------------------------------------------
# fixtures


def cmd_fixtures(args) -> int:
    fx = get_fixture(args.id)
    outdir = Path(args.out_dir)
    with _file_errors(f"cannot write --out-dir {args.out_dir}"):
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{fx.id}.packgraph").write_text(save_instance(fx.graph))
        (outdir / f"{fx.id}.matching").write_text(
            "".join(f"{u} {v}\n" for u, v in fx.matching_override.edges)
        )
        if fx.plan_override:
            index = {e: i for i, e in enumerate(fx.matching_override.edges)}
            lines = []
            for grp, ends in zip(fx.plan_override.groups, fx.plan_override.isolated):
                idxs = [index[tuple(sorted(e))] for e in grp]
                lines.append(" ".join(map(str, [*idxs, ":", *ends])) + "\n")
            (outdir / f"{fx.id}.plan").write_text("".join(lines))
    rows = run_fixture_checks(args.id)
    failed = False
    for name, expected, actual in rows:
        ok = expected == actual
        failed = failed or not ok
        status = "ok" if ok else "FAIL"
        print(f"{fx.id} {name}: expected {expected}, got {actual} [{status}]")
    if failed:
        print("fixture verification FAILED", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    algos = args.algos.split(",")
    if len(set(algos)) < len(algos):
        raise ValueError(f"--algos names an algorithm twice: {args.algos}")
    for a in algos:
        algorithm_spec(a, args.k)
    class_tag = getattr(args, "class")
    rows = []
    worst: dict = {}
    sums: dict = {}
    for i in range(args.count):
        seed = args.seed + i
        g = generate_instance(n=args.n, class_tag=class_tag, seed=seed)
        reports = audit_instance(g, args.k, algos, tsp_solver=exact_max_tsp)
        for rep in reports:
            ok = all(a.holds for a in rep.gated)
            rows.append(
                [
                    seed,
                    args.n,
                    args.k,
                    class_tag,
                    rep.algorithm,
                    rep.algorithm_weight,
                    rep.oracle_weight,
                    _fraction_str(rep.ratio),
                    f"{float(rep.ratio):.6f}",
                    int(ok),
                ]
            )
            if not ok:
                raise VerificationFailure(
                    f"audit failed: seed={seed} algo={rep.algorithm}"
                )
            worst[rep.algorithm] = min(
                worst.get(rep.algorithm, Fraction(2)), rep.ratio
            )
            sums[rep.algorithm] = sums.get(rep.algorithm, Fraction(0)) + rep.ratio
    buf = io.StringIO()
    wtr = csv.writer(buf)
    wtr.writerow(
        ["seed", "n", "k", "class", "algo", "weight", "oracle", "ratio", "ratio_dec", "audits_ok"]
    )
    wtr.writerows(rows)
    for algo in algos:
        mean = sums[algo] / args.count
        bound = guarantee_bound(algo, args.k, class_tag)
        wtr.writerow(
            [
                "summary",
                args.n,
                args.k,
                class_tag,
                algo,
                "",
                "",
                f"min={_fraction_str(worst[algo])}",
                f"mean={float(mean):.6f}",
                "",
            ]
        )
        if bound is not None and worst[algo] < bound:
            _write_out(buf.getvalue(), args.out)
            raise VerificationFailure(
                f"{algo}: min ratio {worst[algo]} below guarantee {bound}"
            )
    _write_out(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="packgraph")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a packgraph instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int)
    g.add_argument("--class", default="general",
                   choices=["general", "metric", "zero_one", "one_two"])
    g.add_argument("--dist", default="default")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run an algorithm on an instance")
    s.add_argument("--in", required=True, help="instance file or fixture id")
    s.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    s.add_argument("--k", type=int)
    s.add_argument("--oracle", action="store_true")
    s.add_argument("--override-matching")
    s.add_argument("--override-plan")
    s.add_argument("--format", default="json", choices=["json", "csv"])
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    f = sub.add_parser("fixtures", help="write and verify a paper fixture")
    f.add_argument("--id", required=True)
    f.add_argument("--out-dir", default=".")
    f.set_defaults(func=cmd_fixtures)

    b = sub.add_parser("bench", help="ratio benchmark against the oracle")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--class", default="metric",
                   choices=["general", "metric", "zero_one", "one_two"])
    b.add_argument("--count", type=int, default=10)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--algos", required=True)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
