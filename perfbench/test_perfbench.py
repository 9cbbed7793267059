"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from packgraph import cycle_packing as cp
from packgraph import matching, oracles

OUT = run.OUT
UNRECORDED = 10**6  # a seed with no golden reference


@pytest.fixture(scope="module", autouse=True)
def _outdir():
    OUT.mkdir(exist_ok=True)


def golden(name: str, seed: int):
    return json.loads(run.GOLDEN.read_text())[name][str(seed)]["reference"]


def run_ops(ops, refs) -> list:
    _, outs, _ = run.run_passes(ops, 0.0, 1)
    return run.check_outputs(ops, outs, refs)


def pick(p, label: str, count: int = 1) -> list:
    ops = [op for op in p.ops if op.label == label][:count]
    assert ops, label
    return ops


def test_wrong_oracle_weight_is_a_failed_operation(monkeypatch):
    ops = pick(workloads.build_audit_small(0, OUT), "alg7/metric/n8")
    assert run_ops(ops, golden("audit-small", 0)) == [[]]
    real = oracles.optimal_k_packing

    def off_by_one(g, k, kind="cycle", max_n=None):
        packing, w = real(g, k, kind, max_n)
        return packing, w + 1

    monkeypatch.setattr(oracles, "optimal_k_packing", off_by_one)
    (errors,) = run_ops(ops, golden("audit-small", 0))
    assert any("oracle weight" in e for e in errors), errors


def test_a_missing_or_loosened_audit_is_a_failed_operation(monkeypatch):
    ops = pick(workloads.build_audit_small(0, OUT), "alg6/general/n12")
    refs = golden("audit-small", 0)
    assert run_ops(ops, refs) == [[]]
    real = oracles.audit_instance

    def dropping(*args, **kwargs):
        reports = real(*args, **kwargs)
        for r in reports:
            r.audits = [a for a in r.audits if a.name != "matching_vs_opt_kcp"]
        return reports

    monkeypatch.setattr(oracles, "audit_instance", dropping)
    (errors,) = run_ops(ops, refs)
    assert any("not the expected" in e for e in errors), errors

    def loosening(*args, **kwargs):
        reports = real(*args, **kwargs)
        for r in reports:
            r.audits = [oracles.AuditEntry(a.name, a.lhs + 1, a.rhs) if a.equality else a
                        for a in r.audits]
        return reports

    monkeypatch.setattr(oracles, "audit_instance", loosening)
    (errors,) = run_ops(ops, refs)
    assert any("audit p4_identity fails" in e for e in errors), errors


def _break_first_block(real):
    def broken(*args, **kwargs):
        packing = real(*args, **kwargs)
        c = packing.cycles
        return type(packing)(k=packing.k, cycles=((c[0][0],) * len(c[0]),) + c[1:])

    return broken


def test_invalid_packing_is_a_failed_operation(monkeypatch):
    ops = pick(workloads.build_match_scale(0, OUT), "alg7/n40")
    assert run_ops(ops, golden("match-scale", 0)) == [[]]
    monkeypatch.setattr(cp, "alg7_metric_4cp", _break_first_block(cp.alg7_metric_4cp))
    (errors,) = run_ops(ops, golden("match-scale", 0))
    assert errors == ["blocks are not a partition of the vertices"]


def test_other_seed_gives_other_instances_and_is_still_checked(monkeypatch):
    assert str(UNRECORDED) not in json.loads(run.GOLDEN.read_text())["tour-scale"]
    recorded = workloads.build_tour_scale(0, OUT)
    other = workloads.build_tour_scale(UNRECORDED, OUT)
    refs = other.reference()
    assert refs != golden("tour-scale", 0)
    ops = pick(other, "alg1/n16", 3)
    assert run_ops(ops, refs) == [[], [], []]
    assert recorded.ops[0].label == other.ops[0].label
    monkeypatch.setattr(cp, "alg1_metric_kcp", _break_first_block(cp.alg1_metric_kcp))
    assert all(run_ops(ops, refs))


def test_a_raising_operation_is_a_failed_operation(monkeypatch):
    ops = pick(workloads.build_audit_small(UNRECORDED, OUT), "alg6/general/n8")
    refs = [None] * 19

    def boom(*args, **kwargs):
        raise RuntimeError("engine down")

    monkeypatch.setattr(matching, "max_weight_perfect_matching_matrix", boom)
    monkeypatch.setattr(cp, "max_weight_perfect_matching_matrix", boom)
    (errors,) = run_ops(ops, refs)
    assert "engine down" in errors[0]


def test_tracer_rebinds_every_module_and_nests_spans():
    g = workloads.graph.generate_instance(9, "one_two", seed=3)
    tr = tracer.Tracer()
    original = matching.max_weight_perfect_matching
    tr.install()
    try:
        assert cp.max_weight_perfect_matching is matching.max_weight_perfect_matching
        assert oracles.max_weight_perfect_matching is not original
        oracles.audit_instance(g, 3, ["3cp911"], tsp_solver=workloads.tsp.exact_max_tsp)
    finally:
        tr.uninstall()
    assert matching.max_weight_perfect_matching is original
    assert cp.max_weight_perfect_matching is original
    names = [rec[tracer.NAME] for rec in tr.spans]
    root = names.index("oracles.audit_instance")
    assert tr.spans[root][tracer.PARENT] == -1
    # the reduction's plug calls the oracle: its span nests under three_cp_9_11
    red = names.index("reductions.three_cp_9_11")
    inner = [i for i, rec in enumerate(tr.spans)
             if rec[tracer.NAME] == "oracles.optimal_k_packing" and i > red]
    parent = tr.spans[inner[0]][tracer.PARENT]
    while parent not in (red, -1):
        parent = tr.spans[parent][tracer.PARENT]
    assert parent == red
    summary = tracer.summarize(tr.spans)
    wall = tr.spans[root][tracer.END] - tr.spans[root][tracer.START]
    total_self = sum(row["self_s"] for row in summary["layers"].values())
    assert total_self == pytest.approx(wall, rel=1e-6)
    assert summary["funcs"]["tsp.exact_max_tsp"]["calls"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "tracer.py", "golden.json"):
        (bench / f).write_text((run.HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_cli_output_is_checked_against_the_published_values():
    p = workloads.build_cli_solve(0, OUT)
    (op,) = pick(p, "solve/fig5")
    rc, stdout, rss = op.run()
    assert op.check((rc, stdout, rss), None) == []
    doc = json.loads(stdout)
    wrong_opt = dict(doc, oracle_weight=25)
    assert any("oracle weight" in e for e in op.check((rc, json.dumps(wrong_opt), rss), None))
    blocks = doc["packing"]
    bad_packing = dict(doc, packing=[blocks[0], blocks[0]] + blocks[2:])
    assert "blocks are not a partition of the vertices" in op.check(
        (rc, json.dumps(bad_packing), rss), None)
    assert op.check((1, stdout, rss), None) == ["exit code 1"]
    fewer = dict(doc, audits=[a for a in doc["audits"] if a["name"] != "tsp_vs_opt_kcp"])
    assert any("not the expected" in e for e in op.check((rc, json.dumps(fewer), rss), None))


def test_cli_equality_audits_are_checked_as_equalities():
    p = workloads.build_cli_solve(0, OUT)
    (op,) = pick(p, "solve/fig3")
    rc, stdout, rss = op.run()
    assert op.check((rc, stdout, rss), None) == []
    doc = json.loads(stdout)

    def plus_one(text):
        num, den = text.split("/")
        return f"{int(num) + int(den)}/{den}"

    off = [dict(a, lhs=plus_one(a["lhs"])) if a["name"] == "p4_identity" else a
           for a in doc["audits"]]
    errors = op.check((rc, json.dumps(dict(doc, audits=off)), rss), None)
    assert any("audit p4_identity fails" in e for e in errors), errors


def test_golden_reference_is_used_only_on_its_inputs():
    p = workloads.build_tour_scale(0, OUT)
    assert run.references("tour-scale", 0, p) == (golden("tour-scale", 0), "golden")
    p.graphs[0] = workloads.graph.generate_instance(16, "metric", seed=UNRECORDED)
    refs, source = run.references("tour-scale", 0, p)
    assert source.startswith("computed")
