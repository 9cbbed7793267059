import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import malformed_alg3_plans
from packgraph.cli import ALGORITHMS, guarantee_bound, main
from packgraph.graph import load_instance, save_instance
from packgraph.matching import max_weight_matching_of_size
from packgraph.oracles import audit_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_one_two(capsys, tmp_path):
    path = tmp_path / "a.pg"
    code, out, _ = run_cli(capsys, "gen", "--n", "10", "--class", "one_two",
                           "--seed", "2", "--out", str(path))
    assert code == 0
    from packgraph.graph import check_weight_class, load_instance

    g = load_instance(path.read_text())
    assert check_weight_class(g, "one_two")


def test_gen_divisibility_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--n", "7", "--k", "4")
    assert code == 2
    assert "not divisible" in err


def test_gen_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--n", "8", "--seed", "5")
    code, out2, _ = run_cli(capsys, "gen", "--n", "8", "--seed", "5")
    assert out1 == out2


def test_solve_fig5_with_override(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--in", "fig5", "--algo", "alg7",
        "--override-matching", "paper", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 20
    assert doc["oracle_weight"] == 24
    assert doc["ratio"] == "5/6"


def test_solve_fig2_with_plan(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--in", "fig2", "--algo", "alg3",
        "--override-plan", "paper", "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 35
    assert doc["oracle_weight"] == 50


FIG2_PLAN = ("solve", "--in", "fig2", "--algo", "alg3", "--override-plan", "paper", "--oracle")
FIG2_PAPER = FIG2_PLAN + ("--override-matching", "paper")


def test_solve_fixture_oracle_runs_the_algorithm_once(capsys, monkeypatch):
    from packgraph import cycle_packing

    calls = []
    splice = cycle_packing._splice_matching

    def counted(*args, **kwargs):
        calls.append(args[1])
        return splice(*args, **kwargs)

    monkeypatch.setattr(cycle_packing, "_splice_matching", counted)
    for argv in (FIG2_PAPER, FIG2_PLAN):
        calls.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["weight"] == 35
        assert calls == ["cycle"]


def test_solve_fixture_oracle_fails_on_a_wrong_expected_value(capsys, monkeypatch):
    import dataclasses

    from packgraph import fixtures

    build = fixtures._BUILDERS["fig2_5cp"]

    def wrong():
        fx = build()
        return dataclasses.replace(fx, expected={**fx.expected, "alg_weight": 36})

    monkeypatch.setitem(fixtures._BUILDERS, "fig2_5cp", wrong)
    code, out, err = run_cli(capsys, *FIG2_PAPER)
    assert code == 1
    assert out == ""
    assert "alg_weight: expected 36, got 35" in err


def test_solve_deterministic_output(capsys, tmp_path):
    args = ("solve", "--in", "fig3", "--algo", "alg6",
            "--override-matching", "paper")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["weight"] == 9


def test_solve_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--in", "fig3", "--algo", "alg6", "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert "weight" in header.split(",")


@pytest.mark.parametrize("n, algo, k, code", [(18, "alg2", "6", 0), (24, "alg1", "8", 2)])
def test_solve_oracle_runs_or_refuses_by_its_memory_estimate(capsys, tmp_path, n, algo, k, code):
    # n = 18 ran into the old cap of 16 at k = 6; n = 24, k = 8 does not fit
    # the budget
    inst = tmp_path / "g.pg"
    run_cli(capsys, "gen", "--n", str(n), "--class", "metric", "--out", str(inst))
    got, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", algo, "--k", k,
                            "--oracle")
    assert got == code
    if code == 0:
        assert json.loads(out)["oracle_weight"] > 0
    else:
        assert out == ""
        assert re.fullmatch(r"error: the exact 8-cycle packing on n=24 needs an estimated \d+ MB, "
                            r"above the memory budget of 256 MB\n", err), err


def test_solve_file_input_and_overrides(capsys, tmp_path):
    inst = tmp_path / "g.pg"
    run_cli(capsys, "gen", "--n", "8", "--class", "metric", "--seed", "3",
            "--out", str(inst))
    mfile = tmp_path / "m.txt"
    mfile.write_text("0 1\n2 3\n4 5\n6 7\n")
    code, out, _ = run_cli(
        capsys, "solve", "--in", str(inst), "--algo", "alg7", "--k", "4",
        "--override-matching", str(mfile),
    )
    assert code == 0
    doc = json.loads(out)
    used = {frozenset(e) for c in doc["packing"] for e in zip(c, c[1:] + c[:1])}
    for e in ({0, 1}, {2, 3}, {4, 5}, {6, 7}):
        assert frozenset(e) in used


def test_solve_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--in", "nope.pg", "--algo", "alg7")
    assert code == 2
    inst = tmp_path / "g.pg"
    run_cli(capsys, "gen", "--n", "8", "--seed", "0", "--out", str(inst))
    code, _, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", "alg7")
    assert code == 2  # missing --k for file input
    code, _, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", "alg7",
                           "--k", "4", "--override-matching", "paper")
    assert code == 2  # no paper override for plain files


def test_fixtures_command(capsys, tmp_path):
    for fid, checks in (("fig3", "alg_weight"), ("fig4", "opt_weight"),
                        ("fig5", "matching_weight")):
        code, out, _ = run_cli(capsys, "fixtures", "--id", fid,
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert "[ok]" in out and "FAIL" not in out
    assert (tmp_path / "fig3_general4cp.packgraph").exists()
    assert (tmp_path / "fig3_general4cp.matching").exists()


def test_fixtures_fails_on_a_wrong_expected_value(capsys, monkeypatch, tmp_path):
    import dataclasses

    from packgraph import fixtures

    build = fixtures._BUILDERS["fig3_general4cp"]

    def wrong():
        fx = build()
        return dataclasses.replace(fx, expected={**fx.expected, "alg_weight": 10})

    monkeypatch.setitem(fixtures._BUILDERS, "fig3_general4cp", wrong)
    code, out, err = run_cli(capsys, "fixtures", "--id", "fig3", "--out-dir", str(tmp_path))
    assert code == 1
    assert "fig3_general4cp alg_weight: expected 10, got 9 [FAIL]\n" in out
    assert out.count("[ok]") == 3
    assert err == "fixture verification FAILED\n"


def test_fixtures_fig2_writes_plan(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "fixtures", "--id", "fig2",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig2_5cp.plan").exists()
    # the files read back as the paper's overrides
    solve = ("solve", "--in", "fig2", "--algo", "alg3", "--oracle")
    files = ("--override-matching", str(tmp_path / "fig2_5cp.matching"),
             "--override-plan", str(tmp_path / "fig2_5cp.plan"))
    paper = ("--override-matching", "paper", "--override-plan", "paper")
    assert run_cli(capsys, *solve, *files) == run_cli(capsys, *solve, *paper)


def test_bench_passes_and_is_deterministic(capsys):
    args = ("bench", "--k", "4", "--class", "metric", "--count", "5",
            "--n", "8", "--algos", "alg7,alg8")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "summary" in out1


@pytest.mark.parametrize("klass", ["general", "zero_one"])
def test_bench_gates_own_audits_only_on_covered_classes(capsys, klass):
    # alg7 and alg8 prove nothing off the metric classes: their lemma audits
    # are reported there but do not fail the run
    algos = ["alg6", "alg7", "alg8", "general4pp"]
    code, out, _ = run_cli(capsys, "bench", "--k", "4", "--class", klass, "--n", "8",
                           "--count", "10", "--algos", ",".join(algos))
    assert code == 0
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert lines[0].startswith("seed,")
    assert [(r[0], r[4]) for r in rows] == [
        (str(seed), a) for seed in range(10) for a in algos
    ] + [("summary", a) for a in algos]


BENCH_ALG7 = ("bench", "--k", "4", "--class", "metric", "--n", "8", "--count", "3",
              "--algos", "alg7")


def test_bench_fails_on_a_failing_gated_audit(capsys, monkeypatch):
    from packgraph import cli
    from packgraph.cycle_packing import AuditEntry

    def failing(*args, **kwargs):
        reports = audit_instance(*args, **kwargs)
        for rep in reports:
            rep.gated.append(AuditEntry("forced", Fraction(0), Fraction(1)))
        return reports

    monkeypatch.setattr(cli, "audit_instance", failing)
    code, out, err = run_cli(capsys, *BENCH_ALG7)
    assert (code, out, err) == (1, "", "verification failure: audit failed: seed=0 algo=alg7\n")


def test_bench_fails_below_the_guarantee_after_writing_its_csv(capsys, monkeypatch, tmp_path):
    from packgraph import cli

    passed, failed = tmp_path / "passed.csv", tmp_path / "failed.csv"
    assert run_cli(capsys, *BENCH_ALG7, "--out", str(passed))[0] == 0
    minimum = passed.read_text().splitlines()[-1].split(",")[7].removeprefix("min=")
    monkeypatch.setattr(cli, "guarantee_bound", lambda *args: Fraction(2))
    code, out, err = run_cli(capsys, *BENCH_ALG7, "--out", str(failed))
    assert (code, out) == (1, "")
    assert err == f"verification failure: alg7: min ratio {Fraction(minimum)} below guarantee 2\n"
    assert failed.read_text() == passed.read_text()


def test_bench_unknown_algo(capsys):
    code, _, err = run_cli(capsys, "bench", "--k", "4", "--n", "8",
                           "--algos", "algX")
    assert code == 2


def test_guarantee_bound_table():
    assert guarantee_bound("alg1", 7, "metric") == Fraction(36, 49)
    assert guarantee_bound("alg2", 6, "metric") == Fraction(91, 120)
    assert guarantee_bound("alg3", 5, "metric") == Fraction(7, 10)
    assert guarantee_bound("alg4", 4, "metric") == Fraction(3, 4)
    assert guarantee_bound("kpp-combined", 6, "metric") == Fraction(175, 228)
    assert guarantee_bound("alg6", 4, "general") == Fraction(3, 4)
    assert guarantee_bound("alg7", 4, "metric") == Fraction(5, 6)
    assert guarantee_bound("alg7", 4, "one_two") == Fraction(7, 8)
    assert guarantee_bound("alg8", 4, "metric") == Fraction(14, 17)
    assert guarantee_bound("3cp911", 3, "one_two") == Fraction(9, 11)
    assert guarantee_bound("alg1", 4, "general") is None
    assert guarantee_bound("alg5", 6, "metric") is None


def test_inadmissible_k_is_refused(capsys, tmp_path):
    inst = tmp_path / "g12.pg"
    run_cli(capsys, "gen", "--n", "12", "--class", "metric", "--seed", "0",
            "--out", str(inst))
    for extra in ([], ["--oracle"]):
        code, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo",
                                 "alg7", "--k", "6", *extra)
        assert (code, out) == (2, "")
        assert "alg7 needs k = 4" in err
    code, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo",
                             "alg1", "--k", "0")
    assert (code, out) == (2, "")
    assert "alg1 needs k >= 3" in err
    code, out, err = run_cli(capsys, "bench", "--k", "6", "--n", "12",
                             "--count", "1", "--algos", "alg8")
    assert (code, out) == (2, "")
    assert "alg8 needs k = 4" in err


def test_out_of_range_input_exits_2(capsys, tmp_path):
    big = tmp_path / "big.pg"
    big.write_text(f"packgraph 1 n=4 class=general\n1 1 {10**20}\n1 1\n1\n")
    code, out, err = run_cli(capsys, "solve", "--in", str(big), "--algo", "alg6", "--k", "4")
    assert (code, out) == (2, "")
    assert "does not fit in int64" in err
    g12, g15 = tmp_path / "g12.pg", tmp_path / "g15.pg"
    run_cli(capsys, "gen", "--n", "12", "--class", "metric", "--out", str(g12))
    run_cli(capsys, "gen", "--n", "15", "--class", "metric", "--out", str(g15))
    pairs = "0 1\n2 3\n4 5\n6 7\n8 9\n"
    cases = [
        (g12, "alg7", "4", pairs + "10 12\n", None, "vertex id 12 outside 0..11"),
        (g12, "alg7", "4", pairs + "-1 10\n", None, "vertex id -1 outside 0..11"),
        (g15, "alg3", "5", pairs + "10 11\n", "0 6 : 12\n1 2 : 13\n3 4 : 14\n",
         "edge index 6 outside 0..5"),
        (g15, "alg3", "5", pairs + "10 11\n", "0 1 : 15\n2 3 : 13\n4 5 : 14\n",
         "vertex id 15 outside 0..14"),
        (g15, "alg3", "5", pairs + "10 11\n", "0 1 :\n2 3 : 13\n4 5 : 14\n",
         "a group without an isolated vertex"),
        (g15, "alg3", "5", pairs + "10 11\n", "0 1 12\n2 3 : 13\n4 5 : 14\n",
         "p.txt: line '0 1 12' needs exactly one ':'"),
        (g15, "alg3", "5", pairs + "10 11\n", "0 1 : 12 : 13\n2 3 : 13\n4 5 : 14\n",
         "p.txt: line '0 1 : 12 : 13' needs exactly one ':'"),
        (g12, "alg7", "4", "0 1 2\n", None, "m.txt: line '0 1 2' is not the two ids of an edge"),
        (g12, "alg7", "4", pairs + "10 x\n", None, "m.txt: vertex id 'x' is not an integer"),
        (g15, "alg3", "5", "0 1\n0 2\n", None, "m.txt: matching edges share a vertex"),
        (g15, "alg3", "5", "0 0\n", None, "m.txt: self-loop (0, 0) in matching"),
        (g12, "alg7", "4", pairs, None, "error: matching override is not perfect"),
        (g15, "alg3", "5", pairs + "10 11\n", "0 0 : 12\n2 3 : 13\n4 5 : 14\n",
         "p.txt: edge index 0 used twice"),
    ]
    for inst, algo, k, matching, plan, message in cases:
        (tmp_path / "m.txt").write_text(matching)
        argv = ["solve", "--in", str(inst), "--algo", algo, "--k", k,
                "--override-matching", str(tmp_path / "m.txt")]
        if plan:
            (tmp_path / "p.txt").write_text(plan)
            argv += ["--override-plan", str(tmp_path / "p.txt")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), message
        assert message in err and "Traceback" not in err


def test_a_malformed_instance_file_exits_2(capsys, tmp_path):
    inst = tmp_path / "short.pg"
    inst.write_text("packgraph 1 n=3 class=general\n1 2\n")
    code, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", "alg1", "--k", "3")
    assert (code, out, err) == (2, "", "error: expected 3 weights, got 2\n")


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_an_override_the_algorithm_does_not_read_exits_2(capsys, tmp_path, monkeypatch, oracle):
    from packgraph import oracles

    calls = []
    monkeypatch.setattr(oracles, "optimal_k_packing", lambda *args: calls.append(args))
    inst, m = tmp_path / "g.pg", tmp_path / "m.txt"
    run_cli(capsys, "gen", "--n", "15", "--class", "metric", "--out", str(inst))
    m.write_text("".join(f"{v} {v + 1}\n" for v in range(0, 12, 2)))  # not of maximum weight
    code, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", "alg3", "--k", "5",
                             "--override-matching", str(m), *oracle)
    assert (code, out, err) == (2, "", "error: alg3 does not read a matching override\n")
    assert calls == []  # refused before the oracle


@pytest.mark.parametrize("n, klass, algo, k",
                         [(8, "metric", "alg5", 4), (9, "general", "alg3", 3)])
def test_plan_ends_of_the_wrong_count_exit_2(capsys, tmp_path, n, klass, algo, k):
    inst = tmp_path / "g.pg"
    run_cli(capsys, "gen", "--n", str(n), "--class", klass, "--seed", "1", "--out", str(inst))
    g = load_instance(inst.read_text())
    groups = n // k
    matching = max_weight_matching_of_size(g, groups * ((k - 1) // 2))
    iso = sorted(set(range(n)) - matching.covered())
    (tmp_path / "m.txt").write_text("".join(f"{u} {v}\n" for u, v in matching.edges))
    # one id per group where a path takes two, two where a cycle takes one
    ends = [iso[:1], iso[2:3]] if algo == "alg5" else [iso[:2], iso[2:3], iso[:1]]
    (tmp_path / "p.txt").write_text("".join(
        f"{i} : {' '.join(map(str, e))}\n" for i, e in enumerate(ends)))
    code, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", algo, "--k", str(k),
                             "--override-matching", str(tmp_path / "m.txt"),
                             "--override-plan", str(tmp_path / "p.txt"))
    assert (code, out) == (2, "")
    assert err == f"error: plan group 0: ends {tuple(ends[0])} are not {3 - len(ends[0])} " \
        "of the isolated vertices\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--n", "8", "--k", "0"], "--k"),
        (["bench", "--k", "4", "--n", "8", "--count", "0", "--algos", "alg7"], "--count"),
        (["bench", "--k", "4", "--n", "8", "--count", "-1", "--algos", "alg7"], "--count"),
        (["solve", "--in", "fig5", "--algo", "alg7", "--override-matching", "MISSING"],
         "--override-matching"),
        (["solve", "--in", "fig2", "--algo", "alg3", "--override-matching", "paper",
          "--override-plan", "MISSING"], "--override-plan"),
        (["solve", "--in", "DIR", "--algo", "alg7", "--k", "4"], "--in"),
        (["solve", "--in", "fig5", "--algo", "alg7", "--out", "DIR/no/x"], "--out"),
        (["gen", "--n", "8", "--out", "DIR/no/x"], "--out"),
        (["bench", "--k", "4", "--n", "8", "--count", "1", "--algos", "alg7",
          "--out", "DIR/no/x"], "--out"),
        (["fixtures", "--id", "fig5", "--out-dir", "DIR/file/x"], "--out-dir"),
        (["bench", "--k", "4", "--n", "8", "--count", "2", "--algos", "alg7,alg7"], "--algos"),
    ],
)
def test_bad_counts_and_paths_exit_2(capsys, tmp_path, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_malformed_plan_files_exit_2(capsys, tmp_path, oracle):
    g, matching, plans = malformed_alg3_plans()
    inst, m, p = tmp_path / "g.pg", tmp_path / "m.txt", tmp_path / "p.txt"
    inst.write_text(save_instance(g))
    m.write_text("".join(f"{u} {v}\n" for u, v in matching.edges))
    index = {e: i for i, e in enumerate(matching.edges)}
    for violation, plan in plans.items():
        # a plan file gives each group its ends, so the cut plan is a group without any
        ends = plan.isolated + ((),) * (len(plan.groups) - len(plan.isolated))
        p.write_text("".join(" ".join(map(str, [*(index[e] for e in grp), ":", *end])) + "\n"
                             for grp, end in zip(plan.groups, ends)))
        code, out, err = run_cli(capsys, "solve", "--in", str(inst), "--algo", "alg3", "--k", "5",
                                 "--override-matching", str(m), "--override-plan", str(p), *oracle)
        assert (code, out) == (2, "")
        if plan.isolated == ends:
            assert err.startswith(f"error: alg3 produced an invalid packing: {violation}")
        else:
            assert err == f"error: {p}: a group without an isolated vertex\n"


FIXTURE_IDS = ["fig2_5cp", "fig3_general4cp", "fig4_general4pp", "fig5_metric4cp",
               "fig3_lifted_12"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_arguments_exit_0_1_or_2(capsys, tmp_path, monkeypatch, data):
    # every path is under tmp_path, and the working directory too, so the
    # run writes nowhere else; "file/x" sits below a regular file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").touch()
    path = st.sampled_from(["missing/x", "file/x", "file", ".", "out"]).map(
        lambda p: str(tmp_path / p))
    ks, ns = st.integers(-1, 5).map(str), st.sampled_from(["0", "3", "4", "8"])
    klass = st.sampled_from(["general", "metric", "zero_one", "one_two"])

    def optional(*parts):
        return data.draw(st.one_of(st.just([]), st.tuples(*parts).map(list)))

    command = data.draw(st.sampled_from(["gen", "solve", "fixtures", "bench"]))
    if command == "gen":
        argv = ["gen", "--n", data.draw(ns)] + optional(st.just("--k"), ks) + optional(
            st.just("--class"), klass) + optional(st.just("--out"), path)
    elif command == "solve":
        source = data.draw(st.one_of(st.sampled_from(FIXTURE_IDS), path))
        override = st.one_of(st.just("paper"), path)
        argv = ["solve", "--in", source, "--algo", data.draw(st.sampled_from(list(ALGORITHMS)))]
        argv += optional(st.just("--k"), ks) + optional(st.just("--oracle"))
        argv += optional(st.just("--override-matching"), override)
        argv += optional(st.just("--override-plan"), override)
        argv += optional(st.just("--format"), st.just("csv")) + optional(st.just("--out"), path)
    elif command == "fixtures":
        fid = data.draw(st.sampled_from(FIXTURE_IDS + ["nope"]))
        argv = ["fixtures", "--id", fid, "--out-dir", data.draw(path)]
    else:
        algos = data.draw(st.lists(st.sampled_from(list(ALGORITHMS) + ["nope"]),
                                   min_size=1, max_size=2))
        argv = ["bench", "--k", data.draw(ks), "--n", data.draw(ns), "--count",
                data.draw(st.integers(-1, 2).map(str)), "--algos", ",".join(algos)]
        argv += optional(st.just("--class"), klass) + optional(st.just("--out"), path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)
    capsys.readouterr()
