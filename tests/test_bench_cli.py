"""Benchmark harness and command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from mapls import bench, cli
from mapls.bench import (
    ExperimentResult,
    ExperimentSpec,
    read_registry,
    resolve_best_known,
    run_experiment,
    suite_names,
    update_best_known,
)
from mapls.generate import generate, parse_instance_name
from mapls.meta import MetaConfig


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mapls.cli", *args],
        capture_output=True, text=True, env=env,
    )


# -- registry -----------------------------------------------------------------


def test_registry_first_entry_improves(tmp_path):
    reg = str(tmp_path / "reg.txt")
    assert update_best_known(reg, "3c10", 1, 500.0) is True
    assert update_best_known(reg, "3c10", 1, 500.0) is False
    assert update_best_known(reg, "3c10", 1, 499.0) is True
    assert read_registry(reg)[("3c10", 1)] == 499.0


def test_registry_rejects_below_lower_bound(tmp_path):
    # random and planted rows divide by a*n, so the registry takes no value
    # for them, however low or high
    reg = tmp_path / "reg.txt"
    for name in ("3r20", "4gp9"):
        for value in (19.0, 20.0, 1e6):
            with pytest.raises(ValueError, match="not the registry"):
                update_best_known(str(reg), name, 1, value)
    assert not reg.exists()


def test_resolve_best_known_rejects_stored_below_lower_bound(tmp_path):
    # a stored clique best below n * floor is a corrupt entry
    reg = tmp_path / "reg.txt"
    fam = parse_instance_name("3c6", 1)
    inst = generate(fam)
    bound = inst.lower_bound()
    reg.write_text(f"3c6 1 {bound - 1:g}\n")
    with pytest.raises(ValueError, match=re.escape(f"{reg}: corrupt entry 3c6 1")):
        resolve_best_known(str(reg), fam, inst, bound + 50)
    reg.write_text(f"3c6 1 {bound:g}\n")
    assert resolve_best_known(str(reg), fam, inst, bound + 50) == bound


def test_resolve_best_known_divides_by_a_better_best_stored_after_its_read(tmp_path, monkeypatch):
    # a second writer stores 35 between the row's read and its update: the
    # update is refused, and the row divides by the registry's 35, not its own 80
    reg = str(tmp_path / "reg.txt")
    fam = parse_instance_name("3c10", 1)
    inst = generate(fam)
    read = bench.read_registry

    def stale_read(path):
        table = read(path)
        monkeypatch.setattr(bench, "read_registry", read)
        assert update_best_known(path, "3c10", 1, 35.0) is True
        return table

    monkeypatch.setattr(bench, "read_registry", stale_read)
    assert resolve_best_known(reg, fam, inst, 80.0) == 35.0
    assert read_registry(reg)[("3c10", 1)] == 35.0


def test_registry_bound_needs_no_generation(tmp_path, monkeypatch):
    # the family comes from the parsed name, not from a generated instance
    import mapls.bench as bench

    def refuse(spec):
        raise AssertionError(f"generated {spec.name}")

    monkeypatch.setattr(bench, "generate", refuse)
    reg = str(tmp_path / "reg.txt")
    assert update_best_known(reg, "3c10", 1, 500.0) is True
    for name in ("3r20", "3gp20"):
        with pytest.raises(ValueError, match="not the registry"):
            update_best_known(reg, name, 1, 19.0)
    assert read_registry(reg) == {("3c10", 1): 500.0}


def test_registry_corrupt_line(tmp_path):
    reg = tmp_path / "reg.txt"
    reg.write_text("3c10 1 500\ngarbage line here oops\n")
    with pytest.raises(ValueError, match="line 2"):
        read_registry(str(reg))
    # weights are finite and non-negative: anything else is a corrupt line
    for value in ("nan", "inf", "-inf", "-5", "-0.5"):
        reg.write_text(f"3c10 1 500\n3c10 2 {value}\n")
        with pytest.raises(ValueError, match=re.escape(f"{reg}: corrupt registry line 2")):
            read_registry(str(reg))
    reg.write_text("3c10 1 0\n3c10 2 7.5\n")
    assert read_registry(str(reg)) == {("3c10", 1): 0.0, ("3c10", 2): 7.5}


def test_resolve_best_known_proven_vs_registry(tmp_path):
    reg = str(tmp_path / "reg.txt")
    fam = parse_instance_name("3r10", 1)
    inst = generate(fam)
    assert resolve_best_known(reg, fam, inst, 25.0) == 10.0  # a*n, no registry write
    fam = parse_instance_name("3c6", 1)
    inst = generate(fam)
    assert resolve_best_known(reg, fam, inst, 77.0) == 77.0
    assert resolve_best_known(reg, fam, inst, 80.0) == 77.0
    assert resolve_best_known(reg, fam, inst, 70.0) == 70.0


# -- experiment runner ---------------------------------------------------------


def test_empty_instance_list(tmp_path):
    # an empty name or index list is rejected up front; a result without
    # rows (a run that failed on its first row) still prints its header
    with pytest.raises(ValueError, match="at least one"):
        ExperimentSpec([], registry=str(tmp_path / "r.txt"))
    with pytest.raises(ValueError, match="at least one"):
        ExperimentSpec(["3r6"], indices=[])
    result = ExperimentResult([], [])
    assert result.to_csv().strip() == "name,index,seed,construct,ls,meta,best_known,achieved,error_pct,time_ms"


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(["3r10"], construct="nope")
    with pytest.raises(ValueError):
        ExperimentSpec(["3r10"], ls="sdv+2opt")  # rejected pairing
    with pytest.raises(ValueError):
        ExperimentSpec(["2r10"])
    with pytest.raises(ValueError):
        ExperimentSpec(["3r10"], ls="vopt", ls_variant="bogus")
    for indices in ([0], [1, -2]):
        with pytest.raises(ValueError):
            ExperimentSpec(["3r10"], indices=indices)


@pytest.mark.parametrize("names, ls, meta", [
    (["3r40", "3r2"], "3opt", None),
    (["3r40", "3r2"], "2dv+3opt", None),
    (["3r4", "3r1"], "vopt", None),
    (["3r4", "3r1"], "sdv+vopt", None),
    (["3r4", "3r1"], "2opt", None),
    (["3r4", "3r1"], "1dv", MetaConfig("chain", iteration_cap=2)),
    (["3r4", "3r1"], "none", MetaConfig("chain", time_budget=1.0)),
    (["3r4", "3r1"], "1dv", MetaConfig("multichain", c=2, iteration_cap=5)),
])
def test_spec_refuses_sizes_its_search_cannot_run_on(names, ls, meta, monkeypatch):
    # refused before any row runs, so no finished row is thrown away
    calls = []
    monkeypatch.setattr(bench, "run_single", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="needs n >= "):
        ExperimentSpec(names, indices=[1, 2, 3], ls=ls, meta=meta)
    argv = ["bench", "--names", ",".join(names), "--indices", "1..3", "--ls", ls]
    if meta is not None:
        argv += ["--meta", meta.kind, "--multichain-width", str(meta.c)]
        argv += ["--iters", str(meta.iteration_cap)] if meta.iteration_cap else ["--time", "1s"]
    assert cli.main(argv) == 2
    assert calls == []


def test_spec_accepts_the_least_sizes():
    for name, ls in [("3r2", "2opt"), ("3r3", "3opt"), ("3r2", "vopt"), ("3r1", "sdv"), ("3r1", "none")]:
        ExperimentSpec([name], ls=ls)
    ExperimentSpec(["3r2"], ls="none", meta=MetaConfig("chain", iteration_cap=2))


def test_run_experiment_rows_and_aggregates(tmp_path):
    spec = ExperimentSpec(
        ["3r8", "3p8"], indices=[1, 2], construct="greedy", ls="1dv",
        registry=str(tmp_path / "r.txt"),
    )
    result = run_experiment(spec)
    assert len(result.rows) == 4
    labels = {r.name for r in result.rows}
    assert labels == {"3r8", "3p8"}
    # aggregates are exact means of their member rows
    by_label = {a.name: a for a in result.aggregates}
    rand_rows = [r for r in result.rows if r.name == "3r8"]
    assert by_label["avg:random"].error_pct == pytest.approx(
        sum(r.error_pct for r in rand_rows) / len(rand_rows)
    )
    s3 = by_label["avg:s=3"]
    assert s3.achieved == pytest.approx(sum(r.achieved for r in result.rows) / 4)
    # max-regret label protects comparability
    spec2 = ExperimentSpec(["3r6"], indices=[1], construct="maxregret",
                           registry=str(tmp_path / "r.txt"))
    assert run_experiment(spec2).rows[0].construct == "maxregret-jv"


def test_suites():
    names, indices = suite_names("paper-full")
    assert len(names) == 36 and indices == list(range(1, 11))
    assert "3r150" in names and "8sr8" in names
    names, indices = suite_names("desk")
    assert "3r75" in names and indices == [1, 2, 3]
    with pytest.raises(ValueError):
        suite_names("weekend")


# -- CLI ------------------------------------------------------------------------


def test_cli_generate_and_verify(tmp_path):
    inst_path = tmp_path / "i.map"
    asg_path = tmp_path / "a.txt"
    r = run_cli("generate", "--name", "3c6", "--index", "2", "--out", str(inst_path))
    assert r.returncode == 0 and inst_path.exists()
    r = run_cli("construct", "--name", "3c6", "--index", "2",
                "--heuristic", "greedy", "--out", str(asg_path))
    assert r.returncode == 0
    r = run_cli("verify", "--instance", str(inst_path), "--assignment", str(asg_path))
    assert r.returncode == 0 and r.stdout.startswith("OK weight=")
    verified = r.stdout.strip().removeprefix("OK weight=")
    r = run_cli("verify", "--name", "3c6", "--index", "2", "--assignment", str(asg_path))
    assert r.returncode == 0
    r = run_cli("construct", "--name", "3c6", "--index", "2", "--heuristic", "greedy", "--csv")
    assert r.returncode == 0
    assert r.stdout.strip().split(",")[:5] == ["3c6", "2", "11", "greedy", verified]


def test_cli_prints_weights_with_every_digit(tmp_path):
    # 8p8 #1's trivial weight has eight significant digits
    asg = tmp_path / "a.txt"
    r = run_cli("construct", "--name", "8p8", "--heuristic", "trivial", "--csv")
    assert r.returncode == 0 and r.stdout.strip().split(",")[4] == "11945136"
    r = run_cli("construct", "--name", "8p8", "--heuristic", "trivial", "--out", str(asg))
    assert r.returncode == 0
    r = run_cli("verify", "--name", "8p8", "--assignment", str(asg))
    assert r.returncode == 0 and r.stdout == "OK weight=11945136\n"
    m = tmp_path / "m.txt"
    m.write_text("12345678 99999999\n99999999 0.5\n")
    r = run_cli("ap2", "--matrix", str(m))
    assert r.returncode == 0 and r.stdout.splitlines()[0] == "cost 12345678.5000"


def test_cli_verify_rejects_invalid(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 3 4 5 6\n1 2 3 4 5 6\n")
    r = run_cli("verify", "--name", "3c6", "--assignment", str(bad))
    assert r.returncode == 2


@pytest.mark.parametrize("entry", ["nan", "-40"])
def test_cli_verify_rejects_bad_weights(tmp_path, entry):
    inst = tmp_path / "i.map"
    inst.write_text(f"MAP 3 2 clique 0\nDATA\n1 2\n3 {entry}\n" + "1 2\n3 4\n" * 2)
    asg = tmp_path / "a.txt"
    asg.write_text("1 2\n1 2\n")
    r = run_cli("verify", "--instance", str(inst), "--assignment", str(asg))
    assert r.returncode == 2
    assert "error" in r.stderr and "OK" not in r.stdout


@pytest.mark.parametrize("family, data", [
    ("product", "1e200 1e200\n" * 3),
    ("clique", "1e308 1e308\n1e308 1e308\n" * 3),
    ("squareroot", "1e200 1e200\n1e200 1e200\n" * 3),
])
def test_cli_verify_rejects_overflowing_weights(tmp_path, family, data):
    inst = tmp_path / "i.map"
    inst.write_text(f"MAP 3 2 {family} 0\nDATA\n{data}")
    asg = tmp_path / "a.txt"
    asg.write_text("1 2\n1 2\n")
    r = run_cli("verify", "--instance", str(inst), "--assignment", str(asg))
    assert r.returncode == 2
    assert "overflows" in r.stderr and "Traceback" not in r.stderr


def test_cli_solve_row(tmp_path):
    r = run_cli("solve", "--name", "3r10", "--index", "1", "--construct", "greedy",
                "--ls", "sdv", "--header",
                env_extra={"MAPLS_REGISTRY": str(tmp_path / "r.txt")})
    assert r.returncode == 0
    header, row = r.stdout.strip().splitlines()
    assert header == "name,index,seed,construct,ls,meta,best_known,achieved,error_pct,time_ms"
    fields = row.split(",")
    assert fields[0] == "3r10" and fields[3] == "greedy" and fields[4] == "sdv"
    assert fields[6] == "10"


def test_cli_solve_with_meta(tmp_path):
    r = run_cli("solve", "--name", "3r10", "--index", "1", "--ls", "1dv",
                "--meta", "chain", "--iters", "5", "--meta-seed", "3",
                env_extra={"MAPLS_REGISTRY": str(tmp_path / "r.txt")})
    assert r.returncode == 0
    assert "chain;iters=5;seed=3" in r.stdout


def test_rows_label_the_vopt_variant_and_the_multichain_width(tmp_path):
    # natural v-opt rows and multichain rows say what ran; improved v-opt
    # rows and chain rows keep their labels
    reg = str(tmp_path / "r.txt")
    cases = [
        ("sdv+vopt", "natural", MetaConfig("chain", iteration_cap=2, rng_seed=5)),
        ("sdv+vopt", "improved", MetaConfig("chain", iteration_cap=2, rng_seed=5)),
        ("vopt", "natural", None),
        ("1dv", "natural", MetaConfig("multichain", c=2, iteration_cap=4, rng_seed=1)),
        ("1dv", "improved", MetaConfig("multichain", c=4, iteration_cap=4, rng_seed=1)),
        ("1dv", "improved", MetaConfig("multichain", c=4, time_budget=0.05, rng_seed=1)),
    ]
    got = [(row.ls, row.meta) for ls, variant, meta in cases
           for row in run_experiment(ExperimentSpec(["4c6"], [1], "greedy", ls, variant, meta, reg)).rows]
    assert got == [
        ("sdv+vopt;natural", "chain;iters=2;seed=5"),
        ("sdv+vopt", "chain;iters=2;seed=5"),
        ("vopt;natural", ""),
        ("1dv", "multichain;c=2;iters=4;seed=1"),
        ("1dv", "multichain;c=4;iters=4;seed=1"),
        ("1dv", "multichain;c=4;time=0.05s;seed=1"),
    ]


def test_cli_solve_row_equals_bench_row(tmp_path):
    # one path from the CLI to a result row: solve prints bench's data row
    env = {"MAPLS_REGISTRY": str(tmp_path / "r.txt")}
    common = ("--construct", "greedy", "--ls", "sdv+vopt", "--ls-variant", "natural",
              "--meta", "chain", "--iters", "3", "--meta-seed", "5")
    solve = run_cli("solve", "--name", "4c6", "--index", "2", *common, env_extra=env)
    bench = run_cli("bench", "--names", "4c6", "--indices", "2", *common, env_extra=env)
    assert solve.returncode == 0 and bench.returncode == 0
    solve_row = solve.stdout.strip()
    bench_row = bench.stdout.splitlines()[1]
    assert solve_row.rsplit(",", 1)[0] == bench_row.rsplit(",", 1)[0]


@pytest.mark.parametrize("budget", ["--time=0s", "--time=-1s", "--time=nan", "--iters=0"])
def test_cli_solve_rejects_empty_budget(tmp_path, budget):
    r = run_cli("solve", "--name", "3r6", "--ls", "1dv", "--meta", "chain", budget,
                env_extra={"MAPLS_REGISTRY": str(tmp_path / "r.txt")})
    assert r.returncode == 2  # data error, reported on one line
    assert "mapls solve: error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_nbhd_and_bound():
    r = run_cli("nbhd", "--variant", "sdv", "--s", "4", "--n", "3")
    assert r.returncode == 0 and r.stdout.strip() == "36"
    r = run_cli("nbhd", "--variant", "sdv+3opt", "--s", "3", "--n", "3")
    assert r.returncode == 0
    r = run_cli("bound", "--s", "4", "--n", "15", "--c", "100")
    assert r.returncode == 0 and "pr_lower=0.575" in r.stdout
    r = run_cli("bound", "--s", "5", "--n", "10", "--c", "100")
    assert "pr_lower=0.991" in r.stdout


def test_cli_ap2(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("1 2\n3 0\n")
    r = run_cli("ap2", "--matrix", str(m))
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["cost 1", "perm 1 2"]


def test_cli_exit_codes(tmp_path):
    r = run_cli("solve", "--name", "3r6", "--ls", "definitely-not-a-thing")
    assert r.returncode == 1  # usage
    r = run_cli("frobnicate")
    assert r.returncode == 1
    r = run_cli("generate", "--name", "2r10")
    assert r.returncode == 2  # data error
    r = run_cli("ap2", "--matrix", str(tmp_path / "missing.txt"))
    assert r.returncode == 2
    huge = tmp_path / "huge.txt"
    huge.write_text("1e308 1e308\n1e308 1e308\n")
    r = run_cli("ap2", "--matrix", str(huge))
    assert r.returncode == 2 and r.stderr == "mapls ap2: error: optimal cost overflows float64\n"
    bad, a = tmp_path / "bad.map", tmp_path / "a.txt"
    bad.write_text("MAP 3 -5 random 7\n")
    a.write_text("1 2 3\n1 2 3\n")
    r = run_cli("verify", "--instance", str(bad), "--assignment", str(a))
    assert r.returncode == 2 and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("nbhd", "--variant", "3opt", "--s", "0", "--n", "5"),
    ("nbhd", "--variant", "sdv+2opt", "--s", "2", "--n", "4"),
    ("nbhd", "--variant", "1dv", "--s", "3", "--n", "0"),
    ("bound", "--s", "2", "--n", "5", "--c", "100"),
    ("bench", "--names", "3r6", "--indices", "5..1"),
])
def test_cli_rejects_out_of_range_input(args, tmp_path):
    r = run_cli(*args, env_extra={"MAPLS_REGISTRY": str(tmp_path / "r.txt")})
    assert r.returncode == 2, r.stdout
    assert r.stdout == ""


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "o.csv"
    r = run_cli("bench", "--names", "3r8", "--indices", "1,2", "--construct", "greedy",
                "--ls", "1dv", "--out", str(out),
                env_extra={"MAPLS_REGISTRY": str(tmp_path / "r.txt")})
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("name,")
    assert len(lines) == 1 + 2 + 2  # header, 2 rows, avg:random, avg:s=3


def test_cli_bench_markdown(tmp_path):
    r = run_cli("bench", "--names", "3r8", "--indices", "1", "--format", "markdown",
                env_extra={"MAPLS_REGISTRY": str(tmp_path / "r.txt")})
    assert r.returncode == 0
    assert r.stdout.startswith("| name |")
