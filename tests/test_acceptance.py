"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria regenerate the benchmark instances by name (seeds are
pinned by the naming scheme), so results are reproducible run to run.
"""

import time
from itertools import product as iter_product

import numpy as np
import pytest

from mapls import (
    Assignment,
    MetaConfig,
    assignment_weight,
    chain,
    combined,
    dv_search,
    generate,
    greedy,
    k_opt,
    max_regret,
    multichain,
    nbhd_size_combined,
    nbhd_size_dv,
    nbhd_size_kopt,
    optimum_probability_bound,
    parse_instance_name,
    rom,
    solve_ap2,
    trivial,
)
from mapls.bench import PAPER_ROSTER
from mapls.generate import TAG_BY_FAMILY
from mapls.localsearch import make_local_search

from conftest import brute_force_ap2, enumerate_neighborhood, random_explicit


class _Stopwatch:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.1f}s / limit {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label}: runtime {elapsed:.1f}s over limit"


def test_criterion_1_probability_bound_table():
    table = {
        (4, 15): 0.575, (4, 20): 0.823, (4, 25): 0.943,
        (4, 30): 0.986, (4, 35): 0.997, (4, 40): 1.000,
        (5, 10): 0.991, (5, 11): 0.998, (5, 12): 1.000,
        (6, 8): 1.000, (7, 7): 1.000,
    }
    with _Stopwatch(1.0, "criterion 1: probability-bound table, +-0.001"):
        for (s, n), want in table.items():
            got = round(optimum_probability_bound(s, n, 100).pr_lower, 3)
            assert abs(got - want) <= 0.001, (s, n, got, want)


def test_criterion_2_cardinalities_vs_enumeration():
    rng = np.random.default_rng(11)
    grid = [(s, n) for s in (3, 4) for n in (2, 3, 4)] + [(3, 5)]
    with _Stopwatch(30.0, "criterion 2: closed forms == enumerated sizes"):
        for s, n in grid:
            inst = random_explicit(s, n, rng)
            a = Assignment.identity(s, n)
            for variant in ("1dv", "2dv", "sdv"):
                got = len(enumerate_neighborhood(inst, a, variant))
                assert got == nbhd_size_dv(variant, s, n), (variant, s, n)
            for k, kind in ((2, "2opt"), (3, "3opt")):
                got = len(enumerate_neighborhood(inst, a, kind))
                assert got == nbhd_size_kopt(k, s, n), (kind, s, n)
            for variant, (k, kind) in iter_product(
                ("1dv", "2dv", "sdv"), ((2, "2opt"), (3, "3opt"))
            ):
                got = len(enumerate_neighborhood(inst, a, f"{variant}+{kind}"))
                assert got == nbhd_size_combined(variant, k, s, n), (variant, kind, s, n)
            # the sdv+2opt union collapses onto sdv exactly
            assert enumerate_neighborhood(inst, a, "sdv+2opt") == enumerate_neighborhood(inst, a, "sdv")


def test_criterion_3_ap2_brute_force():
    rng = np.random.default_rng(23)
    with _Stopwatch(5.0, "criterion 3: 200 matrices vs brute force"):
        count = 0
        while count < 200:
            n = int(rng.integers(1, 8))
            m = rng.integers(0, 100, size=(n, n)).astype(float)
            _, cost = solve_ap2(m)
            assert cost == brute_force_ap2(m), (n, m)
            count += 1


def test_criterion_4_local_optimality_certificates():
    rng = np.random.default_rng(31)
    cases = [(3, 3)] * 50 + [(4, 3)] * 20
    with _Stopwatch(60.0, "criterion 4: certificates on 70 explicit instances"):
        for s, n in cases:
            inst = random_explicit(s, n, rng)
            a0 = Assignment.identity(s, n)
            for kind, res in (
                ("sdv", dv_search(inst, a0, "sdv").result),
                ("2opt", k_opt(inst, a0, 2).result),
                ("3opt", k_opt(inst, a0, 3).result),
            ):
                w = assignment_weight(inst, res)
                for nb in enumerate_neighborhood(inst, res, kind):
                    assert assignment_weight(inst, nb) >= w - 1e-9, (kind, s, n)


def _quartered_roster():
    by_config = {}
    for name in PAPER_ROSTER:
        spec = parse_instance_name(name)
        by_config[(spec.s, spec.family)] = max(2, round(spec.n / 4))
    return by_config


def test_criterion_5_monotonicity_and_feasibility():
    runs = 0
    violations = 0
    searches = [
        "1dv", "2dv", "sdv", "2opt", "3opt", "vopt",
        "1dv+2opt", "2dv+2opt", "sdv+3opt", "1dv+vopt", "sdv+vopt",
    ]
    with _Stopwatch(600.0, "criterion 5: >=500 monotone+feasible runs"):
        for (s, family), n in _quartered_roster().items():
            name = f"{s}{TAG_BY_FAMILY[family]}{n}"
            inst = generate(parse_instance_name(name, 1))
            for constructor in (trivial, greedy, max_regret, rom):
                a = constructor(inst)
                runs += 1
                if not a.is_valid():
                    violations += 1
            a0 = trivial(inst)
            for ls_name in searches:
                if "3opt" in ls_name and n < 3:
                    continue
                r = make_local_search(ls_name, s)(inst, a0)
                runs += 1
                if r.final_weight > r.initial_weight + 1e-9 or not r.result.is_valid():
                    violations += 1
                if ls_name == "vopt":
                    r = make_local_search("vopt", s, "natural")(inst, a0)
                    runs += 1
                    if r.final_weight > r.initial_weight + 1e-9 or not r.result.is_valid():
                        violations += 1
            w0 = assignment_weight(inst, a0)
            ls = make_local_search("1dv", s)
            for meta_fn, cfg in (
                (chain, MetaConfig("chain", iteration_cap=2, rng_seed=s)),
                (multichain, MetaConfig("multichain", iteration_cap=6, rng_seed=s)),
            ):
                res = meta_fn(inst, a0, ls, cfg)
                runs += 1
                if res.best_weight > w0 + 1e-9 or not res.best.is_valid():
                    violations += 1
        print(f"  criterion 5 detail: {runs} runs, {violations} violations")
        assert runs >= 500, f"only {runs} runs"
        assert violations == 0


def _mean_error(weights, optimum):
    return float(np.mean([(w / optimum - 1.0) * 100.0 for w in weights]))


def test_criterion_6_table2_ordering_on_3r150():
    errs = {"sdv": [], "2opt": [], "sdv3": [], "sdvv": []}
    with _Stopwatch(600.0, "criterion 6: 3r150 ordering from trivial"):
        for idx in range(1, 11):
            inst = generate(parse_instance_name("3r150", idx))
            a0 = trivial(inst)
            errs["sdv"].append(dv_search(inst, a0, "sdv").final_weight)
            errs["2opt"].append(k_opt(inst, a0, 2).final_weight)
            errs["sdv3"].append(combined(inst, a0, "sdv", "3opt").final_weight)
            errs["sdvv"].append(combined(inst, a0, "sdv", "vopt").final_weight)
        means = {k: _mean_error(v, 150.0) for k, v in errs.items()}
        print(f"  criterion 6 detail: mean errors {means}")
        assert means["sdv3"] <= means["sdv"] <= means["2opt"]
        # "2-opt much worse than sdv" pinned as a 5x separation
        assert means["2opt"] >= 5.0 * means["sdv"]
        assert means["sdv"] <= 6.0
        assert means["sdvv"] <= 3.0


@pytest.mark.parametrize("name,n_opt", [("3r150", 150.0), ("5r40", 40.0)])
def test_criterion_7_chain_reaches_optimum(name, n_opt):
    spec = parse_instance_name(name)
    ls = make_local_search("sdv+vopt", spec.s)
    hits = 0
    with _Stopwatch(750.0, f"criterion 7: chain(sdv+vopt) 10s on {name}"):
        for idx in range(1, 11):
            inst = generate(parse_instance_name(name, idx))
            a0 = greedy(inst)
            cfg = MetaConfig("chain", time_budget=10.0, rng_seed=idx)
            res = chain(inst, a0, ls, cfg)
            hits += res.best_weight == n_opt
        print(f"  criterion 7 detail: {name} optimum reached on {hits}/10")
        assert hits >= 8


def test_criterion_8_construction_inversions():
    with _Stopwatch(600.0, "criterion 8: construction inversions"):
        w_trivial, w_greedy, w_regret = [], [], []
        for idx in range(1, 11):
            inst = generate(parse_instance_name("3p150", idx))
            w_trivial.append(assignment_weight(inst, trivial(inst)))
            w_greedy.append(assignment_weight(inst, greedy(inst)))
            w_regret.append(assignment_weight(inst, max_regret(inst)))
        # common denominators per instance: comparing weights == comparing errors
        assert np.mean(w_trivial) < np.mean(w_greedy)
        assert np.mean(w_trivial) < np.mean(w_regret)
        print(f"  criterion 8 detail: product means trivial={np.mean(w_trivial):.0f} "
              f"greedy={np.mean(w_greedy):.0f} maxregret={np.mean(w_regret):.0f}")

        e_trivial, e_greedy = [], []
        for idx in range(1, 11):
            inst = generate(parse_instance_name("3r150", idx))
            e_trivial.append((assignment_weight(inst, trivial(inst)) / 150.0 - 1) * 100)
            e_greedy.append((assignment_weight(inst, greedy(inst)) / 150.0 - 1) * 100)
        print(f"  criterion 8 detail: random mean errors trivial={np.mean(e_trivial):.0f}% "
              f"greedy={np.mean(e_greedy):.0f}%")
        assert np.mean(e_greedy) * 10.0 < np.mean(e_trivial)


def test_criterion_9_bench_determinism(tmp_path):
    import os
    import subprocess
    import sys

    def run(out):
        env = dict(os.environ, MAPLS_REGISTRY=str(tmp_path / "registry.txt"))
        cmd = [
            sys.executable, "-m", "mapls.cli", "bench", "--suite", "desk",
            "--iters", "50", "--meta-seed", "7", "--out", str(out),
        ]
        res = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return out.read_text()

    def strip_time(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        drop = rows[0].index("time_ms")
        return [",".join(r[:drop] + r[drop + 1 :]) for r in rows]

    with _Stopwatch(600.0, "criterion 9: desk-suite byte determinism"):
        first = run(tmp_path / "a.csv")
        second = run(tmp_path / "b.csv")
        assert strip_time(first) == strip_time(second)
