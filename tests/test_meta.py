"""Chain and Multichain metaheuristics."""

import math
import tracemalloc

import pytest

from mapls import (
    Assignment,
    Instance,
    MetaConfig,
    Planted,
    assignment_weight,
    chain,
    generate,
    multichain,
    parse_instance_name,
    perturb,
    trivial,
)
from mapls.localsearch import make_local_search
from mapls.rng import SplitMix64


def ls_1dv(s):
    return make_local_search("1dv", s)


def test_perturb_sizes():
    rng = SplitMix64(5)
    for n, p in ((25, 2), (150, 7), (2, 2), (50, 3)):
        assert min(n, math.ceil(n / 25) + 1) == p
        a = Assignment.identity(3, n)
        b = perturb(a, rng)
        b.validate()
        changed = int(((a.perms != b.perms).any(axis=0)).sum())
        assert changed <= p


def test_perturb_n2_recombination():
    rng = SplitMix64(9)
    a = Assignment.identity(4, 2)
    seen = set()
    for _ in range(200):
        b = perturb(a, rng)
        b.validate()
        seen.add(b.key())
    # all 2^(s-1) = 8 recombinations of the two vectors are reachable
    assert len(seen) == 8


def test_perturb_requires_n2():
    with pytest.raises(ValueError):
        perturb(Assignment.identity(3, 1), SplitMix64(1))


def test_meta_config_validation():
    with pytest.raises(ValueError):
        MetaConfig("chain")  # no budget
    with pytest.raises(ValueError):
        MetaConfig("chain", time_budget=1.0, iteration_cap=5)
    with pytest.raises(ValueError):
        MetaConfig("simulated", iteration_cap=5)
    with pytest.raises(ValueError):
        MetaConfig("multichain", iteration_cap=5, c=0)


@pytest.mark.parametrize("budget", [0, 0.0, -1.0, math.nan, math.inf])
def test_meta_config_rejects_bad_time_budget(budget):
    with pytest.raises(ValueError, match="time budget"):
        MetaConfig("chain", time_budget=budget)


@pytest.mark.parametrize("cap", [0, -3])
def test_meta_config_rejects_bad_iteration_cap(cap):
    with pytest.raises(ValueError, match="iteration cap"):
        MetaConfig("multichain", iteration_cap=cap)


def test_meta_config_accepts_smallest_budgets():
    assert MetaConfig("chain", time_budget=1e-3).time_budget == 1e-3
    assert MetaConfig("chain", iteration_cap=1).iteration_cap == 1


def test_chain_cap_one_equals_plain_ls():
    inst = generate(parse_instance_name("3r15", 1))
    a0 = trivial(inst)
    ls = ls_1dv(3)
    res = chain(inst, a0, ls, MetaConfig("chain", iteration_cap=1, rng_seed=3))
    assert res.ls_calls == 1
    assert res.best_weight == ls(inst, a0).final_weight


def test_chain_deterministic_in_cap_mode():
    inst = generate(parse_instance_name("3r12", 2))
    a0 = trivial(inst)
    cfg = MetaConfig("chain", iteration_cap=12, rng_seed=77)
    r1 = chain(inst, a0, ls_1dv(3), cfg)
    r2 = chain(inst, a0, ls_1dv(3), cfg)
    assert r1.best == r2.best
    assert r1.best_weight == r2.best_weight


def test_chain_never_worse_than_first_ls():
    inst = generate(parse_instance_name("4r8", 1))
    a0 = trivial(inst)
    ls = ls_1dv(4)
    first = ls(inst, a0).final_weight
    res = chain(inst, a0, ls, MetaConfig("chain", iteration_cap=20, rng_seed=1))
    assert res.best_weight <= first
    assert assignment_weight(inst, res.best) == res.best_weight
    res.best.validate()


def test_multichain_seed_block_is_15_searches():
    inst = generate(parse_instance_name("3r10", 1))
    res = multichain(inst, trivial(inst), ls_1dv(3),
                     MetaConfig("multichain", iteration_cap=15, rng_seed=4))
    assert res.ls_calls == 15
    assert res.iterations == 1  # seeding finished, one generation committed


def _recording(search):
    """The search, and the list of the reports of every call it makes."""
    reports = []

    def run(inst, a):
        reports.append(search(inst, a))
        return reports[-1]

    return run, reports


def test_multichain_budget_too_small_flags():
    # 7 of the first generation's 15 searches run: the generation does not
    # count, but the lightest of its searches is the best
    inst = generate(parse_instance_name("3r10", 1))
    a0 = trivial(inst)
    search, reports = _recording(ls_1dv(3))
    res = multichain(inst, a0, search, MetaConfig("multichain", iteration_cap=7, rng_seed=4))
    assert res.iterations == 0  # no generation completed
    assert res.ls_calls == len(reports) == 7
    lightest = min(reports, key=lambda r: r.final_weight)
    assert lightest.final_weight < assignment_weight(inst, a0)
    assert res.best == lightest.result and res.best_weight == lightest.final_weight


def test_multichain_keeps_the_best_of_a_cut_generation():
    # 4c8 #1, c = 4: six of the first generation's ten searches run, and
    # the third reaches 1246, the MILP optimum; the start weighs 2889
    inst = generate(parse_instance_name("4c8", 1))
    a0 = trivial(inst)
    search, reports = _recording(ls_1dv(4))
    res = multichain(inst, a0, search, MetaConfig("multichain", c=4, iteration_cap=6, rng_seed=1))
    assert assignment_weight(inst, a0) == 2889
    assert [r.final_weight for r in reports] == [1285, 1285, 1246, 1347, 1329, 1326]
    assert (res.best_weight, res.iterations, res.ls_calls) == (1246, 0, 6)
    assert res.best == reports[2].result
    assert assignment_weight(inst, res.best) == 1246


def test_wide_multichain_does_not_hold_a_generation_of_parents():
    # c = 2000 makes a generation of 2,001,000 searches; with 3 of them
    # allowed, the run must not build a list of every parent first
    inst = generate(parse_instance_name("3c8", 1))
    a0 = trivial(inst)
    cfg = MetaConfig("multichain", c=2000, iteration_cap=3, rng_seed=0)
    tracemalloc.start()
    try:
        res = multichain(inst, a0, make_local_search("none", 3), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.ls_calls, res.iterations) == (3, 0)
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_multichain_deterministic_and_monotone():
    inst = generate(parse_instance_name("3r12", 3))
    a0 = trivial(inst)
    cfg = MetaConfig("multichain", iteration_cap=45, rng_seed=11)
    r1 = multichain(inst, a0, ls_1dv(3), cfg)
    r2 = multichain(inst, a0, ls_1dv(3), cfg)
    assert r1.best == r2.best and r1.best_weight == r2.best_weight
    assert r1.best_weight <= assignment_weight(inst, a0)
    r1.best.validate()


def test_multichain_c1_degenerates_to_chain_structure():
    inst = generate(parse_instance_name("3r10", 2))
    a0 = trivial(inst)
    res = multichain(inst, a0, ls_1dv(3),
                     MetaConfig("multichain", c=1, iteration_cap=6, rng_seed=2))
    assert res.ls_calls == 6
    assert res.iterations >= 1  # a generation completed
    chain_res = chain(inst, a0, ls_1dv(3), MetaConfig("chain", iteration_cap=6, rng_seed=2))
    # same carrier count: both run one LS per perturbation of the incumbent
    assert res.best_weight <= assignment_weight(inst, a0)
    assert chain_res.best_weight <= assignment_weight(inst, a0)


def test_chain_improves_over_single_ls_on_average():
    better = 0
    for idx in (1, 2, 3, 4):
        inst = generate(parse_instance_name("3r20", idx))
        a0 = trivial(inst)
        ls = ls_1dv(3)
        single = ls(inst, a0).final_weight
        res = chain(inst, a0, ls, MetaConfig("chain", iteration_cap=30, rng_seed=idx))
        better += res.best_weight < single
    assert better >= 2


def _planted_diagonal():
    # trivial is already optimal here: weight a*n = 6 = n * floor
    return Instance(Planted(1, 101, Assignment.identity(3, 6)), 1)


def test_timed_chain_stops_at_proven_bound():
    inst = _planted_diagonal()
    res = chain(inst, trivial(inst), ls_1dv(3), MetaConfig("chain", time_budget=20.0))
    assert res.ls_calls == 1 and res.iterations == 1
    assert res.best_weight == 6.0 and res.best == trivial(inst)
    assert res.stopped_at_bound
    assert res.elapsed < 2.0


def test_timed_multichain_stops_at_proven_bound_after_one_generation():
    inst = _planted_diagonal()
    res = multichain(inst, trivial(inst), ls_1dv(3), MetaConfig("multichain", time_budget=20.0))
    assert res.iterations == 1 and res.ls_calls == 15
    assert res.best_weight == 6.0
    assert res.stopped_at_bound
    assert res.elapsed < 2.0


@pytest.mark.parametrize("kind", ["chain", "multichain"])
def test_invalid_start_rejected(kind):
    inst = generate(parse_instance_name("3r5", 1))
    driver = chain if kind == "chain" else multichain
    cfg = MetaConfig(kind, c=2, iteration_cap=2)
    bad = trivial(inst)
    bad.perms[1] = 0  # not a permutation
    with pytest.raises(ValueError, match="not a valid assignment"):
        driver(inst, bad, ls_1dv(3), cfg)
    with pytest.raises(ValueError, match="shape"):
        driver(inst, Assignment.identity(4, 5), ls_1dv(3), cfg)


def test_capped_runs_make_every_call_at_the_bound():
    inst = _planted_diagonal()
    a0 = trivial(inst)
    res = chain(inst, a0, ls_1dv(3), MetaConfig("chain", iteration_cap=4))
    assert res.ls_calls == 4 and not res.stopped_at_bound
    res = multichain(inst, a0, ls_1dv(3), MetaConfig("multichain", iteration_cap=20))
    assert res.ls_calls == 20 and not res.stopped_at_bound
