"""chain, multichain and combined against frozen copies of their earlier
two-loop forms.

`_ref_chain`, `_ref_multichain` and `_ref_combined` (with `_RefBudget`) are
the implementations that ran chain and multichain as separate loops
(multichain with a seeding loop of its own) and wrote combined's two phases
out one after the other. A spy search records every search input, so the tests compare whole
trajectories, not only the end results.
"""

import math
import time

import numpy as np
import pytest

from mapls import chain, generate, greedy, multichain, parse_instance_name, trivial
from mapls.core import assignment_weight
from mapls.localsearch import (
    EPS,
    VECTORWISE,
    _report,
    combined,
    dv_search,
    k_opt,
    make_local_search,
    v_opt,
)
from mapls.meta import MetaConfig, MetaResult, perturb
from mapls.rng import SplitMix64

# -- frozen reference implementations -----------------------------------------


class _RefBudget:
    def __init__(self, cfg: MetaConfig, inst):
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.calls = 0
        # iteration-capped runs always make exactly their N calls
        timed = cfg.time_budget is not None
        self.bound = inst.lower_bound() if timed else -math.inf

    def exhausted(self) -> bool:
        if self.cfg.iteration_cap is not None:
            return self.calls >= self.cfg.iteration_cap
        return time.perf_counter() - self.t0 >= self.cfg.time_budget

    def at_bound(self, best_w: float) -> bool:
        return best_w - EPS <= self.bound

    def run(self, ls, inst, a):
        self.calls += 1
        return ls(inst, a)


def _ref_chain(inst, a0, ls, cfg: MetaConfig) -> MetaResult:
    if cfg.kind != "chain":
        raise ValueError("config kind must be 'chain'")
    rng = SplitMix64(cfg.rng_seed)
    budget = _RefBudget(cfg, inst)
    best = a0.copy()
    best_w = assignment_weight(inst, a0)
    a = a0
    iterations = 0
    at_bound = False
    while not budget.exhausted():
        r = budget.run(ls, inst, a)
        iterations += 1
        a = r.result
        if r.final_weight < best_w - EPS:
            best, best_w = a.copy(), r.final_weight
        at_bound = budget.at_bound(best_w)
        if at_bound:
            break
        a = perturb(a, rng)
    return MetaResult(best, best_w, budget.calls, iterations, time.perf_counter() - budget.t0,
                      stopped_at_bound=at_bound)


def _ref_keep_lightest(population, best, best_w):
    """The best after a generation the budget cut short: its lightest
    completed search (the first searched on a tie), when strictly lighter
    than best_w."""
    if population:
        w, _, a = min(population, key=lambda entry: (entry[0], entry[1]))
        if w < best_w - EPS:
            return a.copy(), w
    return best, best_w


def _ref_multichain(inst, a0, ls, cfg: MetaConfig) -> MetaResult:
    if cfg.kind != "multichain":
        raise ValueError("config kind must be 'multichain'")
    rng = SplitMix64(cfg.rng_seed)
    budget = _RefBudget(cfg, inst)
    c = cfg.c
    best = a0.copy()
    best_w = assignment_weight(inst, a0)

    population = []
    seq = 0
    for _ in range(c * (c + 1) // 2):
        if budget.exhausted():
            best, best_w = _ref_keep_lightest(population, best, best_w)
            return MetaResult(best, best_w, budget.calls, 0, time.perf_counter() - budget.t0)
        r = budget.run(ls, inst, perturb(best, rng))
        population.append((r.final_weight, seq, r.result))
        seq += 1

    generations = 0
    while True:
        population.sort(key=lambda entry: (entry[0], entry[1]))
        carriers = population[:c]
        generations += 1
        if carriers[0][0] < best_w - EPS:
            best, best_w = carriers[0][2].copy(), carriers[0][0]
        at_bound = budget.at_bound(best_w)
        if at_bound or budget.exhausted():
            break
        population, aborted = [], False
        for i, (_, _, carrier) in enumerate(carriers):
            for _ in range(c - i):
                if budget.exhausted():
                    aborted = True
                    break
                r = budget.run(ls, inst, perturb(carrier, rng))
                population.append((r.final_weight, seq, r.result))
                seq += 1
            if aborted:
                break
        if aborted:
            best, best_w = _ref_keep_lightest(population, best, best_w)
            break
    return MetaResult(best, best_w, budget.calls, generations, time.perf_counter() - budget.t0,
                      stopped_at_bound=at_bound)


def _ref_combined(inst, a, variant, vectorwise, v_variant="improved"):
    if vectorwise not in VECTORWISE:
        raise ValueError(f"unknown vectorwise heuristic {vectorwise!r}")
    if variant == "sdv" and vectorwise == "2opt":
        raise ValueError("the combination sdv+2opt is rejected (no added neighborhood)")
    t0 = time.perf_counter()
    r = dv_search(inst, a, variant)
    a, w = r.result, r.final_weight
    w0 = r.initial_weight
    passes, ap2_calls, evals = r.passes, r.ap2_calls, r.candidate_evals
    optimum = None  # the last k-opt phase's result
    while True:
        x = w
        if vectorwise == "vopt":
            rv = v_opt(inst, a, v_variant)
        else:
            rv = k_opt(inst, a, 2 if vectorwise == "2opt" else 3, local_optimum=optimum)
            optimum = rv.result
        a, w = rv.result, rv.final_weight
        passes += rv.passes
        evals += rv.candidate_evals
        if w >= x - EPS:
            break
        x = w
        rd = dv_search(inst, a, variant)
        a, w = rd.result, rd.final_weight
        passes += rd.passes
        ap2_calls += rd.ap2_calls
        evals += rd.candidate_evals
        if w >= x - EPS:
            break
    return _report(a, w0, w, passes, ap2_calls, evals, t0)


# -- trajectories ----------------------------------------------------------------


def _traced_run(driver, inst, a0, ls_name, cfg):
    """The driver's result and every assignment it handed a fresh search."""
    search = make_local_search(ls_name, inst.s)
    inputs = []

    def spy(inst, a):
        inputs.append(a.perms.copy())
        return search(inst, a)

    return driver(inst, a0, spy, cfg), inputs


def _assert_same_run(ref, new):
    (r, r_inputs), (n, n_inputs) = ref, new
    assert len(n_inputs) == len(r_inputs)
    assert all(np.array_equal(x, y) for x, y in zip(n_inputs, r_inputs))
    assert n.best == r.best
    assert (n.best_weight, n.ls_calls, n.iterations, n.stopped_at_bound) == (
        r.best_weight, r.ls_calls, r.iterations, r.stopped_at_bound)


def _caps(c):
    g = c * (c + 1) // 2
    return sorted({1, g - 1, g, g + 1, 2 * g, 3 * g - 2} - {0})


WIDTHS = (1, 2, 3, 5)
CHAIN_CAPS = sorted(set().union(*map(_caps, WIDTHS)))

CAPPED_CASES = [
    ("3r6", 1, "1dv"), ("3gp6", 2, "2dv"), ("4c5", 1, "sdv"), ("3g6", 2, "2opt"),
    ("3p6", 1, "3opt"), ("3sr6", 1, "vopt"), ("4r5", 2, "1dv+3opt"), ("3c6", 2, "sdv+vopt"),
    ("4gp5", 1, "sdv+3opt"), ("4p5", 1, "2dv+2opt"),
]


@pytest.mark.parametrize("name, index, ls_name", CAPPED_CASES)
def test_capped_runs_match_reference(name, index, ls_name):
    inst = generate(parse_instance_name(name, index))
    a0 = trivial(inst) if index == 1 else greedy(inst)
    for seed in (3, 8):
        for cap in CHAIN_CAPS:
            cfg = MetaConfig("chain", iteration_cap=cap, rng_seed=seed)
            _assert_same_run(_traced_run(_ref_chain, inst, a0, ls_name, cfg),
                             _traced_run(chain, inst, a0, ls_name, cfg))
        for c in WIDTHS:
            for cap in _caps(c):
                cfg = MetaConfig("multichain", c=c, iteration_cap=cap, rng_seed=seed)
                _assert_same_run(_traced_run(_ref_multichain, inst, a0, ls_name, cfg),
                                 _traced_run(multichain, inst, a0, ls_name, cfg))


# planted instances whose runs from trivial reach the optimum a*n in a few generations
TIMED_CASES = [
    ("3gp5", 2, "1dv", "chain", 1), ("3gp6", 2, "1dv", "chain", 1),
    ("3gp6", 1, "3opt", "chain", 1), ("3gp6", 3, "sdv+3opt", "chain", 1),
    ("3gp8", 1, "sdv", "chain", 1), ("3gp6", 3, "2dv", "chain", 1),
    ("3gp5", 2, "sdv", "multichain", 3), ("3gp6", 2, "1dv", "multichain", 2),
    ("3gp6", 1, "3opt", "multichain", 2), ("3gp8", 1, "1dv", "multichain", 3),
    ("3gp5", 1, "sdv+3opt", "multichain", 3), ("3gp6", 1, "1dv", "multichain", 5),
]


@pytest.mark.parametrize("name, index, ls_name, kind, c", TIMED_CASES)
def test_timed_runs_stop_at_the_bound_like_reference(name, index, ls_name, kind, c):
    inst = generate(parse_instance_name(name, index))
    a0 = trivial(inst)
    cfg = MetaConfig(kind, c=c, time_budget=20.0, rng_seed=index)
    ref, new = (_ref_chain, chain) if kind == "chain" else (_ref_multichain, multichain)
    expected = _traced_run(ref, inst, a0, ls_name, cfg)
    assert expected[0].stopped_at_bound and expected[0].ls_calls > 1
    _assert_same_run(expected, _traced_run(new, inst, a0, ls_name, cfg))


COMBINED_SEARCHES = [
    (dv, vw, variant)
    for dv in ("1dv", "2dv", "sdv")
    for vw in VECTORWISE
    if (dv, vw) != ("sdv", "2opt")
    for variant in (("natural", "improved") if vw == "vopt" else ("improved",))
]


# 3gp12 #1 from trivial runs a second k-opt phase, which takes a local optimum
@pytest.mark.parametrize("name, index", [
    ("3r6", 1), ("3gp6", 2), ("4c5", 1), ("3g6", 1), ("4sr5", 2), ("3p7", 1), ("3gp12", 1),
])
def test_combined_matches_reference(name, index):
    inst = generate(parse_instance_name(name, index))
    starts = [trivial(inst), greedy(inst), perturb(greedy(inst), SplitMix64(index))]
    for dv, vw, variant in COMBINED_SEARCHES:
        for a in starts:
            want = _ref_combined(inst, a, dv, vw, variant)
            got = combined(inst, a, dv, vw, variant)
            assert got.result == want.result
            assert (got.initial_weight, got.final_weight, got.passes, got.ap2_calls,
                    got.candidate_evals) == (want.initial_weight, want.final_weight, want.passes,
                                             want.ap2_calls, want.candidate_evals)
