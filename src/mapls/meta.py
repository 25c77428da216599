"""Chain and Multichain: budgeted perturb-then-resolve wrappers around any
local search.

Both keep a best-seen incumbent, perturb it (or a population of carriers)
and re-run the local search until a wall-clock or iteration budget runs
out. Budgets are sampled between local-search calls, never inside them, so
a run can overshoot by at most one call; with an iteration cap the whole
procedure is deterministic for a fixed rng seed. A time-budgeted run also
ends once its best weight reaches the proven bound `inst.lower_bound()`,
and sets `MetaResult.stopped_at_bound`: a replacement must be strictly
lighter, so the rest of the budget could not change it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .core import Assignment, Instance, assignment_weight
from .localsearch import EPS
from .rng import SplitMix64


@dataclass
class MetaConfig:
    kind: str  # "chain" or "multichain"
    c: int = 5  # multichain width
    time_budget: float | None = None  # seconds
    iteration_cap: int | None = None  # total local-search calls
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("chain", "multichain"):
            raise ValueError(f"unknown metaheuristic kind {self.kind!r}")
        if self.c < 1:
            raise ValueError("multichain width c must be >= 1")
        if (self.time_budget is None) == (self.iteration_cap is None):
            raise ValueError("exactly one of time_budget / iteration_cap must be set")
        if self.time_budget is not None and not (
            math.isfinite(self.time_budget) and self.time_budget > 0
        ):
            raise ValueError(f"time budget must be finite and > 0, got {self.time_budget}")
        if self.iteration_cap is not None and self.iteration_cap < 1:
            raise ValueError(f"iteration cap must be >= 1, got {self.iteration_cap}")


@dataclass
class MetaResult:
    best: Assignment
    best_weight: float
    ls_calls: int
    iterations: int  # chain iterations / completed multichain generations
    elapsed: float
    # a time-budgeted run returned early, its best weight at the bound n*floor
    stopped_at_bound: bool = False


def perturb(a: Assignment, rng: SplitMix64) -> Assignment:
    """Random move of the p-opt heuristic with p = ceil(n/25) + 1 (capped at
    n): pick p vectors and independently re-permute their coordinates in
    every dimension but the first."""
    n, s = a.n, a.s
    if n < 2:
        raise ValueError("perturb needs n >= 2")
    p = min(n, math.ceil(n / 25) + 1)
    rows = rng.sample_distinct(n, p)
    out = a.copy()
    for j in range(1, s):
        out.perms[j, rows] = out.perms[j, rows][rng.permutation(p)]
    return out


class _Budget:
    def __init__(self, cfg: MetaConfig, inst: Instance):
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


def chain(inst: Instance, a0: Assignment, ls, cfg: MetaConfig) -> MetaResult:
    """Alternate local search and perturbation, tracking the best result."""
    if cfg.kind != "chain":
        raise ValueError("config kind must be 'chain'")
    rng = SplitMix64(cfg.rng_seed)
    budget = _Budget(cfg, inst)
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


def multichain(inst: Instance, a0: Assignment, ls, cfg: MetaConfig) -> MetaResult:
    """Population variant: c(c+1)/2 searches per generation, the best c
    results carried over, carrier i spawning c-i+1 perturbed children.

    A generation cut short by the budget is discarded; if even the first
    (seeding) generation cannot finish, the start assignment is returned
    with iterations = 0.
    """
    if cfg.kind != "multichain":
        raise ValueError("config kind must be 'multichain'")
    rng = SplitMix64(cfg.rng_seed)
    budget = _Budget(cfg, inst)
    c = cfg.c
    best = a0.copy()
    best_w = assignment_weight(inst, a0)

    population: list[tuple[float, int, Assignment]] = []
    seq = 0
    for _ in range(c * (c + 1) // 2):
        if budget.exhausted():
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
            break
    return MetaResult(best, best_w, budget.calls, generations, time.perf_counter() - budget.t0,
                      stopped_at_bound=at_bound)
