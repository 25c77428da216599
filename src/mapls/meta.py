"""Chain and Multichain: budgeted perturb-then-resolve wrappers around any
local search.

Both run one generation loop, their only call of the search and of
`perturb`: the best c results of a generation carry over, carrier i
spawning c - i perturbed inputs of the next. Chain is the case c = 1 whose
first generation is the start itself. Budgets are sampled between
local-search calls, never inside them, so a run can overshoot by at most
one call; with an iteration cap the whole procedure is deterministic for a
fixed rng seed. A time-budgeted run also ends once its best weight reaches
the proven bound `inst.lower_bound()`, and sets
`MetaResult.stopped_at_bound`: a replacement must be strictly lighter, so
the rest of the budget could not change it.
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
    iterations: int  # completed generations; each of chain's is one search
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
        self.bound = inst.lower_bound() if cfg.time_budget is not None else -math.inf

    def exhausted(self) -> bool:
        if self.cfg.iteration_cap is not None:
            return self.calls >= self.cfg.iteration_cap
        return time.perf_counter() - self.t0 >= self.cfg.time_budget

    def run(self, ls, inst, a):
        self.calls += 1
        return ls(inst, a)

    def result(self, best, best_w, generations, stopped_at_bound=False) -> MetaResult:
        return MetaResult(best, best_w, self.calls, generations, time.perf_counter() - self.t0,
                          stopped_at_bound)


def chain(inst: Instance, a0: Assignment, ls, cfg: MetaConfig) -> MetaResult:
    """Alternate local search and perturbation, tracking the best result:
    the generation loop with c = 1, whose first generation is the start
    itself, so `iterations` counts the searches."""
    if cfg.kind != "chain":
        raise ValueError("config kind must be 'chain'")
    return _generations(inst, a0, ls, cfg, 1, perturb_start=False)


def multichain(inst: Instance, a0: Assignment, ls, cfg: MetaConfig) -> MetaResult:
    """Population variant: c(c+1)/2 searches per generation, the best c
    results carried over, carrier i spawning c-i perturbed children. The
    first generation is c(c+1)/2 perturbations of the start.

    A generation cut short by the budget does not count in `iterations`,
    but its completed searches do count: the lightest of them replaces the
    best when strictly lighter, as a whole generation's would. If even the
    first generation cannot finish, iterations = 0.
    """
    if cfg.kind != "multichain":
        raise ValueError("config kind must be 'multichain'")
    return _generations(inst, a0, ls, cfg, cfg.c, perturb_start=True)


def _generations(inst, a0, ls, cfg, c, perturb_start):
    """The loop under chain and multichain. The first generation's carriers
    are c copies of the start; carrier i of a generation spawns c - i
    inputs, perturbed unless this is the first generation and
    `perturb_start` is false. The inputs are searched in order, the budget
    checked before each call, and the results sorted stably by weight
    (ties keep search order): the first c carry over. A generation cut
    short by the budget ends the run: its completed searches compete for
    the best as a whole generation's do, but it counts in no `iterations`
    and carries nothing over."""
    if a0.perms.shape != (inst.s, inst.n):
        raise ValueError(f"the start has shape {a0.perms.shape}, the instance needs {(inst.s, inst.n)}")
    a0.validate()
    rng = SplitMix64(cfg.rng_seed)
    budget = _Budget(cfg, inst)
    best, best_w = a0.copy(), assignment_weight(inst, a0)
    carriers, perturbing = [a0] * c, perturb_start
    generations = 0
    while True:
        # drawn one at a time: a generation holds c(c+1)/2 of them
        parents = (a for i, a in enumerate(carriers) for _ in range(c - i))
        results = []
        for parent in parents:
            if budget.exhausted():
                break
            r = budget.run(ls, inst, perturb(parent, rng) if perturbing else parent)
            results.append((r.final_weight, r.result))
        results.sort(key=lambda wr: wr[0])
        if results and results[0][0] < best_w - EPS:
            best, best_w = results[0][1].copy(), results[0][0]
        if len(results) < c * (c + 1) // 2:
            return budget.result(best, best_w, generations)
        generations += 1
        if best_w - EPS <= budget.bound:
            return budget.result(best, best_w, generations, stopped_at_bound=True)
        carriers, perturbing = [a for _, a in results[:c]], True
