"""Benchmark harness: named experiment runs over generated instances, with
per-row CSV output and family/size aggregate rows. Random and planted rows
divide by `Instance.lower_bound()`, a*n: exact by construction on planted
instances, a proven lower bound on random ones, and their optimum only with
high probability at the benchmark's sizes. The other families divide by a
persisted best-known registry, which refuses random and planted names and
treats a stored value below the instance's lower bound as corrupt.
"""

from __future__ import annotations

import fcntl
import math
import os
import time
from dataclasses import dataclass, field

from .construct import greedy, max_regret, rom, trivial
from .core import Family, Instance
from .generate import (
    FamilySpec,
    TAG_BY_FAMILY,
    generate,
    known_optimum,
    parse_instance_name,
)
from .localsearch import EPS, LS_NAMES, V_VARIANTS, make_local_search, search_min_n
from .meta import MetaConfig, chain, multichain

CSV_COLUMNS = (
    "name", "index", "seed", "construct", "ls", "meta",
    "best_known", "achieved", "error_pct", "time_ms",
)

CONSTRUCTORS = {
    "trivial": trivial,
    "greedy": greedy,
    "maxregret": max_regret,
    "rom": rom,
}

# output labels; max-regret is marked as the (dimension, value) variant to
# keep results from being confused with other formulations of the heuristic
CONSTRUCT_LABELS = {"maxregret": "maxregret-jv"}

# the benchmark roster: per (s, family) sizes used throughout the tables
PAPER_ROSTER = (
    "3gp100", "3r150", "4gp30", "4r80", "5gp12", "5r40",
    "6gp8", "6r22", "7gp5", "7r14", "8gp4", "8r9",
    "3c150", "3g150", "3p150", "3sr150",
    "4c50", "4g50", "4p50", "4sr50",
    "5c30", "5g30", "5p30", "5sr30",
    "6c18", "6g18", "6p18", "6sr18",
    "7c12", "7g12", "7p12", "7sr12",
    "8c8", "8g8", "8p8", "8sr8",
)

DEFAULT_REGISTRY = "mapls_best_known.txt"


def registry_path() -> str:
    return os.environ.get("MAPLS_REGISTRY", DEFAULT_REGISTRY)


def suite_names(suite: str) -> tuple[list[str], list[int]]:
    """Instance names and index range for a named suite."""
    if suite == "paper-full":
        return list(PAPER_ROSTER), list(range(1, 11))
    if suite == "desk":
        names = []
        for name in PAPER_ROSTER:
            spec = parse_instance_name(name)
            names.append(f"{spec.s}{TAG_BY_FAMILY[spec.family]}{max(2, spec.n // 2)}")
        return names, [1, 2, 3]
    raise ValueError(f"unknown suite {suite!r} (choose desk or paper-full)")


@dataclass
class ExperimentSpec:
    instance_names: list[str]
    indices: list[int] = field(default_factory=lambda: list(range(1, 11)))
    construct: str = "trivial"
    ls: str = "1dv"
    ls_variant: str = "improved"
    meta: MetaConfig | None = None
    registry: str | None = None

    def __post_init__(self):
        if self.construct not in CONSTRUCTORS:
            raise ValueError(f"unknown construction heuristic {self.construct!r}")
        if self.ls not in LS_NAMES:
            raise ValueError(f"unknown local search {self.ls!r}")
        if self.ls_variant not in V_VARIANTS:
            raise ValueError(f"unknown v-opt variant {self.ls_variant!r}")
        if not self.instance_names or not self.indices:
            raise ValueError("need at least one instance name and one index")
        if any(index < 1 for index in self.indices):
            raise ValueError(f"instance indices must be >= 1, got {self.indices}")
        # checked before any row runs: the search or the perturbation would
        # raise only after the rows before the offending name had run
        least = search_min_n(self.ls)
        for name in self.instance_names:
            n = parse_instance_name(name).n  # raises on malformed names
            if n < least:
                raise ValueError(f"{name}: local search {self.ls} needs n >= {least}")
            if self.meta is not None and n < 2:
                raise ValueError(f"{name}: {self.meta.kind} perturbs its start, which needs n >= 2")

    def meta_label(self) -> str:
        if self.meta is None:
            return ""
        cfg = self.meta
        budget = (
            f"iters={cfg.iteration_cap}" if cfg.iteration_cap is not None
            else f"time={cfg.time_budget:g}s"
        )
        width = f"c={cfg.c};" if cfg.kind == "multichain" else ""
        return f"{cfg.kind};{width}{budget};seed={cfg.rng_seed}"


@dataclass
class ExperimentRow:
    name: str
    index: int
    seed: int
    construct: str
    ls: str
    meta: str
    best_known: float
    achieved: float
    error_pct: float
    time_ms: float

    def csv_values(self) -> list[str]:
        return [
            self.name, str(self.index), str(self.seed),
            self.construct, self.ls, self.meta,
            _num(self.best_known), _num(self.achieved),
            f"{self.error_pct:.4f}", f"{self.time_ms:.1f}",
        ]


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    aggregates: list[ExperimentRow]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows + self.aggregates:
            lines.append(",".join(row.csv_values()))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "| " + " | ".join(CSV_COLUMNS) + " |",
            "|" + "---|" * len(CSV_COLUMNS),
        ]
        for row in self.rows + self.aggregates:
            lines.append("| " + " | ".join(row.csv_values()) + " |")
        return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    return str(int(x)) if x == int(x) else f"{x:.4f}"


def run_single(
    inst: Instance,
    construct: str,
    ls: str,
    ls_variant: str = "improved",
    meta: MetaConfig | None = None,
) -> tuple[float, float]:
    """(achieved weight, elapsed ms) for one construct+search(+meta) run."""
    t0 = time.perf_counter()
    a0 = CONSTRUCTORS[construct](inst)
    search = make_local_search(ls, inst.s, ls_variant)
    if meta is None:
        achieved = search(inst, a0).final_weight
    else:
        driver = chain if meta.kind == "chain" else multichain
        achieved = driver(inst, a0, search, meta).best_weight
    return achieved, (time.perf_counter() - t0) * 1000.0


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (name, index) pair; on a failure, raise with the partial
    rows attached to the exception (`partial_result`)."""
    registry = spec.registry if spec.registry is not None else registry_path()
    # a v-opt search running the natural variant says so in the ls column
    natural = spec.ls_variant == "natural" and spec.ls.endswith("vopt")
    ls_label = f"{spec.ls};natural" if natural else spec.ls
    rows: list[ExperimentRow] = []
    for name in spec.instance_names:
        for index in spec.indices:
            try:
                fam = parse_instance_name(name, index)
                inst = generate(fam)
                achieved, ms = run_single(inst, spec.construct, spec.ls, spec.ls_variant, spec.meta)
                best = resolve_best_known(registry, fam, inst, achieved)
                rows.append(ExperimentRow(
                    name=fam.name, index=index, seed=fam.seed,
                    construct=CONSTRUCT_LABELS.get(spec.construct, spec.construct),
                    ls=ls_label, meta=spec.meta_label(),
                    best_known=best, achieved=achieved,
                    error_pct=(achieved / best - 1.0) * 100.0,
                    time_ms=ms,
                ))
            except Exception as exc:
                exc.partial_result = ExperimentResult(rows, _aggregate(rows))
                raise
    return ExperimentResult(rows, _aggregate(rows))


def _aggregate(rows: list[ExperimentRow]) -> list[ExperimentRow]:
    if not rows:
        return []
    groups: dict[str, list[ExperimentRow]] = {}
    for row in rows:
        fam = parse_instance_name(row.name).family
        groups.setdefault(f"avg:{fam.value}", []).append(row)
    for row in rows:
        groups.setdefault(f"avg:s={parse_instance_name(row.name).s}", []).append(row)
    out = []
    for label, members in groups.items():
        k = len(members)
        out.append(ExperimentRow(
            name=label, index=0, seed=0,
            construct=members[0].construct, ls=members[0].ls, meta=members[0].meta,
            best_known=sum(m.best_known for m in members) / k,
            achieved=sum(m.achieved for m in members) / k,
            error_pct=sum(m.error_pct for m in members) / k,
            time_ms=sum(m.time_ms for m in members) / k,
        ))
    return out


# -- best-known registry ------------------------------------------------------


def read_registry(path: str) -> dict[tuple[str, int], float]:
    table: dict[tuple[str, int], float] = {}
    if not os.path.exists(path):
        return table
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            try:
                if len(parts) != 3:
                    raise ValueError
                name, index, value = parts[0], int(parts[1]), float(parts[2])
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: corrupt registry line {lineno}: {line.strip()!r}")
            table[(name, index)] = value
    return table


def update_best_known(path: str, name: str, index: int, value: float) -> bool:
    """Record `value` when it strictly beats the stored best. Returns whether
    it improved. Refuses random and planted names, whose rows divide by a*n;
    only the family is read from the name, so nothing is generated."""
    if not math.isfinite(value):
        raise ValueError("weight must be finite")
    if parse_instance_name(name, index).family in (Family.RANDOM, Family.PLANTED):
        raise ValueError(f"{name}: random and planted rows divide by a*n, not the registry")
    lock_path = path + ".lock"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            table = read_registry(path)
            old = table.get((name, index))
            if old is not None and value >= old - EPS:
                return False
            table[(name, index)] = value
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as out:
                for (nm, idx), val in sorted(table.items()):
                    out.write(f"{nm} {idx} {_num(val)}\n")
            os.replace(tmp, path)
            return True
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def resolve_best_known(registry: str, fam: FamilySpec, inst: Instance, achieved: float) -> float:
    """Error denominator for a run: a*n on random and planted instances (the
    planted optimum; on random ones a proven lower bound that is the optimum
    only with high probability), otherwise the registry best
    (seeded/improved by this run). A stored best below the instance's lower
    bound is a corrupt entry."""
    known = known_optimum(inst)
    if known is not None:
        return known
    stored = read_registry(registry).get((fam.name, fam.index))
    if stored is None or achieved < stored - EPS:
        if update_best_known(registry, fam.name, fam.index, achieved):
            return achieved
        # another writer stored a better best after the read: divide by it
        stored = read_registry(registry)[(fam.name, fam.index)]
    if stored < inst.lower_bound() - EPS:
        raise ValueError(f"{registry}: corrupt entry {fam.name} {fam.index} {_num(stored)}: "
                         f"below the lower bound {_num(inst.lower_bound())}")
    return stored
