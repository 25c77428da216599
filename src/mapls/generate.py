"""Benchmark instance generators.

Instances are named `<s><tag><n>` (e.g. 5r40 is a five-dimensional random
instance of size 40) and seeded with seed = s + n + index, so regenerating
the same (family, s, n, index) always gives the identical instance. Eager
draws (the planted permutation, or a stored family's arrays in the order of
its `LAYOUTS` entry, which the instance file format shares) consume one
SplitMix64 stream; random weights themselves are lazy and counter-keyed
(see core.LazyRandom).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .core import (
    Assignment,
    CliqueSum,
    Family,
    GeometricPoints,
    Instance,
    LazyRandom,
    Planted,
    ProductWeights,
    SquareRootSquares,
    WeightModel,
)
from .rng import SplitMix64

# default draw ranges, matching the benchmark protocol
RANDOM_RANGE = (1, 101)  # weights uniform in {1..100} (a=1, b=101)
EDGE_RANGE = (1, 100)  # pairwise edge weights in {1..100}
COORD_RANGE = (1, 100)  # point coordinates in {1..100}
FACTOR_RANGE = (1, 10)  # product factors in {1..10}

TAG_BY_FAMILY = {
    Family.PLANTED: "gp",
    Family.RANDOM: "r",
    Family.CLIQUE: "c",
    Family.GEOMETRIC: "g",
    Family.PRODUCT: "p",
    Family.SQUAREROOT: "sr",
}

# parse-only alias "cq", seen in published instance lists
_NAME_TAGS = {tag: family for family, tag in TAG_BY_FAMILY.items()} | {"cq": Family.CLIQUE}


@dataclass
class FamilySpec:
    """A named, indexed instance to generate."""

    family: Family
    s: int
    n: int
    index: int = 1

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("index must be >= 1")
        if self.s < 3:
            raise ValueError(f"s must be >= 3, got {self.s}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def seed(self) -> int:
        return self.s + self.n + self.index

    @property
    def name(self) -> str:
        return f"{self.s}{TAG_BY_FAMILY[self.family]}{self.n}"


def parse_instance_name(name: str, index: int = 1) -> FamilySpec:
    """Parse `<s><tag><n>` with tag in {gp, r, c, g, p, sr}."""
    m = re.fullmatch(r"(\d+)([a-z]+)(\d+)", name.strip().lower())
    if not m:
        raise ValueError(f"malformed instance name {name!r}: expected <s><tag><n>")
    s, tag, n = int(m.group(1)), m.group(2), int(m.group(3))
    if tag not in _NAME_TAGS:
        raise ValueError(f"malformed instance name {name!r}: unknown family tag {tag!r}")
    if s < 3:
        raise ValueError(f"malformed instance name {name!r}: s must be >= 3")
    if n < 1:
        raise ValueError(f"malformed instance name {name!r}: n must be >= 1")
    return FamilySpec(_NAME_TAGS[tag], s, n, index)


@dataclass(frozen=True)
class Layout:
    """A stored family's arrays, in draw and file order."""

    # the range a generated instance draws every entry from
    draw_range: tuple[int, int]
    # (s, n) -> the arrays' shape, stacked: (number of arrays, *one array's shape)
    shape: Callable[[int, int], tuple[int, ...]]
    # (s, arrays) -> the model built from those arrays
    build: Callable[[int, list[np.ndarray]], WeightModel]
    # model -> its arrays, read back
    arrays: Callable[[WeightModel], list[np.ndarray]]

    def size(self, s: int, n: int) -> int:
        """The number of entries in all the arrays."""
        return math.prod(self.shape(s, n))

    def model(self, s: int, n: int, values) -> WeightModel:
        """The model of the arrays whose entries, flat in order, are values."""
        return self.build(s, list(np.reshape(values, self.shape(s, n))))


def _pairwise(cls) -> Layout:
    # one n x n table per dimension pair i < j, in lexicographic pair order
    return Layout(EDGE_RANGE, lambda s, n: (math.comb(s, 2), n, n),
                  lambda s, arrays: cls(s, dict(zip(combinations(range(s), 2), arrays))),
                  lambda model: list(model.mats.values()))


LAYOUTS = {
    Family.CLIQUE: _pairwise(CliqueSum),
    Family.SQUAREROOT: _pairwise(SquareRootSquares),
    Family.GEOMETRIC: Layout(COORD_RANGE, lambda s, n: (s, n, 2),
                             lambda s, arrays: GeometricPoints(arrays), lambda model: model.points),
    Family.PRODUCT: Layout(FACTOR_RANGE, lambda s, n: (s, n),
                           lambda s, arrays: ProductWeights(arrays), lambda model: model.factors),
}


def generate(spec: FamilySpec) -> Instance:
    """Generate the instance for a spec; deterministic in (family, s, n, index)."""
    return build_generated_instance(spec.family, spec.s, spec.n, spec.seed)


def build_generated_instance(family: Family, s: int, n: int, seed: int) -> Instance:
    """Build a generated-family instance straight from its seed."""
    stream = SplitMix64(seed)

    if family == Family.RANDOM:
        weights = LazyRandom(s, n, *RANDOM_RANGE)
    elif family == Family.PLANTED:
        perms = np.empty((s, n), dtype=np.int64)
        perms[0] = np.arange(n)
        for j in range(1, s):
            perms[j] = stream.permutation(n)
        weights = Planted(*RANDOM_RANGE, Assignment(perms))
    elif family in LAYOUTS:
        layout = LAYOUTS[family]
        weights = layout.model(s, n, stream.randint_block(*layout.draw_range, layout.size(s, n)))
    else:
        raise ValueError(f"unsupported family for generation: {family}")
    return Instance(weights, seed)


def known_optimum(inst: Instance) -> float | None:
    """The optimum a*n that the random and planted families pin down, as
    `inst.lower_bound()`: exact by construction on planted instances, and
    on random ones the optimum with high probability at the benchmark's
    sizes; None on every other family."""
    if inst.family in (Family.RANDOM, Family.PLANTED):
        return inst.lower_bound()
    return None
