"""Benchmark instance generators.

Instances are named `<s><tag><n>` (e.g. 5r40 is a five-dimensional random
instance of size 40) and seeded with seed = s + n + index, so regenerating
the same (family, s, n, index) always gives the identical instance. Eager
draws (edge matrices, points, factors, the planted permutation) consume one
SplitMix64 stream in a fixed, documented order; random weights themselves
are lazy and counter-keyed (see core.LazyRandom).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

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
)
from .rng import SplitMix64

# default draw ranges, matching the benchmark protocol
RANDOM_RANGE = (1, 101)  # weights uniform in {1..100} (a=1, b=101)
EDGE_RANGE = (1, 100)  # pairwise edge weights in {1..100}
COORD_RANGE = (1, 100)  # point coordinates in {1..100}
FACTOR_RANGE = (1, 10)  # product factors in {1..10}

_NAME_TAGS = {
    "gp": Family.PLANTED,
    "r": Family.RANDOM,
    "cq": Family.CLIQUE,  # alias seen in published instance lists
    "c": Family.CLIQUE,
    "g": Family.GEOMETRIC,
    "p": Family.PRODUCT,
    "sr": Family.SQUAREROOT,
}

TAG_BY_FAMILY = {
    Family.PLANTED: "gp",
    Family.RANDOM: "r",
    Family.CLIQUE: "c",
    Family.GEOMETRIC: "g",
    Family.PRODUCT: "p",
    Family.SQUAREROOT: "sr",
}


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


def _draw_pair_matrices(stream: SplitMix64, s: int, n: int, lo: int, hi: int):
    # (i, j) pairs in lexicographic dimension order, each matrix row-major
    return {
        pair: stream.randint_block(lo, hi, n * n).reshape(n, n).astype(np.float64)
        for pair in combinations(range(s), 2)
    }


def generate(spec: FamilySpec) -> Instance:
    """Generate the instance for a spec; deterministic in (family, s, n, index)."""
    return build_generated_instance(spec.family, spec.s, spec.n, spec.seed)


def build_generated_instance(family: Family, s: int, n: int, seed: int) -> Instance:
    """Build a generated-family instance straight from its seed."""
    if family in (Family.RANDOM, Family.PLANTED) and n**s > 2**64:
        # LazyRandom keys weights by a uint64 rank, which would wrap and alias
        raise ValueError(f"random weights need n^s <= 2^64, got n={n} s={s}")
    stream = SplitMix64(seed)

    if family == Family.RANDOM:
        return Instance(s, n, family, seed, LazyRandom(*RANDOM_RANGE))

    if family == Family.PLANTED:
        perms = np.empty((s, n), dtype=np.int64)
        perms[0] = np.arange(n)
        for j in range(1, s):
            perms[j] = stream.permutation(n)
        return Instance(s, n, family, seed, Planted(*RANDOM_RANGE, Assignment(perms)))

    if family in (Family.CLIQUE, Family.SQUAREROOT):
        mats = _draw_pair_matrices(stream, s, n, *EDGE_RANGE)
        cls = CliqueSum if family == Family.CLIQUE else SquareRootSquares
        return Instance(s, n, family, seed, cls(s, mats))

    if family == Family.GEOMETRIC:
        points = [
            stream.randint_block(*COORD_RANGE, 2 * n).reshape(n, 2).astype(np.float64)
            for _ in range(s)
        ]
        return Instance(s, n, family, seed, GeometricPoints(points))

    if family == Family.PRODUCT:
        factors = [stream.randint_block(*FACTOR_RANGE, n).astype(np.float64) for _ in range(s)]
        return Instance(s, n, family, seed, ProductWeights(factors))

    raise ValueError(f"unsupported family for generation: {family}")


def known_optimum(inst: Instance) -> float | None:
    """The optimum a*n that the random and planted families pin down, as
    `inst.lower_bound()`: exact by construction on planted instances, and
    on random ones the optimum with high probability at the benchmark's
    sizes; None on every other family."""
    if inst.family in (Family.RANDOM, Family.PLANTED):
        return inst.lower_bound()
    return None
