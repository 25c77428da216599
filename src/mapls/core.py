"""Core domain types for the axial multidimensional assignment problem.

An instance couples a dimension count s, a side length n and a weight model
assigning a non-negative weight to every vector of the grid {0..n-1}^s.
An assignment picks n pairwise-disjoint vectors, held in permutation form
with the first permutation frozen to the identity.

Coordinates are 0-based everywhere in code; the text file formats speak
1-based (see files.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .rng import mix64, mix64_array


class Family(str, Enum):
    RANDOM = "random"
    PLANTED = "planted"
    CLIQUE = "clique"
    GEOMETRIC = "geometric"
    PRODUCT = "product"
    SQUAREROOT = "squareroot"
    EXPLICIT = "explicit"


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # nearest integer, .5 up; ties cannot occur for the sqrt/distance sums
    # produced by the generated families, so the direction is cosmetic
    return np.floor(x + 0.5)


# rows per block of a pairwise-table batch: bounds the (pairs, rows) index
# and term arrays at 28 x 16384 x 8 bytes (3.7 MB) each at s = 8
_PAIR_BLOCK = 1 << 14


class WeightModel:
    """Weight function over the vector grid. Immutable after construction."""

    # the family the model's weights belong to; an Instance must name it
    family: Family
    # the (s, n) grid the model was built for; None if it weighs any grid
    shape: tuple[int, int] | None = None

    def batch(self, inst: "Instance", coords: np.ndarray) -> np.ndarray:
        """Weights of an (m, s) int array of vectors, as float64 (m,)."""
        raise NotImplementedError

    def min_weight_floor(self) -> float:
        """A lower bound on every vector weight; exact minimum not required."""
        raise NotImplementedError


@lru_cache(maxsize=64)
def _rank_strides(n: int, s: int) -> np.ndarray:
    """uint64 place values of the lexicographic rank on the grid {0..n-1}^s
    (dimension 0 most significant); read-only, built once per (n, s)."""
    strides = n ** np.arange(s - 1, -1, -1, dtype=np.uint64)
    strides.flags.writeable = False
    return strides


def _ranks(n: int, s: int, coords: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of an (m, s) int64 array, a fresh uint64 array.
    The product runs on a uint64 view of the coordinates, so nothing is
    copied; it wraps mod 2^64, which is exact while n^s <= 2^64."""
    return coords.view(np.uint64) @ _rank_strides(n, s)


class LazyRandom(WeightModel):
    """Uniform integer weights in [a, b-1], computed on demand.

    weight(e) = a + mix64(mix64(seed) + rank(e)) mod (b - a), with rank the
    lexicographic index of e (dimension 0 most significant). Nothing is
    materialized, so 8-dimensional grids cost no memory. The seed is mixed
    before keying: combining a raw seed with the rank (by xor or addition)
    leaves instances of nearby seeds related by a small rank-space shift,
    i.e. near-identical weight landscapes.
    """

    family = Family.RANDOM

    def __init__(self, a: int, b: int):
        if not a < b:
            raise ValueError(f"LazyRandom requires a < b, got a={a} b={b}")
        if a < 0:
            raise ValueError("weights must be non-negative, need a >= 0")
        self.a = int(a)
        self.b = int(b)
        self._span, self._base = np.uint64(self.b - self.a), np.float64(self.a)

    def _rank_weights(self, inst: "Instance", rank: np.ndarray) -> np.ndarray:
        """Weights of the vectors with the given ranks, computed in the
        rank array's own buffer, which is overwritten."""
        rank += np.uint64(mix64(inst.seed))
        z = mix64_array(rank)
        np.remainder(z, self._span, out=z)
        w = z.view(np.float64)
        w[...] = z
        w += self._base
        return w

    def batch(self, inst, coords):
        return self._rank_weights(inst, _ranks(inst.n, inst.s, coords))

    def min_weight_floor(self):
        return float(self.a)


class Planted(LazyRandom):
    """LazyRandom overridden to value a on the n vectors of a planted
    assignment, which is therefore an optimal solution of weight a*n. The
    planted vectors' ranks are computed once, indexed by their row (their
    dimension-0 coordinate), so a vector is planted iff its rank equals the
    planted rank of its row."""

    family = Family.PLANTED

    def __init__(self, a: int, b: int, planted: "Assignment"):
        super().__init__(a, b)
        self.planted = planted
        self.shape = (planted.s, planted.n)
        self._planted_rank = _ranks(planted.n, planted.s, planted.perms.T)

    def batch(self, inst, coords):
        rank = _ranks(inst.n, inst.s, coords)
        hit = rank == self._planted_rank[coords[:, 0]]
        w = self._rank_weights(inst, rank)
        w[hit] = self.a
        return w


class ExplicitTensor(WeightModel):
    """Dense weight tensor, flat in lexicographic order (dim 0 most significant)."""

    family = Family.EXPLICIT

    def __init__(self, s: int, n: int, values: Sequence[float]):
        vals = np.asarray(values, dtype=np.float64).ravel()
        if len(vals) != n**s:
            raise ValueError(f"need n^s = {n**s} values, got {len(vals)}")
        if not np.isfinite(vals).all():
            raise ValueError("weights must be finite")
        if (vals < 0).any():
            raise ValueError("weights must be non-negative")
        self.values = vals
        self.shape = (s, n)
        self._min = float(vals.min()) if len(vals) else 0.0

    def batch(self, inst, coords):
        return self.values[_ranks(inst.n, inst.s, coords)]

    def min_weight_floor(self):
        return self._min


class CliqueSum(WeightModel):
    """Decomposable weights: sum of pairwise distances over all dimension pairs.

    The n x n table of each pair i < j is stacked once, in pair order, into
    one flat array; the other pairwise families stack their own precomputed
    tables the same way. A batch is weighed in blocks of `_PAIR_BLOCK` rows:
    one flat index per (pair, row) over the transposed block, one `take`
    from the stack, and one sum over the pair axis, which adds the pairs in
    pair order as a running sum would, so every weight is the same float.
    """

    family = Family.CLIQUE

    def __init__(self, s: int, mats: dict[tuple[int, int], np.ndarray]):
        self.mats = {k: np.asarray(v, dtype=np.float64) for k, v in sorted(mats.items())}
        if s < 2 or set(self.mats) != set(combinations(range(s), 2)):
            raise ValueError("need s >= 2 and one matrix per dimension pair i < j")
        shapes = {d.shape for d in self.mats.values()}
        if len(shapes) > 1 or any(len(sh) != 2 or sh[0] != sh[1] for sh in shapes):
            raise ValueError("pair matrices must be square and of equal size")
        if not all(np.isfinite(d).all() for d in self.mats.values()):
            raise ValueError("pair matrix entries must be finite")
        if any((d < 0).any() for d in self.mats.values()):
            raise ValueError("pair matrix entries must be non-negative")
        n = shapes.pop()[0]
        self.shape = (s, n)
        pairs = np.array(list(self.mats), dtype=np.intp)
        self._first, self._second = pairs.T
        self._offsets = (np.arange(len(pairs)) * n * n)[:, None]
        # + 0.0 turns a -0.0 entry into 0.0, the sum a zero-started running
        # sum gives, so the in-order sum of a lone row cannot end on -0.0
        self._stack = np.concatenate([d.ravel() for d in self.mats.values()]) + 0.0

    def _pair_sum(self, coords: np.ndarray) -> np.ndarray:
        out = np.empty(len(coords), dtype=np.float64)
        cols, n = coords.T, self.shape[1]
        for lo in range(0, len(coords), _PAIR_BLOCK):
            block = cols[:, lo : lo + _PAIR_BLOCK]
            idx = block[self._first] * n
            idx += block[self._second]
            idx += self._offsets
            terms = self._stack.take(idx)
            if terms.shape[1] == 1:
                # numpy sums a lone column pairwise, not in pair order
                out[lo] = np.cumsum(terms[:, 0])[-1]
            else:
                np.add.reduce(terms, axis=0, out=out[lo : lo + _PAIR_BLOCK])
        return out

    def _floor_sum(self):
        return sum(self._stack.reshape(len(self._offsets), -1).min(axis=1))

    def batch(self, inst, coords):
        return self._pair_sum(coords)

    def min_weight_floor(self):
        return float(self._floor_sum())


class SquareRootSquares(CliqueSum):
    """Decomposable weights: sqrt of the sum of squared pairwise distances,
    rounded to the nearest integer. The stack holds the squares, so `mats`
    keeps the distances."""

    family = Family.SQUAREROOT

    def __init__(self, s: int, mats: dict[tuple[int, int], np.ndarray]):
        super().__init__(s, mats)
        self._stack = self._stack**2

    def batch(self, inst, coords):
        return _round_half_up(np.sqrt(self._pair_sum(coords)))

    def min_weight_floor(self):
        return float(_round_half_up(np.sqrt(self._floor_sum())))


class GeometricPoints(CliqueSum):
    """Clique sum of planar Euclidean distances between per-dimension points;
    the vector weight is rounded to the nearest integer. The points are kept
    (the file format stores them) and the distance tables built once from
    them, so `mats` holds the distances."""

    family = Family.GEOMETRIC

    def __init__(self, points: Sequence[np.ndarray]):
        self.points = [np.asarray(p, dtype=np.float64) for p in points]
        for p in self.points:
            if p.ndim != 2 or p.shape[1] != 2:
                raise ValueError("each dimension needs an (n, 2) point array")
            if not np.isfinite(p).all():
                raise ValueError("point coordinates must be finite")
        if len({len(p) for p in self.points}) > 1:
            raise ValueError("every dimension needs the same number of points")
        dists = {
            (i, j): np.hypot(pi[:, None, 0] - pj[None, :, 0], pi[:, None, 1] - pj[None, :, 1])
            for (i, pi), (j, pj) in combinations(enumerate(self.points), 2)
        }
        super().__init__(len(self.points), dists)

    def batch(self, inst, coords):
        return _round_half_up(self._pair_sum(coords))

    def min_weight_floor(self):
        return float(_round_half_up(self._floor_sum()))


class ProductWeights(WeightModel):
    """Decomposable weights: product of one positive factor per dimension."""

    family = Family.PRODUCT

    def __init__(self, factors: Sequence[np.ndarray]):
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        for f in self.factors:
            if not np.isfinite(f).all():
                raise ValueError("product factors must be finite")
            if (f <= 0).any():
                raise ValueError("product factors must be positive")
        if len({f.shape for f in self.factors}) > 1 or any(f.ndim != 1 for f in self.factors):
            raise ValueError("every dimension needs a 1-D factor array of one length")
        self.shape = (len(self.factors), len(self.factors[0]) if self.factors else 0)

    def batch(self, inst, coords):
        acc = self.factors[0][coords[:, 0]].copy()
        for j in range(1, inst.s):
            acc *= self.factors[j][coords[:, j]]
        return acc

    def min_weight_floor(self):
        out = 1.0
        for f in self.factors:
            out *= float(f.min())
        return out


@dataclass(frozen=True)
class Instance:
    """One problem instance: s >= 3 dimensions, side length n, weight model."""

    s: int
    n: int
    family: Family
    seed: int
    weights: WeightModel = field(repr=False)

    def __post_init__(self):
        if self.s < 3:
            raise ValueError(f"s must be >= 3, got {self.s}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.weights.family != self.family:
            raise ValueError(f"{type(self.weights).__name__} weights are of family "
                             f"{self.weights.family.value}, not {Family(self.family).value}")
        shape = self.weights.shape
        if shape is not None and shape != (self.s, self.n):
            raise ValueError(f"weight model is for (s, n) = {shape}, not ({self.s}, {self.n})")

    def weight(self, e: Sequence[int]) -> float:
        """Weight of a single vector; validates coordinate ranges."""
        coords = np.asarray(e, dtype=np.int64)
        if coords.shape != (self.s,):
            raise ValueError(f"vector must have {self.s} coordinates")
        if (coords < 0).any() or (coords >= self.n).any():
            raise ValueError(f"coordinate out of range in {tuple(coords)}")
        return float(self.weights.batch(self, coords[None, :])[0])

    def weight_batch(self, coords: np.ndarray) -> np.ndarray:
        """Weights of an (m, s) coordinate array. Every coordinate must lie
        in [0, n); nothing checks it, and other values give undefined
        results: a wrong weight, another vector's weight or an IndexError,
        depending on the family. Instance.weight checks the range."""
        return self.weights.batch(self, np.asarray(coords, dtype=np.int64))

    def min_weight_floor(self) -> float:
        return self.weights.min_weight_floor()

    def lower_bound(self) -> float:
        """n times the weight floor, a proven bound on every assignment's
        weight: a*n on random and planted instances (see known_optimum)."""
        return self.n * self.weights.min_weight_floor()


class Assignment:
    """Full feasible assignment in permutation form.

    perms is an (s, n) int64 array; row j holds the dimension-j coordinates
    of the n vectors, row 0 is frozen to the identity, so the vector in row
    i is perms[:, i].
    """

    __slots__ = ("perms",)

    def __init__(self, perms: np.ndarray):
        self.perms = np.asarray(perms, dtype=np.int64)

    @classmethod
    def identity(cls, s: int, n: int) -> "Assignment":
        return cls(np.tile(np.arange(n, dtype=np.int64), (s, 1)))

    @property
    def s(self) -> int:
        return self.perms.shape[0]

    @property
    def n(self) -> int:
        return self.perms.shape[1]

    def vectors(self) -> np.ndarray:
        """(n, s) array with one vector per row."""
        return self.perms.T.copy()

    def vector(self, i: int) -> np.ndarray:
        return self.perms[:, i].copy()

    def copy(self) -> "Assignment":
        return Assignment(self.perms.copy())

    def is_valid(self) -> bool:
        n = self.n
        if not (self.perms[0] == np.arange(n)).all():
            return False
        return all((np.sort(row) == np.arange(n)).all() for row in self.perms)

    def validate(self) -> None:
        if not self.is_valid():
            raise ValueError("not a valid assignment (rows must be permutations, row 0 identity)")

    def key(self) -> bytes:
        return self.perms[1:].tobytes()

    def __eq__(self, other):
        return isinstance(other, Assignment) and np.array_equal(self.perms, other.perms)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Assignment(s={self.s}, n={self.n})"


def assignment_weight(inst: Instance, a: Assignment) -> float:
    """Total weight of an assignment's n vectors."""
    return float(inst.weight_batch(a.perms.T).sum())


def row_weights(inst: Instance, a: Assignment) -> np.ndarray:
    """Per-vector weights of an assignment, indexed by row."""
    return inst.weight_batch(a.perms.T)


def _validate_perm(rho: np.ndarray, n: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.int64)
    if rho.shape != (n,) or not (np.sort(rho) == np.arange(n)).all():
        raise ValueError("rho is not a permutation of 0..n-1")
    return rho


def apply_dimension_permutation(a: Assignment, dims: Iterable[int], rho: np.ndarray) -> Assignment:
    """Re-permute the listed dimensions jointly by rho.

    The result's vector set is { swap(A^i, A^rho(i), dims) : i }, renormalized
    so that row 0 stays the identity permutation.
    """
    rho = _validate_perm(rho, a.n)
    perms = a.perms.copy()
    dims = set(dims)
    for j in dims:
        perms[j] = perms[j][rho]
    if 0 in dims:
        inv = np.empty(a.n, dtype=np.int64)
        inv[perms[0]] = np.arange(a.n)
        perms = perms[:, inv]
    return Assignment(perms)


def swap_weight_matrix(inst: Instance, a: Assignment, dims: Iterable[int]) -> np.ndarray:
    """(n, n) matrix M with M[i, j] = weight(swap(A^i, A^j, dims))."""
    n, s = inst.n, inst.s
    dims = set(dims)
    coords = np.empty((s, n, n), dtype=np.int64)
    for j in range(s):
        if j in dims:
            coords[j] = a.perms[j][None, :]
        else:
            coords[j] = a.perms[j][:, None]
    flat = coords.reshape(s, n * n).T
    return inst.weight_batch(flat).reshape(n, n)
