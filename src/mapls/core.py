"""Core domain types for the axial multidimensional assignment problem.

A weight model assigns a non-negative weight to every vector of the grid
{0..n-1}^s and knows its family and its (s, n); an instance couples one
model with the seed it was built from, and reads s, n and the family from
the model. An assignment picks n pairwise-disjoint vectors, held in
permutation form with the first permutation frozen to the identity.

Each weight kernel is written once. The pair-table families (clique,
square-root, geometric) share one batch and one grid path over stacked
n x n tables, each family ending in its own `_finish` step; the rank
families (random, planted, explicit) share one batch and one grid path
over lexicographic ranks, each family ending in its own `_weigh_ranks`
step (random and planted weights hash the ranks in place, one cache-sized
chunk at a time); product weights multiply one factor per dimension.

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

from .rng import mix64, mix64_array, u64


class Family(str, Enum):
    RANDOM = "random"
    PLANTED = "planted"
    CLIQUE = "clique"
    GEOMETRIC = "geometric"
    PRODUCT = "product"
    SQUAREROOT = "squareroot"
    EXPLICIT = "explicit"


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # nearest integer, .5 up, in x's buffer; ties cannot occur for the
    # sqrt/distance sums produced by the generated families, so the
    # direction is cosmetic
    return np.floor(np.add(x, 0.5, out=x), out=x)


def _along(x: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """View of the 1-D x along `axis` of an ndim-dimensional grid, with a
    length-1 axis for every other dimension, for broadcasting."""
    return x.reshape([-1 if d == axis else 1 for d in range(ndim)])


def _spread(sets: list[np.ndarray]) -> tuple[list, list[int]]:
    """Indexes into the grid of `sets` without its length-1 axes, and that
    grid's shape: a one-element set's value, or the set along its own axis."""
    shape = [len(x) for x in sets if len(x) != 1]
    axes = iter(range(len(shape)))
    return [x[0] if len(x) == 1 else _along(x, next(axes), len(shape)) for x in sets], shape


# rows per block of a pairwise-table batch: bounds the (pairs, rows) index
# and term arrays at 28 x 16384 x 8 bytes (3.7 MB) each at s = 8
_PAIR_BLOCK = 1 << 14

# values per step of the random hash: each step of the mix and the
# remainder runs over 32,768 uint64 (256 KB) and a scratch array of as
# many, which stay in L2 cache from step to step, where a step over the
# whole rank buffer streams megabytes through memory and allocates a
# temporary as large
_HASH_CHUNK = 1 << 15


@lru_cache(maxsize=64)
def _seed_key(seed: int) -> np.ndarray:
    """mix64(seed), the offset a random model adds to every rank, cached
    per seed: mixing it in Python takes about a tenth of the time of a
    600-vector batch."""
    return u64(mix64(seed))


class WeightModel:
    """Weight function over the vector grid. Immutable after construction."""

    # the family the model's weights belong to
    family: Family
    # the (s, n) of the grid {0..n-1}^s the model weighs
    shape: tuple[int, int]

    def batch(self, inst: "Instance", coords: np.ndarray) -> np.ndarray:
        """Weights of an (m, s) int array of vectors, as float64 (m,)."""
        raise NotImplementedError

    def grid(self, inst: "Instance", sets: list[np.ndarray]) -> np.ndarray:
        """Weights of the product of s int64 value arrays, as a float64
        array of shape (len(S_0), ..., len(S_{s-1})) in C order, each the
        float `batch` gives the same vector."""
        raise NotImplementedError

    def min_weight_floor(self) -> float:
        """A lower bound on every vector weight; exact minimum not required."""
        raise NotImplementedError


class _RankWeights(WeightModel):
    """Weights keyed by each vector's lexicographic rank on {0..n-1}^s
    (dimension 0 most significant), as a uint64.

    A batch ranks its (m, s) coordinates by one product with the place
    values, run on a uint64 view of them, so nothing is copied. A grid adds
    the per-dimension terms S_j * stride_j by outer sums into a rank grid in
    C order. Both wrap mod 2^64 alike, so they give the same ranks, exact
    while n^s <= 2^64. Each hands its fresh C-contiguous rank array, with a
    view of the vectors' dimension-0 values that broadcasts against it, to
    the model's `_weigh_ranks`.
    """

    def __init__(self, s: int, n: int):
        self.shape = (s, n)
        self._strides = n ** np.arange(s - 1, -1, -1, dtype=np.uint64)

    def _ranks(self, coords: np.ndarray) -> np.ndarray:
        return coords.view(np.uint64) @ self._strides

    def _weigh_ranks(self, inst: "Instance", rank: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weights of the vectors with the given ranks and dimension-0
        values `rows`; the rank buffer may be overwritten."""
        raise NotImplementedError

    def batch(self, inst, coords):
        return self._weigh_ranks(inst, self._ranks(coords), coords[:, 0])

    def grid(self, inst, sets):
        rank = sets[0].view(np.uint64) * self._strides[0]
        for x, stride in zip(sets[1:], self._strides[1:]):
            rank = np.add.outer(rank, x.view(np.uint64) * stride)
        return self._weigh_ranks(inst, rank, _along(sets[0], 0, rank.ndim))


class LazyRandom(_RankWeights):
    """Uniform integer weights in [a, b-1], computed on demand.

    weight(e) = a + mix64(mix64(seed) + rank(e)) mod (b - a), with rank the
    lexicographic index of e (dimension 0 most significant). Nothing is
    materialized, so 8-dimensional grids cost no memory. The seed is mixed
    before keying: combining a raw seed with the rank (by xor or addition)
    leaves instances of nearby seeds related by a small rank-space shift,
    i.e. near-identical weight landscapes.

    The ranks are hashed in their own buffer, `_HASH_CHUNK` values at a
    time, so that each of the dozen numpy steps reads what the last one
    left in cache. The remainder is taken as z - (z // span) * span, and
    remainders of a span up to 2^63 convert to float through an int64
    view; both give the float `np.remainder` and a uint64 conversion would.
    """

    family = Family.RANDOM

    def __init__(self, s: int, n: int, a: int, b: int):
        if s < 1 or n < 1:
            raise ValueError(f"random weights need s, n >= 1, got s={s} n={n}")
        if not a < b:
            raise ValueError(f"LazyRandom requires a < b, got a={a} b={b}")
        if a < 0:
            raise ValueError("weights must be non-negative, need a >= 0")
        if n**s > 2**64:
            # the uint64 rank would wrap and alias weights
            raise ValueError(f"random weights need n^s <= 2^64, got n={n} s={s}")
        if b - a >= 2**64:
            raise ValueError(f"random weights need b - a < 2^64, got b - a = {b - a}")
        super().__init__(s, n)
        self.a = int(a)
        self.b = int(b)
        # 0-d operands, as the mix's constants are (see rng.u64)
        self._span, self._base = u64(self.b - self.a), np.array(float(self.a))
        # remainders below 2^63 are read as int64, which numpy converts to
        # float faster than uint64, to the same float
        self._exact = np.int64 if self.b - self.a <= 2**63 else np.uint64

    def _weigh_ranks(self, inst, rank, rows):
        # computed in the rank array's own buffer, one chunk at a time: the
        # rank array is fresh and C-contiguous, so z is a view of it
        z = rank.ravel()
        key = _seed_key(inst.seed)
        t = np.empty(min(z.size, _HASH_CHUNK), dtype=np.uint64)
        for lo in range(0, z.size, _HASH_CHUNK):
            c = z[lo : lo + _HASH_CHUNK]
            t = t[: c.size]
            c += key
            mix64_array(c, t)
            # c mod span as c - (c // span) * span: numpy divides a uint64
            # array by a scalar several times faster than it takes the
            # remainder
            np.floor_divide(c, self._span, out=t)
            t *= self._span
            c -= t
            w = c.view(np.float64)
            w[...] = c.view(self._exact)
            w += self._base
        return rank.view(np.float64)

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
        super().__init__(planted.s, planted.n, a, b)
        self.planted = planted
        self._planted_rank = self._ranks(planted.perms.T)

    def _weigh_ranks(self, inst, rank, rows):
        hit = rank == self._planted_rank[rows]
        w = super()._weigh_ranks(inst, rank, rows)
        w[hit] = self.a
        return w


class ExplicitTensor(_RankWeights):
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
        super().__init__(s, n)
        self.values = vals
        self._min = float(vals.min()) if len(vals) else 0.0

    def _weigh_ranks(self, inst, rank, rows):
        return self.values[rank]

    def min_weight_floor(self):
        return self._min


class CliqueSum(WeightModel):
    """Decomposable weights: sum of pairwise distances over all dimension pairs.

    The n x n table of each pair i < j is stacked once, in pair order, into
    one flat array; the other pairwise families stack their own precomputed
    tables the same way and share this class's batch, grid and floor, each
    of which ends in the family's `_finish` step. A batch is weighed in
    blocks of `_PAIR_BLOCK` rows: one flat index per (pair, row) over the
    transposed block, one `take` from the stack, and one sum over the pair
    axis, which adds the pairs in pair order as a running sum would, so
    every weight is the same float. A grid adds one broadcast table slice
    per pair, in pair order, into its output: the same sums in the same
    order.
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
        with np.errstate(over="ignore"):
            self._stack = self._terms(np.concatenate([d.ravel() for d in self.mats.values()]) + 0.0)
            # every weight is at most this one, as sums and finishes are monotone
            heaviest = self._table_sum(np.max) if n else 0.0
        if not np.isfinite(heaviest):
            raise ValueError("pair matrix entries too large: the heaviest vector weight overflows")

    def _terms(self, stack: np.ndarray) -> np.ndarray:
        """The stacked table entries the sums add: the tables themselves
        for a clique sum."""
        return stack

    def _table_sum(self, reduce) -> float:
        """Each table's `reduce` (min or max) entry, summed in pair order in
        a 0-d buffer and finished: the weight floor or the heaviest weight."""
        return float(self._finish(np.array(sum(reduce(self._stack.reshape(len(self._offsets), -1), axis=1)))))

    def _finish(self, w: np.ndarray) -> np.ndarray:
        """The weights of vectors whose pair-table sums are w, computed in
        w's buffer: the sums themselves for a clique sum."""
        return w

    def batch(self, inst, coords):
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
        return self._finish(out)

    def grid(self, inst, sets):
        n = self.shape[1]
        # the sum runs on the grid without the one-element sets' axes, each
        # of those indexing by its value: indexing a table by two spread
        # sets gives the pair's slice already broadcast to that grid
        ix, shape = _spread(sets)
        terms = (table[ix[i], ix[j]]
                 for table, i, j in zip(self._stack.reshape(-1, n, n), self._first.tolist(), self._second.tolist()))
        # the first two pairs added into the output, the rest in place
        out = np.add(next(terms), next(terms), out=np.empty(shape))
        for term in terms:
            out += term
        return self._finish(out.reshape([len(x) for x in sets]))

    def min_weight_floor(self):
        return self._table_sum(np.min)


class SquareRootSquares(CliqueSum):
    """Decomposable weights: sqrt of the sum of squared pairwise distances,
    rounded to the nearest integer. The stack holds the squares, so `mats`
    keeps the distances."""

    family = Family.SQUAREROOT

    def _terms(self, stack):
        return stack**2

    def _finish(self, w):
        return _round_half_up(np.sqrt(w, out=w))


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

    def _finish(self, w):
        return _round_half_up(w)


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
        # every weight is at most this one, as rounding is monotone
        heaviest = 1.0
        for f in self.factors:
            heaviest *= float(f.max()) if len(f) else 0.0
        if not np.isfinite(heaviest):
            raise ValueError("product factors too large: the heaviest vector weight overflows")

    def batch(self, inst, coords):
        acc = self.factors[0][coords[:, 0]].copy()
        for j in range(1, inst.s):
            acc *= self.factors[j][coords[:, j]]
        return acc

    def grid(self, inst, sets):
        acc = self.factors[0][sets[0]]
        for f, x in zip(self.factors[1:], sets[1:]):
            acc = np.multiply.outer(acc, f[x])
        return acc

    def min_weight_floor(self):
        out = 1.0
        for f in self.factors:
            out *= float(f.min())
        return out


@dataclass(frozen=True)
class Instance:
    """One problem instance: a weight model and the seed it was built from.
    s (>= 3), n (>= 1) and family are read from the model and kept as plain
    attributes, so an instance cannot disagree with its weights."""

    weights: WeightModel = field(repr=False)
    seed: int
    s: int = field(init=False)
    n: int = field(init=False)
    family: Family = field(init=False)

    def __post_init__(self):
        s, n = self.weights.shape
        if s < 3:
            raise ValueError(f"s must be >= 3, got {s}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        # set once here, as the class is frozen
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "family", self.weights.family)

    def weight(self, e: Sequence[int]) -> float:
        """Weight of a single vector; validates that its coordinates are
        integers in range."""
        coords = np.asarray(e)
        if coords.shape != (self.s,):
            raise ValueError(f"vector must have {self.s} coordinates")
        if (coords < 0).any() or (coords >= self.n).any():
            raise ValueError(f"coordinate out of range in {tuple(coords)}")
        if (coords != np.trunc(coords)).any():
            raise ValueError(f"coordinates must be integers, got {coords.tolist()}")
        return float(self.weights.batch(self, coords.astype(np.int64)[None, :])[0])

    def weight_batch(self, coords: np.ndarray) -> np.ndarray:
        """Weights of an (m, s) coordinate array. Every coordinate must lie
        in [0, n); nothing checks it, and other values give undefined
        results: a wrong weight, another vector's weight or an IndexError,
        depending on the family. Instance.weight checks the range."""
        return self.weights.batch(self, np.asarray(coords, dtype=np.int64))

    def weight_grid(self, sets: Sequence[np.ndarray]) -> np.ndarray:
        """Weights of the cartesian product of s value arrays S_0..S_{s-1},
        as a float64 array of shape (len(S_0), ..., len(S_{s-1})) in C order
        (dimension 0 most significant): entry (p_0, ..., p_{s-1}) is the
        weight of the vector (S_0[p_0], ..., S_{s-1}[p_{s-1}]), the same
        float weight_batch gives it. Every value must lie in [0, n); nothing
        checks it, and other values give undefined results, as in
        weight_batch."""
        return self.weights.grid(self, [np.asarray(x, dtype=np.int64) for x in sets])

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
