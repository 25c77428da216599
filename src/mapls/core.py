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

Each family also weighs swapped vectors in two steps, with no coordinate
rows built: `swap_parts` reads each vector's parts on a set of swap masks,
from its coordinates outside each mask and inside it (uint64 rank parts,
flat pair-table index parts, or one factor per dimension), and
`swap_weigh` weighs a grid of (row, column, mask) from the rows' outside
parts and the columns' inside parts, each entry the float `batch` gives the
same vector. The swap matrices of the dimensionwise searches
(`swap_weight_matrix`, one mask) and v-opt's chain steps are both built
from these two steps.

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
    """View of the value array x along `axis` of an ndim-dimensional grid,
    with a length-1 axis for every other dimension, for broadcasting; a
    2-D x keeps its batch axis, after the grid's."""
    return x.reshape((1,) * axis + (-1,) + (1,) * (ndim - axis - 1) + x.shape[1:])


def _spread(sets: list[np.ndarray]) -> tuple[list, list[int]]:
    """Indexes into the grid of `sets` without its length-1 axes, and that
    grid's shape, batch axis included: a one-element set's value (its row
    of values under a batch axis), or the set along its own axis."""
    shape = [len(x) for x in sets if len(x) != 1]
    axes = iter(range(len(shape)))
    return ([x[0] if len(x) == 1 else _along(x, next(axes), len(shape)) for x in sets],
            shape + list(sets[0].shape[1:]))


# by the value arrays' ndim, the index that gives a grid of weights or ranks
# a new last grid axis of length 1, before the batch axis if there is one:
# the operand that np.add.outer or np.multiply.outer would broadcast
_NEW_AXIS = {1: (..., None), 2: (..., None, slice(None))}


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
    # every weight is an integer and n times the heaviest weight is below
    # 2^53: every sum of at most n weights, and every partial sum on the
    # way, is then an exact float64 integer, whatever the order (dv_search
    # decides some product solves by sorting on this, and v-opt keeps its
    # chain cut's sum as a running sum). Set by `_bound_sums`.
    _exact_sums: bool

    def _bound_sums(self, integral: bool, heaviest) -> None:
        self._exact_sums = bool(integral) and self.shape[1] * heaviest < 2**53

    def batch(self, inst: "Instance", coords: np.ndarray) -> np.ndarray:
        """Weights of an (m, s) int array of vectors, as float64 (m,)."""
        raise NotImplementedError

    def grid(self, inst: "Instance", sets: list[np.ndarray]) -> np.ndarray:
        """Weights of the product of s int64 value arrays, as a float64
        array of shape (len(S_0), ..., len(S_{s-1})) in C order, each the
        float `batch` gives the same vector. The arrays may instead all be
        2-D, (len(S_j), c), sharing a trailing batch axis: the weights then
        have shape (len(S_0), ..., len(S_{s-1}), c), column b the grid of
        the arrays' columns b."""
        raise NotImplementedError

    def swap_selector(self, sides: tuple[tuple[bool, ...], ...]):
        """What `swap_parts` reads for U swap masks, each given as s bools
        (True for a dimension in the mask); cached per (s, n, sides)."""
        raise NotImplementedError

    def swap_parts(self, vecs: np.ndarray, sel) -> np.ndarray:
        """The parts of an (s, m) int64 array of m vectors, one a column as
        in an assignment's perms, on the U masks of `sel` (from
        `swap_selector`), of shape (2, *lead, U, m): [0] read from each
        vector's coordinates outside each mask, [1] from those inside it.
        `lead` is the family's own axes: none for ranks, the pairs for pair
        tables, the dimensions for product factors."""
        raise NotImplementedError

    def swap_weigh(self, inst: "Instance", rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Weights of swapped vectors from outside parts `rows` and inside
        parts `cols` (taken from `swap_parts`' [0] and [1]; their axes after
        the lead axes broadcast against each other): each entry the float
        `batch` gives the vector with its coordinates outside the mask from
        the row and inside it from the column, in the broadcast shape
        without the lead axes."""
        raise NotImplementedError

    def min_weight_floor(self) -> float:
        """A lower bound on every vector weight; exact minimum not required."""
        raise NotImplementedError


@lru_cache(maxsize=1024)
def _swap_sides(s: int, dims: frozenset) -> tuple[bool, ...]:
    """Per dimension, whether a swap matrix reads it from its column (the
    dimension is in dims) rather than its row; refuses a dims that names
    anything but a dimension 0..s-1, so every cached plan is valid."""
    if not all(j in range(s) for j in dims):
        raise ValueError(f"dimensions must lie in 0..{s - 1}, got {set(dims)}")
    return tuple(j in dims for j in range(s))


def _side_masks(sides: tuple[tuple[bool, ...], ...]) -> np.ndarray:
    """(2, U, s) bool: per mask and dimension, whether the dimension lies
    outside the mask ([0]) and inside it ([1])."""
    inside = np.array(sides, dtype=bool)
    return np.stack([~inside, inside])


@lru_cache(maxsize=512)
def _rank_selector(s: int, n: int, sides: tuple) -> np.ndarray:
    """(2, U, s) uint64 place values of the dimensions outside each mask
    ([0]) and inside it ([1]), 0 for the others: times a uint64 view of
    (s, m) vectors, their rank parts. Read-only."""
    strides = n ** np.arange(s - 1, -1, -1, dtype=np.uint64)
    sel = np.where(_side_masks(sides), strides, np.uint64(0))
    sel.flags.writeable = False
    return sel


@lru_cache(maxsize=512)
def _pair_selector(s: int, n: int, sides: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(2, pairs, U, s) int64 selector of the flat pair-table index parts
    outside each mask ([0]) and inside it ([1]), and the (2, pairs, 1, 1)
    table offsets, on the outside parts only: pair (i, j) indexes its table
    at offset + n * x_i + x_j, each coordinate read from the side that
    holds its dimension. Read-only."""
    side = _side_masks(sides)
    sel = np.zeros((2, s * (s - 1) // 2, len(sides), s), dtype=np.int64)
    for p, (i, j) in enumerate(combinations(range(s), 2)):
        sel[:, p, :, i] = side[:, :, i] * n
        sel[:, p, :, j] = side[:, :, j]
    offsets = np.zeros((2, sel.shape[1], 1, 1), dtype=np.int64)
    offsets[0, :, 0, 0] = np.arange(sel.shape[1]) * n * n
    sel.flags.writeable = offsets.flags.writeable = False
    return sel, offsets


@lru_cache(maxsize=512)
def _factor_selector(sides: tuple) -> np.ndarray:
    """`_side_masks(sides)` as (2, s, U, 1), dimension first. Read-only."""
    sel = _side_masks(sides).transpose(0, 2, 1)[..., None]
    sel.flags.writeable = False
    return sel


class _RankWeights(WeightModel):
    """Weights keyed by each vector's lexicographic rank on {0..n-1}^s
    (dimension 0 most significant), as a uint64.

    A batch ranks its (m, s) coordinates by one product with the place
    values, run on a uint64 view of them, so nothing is copied. A grid adds
    the per-dimension terms S_j * stride_j by outer sums into a rank grid in
    C order, the batch axis, if any, kept last. Swap parts are rank parts:
    one product of a (2, U, s) selector of place values with the vectors
    (`_rank_selector`) gives, per mask, the sum of the terms outside it and
    of those inside it, and a swapped vector's rank is a row's outside part
    plus a column's inside part. All wrap mod 2^64 alike, so they give the
    same ranks, exact while n^s <= 2^64. Each hands its fresh C-contiguous
    rank array to the model's `_weigh_ranks`.
    """

    def __init__(self, s: int, n: int):
        self.shape = (s, n)
        self._strides = n ** np.arange(s - 1, -1, -1, dtype=np.uint64)

    def _ranks(self, coords: np.ndarray) -> np.ndarray:
        return coords.view(np.uint64) @ self._strides

    def _weigh_ranks(self, inst: "Instance", rank: np.ndarray) -> np.ndarray:
        """Weights of the vectors with the given ranks; the rank buffer may
        be overwritten."""
        raise NotImplementedError

    def batch(self, inst, coords):
        return self._weigh_ranks(inst, self._ranks(coords))

    def grid(self, inst, sets):
        new = _NEW_AXIS[sets[0].ndim]
        rank = sets[0].view(np.uint64) * self._strides[0]
        for x, stride in zip(sets[1:], self._strides[1:]):
            rank = rank[new] + x.view(np.uint64) * stride
        return self._weigh_ranks(inst, rank)

    def swap_selector(self, sides):
        return _rank_selector(*self.shape, sides)

    def swap_parts(self, vecs, sel):
        return sel @ vecs.view(np.uint64)

    def swap_weigh(self, inst, rows, cols):
        # C order whatever the parts' layout: the hash works in this buffer
        return self._weigh_ranks(inst, np.add(rows, cols, order="C"))


class LazyRandom(_RankWeights):
    """Uniform integer weights in [a, b-1], computed on demand.

    weight(e) = a + mix64(mix64(seed) + rank(e)) mod (b - a), with rank the
    lexicographic index of e (dimension 0 most significant). Nothing is
    materialized, so 8-dimensional grids cost no memory. The seed is mixed
    before keying: combining a raw seed with the rank (by xor or addition)
    leaves instances of nearby seeds related by a small rank-space shift,
    i.e. near-identical weight landscapes.

    The ranks are hashed in their own buffer, `_HASH_CHUNK` values at a
    time (`_hash`), so that each of the dozen numpy steps reads what the
    last one left in cache. The remainder is taken as z - (z // span) * span, and
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
        if a != int(a) or b != int(b):
            raise ValueError(f"random weights need integral a and b, got a={a} b={b}")
        super().__init__(s, n)
        self.a = int(a)
        self.b = int(b)
        # 0-d operands, as the mix's constants are (see rng.u64)
        self._span, self._base = u64(self.b - self.a), np.array(float(self.a))
        # remainders below 2^63 are read as int64, which numpy converts to
        # float faster than uint64, to the same float
        self._exact = np.int64 if self.b - self.a <= 2**63 else np.uint64
        self._bound_sums(True, self.b - 1)

    def _weigh_ranks(self, inst, rank):
        # computed in the rank array's own buffer, one chunk at a time: the
        # rank array is fresh and C-contiguous, so z is a view of it
        z = rank.ravel()
        key = _seed_key(inst.seed)
        t = np.empty(min(z.size, _HASH_CHUNK), dtype=np.uint64)
        for lo in range(0, z.size, _HASH_CHUNK):
            c = z[lo : lo + _HASH_CHUNK]
            self._hash(c, t[: c.size], key)
        return rank.view(np.float64)

    def _hash(self, c: np.ndarray, t: np.ndarray, key: np.ndarray) -> None:
        """Turn the uint64 ranks c into their float64 weights in place, with
        t, of c's size, as scratch."""
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

    def min_weight_floor(self):
        return float(self.a)


class Planted(LazyRandom):
    """LazyRandom overridden to value a on the n vectors of a planted
    assignment, which is therefore an optimal solution of weight a*n. The
    planted vectors' ranks are computed once, indexed by their row (their
    dimension-0 coordinate), so a vector is planted iff its rank equals the
    planted rank of its row. A vector's row is its rank's leading digit,
    rank // n^(s-1), so each hash chunk finds its planted vectors before it
    is hashed, with no array larger than the chunk."""

    family = Family.PLANTED

    def __init__(self, a: int, b: int, planted: "Assignment"):
        super().__init__(planted.s, planted.n, a, b)
        self.planted = planted
        self._planted_rank = self._ranks(planted.perms.T)
        self._row_stride = self._strides[0]

    def _hash(self, c, t, key):
        np.floor_divide(c, self._row_stride, out=t)
        hit = c == self._planted_rank.take(t.view(np.int64))
        super()._hash(c, t, key)
        c.view(np.float64)[hit] = self.a


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
        self._bound_sums((vals == np.trunc(vals)).all(), vals.max() if len(vals) else 0.0)

    def _weigh_ranks(self, inst, rank):
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
    every weight is the same float. Swap parts are flat index parts: one
    product of a (2, pairs, U, s) selector (`_pair_selector`) with the
    vectors gives, per pair and mask, the index terms of the
    coordinates outside the mask (with the pair's table offset) and inside
    it; a swapped vector's (pairs, ...) indices are a row's outside parts
    plus a column's inside parts, weighed by the batch's take and sum. A
    grid adds one broadcast table slice per pair, in pair order, into its
    output: the same sums in the same order, with or without a batch axis.
    """

    family = Family.CLIQUE
    # whether `_finish` rounds every weight to an integer
    _rounds = False

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
            # each pair's flat table in the stack, with its two dimensions, for the grid
            self._pair_tables = list(zip(self._stack.reshape(len(pairs), -1), self._first.tolist(),
                                         self._second.tolist()))
            # every weight is at most this one, as sums and finishes are monotone
            heaviest = self._table_sum(np.max) if n else 0.0
        if not np.isfinite(heaviest):
            raise ValueError("pair matrix entries too large: the heaviest vector weight overflows")
        self._bound_sums(self._rounds or (self._stack == np.trunc(self._stack)).all(), heaviest)

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
            self._sum_pairs(idx, out[lo : lo + _PAIR_BLOCK])
        return self._finish(out)

    def _sum_pairs(self, idx: np.ndarray, out: np.ndarray) -> None:
        """Add the stack's entries at the (pairs, ...) flat indices idx over
        the pair axis, in pair order, into out: one take and one reduce."""
        terms = self._stack.take(idx)
        if out.size == 1:
            # numpy sums a lone column pairwise, not in pair order
            out[...] = np.cumsum(terms.ravel())[-1]
        else:
            np.add.reduce(terms, axis=0, out=out)

    def swap_selector(self, sides):
        return _pair_selector(*self.shape, sides)

    def swap_parts(self, vecs, sel):
        parts = sel[0] @ vecs
        parts += sel[1]
        return parts

    def swap_weigh(self, inst, rows, cols):
        idx = rows + cols
        out = np.empty(idx.shape[1:])
        self._sum_pairs(idx, out)
        return self._finish(out)

    def grid(self, inst, sets):
        n = self.shape[1]
        # the sum runs on the grid without the one-element sets' axes, each
        # of those indexing by its value: the flat indices n * x_i + x_j of
        # two spread sets pick the pair's slice already broadcast to that
        # grid. Indexing the pair's own flat table by one index array costs
        # less than indexing its square by two broadcast ones (under half on
        # a full k-opt screen chunk at s = 3), and n * x_i is formed once
        # per set, so the constructions' grids lose nothing
        ix, shape = _spread(sets)
        scaled = [x * n for x in ix[:-1]]
        terms = (table[scaled[i] + ix[j]] for table, i, j in self._pair_tables)
        # the first two pairs added into the output, the rest in place
        out = np.add(next(terms), next(terms), out=np.empty(shape))
        for term in terms:
            out += term
        return self._finish(out.reshape([len(x) for x in sets] + list(sets[0].shape[1:])))

    def min_weight_floor(self):
        return self._table_sum(np.min)


class SquareRootSquares(CliqueSum):
    """Decomposable weights: sqrt of the sum of squared pairwise distances,
    rounded to the nearest integer. The stack holds the squares, so `mats`
    keeps the distances."""

    family = Family.SQUAREROOT
    _rounds = True

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
    _rounds = True

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
        # with integral factors every product of factors is an exact float64
        # integer too, whatever the order, so a 2-AP's optimal cost is one
        # float (dv_search decides some solves by sorting on this)
        self._bound_sums(all((f == np.trunc(f)).all() for f in self.factors), heaviest)
        # the factors of dimension j in row j, and each row's index, for the swap parts
        self._table = np.stack(self.factors) if self.factors else np.empty((0, 0))
        self._dims = np.arange(self.shape[0])[:, None]

    def batch(self, inst, coords):
        acc = self.factors[0][coords[:, 0]].copy()
        for j in range(1, inst.s):
            acc *= self.factors[j][coords[:, j]]
        return acc

    def grid(self, inst, sets):
        new = _NEW_AXIS[sets[0].ndim]
        acc = self.factors[0][sets[0]]
        for f, x in zip(self.factors[1:], sets[1:]):
            acc = acc[new] * f[x]
        return acc

    def swap_selector(self, sides):
        return _factor_selector(sides)

    def swap_parts(self, vecs, sel):
        # each vector's factor per dimension on the side that reads it, 1.0
        # on the other, so a product of the two sides is that factor exactly
        return np.where(sel, self._table[self._dims, vecs][:, None, :], 1.0)

    def swap_weigh(self, inst, rows, cols):
        # one factor per dimension, multiplied in dimension order, as batch
        # multiplies them
        return np.multiply.reduce(rows * cols, axis=0)

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
        float weight_batch gives it.

        The arrays are all 1-D, or all 2-D of shapes (len(S_j), c) sharing
        a trailing batch axis: c grids weighed at once, of shape
        (len(S_0), ..., len(S_{s-1}), c), column b the grid of the arrays'
        columns b. Raises ValueError on a number of arrays other than s, on
        arrays that mix 1-D and 2-D, on an array of any other number of
        dimensions, and on batch lengths that differ. Every value must lie
        in [0, n); nothing checks it, and other values give undefined
        results, as in weight_batch."""
        sets = [np.asarray(x, dtype=np.int64) for x in sets]
        if len(sets) != self.s:
            raise ValueError(f"need {self.s} value arrays, one per dimension, got {len(sets)}")
        ndims = {x.ndim for x in sets}
        if ndims != {1} and (ndims != {2} or len({x.shape[1] for x in sets}) > 1):
            raise ValueError("value arrays must be all 1-D, or all 2-D with one batch length, "
                             f"got shapes {[x.shape for x in sets]}")
        return self.weights.grid(self, sets)

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
    values = np.asarray(rho)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"rho must hold integers, got dtype {values.dtype}")
    with np.errstate(invalid="ignore"):  # nan and inf cast to values the compare refuses
        rho = values.astype(np.int64)
    if rho.shape != (n,) or not (rho == values).all() or not (np.sort(rho) == np.arange(n)).all():
        raise ValueError("rho is not a permutation of 0..n-1")
    return rho


def apply_dimension_permutation(a: Assignment, dims: Iterable[int], rho: np.ndarray) -> Assignment:
    """Re-permute the listed dimensions jointly by rho.

    The result's vector set is { swap(A^i, A^rho(i), dims) : i }, renormalized
    so that row 0 stays the identity permutation. Raises ValueError for a
    dimension outside 0..s-1.
    """
    rho = _validate_perm(rho, a.n)
    perms = a.perms.copy()
    inside = _swap_sides(a.s, frozenset(dims))
    for j, moved in enumerate(inside):
        if moved:
            perms[j] = perms[j][rho]
    if inside[0]:
        inv = np.empty(a.n, dtype=np.int64)
        inv[perms[0]] = np.arange(a.n)
        perms = perms[:, inv]
    return Assignment(perms)


def swap_weight_matrix(inst: Instance, a: Assignment, dims: Iterable[int]) -> np.ndarray:
    """(n, n) float64 matrix M with M[i, k] = weight(swap(A^i, A^k, dims)):
    the vector of row i with its coordinates in dims taken from row k, the
    float `batch` gives that vector. Raises ValueError for a dimension
    outside 0..s-1."""
    model = inst.weights
    parts = model.swap_parts(a.perms, model.swap_selector((_swap_sides(inst.s, frozenset(dims)),)))
    # each row's outside parts down a column, each column's inside parts along a row
    return model.swap_weigh(inst, parts[0].swapaxes(-1, -2), parts[1])
