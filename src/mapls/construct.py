"""Construction heuristics: trivial, greedy, max-regret and ROM.

Greedy and max-regret run the same rounds. On every family but product,
each round scans the grid of vectors compatible with the current partial
assignment in lexicographic order, in bounded blocks so that even n^s in
the hundreds of millions stays tractable. ROM's aggregates run on the same
block scan, so no construction weighs more than BLOCK_ROWS vectors per
call. A block is a product of per-dimension value sets, weighed as a grid
by Instance.weight_grid; no coordinate block is built. On product
instances greedy's pick, max-regret's slot gaps and max-regret's commit
come in closed form from the sorted factors and weigh no grid; they give
the scan's own floats and vectors, bit for bit. Ties are always broken
toward the lexicographically smallest vector, which keeps every heuristic
deterministic.
"""

from __future__ import annotations

import numpy as np

from .ap2 import solve_ap2
from .core import Assignment, Instance, ProductWeights

BLOCK_ROWS = 500_000


def trivial(inst: Instance) -> Assignment:
    """Diagonal assignment: every permutation is the identity."""
    return Assignment.identity(inst.s, inst.n)


def _iter_grid_blocks(sets: list[np.ndarray], limit: int = BLOCK_ROWS):
    """Yield (prefix, block) over the cartesian product of `sets` in
    lexicographic order (dim 0 most significant). A block is itself a
    product of value sets, weighed by Instance.weight_grid: the leading dims
    fixed to `prefix`, their positions in sets[:len(prefix)], as one-element
    slices, and the trailing dims over their whole sets, at most `limit`
    vectors in all. No coordinate block is built."""
    s = len(sets)
    sizes = [len(x) for x in sets]
    split = s
    suffix = 1
    while split > 0 and suffix * sizes[split - 1] <= limit:
        split -= 1
        suffix *= sizes[split]
    for prefix in np.ndindex(*sizes[:split]):
        yield prefix, [x[p : p + 1] for x, p in zip(sets, prefix)] + sets[split:]


def _min_compatible_vector(inst: Instance, sets: list[np.ndarray], floor: float):
    """Lexicographically-first minimum-weight vector in the compatible grid,
    stopping early as soon as the instance-wide weight floor is attained."""
    best_w = np.inf
    best = None
    for _, block in _iter_grid_blocks(sets):
        w = inst.weight_grid(block)
        k = int(np.argmin(w))
        if w.flat[k] < best_w:
            best_w = float(w.flat[k])
            best = np.array([x[i] for x, i in zip(block, np.unravel_index(k, w.shape))])
            if best_w <= floor:
                break
    return best


def _rounds(inst: Instance, pick) -> Assignment:
    """n rounds, each committing the vector pick(remaining) and removing its
    values from the per-dimension sets of unused values."""
    remaining = [np.arange(inst.n, dtype=np.int64) for _ in range(inst.s)]
    chosen = np.empty((inst.n, inst.s), dtype=np.int64)
    for t in range(inst.n):
        chosen[t] = pick(remaining)
        remaining = [r[r != v] for r, v in zip(remaining, chosen[t])]
    return Assignment(chosen[np.argsort(chosen[:, 0])].T)


def greedy(inst: Instance) -> Assignment:
    """n rounds, each committing the cheapest vector compatible with the
    partial assignment."""
    model = inst.weights
    if isinstance(model, ProductWeights):
        return _rounds(inst, lambda sets: _product_min_vector(model.factors, sets))
    floor = inst.min_weight_floor()
    return _rounds(inst, lambda sets: _min_compatible_vector(inst, sets, floor))


def max_regret(inst: Instance) -> Assignment:
    """n rounds; each scores every (dimension, unused value) slot by the gap
    between its best and second-best compatible vectors and commits the best
    vector of the widest-gap slot."""
    model = inst.weights
    if isinstance(model, ProductWeights):
        best_two = lambda sets: _product_best_two(model.factors, sets)
        commit = lambda sets: _product_min_vector(model.factors, sets)
    else:
        best_two = lambda sets: _scan_best_two(inst, sets)
        commit = lambda sets: _min_compatible_vector(inst, sets, -np.inf)

    def pick(sets):
        best = best_two(sets)
        # argmax takes the first widest gap: the lowest dimension, then value
        j, p = divmod(int(np.argmax(best[..., 1] - best[..., 0])), len(sets[0]))
        slot_sets = list(sets)
        slot_sets[j] = sets[j][p : p + 1]
        return commit(slot_sets)

    return _rounds(inst, pick)


def _scan_best_two(inst: Instance, sets: list[np.ndarray]) -> np.ndarray:
    """best[j, p] holds the two smallest weights of the vectors through
    value sets[j][p]. A block's weights form an m^(s-k) cube over its tail
    dims, so a tail dim's slots read theirs off one partition along its axis;
    every vector of the block passes through the slots its prefix fixes.
    Each block's two smallest are merged into `best` by a sort of four."""
    s, m = inst.s, len(sets[0])
    best = np.full((s, m, 2), np.inf)
    for prefix, block in _iter_grid_blocks(sets):
        k = len(prefix)
        w = inst.weight_grid(block).reshape((m,) * (s - k))
        for j in range(k, s):
            cand = np.moveaxis(w, j - k, 0).reshape(m, -1)
            cand = np.partition(cand, min(1, cand.shape[1] - 1), axis=1)[:, :2]
            best[j] = np.sort(np.concatenate([best[j], cand], axis=1), axis=1)[:, :2]
        cand = np.partition(w, min(1, w.size - 1), axis=None)[:2]
        for j, p in enumerate(prefix):
            best[j, p] = np.sort(np.concatenate([best[j, p], cand]))[:2]
    return best


# Product shortcuts. Factors are positive and float rounding is monotone, so
# a product computed in dimension order, as ProductWeights.grid does, cannot
# fall when one factor is replaced by a larger one. Each value below is such
# a product of the scan's own factors, hence the scan's own float, bit for
# bit, and ties between rounded products resolve as the scan resolves them.


def _product_min_vector(factors: list[np.ndarray], sets: list[np.ndarray]) -> np.ndarray:
    """Lexicographically-first lightest vector of the product grid of
    `sets`. Dimensions are fixed in order: dimension j takes the first value
    whose product, with the earlier dimensions fixed and the later ones at
    their lightest factor, is the smallest, which is the grid minimum."""
    vals = [f[x] for f, x in zip(factors, sets)]
    lightest = [v.min() for v in vals]
    vec = np.empty(len(sets), dtype=np.int64)
    acc = 1.0
    for j, v in enumerate(vals):
        w = acc * v
        for low in lightest[j + 1 :]:
            w *= low
        p = int(np.argmin(w))
        vec[j] = sets[j][p]
        acc *= v[p]
    return vec


def _product_best_two(factors: list[np.ndarray], sets: list[np.ndarray]) -> np.ndarray:
    """_scan_best_two in closed form. A slot's lightest vector puts every
    other dimension at its lightest factor. Any other vector through the slot
    holds some other dimension i at a factor no lighter than i's second
    lightest, so the second-lightest weight is the least of those products
    over i. With one value left a slot holds one vector, and its second is
    inf, as in the scan."""
    s, m = len(sets), len(sets[0])
    vals = [f[x] for f, x in zip(factors, sets)]
    low = np.array([np.sort(v)[:2] for v in vals])
    # row 0 every dimension's lightest factor, row 1 + i the same with
    # dimension i at its second lightest (its lightest when one value is
    # left, where the seconds are set to inf below)
    rows = np.tile(low[:, 0], (s + 1, 1))
    rows[1 + np.arange(s), np.arange(s)] = low[:, -1]
    best = np.empty((s, m, 2))
    for j in range(s):
        # each row's product with dimension j running over its values
        w = np.ones((s + 1, 1))
        for d in range(s):
            w = w * (vals[j] if d == j else rows[:, d : d + 1])
        best[j, :, 0] = w[0]
        best[j, :, 1] = np.delete(w, [0, 1 + j], axis=0).min(axis=0)
    if m == 1:
        best[..., 1] = np.inf
    return best


def rom(inst: Instance) -> Assignment:
    """Recursive aggregate matching: at each level, pair the chain built so
    far with the next dimension's values by solving a 2-AP over summed
    weights of all completions."""
    s, n = inst.s, inst.n
    perms = np.empty((s, n), dtype=np.int64)
    perms[0] = np.arange(n)
    for level in range(s - 1):
        agg = _rom_aggregate(inst, perms, level)
        sigma, _ = solve_ap2(agg)
        perms[level + 1] = sigma
    return Assignment(perms)


def _rom_aggregate(inst: Instance, perms: np.ndarray, level: int) -> np.ndarray:
    """agg[r, v]: total weight of vectors bound to row r through dimensions
    0..level, with dimension level+1 at value v and later dimensions free.
    A block without a prefix holds row r's whole (v, free) grid; otherwise
    its prefix fixes v and the block adds a partial sum."""
    s, n = inst.s, inst.n
    agg = np.zeros((n, n))
    for r in range(n):
        sets = [perms[m, r : r + 1] for m in range(level + 1)]
        sets += [np.arange(n)] * (s - level - 1)
        for prefix, block in _iter_grid_blocks(sets):
            w = inst.weight_grid(block)
            if prefix:
                agg[r, prefix[level + 1]] += w.sum()
            else:
                agg[r] = w.reshape(n, -1).sum(axis=1)
    return agg
