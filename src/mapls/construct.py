"""Construction heuristics: trivial, greedy, max-regret and ROM.

Greedy and max-regret run the same rounds, each scanning the grid of
vectors compatible with the current partial assignment in lexicographic
order, in bounded blocks so that even n^s in the hundreds of millions
stays tractable. ROM's aggregates run on the same block scan, so no
construction weighs more than BLOCK_ROWS vectors per call. A block is a
product of per-dimension value sets, weighed as a grid by
Instance.weight_grid; no coordinate block is built. Ties are always
broken toward the lexicographically smallest vector, which keeps every
heuristic deterministic.
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
    floor = inst.min_weight_floor()

    def pick(sets):
        if isinstance(model, ProductWeights):
            # the compatible minimum factors per dimension; exact shortcut
            return [r[int(np.argmin(f[r]))] for f, r in zip(model.factors, sets)]
        return _min_compatible_vector(inst, sets, floor)

    return _rounds(inst, pick)


def max_regret(inst: Instance) -> Assignment:
    """n rounds; each scores every (dimension, unused value) slot by the gap
    between its best and second-best compatible vectors and commits the best
    vector of the widest-gap slot."""
    return _rounds(inst, lambda sets: _max_regret_pick(inst, sets))


def _max_regret_pick(inst: Instance, sets: list[np.ndarray]) -> np.ndarray:
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
    # argmax takes the first widest gap: the lowest dimension, then value
    j, p = divmod(int(np.argmax(best[..., 1] - best[..., 0])), m)
    slot_sets = list(sets)
    slot_sets[j] = sets[j][p : p + 1]
    return _min_compatible_vector(inst, slot_sets, -np.inf)


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
