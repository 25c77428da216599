"""Construction heuristics: trivial, greedy, max-regret and ROM.

Greedy and max-regret run the same rounds, each committing one vector
compatible with the partial assignment. On every family but product they
keep per-slot state from round to round and re-weigh only what a commit
invalidated. Greedy keeps each unused dimension-0 value's lightest
compatible vector; max-regret keeps each (dimension, value) slot's list of
lightest vectors. A round only removes vectors, so a kept minimum whose
vector survives the commit is still the minimum, and a list that keeps two
compatible entries still gives its slot's two smallest weights.

Every scan runs over the grid of a slot set in lexicographic order, in
bounded blocks, so that even n^s in the hundreds of millions stays
tractable. ROM's aggregates run on the same block scan, so no construction
weighs more than BLOCK_ROWS vectors per call. A block is a product of
per-dimension value sets, weighed as a grid by Instance.weight_grid; no
coordinate block is built. On product instances greedy's pick,
max-regret's slot gaps and max-regret's commit come in closed form from
the sorted factors and weigh no grid; they give the scan's own floats and
vectors, bit for bit. Ties are always broken toward the lexicographically
smallest vector, which keeps every heuristic deterministic.
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


def _min_compatible_vector(inst: Instance, sets: list[np.ndarray], dims=(0,), k: int = 1,
                           floor: float = -np.inf):
    """The k lightest vectors through every slot of the grid of `sets`, a
    slot being a value sets[j][p] of a dimension j in `dims` (all of one
    length m). Returns their weights, (len(dims), m, k), ascending per slot
    and inf past a slot's last vector, and the vectors, (len(dims), m, k, s).

    A block's weights form a grid over its dims; dimension j's slots read
    theirs off the grid with axis j moved first, one row per slot (a single
    row when the prefix fixes j), and merge them into what earlier blocks
    gave. With k = 1 a slot keeps its lexicographically-first lightest
    vector: blocks run in lexicographic order, a row's argmin is its first,
    and a later block's vector replaces it only when strictly lighter. With
    k > 1 a later block's vector wins a tie instead. Max-regret's lists
    serve weights only, so either rule is exact, and this one keeps the
    lists of the dimensions after the first from all holding vectors
    through dimension 0's first values, which the first commits remove
    together. The scan stops after the first block at which a slot of
    dims[0] attains `floor`; the slots it has not reached keep weight inf."""
    s = len(sets)
    m = len(sets[dims[0]])
    best_w = np.full((len(dims), m, k), np.inf)
    best_v = np.zeros((len(dims), m, k, s), dtype=np.int64)
    for prefix, block in _iter_grid_blocks(sets):
        w = inst.weight_grid(block)
        for i, j in enumerate(dims):
            rest = [d for d in range(s) if d != j]
            rows = w.transpose([j] + rest).reshape(w.shape[j], -1)
            if k == 1:
                col = rows.argmin(axis=1)[:, None]
            elif rows.shape[1] <= k:
                col = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
            else:
                col = np.argpartition(rows, k - 1, axis=1)[:, :k]
            cand_w = rows[np.arange(len(rows))[:, None], col]
            cand_v = np.empty(col.shape + (s,), dtype=np.int64)
            cand_v[..., j] = block[j][:, None]
            for d, pos in zip(rest, np.unravel_index(col, [w.shape[d] for d in rest])):
                cand_v[..., d] = block[d][pos]
            at = slice(prefix[j], prefix[j] + 1) if j < len(prefix) else slice(None)
            bw, bv = best_w[i, at], best_v[i, at]
            if k == 1:
                lighter = cand_w[:, 0] < bw[:, 0]
                bw[lighter], bv[lighter] = cand_w[lighter], cand_v[lighter]
            else:
                # the block's entries go first, so the stable sort gives them the ties
                cand_w = np.concatenate([cand_w, bw], axis=1)
                order = np.argsort(cand_w, axis=1, kind="stable")[:, :k]
                bw[:] = np.take_along_axis(cand_w, order, axis=1)
                bv[:] = np.take_along_axis(np.concatenate([cand_v, bv], axis=1), order[..., None], axis=1)
        if best_w[0, :, 0].min() <= floor:
            break
    return best_w, best_v


def _lightest_vector(inst: Instance, sets: list[np.ndarray]) -> np.ndarray:
    """Lexicographically-first lightest vector of the grid of `sets`: the
    first lightest of the dimension-0 slots' own."""
    w, v = _min_compatible_vector(inst, sets)
    return v[0, int(np.argmin(w[0, :, 0])), 0]


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
    """n rounds, each committing the lexicographically-first lightest
    vector compatible with the partial assignment.

    Every unused dimension-0 value v, a slot, keeps from round to round the
    lexicographically-first lightest compatible vector through v and its
    weight. A commit x removes slot x_0 and makes stale every slot whose
    vector holds one of x_1..x_{s-1}. Every other slot stays exact: a round
    only removes vectors, so a surviving lexicographically-first minimum
    stays one. For the same reason a stale slot's old weight bounds its new
    one from below; a slot not yet weighed has the weight floor as bound.
    The pick is the lowest slot of least exact weight, the grid's
    lexicographically-first minimum, once no stale slot could hold it: none
    has a bound below that weight, or equal to it and a lower value. Until
    then the stale slots that could are re-weighed in ascending order, in
    groups of 1, 2, 4, ... slots of at most BLOCK_ROWS vectors in all; a
    group's scan stops at the first slot that attains the floor. So a round
    ends at a slot at the floor with no stale slot before it.
    """
    model = inst.weights
    if isinstance(model, ProductWeights):
        return _rounds(inst, lambda sets: _product_min_vector(model.factors, sets))
    floor = inst.min_weight_floor()
    slot_w = np.full(inst.n, floor)  # exact where fresh, a lower bound where stale
    slot_v = np.zeros((inst.n, inst.s), dtype=np.int64)
    fresh = np.zeros(inst.n, dtype=bool)

    def pick(sets):
        values = sets[0]
        most = max(1, BLOCK_ROWS // len(values) ** (inst.s - 1))
        group = 1
        while True:
            w, ok = slot_w[values], fresh[values]
            exact = np.where(ok, w, np.inf)
            best = int(np.argmin(exact))
            could = ~ok & (w <= exact[best])
            could[best:] &= w[best:] < exact[best]
            stale = np.flatnonzero(could)
            if not len(stale):
                x = slot_v[values[best]].copy()
                break
            redo = values[stale[:group]]
            gw, gv = _min_compatible_vector(inst, [redo] + sets[1:], floor=floor)
            done = np.isfinite(gw[0, :, 0])
            slot_w[redo[done]], slot_v[redo[done]] = gw[0, done, 0], gv[0, done, 0]
            fresh[redo[done]] = True
            group = min(2 * group, most)
        fresh[(slot_v[:, 1:] == x[1:]).any(axis=1)] = False
        return x

    return _rounds(inst, pick)


def max_regret(inst: Instance) -> Assignment:
    """n rounds; each scores every (dimension, unused value) slot by the gap
    between its best and second-best compatible vectors and commits the
    lexicographically-first lightest vector of the widest-gap slot.

    The slots keep lists of their lightest vectors from round to round
    (_listed_best_two); on product instances the gaps and the commit come
    in closed form."""
    model = inst.weights
    if isinstance(model, ProductWeights):
        best_two = lambda sets: _product_best_two(model.factors, sets)
        commit = lambda sets: _product_min_vector(model.factors, sets)
    else:
        best_two = _listed_best_two(inst)
        commit = lambda sets: _lightest_vector(inst, sets)

    def pick(sets):
        best = best_two(sets)
        # argmax takes the first widest gap: the lowest dimension, then value
        j, p = divmod(int(np.argmax(best[..., 1] - best[..., 0])), len(sets[0]))
        slot_sets = list(sets)
        slot_sets[j] = sets[j][p : p + 1]
        return commit(slot_sets)

    return _rounds(inst, pick)


# entries in a max-regret slot's list of lightest vectors
REGRET_LIST = 16


def _listed_best_two(inst: Instance):
    """Every slot's two smallest compatible weights, (s, m, 2) and inf
    past a slot's last vector, for the successive rounds of one max-regret
    run.

    The first round fills every (dimension, value) slot's list with its
    REGRET_LIST lightest (weight, vector) pairs, in one scan for all
    dimensions. In a later round the entries whose vectors are still
    compatible give the slot's two smallest weights exactly when there are
    two of them: a round only removes vectors, and every vector missing from
    a full list weighs at least its last entry. A list that is not full
    holds its whole slot. So only a full list with fewer than two compatible
    entries is refilled, from its slot's sub-grid, one scan for all such
    slots of a dimension; when those scans would weigh more than half the
    compatible grid, one scan refills every list instead."""
    s, n, k = inst.s, inst.n, REGRET_LIST
    list_w = np.full((s, n, k), np.inf)
    list_v = np.zeros((s, n, k, s), dtype=np.int64)
    filled = False

    def refill(sets, dims):
        w, v = _min_compatible_vector(inst, sets, dims, k)
        for i, j in enumerate(dims):
            list_w[j, sets[j]], list_v[j, sets[j]] = w[i], v[i]

    def listed(sets):
        # the slots' list weights, inf where a vector is no longer
        # compatible, and which lists are full
        rows, values = np.arange(s)[:, None], np.stack(sets)
        alive = np.zeros((s, n), dtype=bool)
        alive[rows, values] = True
        w = list_w[rows, values]
        ok = alive[np.arange(s), list_v[rows, values]].all(axis=-1)
        return np.where(ok, w, np.inf), np.isfinite(w[..., -1])

    def best_two(sets):
        nonlocal filled
        w, full = listed(sets)
        short = full & (np.isfinite(w).sum(axis=-1) < 2)
        if not filled or 2 * short.sum() > len(sets[0]):
            refill(sets, tuple(range(s)))
            filled = True
            w, _ = listed(sets)
        elif short.any():
            for j in np.flatnonzero(short.any(axis=1)):
                refill(sets[:j] + [sets[j][short[j]]] + sets[j + 1 :], (j,))
            w, _ = listed(sets)
        return np.sort(w, axis=-1)[..., :2]

    return best_two


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
    """Every slot's two smallest weights, as _listed_best_two gives them,
    in closed form. A slot's lightest vector puts every other dimension at
    its lightest factor. Any other vector through the slot holds some other
    dimension i at a factor no lighter than i's second lightest, so the
    second-lightest weight is the least of those products over i. With one
    value left a slot holds one vector, and its second is inf, as in the
    scan."""
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
