"""Neighborhood-based improvement heuristics.

Three families:

* dimensionwise (``dv_search``): re-permute a subset of dimensions jointly,
  the optimal re-permutation found exactly by one 2-AP solve per subset;
* vectorwise (``k_opt``, ``v_opt``): recombine coordinates inside a small
  set of vectors, exhaustively for k-opt, along a variable-depth chain for
  v-opt. 2-opt and 3-opt are one sweep over one table of k-row
  recombinations: a block of row subsets is screened on the assignment as it
  stands when the block starts, then each screened subset is re-verified on
  the live assignment and committed. A subset whose rows no commit has
  touched since it was weighed is decided from the weights in hand; stale
  ones are re-weighed together, a segment of them per weight call. Later
  blocks see earlier commits, so the block boundaries are part of the
  search trajectory. All recombinations of a k-subset draw their rows from
  k^s distinct vectors, and those are weighed once per subset. A block is
  screened a fixed-size chunk of subsets at a time, every chunk on the
  assignment at the block's start, so the screen's memory does not grow
  with the block. Handed its one hint, a known k-opt local optimum (the
  chained `2opt`/`3opt` callable passes its previous result, ``combined`` a
  later k-opt phase the previous phase's), the first sweep screens only the
  subsets holding a row changed since that optimum, and `candidate_evals`
  counts only the subsets screened or re-verified. Every skip is exact;
* ``combined``: alternate a dimensionwise and a vectorwise search until the
  assignment is a local optimum of both.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, count, permutations, product as iter_product
from math import comb

import numpy as np

from .ap2 import solve_ap2
from .core import (
    Assignment,
    Instance,
    apply_dimension_permutation,
    assignment_weight,
    row_weights,
    swap_weight_matrix,
)

EPS = 1e-9
# recombination rows (the identity's included) per k-opt trajectory block,
# and nothing else: a block is screened on the assignment at its start, so
# this size decides which screens see which commits and so the results
_BATCH_ROWS = 1_200_000
# recombination rows per k-opt screen chunk and candidate vectors per v-opt
# table block. It bounds the screen's per-thread buffers (1.55 MB for 3-opt
# at s = 3 to 5) whatever the block size, and no result depends on it.
# Smaller chunks pay numpy's per-call overhead more often: on a 2-vCPU VM,
# chained 3-opt calls on 3c50, 4c15 and 3r40 took 0.90-0.98x the time of
# whole-block screens at 2^16 to 2^18 rows a chunk, and 1.7-2.0x at 2^13
_CHUNK_ROWS = 1 << 17

DV_VARIANTS = ("1dv", "2dv", "sdv")
V_VARIANTS = ("natural", "improved")
VECTORWISE = ("2opt", "3opt", "vopt")


@lru_cache(maxsize=64)
def build_family(variant: str, s: int) -> tuple[tuple[int, ...], ...]:
    """Dimension subsets a DV variant sweeps on s dimensions, in sweep order.

    1dv: the s singletons. 2dv: singletons then pairs, except that for s=3
    pairs collapse onto singleton complements and are dropped, and for s=4
    only the three pairs avoiding dimension 1 survive complementation. sdv:
    all sizes up to floor(s/2); for even s only the size-s/2 subsets
    avoiding dimension 1 (one of each complement pair).
    """
    if s < 3:
        raise ValueError("s must be >= 3")
    if variant not in DV_VARIANTS:
        raise ValueError(f"unknown DV variant {variant!r}")
    singles = [(j,) for j in range(s)]
    if variant == "1dv":
        sets = singles
    elif variant == "2dv":
        if s == 3:
            sets = singles
        elif s == 4:
            sets = singles + [(1, 2), (1, 3), (2, 3)]
        else:
            sets = singles + list(combinations(range(s), 2))
    else:
        sets = []
        for size in range(1, s // 2 + 1):
            if s % 2 == 0 and size == s // 2:
                sets.extend(combinations(range(1, s), size))
            else:
                sets.extend(combinations(range(s), size))
    return tuple(sets)


@dataclass
class LocalSearchReport:
    """Outcome of one local search run."""

    result: Assignment
    initial_weight: float
    final_weight: float
    passes: int
    ap2_calls: int
    candidate_evals: int
    elapsed: float


def _report(result, w0, w1, passes, ap2, evals, t0) -> LocalSearchReport:
    return LocalSearchReport(
        result, float(w0), float(w1), passes, ap2, evals, time.perf_counter() - t0
    )


def dv_search(inst: Instance, a: Assignment, variant: str) -> LocalSearchReport:
    """Sweep the DV `variant`'s subset family on the instance's s
    (`build_family(variant, inst.s)`) cyclically, applying each strictly
    improving 2-AP relabeling, until every subset is known to leave the
    assignment unchanged.

    A committed subset is not re-solved: every re-permutation of its
    dimensions from the new assignment stays in the orbit whose optimum the
    new assignment already is. So the search stops once the |F| - 1 other
    subsets have been solved without a commit (|F| clean solves when nothing
    ever commits), and makes (position of the last commit in the solve
    sequence, 0-based) + |F| solves. `passes` counts the sweeps begun.
    """
    t0 = time.perf_counter()
    a = a.copy()
    w0 = w = assignment_weight(inst, a)
    sets = build_family(variant, inst.s)
    ap2_calls = evals = 0
    clean = 0  # subsets known to leave the current assignment unchanged
    while clean < len(sets):
        dims = sets[ap2_calls % len(sets)]
        m = swap_weight_matrix(inst, a, dims)
        evals += m.size
        sigma, cost = solve_ap2(m)
        ap2_calls += 1
        if cost < w - EPS:
            a = apply_dimension_permutation(a, dims, sigma)
            w = cost
            clean = 1
        else:
            clean += 1
    passes = -(-ap2_calls // len(sets))
    return _report(a, w0, w, passes, ap2_calls, evals, t0)


# -- k-opt ------------------------------------------------------------------


@lru_cache(maxsize=16)
def _recombinations(s: int, k: int) -> np.ndarray:
    """(R, s-1, k) non-identity recombinations of k rows, R = (k!)^(s-1) - 1,
    in lexicographic (rho_2, ..., rho_s) order: under recombination r the
    dim-j coordinates of the rows become old_coords[table[r, j-1]].
    Read-only: every caller shares the cached array."""
    table = np.array(list(iter_product(permutations(range(k)), repeat=s - 1))[1:], dtype=np.int64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _row_subsets(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) every k-subset of rows, in lexicographic order.
    Read-only: every caller shares the cached array."""
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.int64,
                          count=comb(n, k) * k).reshape(-1, k)
    subsets.flags.writeable = False
    return subsets


def k_opt(
    inst: Instance,
    a: Assignment,
    k: int,
    *,
    local_optimum: Assignment | None = None,
) -> LocalSearchReport:
    """Exhaustive recombination of every k-subset of vectors, k in {2, 3}.

    Both k run one sweep (`_sweep`, block screen then live re-verify) until
    a pass commits nothing; a sweep after the first examines only the
    subsets holding a row the previous sweep changed. Two skip rules, both
    exact: subsets whose vectors all sit at the instance weight floor, and,
    given a `local_optimum` (a k-opt local optimum of the same instance and
    k, such as the result of an earlier call), first-sweep subsets none of
    whose rows is fresh. A row is fresh if its vector differs from the
    optimum's or a commit in an earlier block of the first sweep changed
    it. A subset without a fresh row holds the vectors it held at the
    optimum, where it screened as not improving, so skipping it changes
    nothing. The blocks are cut from the full first-sweep list before the
    filter, so the screens that do run see the same assignments as without
    it: the report equals plain k_opt's but for `candidate_evals` and
    `elapsed`.

    Each screen chunk or re-weigh weighs a subset's k^s distinct vectors
    once and totals every recombination from those weights
    (`_recombination_weights`); a re-verify reuses the weights in hand while
    the subset's rows are unchanged and re-weighs stale subsets a segment
    at a time (see `_sweep`). The chunk size changes no result and no count
    but that of the weight calls. `candidate_evals` counts the recombination
    rows assessed, R*k per subset screened or re-verified with
    R = (k!)^(s-1) - 1, however many weight calls that took; subsets a skip
    rule drops count nothing. The weights actually computed show in the
    traced `core.weight_batch.rows`.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if k > inst.n:
        raise ValueError(f"k = {k} exceeds n = {inst.n}")
    if local_optimum is not None and local_optimum.perms.shape != a.perms.shape:
        raise ValueError("the local optimum must have the assignment's shape")
    t0 = time.perf_counter()
    a = a.copy()
    w_rows = row_weights(inst, a)
    w0 = float(w_rows.sum())
    floor = inst.min_weight_floor()
    fresh = None if local_optimum is None else (a.perms != local_optimum.perms).any(axis=0)
    subsets = _row_subsets(inst.n, k)
    examine = np.ones(inst.n, dtype=bool)
    passes = evals = 0
    while True:
        passes += 1
        examine, n_evals = _sweep(inst, a, w_rows, subsets, examine, floor, fresh)
        fresh = None
        evals += n_evals
        if not examine.any():
            break
    return _report(a, w0, float(w_rows.sum()), passes, 0, evals, t0)


def _sweep(inst, a, w_rows, subsets, examine, floor, fresh):
    """One k-opt pass over the (c, k) subsets of rows, in their order, that
    hold an examined row and a row above the floor. `examine` is a boolean
    per row; returns the changed rows as one too, and the number of weights
    evaluated.

    Each block is screened on the assignment as it stands at the block's
    start. Earlier commits may have touched a screened subset's rows, so it
    is re-verified on the live assignment before its best recombination
    commits. The block size, _BATCH_ROWS // ((R + 1) * k) subsets with R + 1
    counting the identity, is part of the trajectory: it decides which
    screens see which commits. The screen runs _CHUNK_ROWS // ((R + 1) * k)
    subsets at a time, all before the block's first commit, and keeps only
    the cube weights and totals of its candidates (the subsets that screen
    as improving, in block order), so its buffers do not grow with the
    block.

    The re-verify decides the candidates from weights already in hand. Each
    row carries the commit count when it last changed, each candidate the
    commit count when it was weighed. A candidate none of whose rows changed
    since is decided from its weights: a vector's weight does not depend on
    the batch it is weighed in, and the totals run per subset, so they are
    what a one-subset re-verify would compute. At a stale candidate, the
    stale ones among the next `width` candidates are re-weighed in one call
    on the live assignment; `width` doubles, up to a chunk, when no commit
    came since the last re-weigh and halves otherwise. Results are those of
    re-weighing each candidate on its own, weight call by weight call.

    `fresh`, a boolean per row or None, drops from each block the subsets
    without a fresh row; commits mark their rows fresh for later blocks.
    The screen and the re-verify both test `min total - current < -EPS` on
    totals from one helper, so a subset that screens as improving on rows
    nothing has changed since always commits.
    """
    n, s, k = inst.n, inst.s, subsets.shape[1]
    table = _recombinations(s, k)
    index = _cube_tables(s, k)[1]
    # keep the subsets holding an examined row and a row above the floor
    examined = np.zeros(len(subsets), dtype=bool)
    live = np.zeros(len(subsets), dtype=bool)
    above = w_rows > floor + EPS
    for col in subsets.T:
        examined |= examine[col]
        live |= above[col]
    subsets = subsets[examined & live]
    evals = 0
    dims = np.arange(1, s)[:, None]
    step = max(1, _BATCH_ROWS // ((len(table) + 1) * k))
    chunk = max(1, _CHUNK_ROWS // ((len(table) + 1) * k))
    commits = 0
    changed_at = np.zeros(n, dtype=np.int64)  # commits so far when each row last changed
    width = 1
    for lo in range(0, len(subsets), step):
        block = subsets[lo : lo + step]
        if fresh is not None:
            block = block[fresh[block].any(axis=1)]
            if not len(block):
                continue
        # screen chunk by chunk, keeping the candidates' weights and totals
        cands, cubes, sums = [], [], []
        for c0 in range(0, len(block), chunk):
            part = block[c0 : c0 + chunk]
            cube_w, part_totals = _recombination_weights(inst, a, part)
            hit = np.flatnonzero(part_totals.min(axis=0) - w_rows[part].sum(axis=1) < -EPS)
            cands.append(part[hit])
            cubes.append(cube_w[:, hit])
            sums.append(part_totals[:, hit])
        cand = np.concatenate(cands)  # (C, k) rows of each candidate
        w = np.concatenate(cubes, axis=1)  # (k^s, C) cube weights
        totals = np.concatenate(sums, axis=1)  # (R, C)
        evals += (len(block) + len(cand)) * len(table) * k
        weighed = np.full(len(cand), commits)  # commits so far when each candidate was weighed
        last = commits  # commits so far at the screen or the last re-weigh
        for i, rows in enumerate(cand):
            if changed_at[rows].max() > weighed[i]:
                # re-weigh the stale candidates among the next `width` on the live assignment
                width = min(chunk, width * 2) if commits == last else max(1, width // 2)
                last = commits
                seg = np.arange(i, min(i + width, len(cand)))
                seg = seg[changed_at[cand[seg]].max(axis=1) > weighed[seg]]
                w[:, seg], totals[:, seg] = _recombination_weights(inst, a, cand[seg])
                weighed[seg] = commits
            r = int(totals[:, i].argmin())
            if totals[r, i] - w_rows[rows].sum() < -EPS:
                a.perms[1:, rows] = a.perms[dims, rows[table[r]]]
                w_rows[rows] = w[index[:, r], i]
                commits += 1
                changed_at[rows] = commits
                if fresh is not None:
                    fresh[rows] = True
    return changed_at > 0, evals


@lru_cache(maxsize=16)
def _cube_tables(s: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather tables for a k-subset's (k,)*s cube of candidate
    vectors, whose entry (i_0, ..., i_{s-1}) takes its dim-j coordinate
    from row i_j. `picks` (s * k^s,): for dimension j and each entry in C
    order, the row j*k + i_j of the subsets' (s*k, c) coordinates (dim j
    of row i at row j*k + i). `index` (k, R): the entries holding the rows
    of the recombinations in `_recombinations(s, k)`, row m of
    recombination r being the entry (m, table[r, 0, m], ...,
    table[r, s-2, m])."""
    table = _recombinations(s, k)
    rows = np.indices((k,) * s).reshape(s, -1)  # (s, k^s): i_j of each entry
    picks = (rows + k * np.arange(s)[:, None]).ravel()
    index = np.arange(k, dtype=np.int64)
    for j in range(s - 1):
        index = index * k + table[:, j]
    index = np.ascontiguousarray(index.T)
    picks.flags.writeable = index.flags.writeable = False
    return picks, index


# Flat buffers the k-opt screen reuses across chunks, blocks and calls, by
# name: each grows to the largest request so far, bounded by a screen chunk
# (_CHUNK_ROWS recombination rows, or one subset's when that is more), so a
# chunk neither maps nor faults fresh temporaries. Each thread has its own
# set, so concurrent k_opt calls never write into each other's screens.
_WORKSPACE = threading.local()


def _workspace(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A C-contiguous view of `shape` into the named buffer, whose contents
    the next request by that name overwrites."""
    size = int(np.prod(shape))
    buf = getattr(_WORKSPACE, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size, dtype=dtype)
        setattr(_WORKSPACE, name, buf)
    return buf[:size].reshape(shape)


def _recombination_weights(inst, a, subsets) -> tuple[np.ndarray, np.ndarray]:
    """The (k^s, c) weights of the cube vectors of each of the c subsets of
    rows, and the (R, c) totals of every recombination of each subset: the
    one weighing path of the k-opt screen and its re-weighs.

    All recombination rows are drawn from k^s distinct vectors per subset,
    the subset's cube (`_cube_tables`). The cubes' coordinates are laid out
    dimension-major and subset-minor in the `cube` workspace and weighed
    once. The totals are then built by k takes of the weights, one per row
    of a recombination, added as w0 + w1 (+ w2): the order in which numpy
    2.4 sums the last axis of a C-contiguous (c, R, k) array (the tests pin
    this). Every index is in range, so the takes clip, which lets them write
    into the workspace unbuffered. The totals are a view of the `totals`
    workspace, which the next call overwrites; the weights are the call's
    own."""
    s, (c, k) = inst.s, subsets.shape
    picks, index = _cube_tables(s, k)
    vecs = np.take(a.perms, subsets.T, axis=1, out=_workspace("vecs", (s, k, c), np.int64), mode="clip")
    cube = np.take(vecs.reshape(s * k, c), picks, axis=0, out=_workspace("cube", (s * k**s, c), np.int64),
                   mode="clip")
    w = inst.weight_batch(cube.reshape(s, -1).T).reshape(-1, c)  # (k^s, c)
    totals = np.take(w, index[0], axis=0, out=_workspace("totals", (index.shape[1], c)), mode="clip")
    term = _workspace("term", totals.shape)
    for rows in index[1:]:
        totals += np.take(w, rows, axis=0, out=term, mode="clip")
    return w, totals


# -- v-opt ------------------------------------------------------------------


@lru_cache(maxsize=32)
def _swap_masks(s: int, max_size: int) -> np.ndarray:
    """(U, s) boolean masks of dimension subsets with |D| <= max_size,
    ordered by size then lexicographically; row 0 is the empty set.
    Read-only: every caller shares the cached array."""
    subsets = [()]
    for size in range(1, max_size + 1):
        subsets.extend(combinations(range(s), size))
    masks = np.zeros((len(subsets), s), dtype=bool)
    for idx, dims in enumerate(subsets):
        for d in dims:
            masks[idx, d] = True
    masks.flags.writeable = False
    return masks


def _pair_minima(inst: Instance, vecs: np.ndarray, ci: np.ndarray, mi: np.ndarray,
                 masks: np.ndarray) -> np.ndarray:
    """min over D in masks of w(swap(vecs[ci], vecs[mi], D)) for each pair
    (ci[k], mi[k]); vecs is (n, s). Evaluated in blocks of at most
    _CHUNK_ROWS candidate vectors."""
    s, u = inst.s, len(masks)
    out = np.empty(len(ci))
    step = max(1, _CHUNK_ROWS // u)
    for lo in range(0, len(ci), step):
        # mask-major layout: the min over masks reduces along the outer axis
        cand = np.where(masks[:, None, :], vecs[mi[lo : lo + step]], vecs[ci[lo : lo + step]])
        out[lo : lo + step] = inst.weight_batch(cand.reshape(-1, s)).reshape(u, -1).min(axis=0)
    return out


def _refresh_pair_minima(inst, a, pair_min, changed, live, masks) -> int:
    """Recompute, in one batch, the table entries of the live rows that the
    `changed` rows of a can have moved: the whole table row of a changed
    live row, and the changed columns of every other live row. A row is
    live when its weight exceeds the floor by more than EPS; the table rows
    of the others are never read, so they are left stale. Returns the
    number of weights evaluated."""
    n = inst.n
    fresh, kept = np.flatnonzero(changed & live), np.flatnonzero(~changed & live)
    cols = np.flatnonzero(changed)
    ci = np.concatenate([np.repeat(fresh, n), np.repeat(kept, len(cols))])
    mi = np.concatenate([np.tile(np.arange(n), len(fresh)), np.tile(cols, len(kept))])
    pair_min[ci, mi] = _pair_minima(inst, a.perms.T, ci, mi, masks)
    pair_min[fresh, fresh] = np.inf
    return len(ci) * len(masks)


def v_opt(inst: Instance, a: Assignment, variant: str = "improved") -> LocalSearchReport:
    """Variable-depth interchange: from each starting vector, grow a chain of
    minimum-weight swaps while the accumulated gain stays positive, keeping
    the best assignment seen; cycle through the starts until n consecutive
    ones leave the assignment unchanged.

    The cyclic stop is exact: a clean start leaves the state as it found
    it, so once the last change is followed by n clean starts, the rest of
    the reference's final pass would rerun starts that already failed on
    the same assignment. `passes` counts the wraps to start 0, as many as
    the passes of the reference search, which repeats full passes until
    one improves nothing. Two exact skip rules also leave the result, final
    weight and pass count identical to the unskipped search:

    * dead starts: pair_min[c, m] is the least weight row c's vector can
      take by swapping in row m's coordinates on one of the swap masks. A
      start whose weight exceeds its row minimum by no more than EPS fails
      the first-step gain test, so it is skipped. Pair minima are at least
      the instance weight floor, so a start within EPS of the floor is
      dead whatever its table row says: only the live rows, above it, have
      their table rows weighed. After a start that changed the assignment,
      the rows of the changed live rows and the changed columns of the
      other live rows are recomputed.
    * chain cut: rows the chain has left never change again, and the
      current and available rows weigh at least the floor. Once that lower
      bound on every later total reaches the chain's best total (compared
      without EPS, so rounding cannot hide an improving state), the chain
      stops.

    The available rows of a chain are kept compact, in ascending order,
    with their weights and their coordinates on each swap mask; a row that
    leaves shifts the later ones down, so the first minimum is still found
    in row-major order and the chain cut sums the same weights in the same
    order as a fresh gather would. Each chain step is one weight batch: the
    current vector against every swap mask of every available row. Mask 0
    swaps nothing, so the batch also weighs the current vector, which is
    v-bar of the step before; that step's total update and best check
    therefore run after the batch and before the chain cut. Only a chain
    that runs out of available rows weighs its last v-bar on its own.

    candidate_evals counts every weight evaluated: the table entries of
    live rows, each chain step's batch (also the batch of a step the chain
    cut then ends), and the one-vector batch of a chain that runs out of
    rows. The chain compares an incrementally updated total; final_weight
    is the sum of the re-evaluated row weights, so it carries no
    accumulated rounding.
    """
    if variant not in V_VARIANTS:
        raise ValueError(f"unknown v-opt variant {variant!r}")
    if inst.n < 2:
        raise ValueError("v-opt needs n >= 2")
    t0 = time.perf_counter()
    s, n = inst.s, inst.n
    masks = _swap_masks(s, 1 if variant == "natural" else s // 2)
    a = a.copy()
    w_rows = row_weights(inst, a)
    total = float(w_rows.sum())
    w0 = total
    floor = inst.min_weight_floor()
    idx = np.arange(n)
    pair_min = np.full((n, n), np.inf)
    # the first table: every row counts as changed
    evals = _refresh_pair_minima(inst, a, pair_min, np.ones(n, dtype=bool), w_rows - floor > EPS,
                                 masks)
    passes = clean = 0
    c0 = n - 1
    while clean < n:
        c0 = (c0 + 1) % n
        if c0 == 0:
            passes += 1
        w_start = float(w_rows[c0])
        if w_start - floor <= EPS or w_start - float(pair_min[c0].min()) <= EPS:
            clean += 1
            continue  # the first step would not gain: nothing changes
        start_perms = best_perms = a.perms.copy()
        best_rows = w_rows.copy()
        best_total = total
        # the t available rows: ids, weights and coordinates on each mask
        rows = idx[idx != c0]
        w_avail = w_rows[rows]
        m_part = np.where(masks, a.perms.T[rows, None, :], 0)
        t = n - 1
        c_row = c0
        gain = 0.0
        pending = None  # the step taken last, until its w(v-bar) is read
        while True:
            c_vec = a.perms[:, c_row]
            if t:
                cand = m_part[:t] + np.where(masks, 0, c_vec)
                w = inst.weight_batch(cand.reshape(-1, s)).reshape(t, -1)
                evals += w.size
            if pending is not None:
                # c_vec is v-bar; mask 0 swaps nothing, so column 0 holds its weight
                if t:
                    w_vbar = float(w[0, 0])
                else:
                    w_vbar = float(inst.weight_batch(c_vec[None, :])[0])
                    evals += 1
                w_v, p_row, m_row, v_row = pending
                total += w_v + w_vbar - float(w_rows[p_row]) - float(w_rows[m_row])
                w_rows[v_row] = w_v
                w_rows[c_row] = w_vbar
                if total < best_total - EPS:
                    best_perms = a.perms.copy()
                    best_rows = w_rows.copy()
                    best_total = total
            if not t:
                break
            lb = total - float(w_rows[c_row]) - float(w_avail[:t].sum()) + (t + 1) * floor
            if lb >= best_total:
                break
            # the first minimum in row-major order, as min/argmin per row
            mi, di = divmod(int(np.argmin(w)), len(masks))
            w_v = float(w[mi, di])
            gain += float(w_rows[c_row]) - w_v
            if gain <= EPS:
                break
            m_row = int(rows[mi])
            v = cand[mi, di]
            v_bar = np.where(v == c_vec, a.perms[:, m_row], c_vec)
            t -= 1
            rows[mi:t] = rows[mi + 1 : t + 1]
            w_avail[mi:t] = w_avail[mi + 1 : t + 1]
            m_part[mi:t] = m_part[mi + 1 : t + 1]
            pending = (w_v, c_row, m_row, int(v[0]))
            a.perms[:, v[0]] = v
            a.perms[:, v_bar[0]] = v_bar
            c_row = int(v_bar[0])
        # keep the best assignment seen along the chain
        a.perms[:] = best_perms
        w_rows[:] = best_rows
        total = best_total
        if best_perms is start_perms:
            clean += 1
        else:
            clean = 0
            changed = (a.perms != start_perms).any(axis=0)
            evals += _refresh_pair_minima(inst, a, pair_min, changed, w_rows - floor > EPS, masks)
    return _report(a, w0, float(w_rows.sum()), passes, 0, evals, t0)


# -- combined ---------------------------------------------------------------


def combined(
    inst: Instance,
    a: Assignment,
    variant: str,
    vectorwise: str,
    v_variant: str = "improved",
) -> LocalSearchReport:
    """Alternate `dv_search(variant)` and `vectorwise` phases, starting with
    a dimensionwise one, until a phase after the first improves on the
    previous phase's result by no more than EPS.

    The pair (sdv, 2opt) is rejected: the 2-opt neighborhood is contained in
    the sdv one, so the combination adds nothing. The test is by name: at
    s = 3 the three DV families are one, and at s = 4 and 5 2dv's is sdv's,
    yet 1dv+2opt and 2dv+2opt run there. Each k-opt phase after the
    first gets the previous k-opt phase's result as its `local_optimum`.
    """
    if vectorwise not in VECTORWISE:
        raise ValueError(f"unknown vectorwise heuristic {vectorwise!r}")
    if variant == "sdv" and vectorwise == "2opt":
        raise ValueError("the combination sdv+2opt is rejected (no added neighborhood)")
    t0 = time.perf_counter()
    w = np.inf  # the first phase is not compared
    passes = ap2_calls = evals = 0
    optimum = None  # the last k-opt phase's result
    for phase in count():
        if phase % 2 == 0:
            r = dv_search(inst, a, variant)
        elif vectorwise == "vopt":
            r = v_opt(inst, a, v_variant)
        else:
            r = k_opt(inst, a, 2 if vectorwise == "2opt" else 3, local_optimum=optimum)
            optimum = r.result
        if phase == 0:
            w0 = r.initial_weight
        x, a, w = w, r.result, r.final_weight
        passes += r.passes
        ap2_calls += r.ap2_calls
        evals += r.candidate_evals
        if w >= x - EPS:
            break
    return _report(a, w0, w, passes, ap2_calls, evals, t0)


# -- wiring -----------------------------------------------------------------

LS_NAMES = (
    "none", *DV_VARIANTS, *VECTORWISE,
    # combined rejects sdv+2opt
    *(f"{dv}+{vw}" for vw in VECTORWISE for dv in DV_VARIANTS if (dv, vw) != ("sdv", "2opt")),
)


def search_min_n(name: str) -> int:
    """The least n that the search `name` runs on: k-opt recombines k rows
    and v-opt at least two; the dimensionwise searches run at any n."""
    return {"2opt": 2, "3opt": 3, "vopt": 2}.get(name.lower().split("+")[-1], 1)


def _chained_k_opt(k: int):
    """k_opt as a search callable that hands each call the result of its
    previous call on the same instance as a known local optimum, so a chain
    step re-screens only the subsets a perturbation can have changed. It
    keeps a private copy: callers may mutate the results they get."""
    last: tuple[Instance, Assignment] | None = None

    def run(inst, a):
        nonlocal last
        optimum = last[1] if last is not None and last[0] is inst else None
        # looked up in the module at call time, so a wrapper installed there sees every call
        report = k_opt(inst, a, k, local_optimum=optimum)
        last = (inst, report.result.copy())
        return report

    return run


def make_local_search(name: str, s: int, v_variant: str = "improved"):
    """Callable (inst, assignment) -> LocalSearchReport for a CLI-style name.
    `s` is not read: a dimensionwise search takes its family from the
    instance it runs on."""
    name = name.lower()
    if name not in LS_NAMES:
        raise ValueError(f"unknown local search {name!r} (choose from {', '.join(LS_NAMES)})")
    if name == "none":
        def run_none(inst, a):
            t0 = time.perf_counter()
            w = assignment_weight(inst, a)
            return _report(a.copy(), w, w, 0, 0, 0, t0)
        return run_none
    if name in DV_VARIANTS:
        return lambda inst, a: dv_search(inst, a, name)
    if name in ("2opt", "3opt"):
        return _chained_k_opt(2 if name == "2opt" else 3)
    if name == "vopt":
        return lambda inst, a: v_opt(inst, a, v_variant)
    dv_name, vw = name.split("+")
    return lambda inst, a: combined(inst, a, dv_name, vw, v_variant)
