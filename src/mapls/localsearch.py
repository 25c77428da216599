"""Neighborhood-based improvement heuristics.

Three families:

* dimensionwise (``dv_search``): re-permute a subset of dimensions jointly,
  the optimal re-permutation found exactly by one 2-AP solve per subset;
* vectorwise (``k_opt``, ``v_opt``): recombine coordinates inside a small
  set of vectors, exhaustively for k-opt, along a variable-depth chain for
  v-opt. 2-opt and 3-opt are one sweep over one table of k-row
  recombinations: a block of row subsets is screened on the assignment as it
  stands when the block starts, then each screened subset is re-verified on
  the live assignment and committed. Later blocks see earlier commits, so
  the block boundaries are part of the search trajectory;
* ``combined``: alternate a dimensionwise and a vectorwise search until the
  assignment is a local optimum of both.

``enumerate_neighborhood`` is the exact (guarded, small-scale) enumeration
oracle used to certify local optimality and cross-check the closed-form
neighborhood cardinalities in analysis.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product as iter_product
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
_BATCH_ROWS = 1_200_000

DV_VARIANTS = ("1dv", "2dv", "sdv")
V_VARIANTS = ("natural", "improved")
VECTORWISE = ("2opt", "3opt", "vopt")


@dataclass
class DimensionSubsetFamily:
    """Ordered dimension subsets swept by a dimensionwise heuristic."""

    variant: str
    s: int
    sets: list[tuple[int, ...]]

    def __len__(self):
        return len(self.sets)


def build_family(variant: str, s: int) -> DimensionSubsetFamily:
    """Subset family for a DV variant, in sweep order.

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
    return DimensionSubsetFamily(variant, s, sets)


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
    touched_rows: frozenset | None = None


def _report(result, w0, w1, passes, ap2, evals, t0, touched=None) -> LocalSearchReport:
    return LocalSearchReport(
        result, float(w0), float(w1), passes, ap2, evals,
        time.perf_counter() - t0, touched,
    )


def dv_search(inst: Instance, a: Assignment, family: DimensionSubsetFamily) -> LocalSearchReport:
    """Sweep the subset family cyclically, applying each strictly improving
    2-AP relabeling, until every subset is known to leave the assignment
    unchanged.

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
    sets = family.sets
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
    dim-j coordinates of the rows become old_coords[table[r, j-1]]."""
    return np.array(list(iter_product(permutations(range(k)), repeat=s - 1))[1:], dtype=np.int64)


def k_opt(
    inst: Instance,
    a: Assignment,
    k: int,
    dirty: frozenset | None = None,
) -> LocalSearchReport:
    """Exhaustive recombination of every k-subset of vectors, k in {2, 3}.

    Both k run one sweep (`_sweep`, block screen then live re-verify) until
    a pass commits nothing. Two skip rules: subsets whose vectors all sit at
    the instance weight floor, and subsets whose vectors are all unchanged
    since their last examination (`dirty` seeds the first sweep with the
    externally-changed rows; None means examine everything).
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if k > inst.n:
        raise ValueError(f"k = {k} exceeds n = {inst.n}")
    t0 = time.perf_counter()
    a = a.copy()
    w_rows = row_weights(inst, a)
    w0 = float(w_rows.sum())
    floor = inst.min_weight_floor()
    examine = np.arange(inst.n) if dirty is None else np.fromiter(sorted(dirty), dtype=np.int64)
    # every k-subset of rows, in lexicographic order
    subsets = np.fromiter(chain.from_iterable(combinations(range(inst.n), k)), dtype=np.int64,
                          count=comb(inst.n, k) * k).reshape(-1, k)
    passes = evals = 0
    touched: set[int] = set()
    while True:
        passes += 1
        changed, n_evals = _sweep(inst, a, w_rows, subsets, examine, floor)
        evals += n_evals
        if not changed:
            break
        touched |= changed
        examine = np.fromiter(sorted(changed), dtype=np.int64)
    return _report(a, w0, float(w_rows.sum()), passes, 0, evals, t0, frozenset(touched))


def _sweep(inst, a, w_rows, subsets, examine, floor):
    """One k-opt pass over the (c, k) subsets of rows, in their order, that
    hold an examined row and a row above the floor; returns the changed rows
    and the number of weights evaluated.

    Each block is screened on the assignment as it stands at the block's
    start. Earlier commits may have touched a screened subset's rows, so it
    is re-verified on the live assignment before its best recombination
    commits. The block size, _BATCH_ROWS // ((R + 1) * k) subsets with R + 1
    counting the identity, is part of the trajectory: it decides which
    screens see which commits.
    """
    if len(examine) == 0:
        return set(), 0
    n, s, k = inst.n, inst.s, subsets.shape[1]
    table = _recombinations(s, k)
    in_examine = np.zeros(n, dtype=bool)
    in_examine[examine] = True
    keep = in_examine[subsets].any(axis=1) & (w_rows[subsets] > floor + EPS).any(axis=1)
    subsets = subsets[keep]
    changed: set[int] = set()
    evals = 0
    dims = np.arange(1, s)[:, None]
    step = max(1, _BATCH_ROWS // ((len(table) + 1) * k))
    for lo in range(0, len(subsets), step):
        block = subsets[lo : lo + step]
        screen = _recombination_weights(inst, a, block, table).sum(axis=2)
        evals += screen.size * k
        gain = screen.min(axis=1) - w_rows[block].sum(axis=1)
        for rows in block[gain < -EPS]:
            w = _recombination_weights(inst, a, rows[None, :], table)[0]
            evals += w.size
            totals = w.sum(axis=1)
            r = int(np.argmin(totals))
            if totals[r] < w_rows[rows].sum() - EPS:
                a.perms[1:, rows] = a.perms[dims, rows[table[r]]]
                w_rows[rows] = w[r]
                changed.update(rows.tolist())
    return changed, evals


def _recombination_weights(inst, a, subsets, table) -> np.ndarray:
    """(c, R, k) weights of every row of every recombination of each of the
    c subsets of rows."""
    s, (c, k), big_r = inst.s, subsets.shape, len(table)
    coords = np.empty((c, big_r, k, s), dtype=np.int64)
    coords[..., 0] = subsets[:, None, :]
    for j in range(1, s):
        coords[..., j] = a.perms[j][subsets][:, table[:, j - 1]]
    return inst.weight_batch(coords.reshape(-1, s)).reshape(c, big_r, k)


# -- v-opt ------------------------------------------------------------------


@lru_cache(maxsize=32)
def _swap_masks(s: int, max_size: int) -> np.ndarray:
    """(U, s) boolean masks of dimension subsets with |D| <= max_size,
    ordered by size then lexicographically; row 0 is the empty set."""
    subsets = [()]
    for size in range(1, max_size + 1):
        subsets.extend(combinations(range(s), size))
    masks = np.zeros((len(subsets), s), dtype=bool)
    for idx, dims in enumerate(subsets):
        for d in dims:
            masks[idx, d] = True
    return masks


def _pair_minima(inst: Instance, vecs: np.ndarray, ci: np.ndarray, mi: np.ndarray,
                 masks: np.ndarray) -> np.ndarray:
    """min over D in masks of w(swap(vecs[ci], vecs[mi], D)) for each pair
    (ci[k], mi[k]); vecs is (n, s). Evaluated in blocks of at most
    _BATCH_ROWS candidate vectors."""
    s, u = inst.s, len(masks)
    out = np.empty(len(ci))
    step = max(1, _BATCH_ROWS // u)
    for lo in range(0, len(ci), step):
        # mask-major layout: the min over masks reduces along the outer axis
        cand = np.where(masks[:, None, :], vecs[mi[lo : lo + step]], vecs[ci[lo : lo + step]])
        out[lo : lo + step] = inst.weight_batch(cand.reshape(-1, s)).reshape(u, -1).min(axis=0)
    return out


def _refresh_pair_minima(inst, a, pair_min, old_perms, masks) -> int:
    """Recompute, in one batch, the table rows and columns of the rows of a
    that differ from old_perms; returns the number of weights evaluated."""
    n = inst.n
    same = (a.perms == old_perms).all(axis=0)
    changed, others = np.flatnonzero(~same), np.flatnonzero(same)
    k = len(changed)
    # rows: changed x all; columns: unchanged x changed
    ci = np.concatenate([np.repeat(changed, n), np.repeat(others, k)])
    mi = np.concatenate([np.tile(np.arange(n), k), np.tile(changed, len(others))])
    pair_min[ci, mi] = _pair_minima(inst, a.perms.T, ci, mi, masks)
    pair_min[changed, changed] = np.inf
    return len(ci) * len(masks)


def v_opt(inst: Instance, a: Assignment, variant: str = "improved") -> LocalSearchReport:
    """Variable-depth interchange: from each starting vector, grow a chain of
    minimum-weight swaps while the accumulated gain stays positive, keeping
    the best assignment seen; repeat until a full run improves nothing.

    Two exact skip rules leave the result, final weight and pass count
    identical to the unskipped search:

    * dead starts: pair_min[c, m] is the least weight row c's vector can
      take by swapping in row m's coordinates on one of the swap masks. A
      start whose weight exceeds its row minimum by no more than EPS fails
      the first-step gain test, so it is skipped. After a start that
      changed the assignment, the table rows and columns of the changed
      rows are recomputed.
    * chain cut: rows the chain has left never change again, and the
      current and available rows weigh at least the instance weight floor.
      Once that lower bound on every later total reaches the chain's best
      total (compared without EPS, so rounding cannot hide an improving
      state), the chain stops.

    Each chain step is one weight batch: the current vector against every
    swap mask of every available row. Mask 0 swaps nothing, so the batch
    also weighs the current vector, which is v-bar of the step before; that
    step's total update and best check therefore run after the batch and
    before the chain cut. Only a chain that runs out of available rows
    weighs its last v-bar on its own.

    candidate_evals counts every weight evaluated: the table's, each chain
    step's batch (also the batch of a step the chain cut then ends), and
    the one-vector batch of a chain that runs out of rows. The chain
    compares an incrementally updated total; final_weight is the sum of the
    re-evaluated row weights, so it carries no accumulated rounding.
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
    pair_min = _pair_minima(inst, a.perms.T, np.repeat(idx, n), np.tile(idx, n), masks)
    pair_min = pair_min.reshape(n, n)
    pair_min[idx, idx] = np.inf
    evals = n * n * len(masks)
    passes = 0

    run_improved = True
    while run_improved:
        passes += 1
        run_start = total
        for c0 in range(n):
            if float(w_rows[c0]) - float(pair_min[c0].min()) <= EPS:
                continue  # the first step would not gain: nothing changes
            start_perms = best_perms = a.perms.copy()
            best_rows = w_rows.copy()
            best_total = total
            avail = np.ones(n, dtype=bool)
            avail[c0] = False
            c_row = c0
            gain = 0.0
            pending = None  # the step taken last, until its w(v-bar) is read
            while True:
                rows = np.flatnonzero(avail)
                c_vec = a.perms[:, c_row]
                if len(rows):
                    m_coords = a.perms[:, rows].T  # (t, s)
                    cand = np.where(masks[None, :, :], m_coords[:, None, :], c_vec[None, None, :])
                    w = inst.weight_batch(cand.reshape(-1, s)).reshape(len(rows), -1)
                    evals += w.size
                if pending is not None:
                    # c_vec is v-bar; mask 0 swaps nothing, so column 0 holds its weight
                    if len(rows):
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
                if not len(rows):
                    break
                lb = (total - float(w_rows[c_row]) - float(w_rows[rows].sum())
                      + (len(rows) + 1) * floor)
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
                avail[m_row] = False
                pending = (w_v, c_row, m_row, int(v[0]))
                a.perms[:, v[0]] = v
                a.perms[:, v_bar[0]] = v_bar
                c_row = int(v_bar[0])
            # keep the best assignment seen along the chain
            a.perms[:] = best_perms
            w_rows[:] = best_rows
            total = best_total
            if best_perms is not start_perms:
                evals += _refresh_pair_minima(inst, a, pair_min, start_perms, masks)
        run_improved = total < run_start - EPS
    return _report(a, w0, float(w_rows.sum()), passes, 0, evals, t0)


# -- combined ---------------------------------------------------------------


def combined(
    inst: Instance,
    a: Assignment,
    family: DimensionSubsetFamily,
    vectorwise: str,
    v_variant: str = "improved",
) -> LocalSearchReport:
    """Alternate dimensionwise and vectorwise phases until neither improves.

    The pair (sdv, 2opt) is rejected: the 2-opt neighborhood is contained in
    the sdv one, so the combination adds nothing.
    """
    if vectorwise not in VECTORWISE:
        raise ValueError(f"unknown vectorwise heuristic {vectorwise!r}")
    if family.variant == "sdv" and vectorwise == "2opt":
        raise ValueError("the combination sdv+2opt is rejected (no added neighborhood)")
    t0 = time.perf_counter()
    r = dv_search(inst, a, family)
    a, w = r.result, r.final_weight
    w0 = r.initial_weight
    passes, ap2_calls, evals = r.passes, r.ap2_calls, r.candidate_evals
    dv_changed: frozenset | None = None  # None: vectorwise never ran yet
    while True:
        x = w
        if vectorwise == "vopt":
            rv = v_opt(inst, a, v_variant)
        else:
            rv = k_opt(inst, a, 2 if vectorwise == "2opt" else 3, dirty=dv_changed)
        a, w = rv.result, rv.final_weight
        passes += rv.passes
        evals += rv.candidate_evals
        if w >= x - EPS:
            break
        x = w
        before = a.perms.copy()
        rd = dv_search(inst, a, family)
        a, w = rd.result, rd.final_weight
        passes += rd.passes
        ap2_calls += rd.ap2_calls
        evals += rd.candidate_evals
        dv_changed = frozenset(np.flatnonzero((before != a.perms).any(axis=0)))
        if w >= x - EPS:
            break
    return _report(a, w0, w, passes, ap2_calls, evals, t0)


# -- neighborhood enumeration oracle ----------------------------------------


def enumerate_neighborhood(inst: Instance, a: Assignment, kind: str) -> set[Assignment]:
    """Exact neighborhood as a de-duplicated set of assignments (including
    the center). `kind` is one of 1dv/2dv/sdv/2opt/3opt or a 'dv+opt' union
    like 'sdv+3opt'. Guarded to n <= 5 and s <= 4."""
    if inst.n > 5 or inst.s > 4:
        raise ValueError("enumeration guard exceeded (needs n <= 5 and s <= 4)")
    out: set[Assignment] = set()
    for part in kind.split("+"):
        part = part.strip()
        if part in DV_VARIANTS:
            out |= _enum_dv(inst, a, part)
        elif part in ("2opt", "3opt"):
            out |= _enum_kopt(inst, a, 2 if part == "2opt" else 3)
        else:
            raise ValueError(f"unknown neighborhood kind {part!r}")
    return out


def _enum_dv(inst, a, variant):
    family = build_family(variant, inst.s)
    out = {a.copy()}
    for dims in family.sets:
        for rho in permutations(range(inst.n)):
            out.add(apply_dimension_permutation(a, dims, np.asarray(rho)))
    return out


def _enum_kopt(inst, a, k):
    s, n = inst.s, inst.n
    out = {a.copy()}
    # size-k subsets cover all smaller recombinations; for n < k fall back
    # to the largest available subset size
    k = min(k, n)
    for rows in combinations(range(n), k):
        rows = np.asarray(rows)
        coords = a.perms[:, rows]
        for tup in iter_product(permutations(range(k)), repeat=s - 1):
            b = a.copy()
            for j in range(1, s):
                b.perms[j, rows] = coords[j][np.asarray(tup[j - 1])]
            out.add(b)
    return out


# -- wiring -----------------------------------------------------------------

LS_NAMES = (
    "none",
    "1dv", "2dv", "sdv",
    "2opt", "3opt", "vopt",
    "1dv+2opt", "2dv+2opt",
    "1dv+3opt", "2dv+3opt", "sdv+3opt",
    "1dv+vopt", "2dv+vopt", "sdv+vopt",
)


def make_local_search(name: str, s: int, v_variant: str = "improved"):
    """Callable (inst, assignment) -> LocalSearchReport for a CLI-style name."""
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
        family = build_family(name, s)
        return lambda inst, a: dv_search(inst, a, family)
    if name in ("2opt", "3opt"):
        k = 2 if name == "2opt" else 3
        return lambda inst, a: k_opt(inst, a, k)
    if name == "vopt":
        return lambda inst, a: v_opt(inst, a, v_variant)
    dv_name, vw = name.split("+")
    family = build_family(dv_name, s)
    return lambda inst, a: combined(inst, a, family, vw, v_variant)
