"""Local searches: families, fixpoints, oracle certificates, combinations."""

from itertools import permutations, product

import numpy as np
import pytest

from mapls import (
    Assignment,
    Instance,
    apply_dimension_permutation,
    assignment_weight,
    build_family,
    combined,
    dv_search,
    enumerate_neighborhood,
    generate,
    k_opt,
    parse_instance_name,
    perturb,
    solve_ap2,
    swap_weight_matrix,
    trivial,
    v_opt,
)
from mapls.core import row_weights
from mapls.localsearch import DV_VARIANTS, EPS, _swap_masks, make_local_search
from mapls.rng import SplitMix64

from conftest import brute_force_optimum, explicit_instance, random_explicit


# -- subset families ----------------------------------------------------------


def test_family_sdv_3():
    fam = build_family("sdv", 3)
    assert fam.sets == [(0,), (1,), (2,)]


def test_family_2dv_4():
    fam = build_family("2dv", 4)
    assert fam.sets == [(0,), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert len(fam) == 2**3 - 1


def test_family_1dv_5():
    assert build_family("1dv", 5).sets == [(j,) for j in range(5)]


def test_family_counts():
    for s in range(3, 9):
        assert len(build_family("1dv", s)) == s
        expect_2dv = 2 ** (s - 1) - 1 if s in (3, 4) else s * (s - 1) // 2 + s
        assert len(build_family("2dv", s)) == expect_2dv
        assert len(build_family("sdv", s)) == 2 ** (s - 1) - 1


def test_family_no_complements_no_trivial_sets():
    for variant in ("1dv", "2dv", "sdv"):
        for s in range(3, 9):
            fam = build_family(variant, s)
            sets = [frozenset(d) for d in fam.sets]
            full = frozenset(range(s))
            assert frozenset() not in sets and full not in sets
            as_set = set(sets)
            assert len(as_set) == len(sets)
            for d in sets:
                assert frozenset(full - d) not in as_set


# -- dv_search ---------------------------------------------------------------


def test_dv_fixpoint_unchanged():
    vals = np.zeros(27)
    inst = explicit_instance(3, 3, vals)
    a = Assignment.identity(3, 3)
    r = dv_search(inst, a, build_family("sdv", 3))
    assert r.result == a
    assert r.passes == 1
    assert r.final_weight == r.initial_weight == 0.0


def test_dv_single_profitable_relabeling():
    # only re-permuting dimension 2 helps; the result is the global optimum
    vals = np.full(27, 10.0)
    vals[0 * 9 + 1 * 3 + 0] = 1.0
    vals[1 * 9 + 0 * 3 + 1] = 1.0
    vals[2 * 9 + 2 * 3 + 2] = 1.0
    inst = explicit_instance(3, 3, vals)
    r = dv_search(inst, Assignment.identity(3, 3), build_family("1dv", 3))
    assert r.final_weight == 3.0
    assert r.result.perms[1].tolist() == [1, 0, 2]
    assert r.final_weight == brute_force_optimum(inst)
    improving = [
        b for b in enumerate_neighborhood(inst, r.result, "1dv")
        if assignment_weight(inst, b) < r.final_weight - 1e-9
    ]
    assert improving == []


def test_dv_fixpoint_certificate(rng):
    # at termination the 2-AP over every subset's matrix is solved by the
    # current assignment's weight
    inst = random_explicit(3, 5, rng)
    fam = build_family("sdv", 3)
    r = dv_search(inst, Assignment.identity(3, 5), fam)
    for dims in fam.sets:
        _, cost = solve_ap2(swap_weight_matrix(inst, r.result, dims))
        assert cost >= r.final_weight - 1e-9


def test_dv_monotone_and_valid(rng):
    for _ in range(10):
        inst = random_explicit(4, 4, rng)
        for variant in ("1dv", "2dv", "sdv"):
            r = dv_search(inst, Assignment.identity(4, 4), build_family(variant, 4))
            assert r.final_weight <= r.initial_weight + 1e-9
            r.result.validate()
            assert abs(assignment_weight(inst, r.result) - r.final_weight) < 1e-9


# Frozen copy of the dv_search that re-solved a whole clean pass after its
# last commit; it also returns the 0-based solve positions of its commits.
def _reference_dv_search(inst, a, family):
    a = a.copy()
    w = assignment_weight(inst, a)
    passes = ap2_calls = 0
    commits = []
    improved = True
    while improved:
        improved = False
        passes += 1
        for dims in family.sets:
            m = swap_weight_matrix(inst, a, dims)
            sigma, cost = solve_ap2(m)
            ap2_calls += 1
            if cost < w - EPS:
                a = apply_dimension_permutation(a, dims, sigma)
                w = cost
                improved = True
                commits.append(ap2_calls - 1)
    return a, w, passes, ap2_calls, commits


def _assert_dv_matches_reference(inst, seed=0):
    rng = SplitMix64(seed)
    for variant in DV_VARIANTS:
        fam = build_family(variant, inst.s)
        a = trivial(inst)
        opt = _reference_dv_search(inst, a, fam)[0]
        for start in [a] + [perturb(opt, rng) for _ in range(3)]:
            ref, ref_w, _, ref_calls, commits = _reference_dv_search(inst, start, fam)
            r = dv_search(inst, start, fam)
            assert r.result == ref
            assert r.final_weight == ref_w
            assert r.ap2_calls == (commits[-1] if commits else 0) + len(fam) <= ref_calls
            assert r.passes == -(-r.ap2_calls // len(fam))


def test_dv_matches_reference_explicit(rng):
    for s, n in ((3, 6), (4, 5), (5, 4), (6, 3)):
        # non-integer weights
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        _assert_dv_matches_reference(inst, seed=s)
        # few distinct values: many ties in the 2-AP optima
        inst = random_explicit(s, n, rng, lo=0, hi=3)
        _assert_dv_matches_reference(inst, seed=s)


@pytest.mark.parametrize("name", ["3r12", "4gp6", "3c10", "4g6", "3sr10", "5p5"])
def test_dv_matches_reference_generated(name):
    for index in (1, 2):
        _assert_dv_matches_reference(generate(parse_instance_name(name, index)), seed=index)


def test_combined_sdv_vopt_matches_reference():
    inst = generate(parse_instance_name("4r6", 1))
    fam = build_family("sdv", 4)
    start = perturb(trivial(inst), SplitMix64(1))  # dv, v-opt and dv again all improve
    # combined's loop, over the frozen dv_search
    a, w = _reference_dv_search(inst, start, fam)[:2]
    while True:
        x = w
        rv = v_opt(inst, a)
        a, w = rv.result, rv.final_weight
        if w >= x - EPS:
            break
        x = w
        a, w = _reference_dv_search(inst, a, fam)[:2]
        if w >= x - EPS:
            break
    r = combined(inst, start, fam, "vopt")
    assert r.result == a and r.final_weight == w


# -- k-opt -------------------------------------------------------------------


def test_kopt_validates_k():
    inst = explicit_instance(3, 2, np.zeros(8))
    with pytest.raises(ValueError):
        k_opt(inst, Assignment.identity(3, 2), 3)  # k > n
    with pytest.raises(ValueError):
        k_opt(inst, Assignment.identity(3, 2), 4)


def test_kopt_fixpoint_unchanged():
    inst = explicit_instance(3, 3, np.zeros(27))
    a = Assignment.identity(3, 3)
    r = k_opt(inst, a, 2)
    assert r.result == a and r.passes == 1


def test_2opt_local_optimum_certificate(rng):
    for _ in range(10):
        inst = random_explicit(3, 3, rng)
        r = k_opt(inst, Assignment.identity(3, 3), 2)
        w = r.final_weight
        assert all(
            assignment_weight(inst, b) >= w - 1e-9
            for b in enumerate_neighborhood(inst, r.result, "2opt")
        )


def test_3opt_local_optimum_certificate(rng):
    for _ in range(10):
        inst = random_explicit(3, 3, rng)
        r = k_opt(inst, Assignment.identity(3, 3), 3)
        w = r.final_weight
        assert all(
            assignment_weight(inst, b) >= w - 1e-9
            for b in enumerate_neighborhood(inst, r.result, "3opt")
        )


def test_3opt_optimum_is_2opt_optimal(rng):
    # N_2opt is a subset of N_3opt, so a 3-opt local optimum admits no
    # improving pair recombination either (trajectories may still differ)
    for _ in range(8):
        inst = random_explicit(3, 4, rng)
        r = k_opt(inst, Assignment.identity(3, 4), 3)
        assert all(
            assignment_weight(inst, b) >= r.final_weight - 1e-9
            for b in enumerate_neighborhood(inst, r.result, "2opt")
        )


def test_kopt_monotone_and_valid(rng):
    for s, n in ((3, 6), (4, 5), (5, 4)):
        inst = random_explicit(s, n, rng)
        for k in (2, 3):
            r = k_opt(inst, Assignment.identity(s, n), k)
            assert r.final_weight <= r.initial_weight + 1e-9
            r.result.validate()
            assert abs(assignment_weight(inst, r.result) - r.final_weight) < 1e-9


def test_kopt_dirty_seed_restricts_first_sweep(rng):
    # an empty dirty set means nothing changed since the last run: no-op
    inst = random_explicit(3, 5, rng)
    r1 = k_opt(inst, Assignment.identity(3, 5), 2)
    r2 = k_opt(inst, r1.result, 2, dirty=frozenset())
    assert r2.result == r1.result
    assert r2.candidate_evals == 0


def _reference_k_opt(inst, a, k, dirty=None):
    """k_opt as two separate sweeps, frozen: 2-opt screens every pair at once
    from swap-weight matrices, 3-opt screens triples in blocks. Returns
    (result, weight, passes, touched_rows)."""
    n, s = inst.n, inst.s
    a = a.copy()
    w_rows = row_weights(inst, a)
    floor = inst.min_weight_floor()
    examine = np.arange(n) if dirty is None else np.fromiter(sorted(dirty), dtype=np.int64)
    passes = 0
    touched = set()
    while True:
        passes += 1
        changed = (_reference_sweep_2opt if k == 2 else _reference_sweep_3opt)(
            inst, a, w_rows, examine, floor)
        if not changed:
            break
        touched |= changed
        examine = np.fromiter(sorted(changed), dtype=np.int64)
    return a, float(w_rows.sum()), passes, frozenset(touched)


def _reference_sweep_2opt(inst, a, w_rows, examine, floor):
    n, s = inst.n, inst.s
    subsets = [tuple(d for d in range(1, s) if code & (1 << (s - 1 - d)))
               for code in range(1, 2 ** (s - 1))]
    changed = set()
    if len(examine) == 0:
        return changed
    deltas = np.empty((len(subsets), n, n))
    for d_idx, dims in enumerate(subsets):
        m = swap_weight_matrix(inst, a, dims)
        deltas[d_idx] = m + m.T - w_rows[:, None] - w_rows[None, :]
    cand = deltas.min(axis=0) < -EPS
    cand &= np.triu(np.ones((n, n), dtype=bool), 1)
    in_examine = np.zeros(n, dtype=bool)
    in_examine[examine] = True
    cand &= in_examine[:, None] | in_examine[None, :]
    settled = w_rows <= floor + EPS
    cand &= ~(settled[:, None] & settled[None, :])
    for i, j in np.argwhere(cand):
        i, j = int(i), int(j)
        u, v = a.perms[:, i], a.perms[:, j]
        coords = np.empty((len(subsets), 2, s), dtype=np.int64)
        coords[:, 0] = u
        coords[:, 1] = v
        for d_idx, dims in enumerate(subsets):
            for d in dims:
                coords[d_idx, 0, d] = v[d]
                coords[d_idx, 1, d] = u[d]
        w = inst.weight_batch(coords.reshape(-1, s)).reshape(-1, 2)
        totals = w.sum(axis=1)
        r = int(np.argmin(totals))
        if totals[r] - (w_rows[i] + w_rows[j]) < -EPS:
            a.perms[:, i] = coords[r, 0]
            a.perms[:, j] = coords[r, 1]
            w_rows[i], w_rows[j] = w[r, 0], w[r, 1]
            changed.update((i, j))
    return changed


def _reference_triple_totals(inst, a, triples, table):
    s = inst.s
    coords = np.empty((len(triples), len(table), 3, s), dtype=np.int64)
    coords[..., 0] = triples[:, None, :]
    for j in range(1, s):
        coords[..., j] = a.perms[j][triples][:, table[:, j - 1, :]]
    return inst.weight_batch(coords.reshape(-1, s)).reshape(len(triples), len(table), 3).sum(axis=2)


def _reference_sweep_3opt(inst, a, w_rows, examine, floor):
    n, s = inst.n, inst.s
    table = np.array(list(product(permutations(range(3)), repeat=s - 1)), dtype=np.int64)
    changed = set()
    if len(examine) == 0:
        return changed
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    mask = (i < j) & (j < k)
    triples = np.stack([i[mask], j[mask], k[mask]], axis=1).astype(np.int64)
    in_examine = np.zeros(n, dtype=bool)
    in_examine[examine] = True
    keep = in_examine[triples].any(axis=1)
    keep &= ~(w_rows <= floor + EPS)[triples].all(axis=1)
    triples = triples[keep]
    chunk = max(1, 1_200_000 // (len(table) * 3))
    for start in range(0, len(triples), chunk):
        block = triples[start : start + chunk]
        totals = _reference_triple_totals(inst, a, block, table)
        gain = totals.min(axis=1) - w_rows[block].sum(axis=1)
        for t in np.flatnonzero(gain < -EPS):
            rows = block[t]
            totals_t = _reference_triple_totals(inst, a, rows[None, :], table)[0]
            r = int(np.argmin(totals_t))
            if totals_t[r] < w_rows[rows].sum() - EPS:
                old = a.perms[1:, rows].copy()
                for j in range(1, s):
                    a.perms[j, rows] = old[j - 1][table[r, j - 1]]
                w_rows[rows] = inst.weight_batch(a.perms[:, rows].T)
                changed.update(int(x) for x in rows)
    return changed


def _kopt_starts(inst, k, seed):
    """(start, dirty) pairs: the trivial assignment, then three perturbed
    k-opt local optima, each with and without the rows the perturbation
    changed as the dirty set."""
    a = trivial(inst)
    yield a, None
    rng = SplitMix64(seed)
    opt = _reference_k_opt(inst, a, k)[0]
    for _ in range(3):
        b = perturb(opt, rng)
        yield b, None
        yield b, frozenset(np.flatnonzero((b.perms != opt.perms).any(axis=0)).tolist())


def _assert_kopt_matches_reference(inst, seed=0, ks=(2, 3)):
    for k in ks:
        for a, dirty in _kopt_starts(inst, k, seed):
            ref, ref_w, ref_passes, ref_touched = _reference_k_opt(inst, a, k, dirty)
            r = k_opt(inst, a, k, dirty)
            assert r.result == ref
            assert r.final_weight == ref_w
            assert r.passes == ref_passes
            assert r.touched_rows == ref_touched


def test_kopt_matches_reference_explicit(rng):
    for s, n in ((3, 6), (4, 5), (5, 4), (6, 3)):
        # non-integer weights
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        _assert_kopt_matches_reference(inst, seed=s)
        # few distinct values: many ties in the argmin and the gain tests
        inst = random_explicit(s, n, rng, lo=0, hi=3)
        _assert_kopt_matches_reference(inst, seed=s)


@pytest.mark.parametrize("name", ["3r12", "3gp12", "4c6", "3g10", "3sr10", "3p10", "5sr5"])
def test_kopt_matches_reference_generated(name):
    for index in (1, 2):
        _assert_kopt_matches_reference(generate(parse_instance_name(name, index)), seed=index)


# -- v-opt -------------------------------------------------------------------


def test_vopt_swap_set_sizes():
    # improved at s=3: floor(3/2)=1, so candidates are {}, {1}, {2}, {3}
    assert _swap_masks(3, 1).shape == (4, 3)
    assert _swap_masks(3, 3 // 2).shape == (4, 3)
    # improved at s=5: sizes 0..2
    assert _swap_masks(5, 2).shape == (1 + 5 + 10, 5)


def test_vopt_natural_equals_improved_for_s3(rng):
    for _ in range(5):
        inst = random_explicit(3, 4, rng)
        a = Assignment.identity(3, 4)
        assert (
            v_opt(inst, a, "natural").final_weight
            == v_opt(inst, a, "improved").final_weight
        )


def test_vopt_fixpoint_unchanged():
    inst = explicit_instance(3, 3, np.zeros(27))
    a = Assignment.identity(3, 3)
    r = v_opt(inst, a, "improved")
    assert r.result == a


def test_vopt_monotone_and_valid(rng):
    for s, n in ((3, 5), (4, 4), (5, 3), (6, 3)):
        inst = random_explicit(s, n, rng)
        for variant in ("natural", "improved"):
            r = v_opt(inst, Assignment.identity(s, n), variant)
            assert r.final_weight <= r.initial_weight + 1e-9
            r.result.validate()
            assert abs(assignment_weight(inst, r.result) - r.final_weight) < 1e-9


def _reference_v_opt(inst, a, variant="improved"):
    """v_opt without its skip rules, frozen: every start grows its chain
    until the accumulated gain runs out. Returns (result, weight, passes)."""
    s, n = inst.s, inst.n
    masks = _swap_masks(s, 1 if variant == "natural" else s // 2)
    a = a.copy()
    w_rows = row_weights(inst, a)
    total = float(w_rows.sum())
    passes = 0
    run_improved = True
    while run_improved:
        passes += 1
        run_start = total
        for c0 in range(n):
            best_perms = a.perms.copy()
            best_rows = w_rows.copy()
            best_total = total
            avail = np.ones(n, dtype=bool)
            avail[c0] = False
            c_row = c0
            gain = 0.0
            while avail.any():
                c_vec = a.perms[:, c_row]
                rows = np.flatnonzero(avail)
                m_coords = a.perms[:, rows].T
                cand = np.where(masks[None, :, :], m_coords[:, None, :], c_vec[None, None, :])
                w = inst.weight_batch(cand.reshape(-1, s)).reshape(len(rows), -1)
                per_row = w.min(axis=1)
                mi = int(np.argmin(per_row))
                di = int(np.argmin(w[mi]))
                m_row = int(rows[mi])
                v = cand[mi, di]
                w_v = float(w[mi, di])
                gain += float(w_rows[c_row]) - w_v
                if gain <= EPS:
                    break
                m_vec = a.perms[:, m_row]
                v_bar = np.where(v == c_vec, m_vec, c_vec)
                avail[m_row] = False
                w_vbar = float(inst.weight_batch(v_bar[None, :])[0])
                total += w_v + w_vbar - float(w_rows[c_row]) - float(w_rows[m_row])
                a.perms[:, v[0]] = v
                a.perms[:, v_bar[0]] = v_bar
                w_rows[v[0]] = w_v
                w_rows[v_bar[0]] = w_vbar
                c_row = int(v_bar[0])
                if total < best_total - EPS:
                    best_perms = a.perms.copy()
                    best_rows = w_rows.copy()
                    best_total = total
            a.perms[:] = best_perms
            w_rows[:] = best_rows
            total = best_total
        run_improved = total < run_start - EPS
    return a, total, passes


def _vopt_starts(inst, variant, seed):
    """The trivial assignment, then perturbed v-opt local optima: the starts
    where most chains die at once and the skip rules fire."""
    a = trivial(inst)
    yield a
    rng = SplitMix64(seed)
    opt = _reference_v_opt(inst, a, variant)[0]
    for _ in range(3):
        yield perturb(opt, rng)


def _assert_vopt_matches_reference(inst, seed=0):
    for variant in ("natural", "improved"):
        for a in _vopt_starts(inst, variant, seed):
            ref, _, ref_passes = _reference_v_opt(inst, a, variant)
            r = v_opt(inst, a, variant)
            assert r.result == ref
            assert r.final_weight == assignment_weight(inst, ref)
            assert r.passes == ref_passes


def test_vopt_matches_reference_explicit(rng):
    for s, n in ((3, 6), (4, 5), (5, 4), (6, 3)):
        # non-integer weights
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
        _assert_vopt_matches_reference(inst, seed=s)
        # few distinct values: many ties in the argmin and the gain tests
        inst = random_explicit(s, n, rng, lo=0, hi=3)
        _assert_vopt_matches_reference(inst, seed=s)


@pytest.mark.parametrize("name", ["3r12", "4r7", "3gp12", "4gp6", "3c10", "4c6",
                                  "3g10", "4g6", "3sr10", "5sr5"])
def test_vopt_matches_reference_generated(name):
    for index in (1, 2):
        _assert_vopt_matches_reference(generate(parse_instance_name(name, index)), seed=index)


def _hidden_assignment_instances(rng):
    """(instance, hidden) pairs at 3x8 and 4x6: a cheap hidden assignment
    among expensive non-integer vectors."""
    for s, n in ((3, 8), (4, 6)):
        vals = rng.uniform(50.0, 60.0, size=n**s)
        hidden = Assignment(np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)]))
        vals[hidden.perms.T @ (n ** np.arange(s - 1, -1, -1))] = 1.0 + 0.5 * np.arange(n)
        yield explicit_instance(s, n, vals), hidden


def test_vopt_rerun_on_own_result_runs_no_chain(rng):
    # v-opt finds the hidden assignment, and from there every start fails
    # the dead-start test, so a second run evaluates the pair-minimum table
    # and nothing else
    for inst, hidden in _hidden_assignment_instances(rng):
        s, n = inst.s, inst.n
        r1 = v_opt(inst, trivial(inst))
        assert r1.result == hidden
        r2 = v_opt(inst, r1.result)
        assert r2.result == hidden and r2.passes == 1
        assert r2.candidate_evals == n * n * len(_swap_masks(s, s // 2))


def test_vopt_final_weight_is_exact(rng):
    # the chain's running total drifts on non-integer weights; the reported
    # weight must be the weight of the returned assignment
    for inst, _ in _hidden_assignment_instances(rng):
        r = v_opt(inst, trivial(inst))
        assert r.final_weight == assignment_weight(inst, r.result)


def test_vopt_batches_once_per_chain_step(monkeypatch):
    # w(v-bar) is read from the next step's empty-swap column, so a one-row
    # weight_batch call is made only after a chain's batch over its last
    # available row (the |masks| candidates of that row), once per chain
    inst = generate(parse_instance_name("5r8", 1))
    n_masks = len(_swap_masks(inst.s, inst.s // 2))
    sizes = []
    weight_batch = Instance.weight_batch

    def counting(self, coords):
        sizes.append(len(coords))
        return weight_batch(self, coords)

    monkeypatch.setattr(Instance, "weight_batch", counting)
    r = v_opt(inst, trivial(inst))
    one_row = [i for i, m in enumerate(sizes) if m == 1]
    assert r.final_weight < r.initial_weight
    assert one_row, "no chain ran out of rows: pick an instance with longer chains"
    assert all(sizes[i - 1] == n_masks for i in one_row)
    assert len(one_row) <= r.passes * inst.n


def test_vopt_requires_n_at_least_two():
    inst = explicit_instance(3, 1, [1.0])
    with pytest.raises(ValueError):
        v_opt(inst, Assignment.identity(3, 1))


# -- combined ----------------------------------------------------------------


def test_combined_rejects_sdv_2opt():
    inst = explicit_instance(3, 3, np.zeros(27))
    with pytest.raises(ValueError):
        combined(inst, Assignment.identity(3, 3), build_family("sdv", 3), "2opt")


def test_combined_fixpoint_one_round():
    inst = explicit_instance(3, 3, np.zeros(27))
    a = Assignment.identity(3, 3)
    r = combined(inst, a, build_family("sdv", 3), "3opt")
    assert r.result == a and r.final_weight == 0.0


def test_combined_beats_components(rng):
    fam = build_family("sdv", 3)
    for _ in range(10):
        inst = random_explicit(3, 3, rng)
        a = Assignment.identity(3, 3)
        wc = combined(inst, a, fam, "3opt").final_weight
        assert wc <= dv_search(inst, a, fam).final_weight + 1e-9
        assert wc <= k_opt(inst, a, 3).final_weight + 1e-9


def test_combined_result_is_bilateral_local_optimum(rng):
    fam = build_family("sdv", 3)
    for _ in range(5):
        inst = random_explicit(3, 4, rng)
        r = combined(inst, Assignment.identity(3, 4), fam, "3opt")
        w = r.final_weight
        for kind in ("sdv", "3opt"):
            assert all(
                assignment_weight(inst, b) >= w - 1e-9
                for b in enumerate_neighborhood(inst, r.result, kind)
            )


def test_combined_with_vopt_monotone(rng):
    fam = build_family("sdv", 4)
    inst = random_explicit(4, 4, rng)
    r = combined(inst, Assignment.identity(4, 4), fam, "vopt")
    assert r.final_weight <= r.initial_weight
    r.result.validate()


# -- enumeration oracle -------------------------------------------------------


def test_enumeration_sizes_small():
    rng = np.random.default_rng(3)
    inst = random_explicit(3, 3, rng)
    a = Assignment.identity(3, 3)
    assert len(enumerate_neighborhood(inst, a, "1dv")) == 16
    assert len(enumerate_neighborhood(inst, a, "2opt")) == 10
    assert len(enumerate_neighborhood(inst, a, "3opt")) == 36


def test_enumeration_guard():
    rng = np.random.default_rng(3)
    inst = random_explicit(3, 6, rng)
    with pytest.raises(ValueError):
        enumerate_neighborhood(inst, Assignment.identity(3, 6), "1dv")


def test_enumeration_containment(rng):
    inst = random_explicit(4, 3, rng)
    a = Assignment.identity(4, 3)
    e1 = enumerate_neighborhood(inst, a, "1dv")
    e2 = enumerate_neighborhood(inst, a, "2dv")
    es = enumerate_neighborhood(inst, a, "sdv")
    assert e1 <= e2 <= es
    assert a in e1


def test_make_local_search_names():
    ls = make_local_search("none", 3)
    inst = explicit_instance(3, 2, np.arange(8.0))
    a = Assignment.identity(3, 2)
    r = ls(inst, a)
    assert r.result == a and r.passes == 0
    with pytest.raises(ValueError):
        make_local_search("sdv+2opt", 3)
    with pytest.raises(ValueError):
        make_local_search("bogus", 3)
