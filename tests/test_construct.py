"""Construction heuristics: hand traces, validity, determinism."""

from itertools import product as iter_product

import numpy as np
import pytest

from mapls import (
    Assignment,
    Instance,
    ProductWeights,
    assignment_weight,
    generate,
    greedy,
    max_regret,
    parse_instance_name,
    rom,
    trivial,
)

from mapls import construct
from mapls.ap2 import solve_ap2
from conftest import all_vectors, brute_force_optimum, explicit_instance, random_explicit

FAMILY_SAMPLE = ["3r8", "3gp8", "3c8", "3g8", "3p8", "3sr8", "4r5", "5p4", "6r3"]


def test_trivial_all_identity():
    inst = generate(parse_instance_name("5r9", 1))
    a = trivial(inst)
    assert np.array_equal(a.perms, np.tile(np.arange(9), (5, 1)))


def test_trivial_on_diagonal_planted():
    # planted optimum on the diagonal: trivial recovers optimal weight a*n
    from mapls import Instance, Planted

    inst = Instance(Planted(1, 101, Assignment.identity(3, 6)), 1)
    assert assignment_weight(inst, trivial(inst)) == 6.0


def test_n_equals_one_unique_assignment():
    inst = explicit_instance(3, 1, [5.0])
    for heuristic in (trivial, greedy, max_regret, rom):
        a = heuristic(inst)
        assert a.n == 1 and assignment_weight(inst, a) == 5.0


def test_greedy_forced_first_pick():
    # w(0,0,0) = 0 is the unique global minimum
    vals = np.full(8, 50.0)
    vals[0] = 0.0
    inst = explicit_instance(3, 2, vals)
    a = greedy(inst)
    assert (0, 0, 0) in set(map(tuple, a.perms.T))


def test_greedy_adversarial_exceeds_optimum():
    # cheap (0,0,0) forces the expensive disjoint (1,1,1); the optimum avoids both
    vals = np.array([0.0, 1.0, 50.0, 50.0, 50.0, 50.0, 1.0, 100.0])
    inst = explicit_instance(3, 2, vals)
    wg = assignment_weight(inst, greedy(inst))
    assert wg == 100.0
    assert brute_force_optimum(inst) == 2.0
    assert wg > brute_force_optimum(inst)


def test_greedy_first_pick_is_global_min(rng):
    for _ in range(5):
        inst = random_explicit(3, 4, rng)
        a = greedy(inst)
        row_w = inst.weight_batch(a.perms.T)
        assert row_w.min() == inst.weight_batch(all_vectors(3, 4)).min()


def test_max_regret_hand_trace():
    # regret table puts (dim 3, value 2) first with regret 90; its best
    # vector is (1,1,2), leaving (2,2,1); total 0 + 8
    inst = explicit_instance(3, 2, [5.0, 0.0, 7.0, 90.0, 6.0, 95.0, 8.0, 98.0])
    a = max_regret(inst)
    assert set(map(tuple, a.perms.T)) == {(0, 0, 1), (1, 1, 0)}
    assert assignment_weight(inst, a) == 8.0


def test_rom_hand_trace():
    # two-level recursion: level 1 pairs rows with dim-2 values (2,1),
    # level 2 picks dim-3 values (2,1); the result is the optimum here
    inst = explicit_instance(3, 2, [50.0, 2.0, 3.0, 40.0, 5.0, 60.0, 70.0, 8.0])
    a = rom(inst)
    assert set(map(tuple, a.perms.T)) == {(0, 1, 1), (1, 0, 0)}
    assert assignment_weight(inst, a) == 45.0
    assert assignment_weight(inst, a) == brute_force_optimum(inst)


@pytest.mark.parametrize("name", FAMILY_SAMPLE)
def test_all_heuristics_valid_everywhere(name):
    inst = generate(parse_instance_name(name, 1))
    for heuristic in (trivial, greedy, max_regret, rom):
        heuristic(inst).validate()


@pytest.mark.parametrize("name", ["3r8", "3c6", "3p6", "4g4"])
def test_determinism(name):
    inst = generate(parse_instance_name(name, 2))
    for heuristic in (greedy, max_regret, rom):
        assert heuristic(inst) == heuristic(inst)


# factor values whose products round to ties: adjacent doubles and the
# inexact decimals 0.3, 0.7 and 1.1
ROUNDING_TIE_FACTORS = np.array([
    0.3, 0.7, 1.1, 1.0, np.nextafter(1.0, 2.0), np.nextafter(0.7, 1.0), np.nextafter(1.1, 0.0),
])


def _product_instance(case: str) -> Instance:
    """A generated product instance for "name#index"; otherwise "kind-s-n"
    with factors drawn from 1..3 ("int3", tie-heavy) or from
    ROUNDING_TIE_FACTORS ("tie")."""
    if "#" in case:
        name, index = case.split("#")
        return generate(parse_instance_name(name, int(index)))
    kind, s, n = case.split("-")
    rng = np.random.default_rng(list(case.encode()))
    values = np.array([1.0, 2.0, 3.0]) if kind == "int3" else ROUNDING_TIE_FACTORS
    return Instance(ProductWeights([rng.choice(values, int(n)) for _ in range(int(s))]), 0)


PRODUCT_CASES = [
    f"{kind}-{s}-{n}" for kind in ("int3", "tie") for s in range(3, 9) for n in (1, 2, 3, 5)
] + [f"{name}#{index}" for name in ("3p8", "4p20", "5p10", "8p4") for index in (1, 2, 3)]


def _generic_greedy(inst: Instance) -> Assignment:
    # greedy's rounds, each scanning the whole compatible grid for its
    # lexicographically-first lightest vector; no slot state, no floor stop
    return construct._rounds(inst, lambda sets: construct._lightest_vector(inst, sets))


def test_product_fast_path_matches_generic_scan():
    # the closed-form lightest vector agrees with the generic grid scan,
    # round by round, also where float products round to ties
    from mapls.construct import _lightest_vector, _product_min_vector

    argmin_differs = 0
    for case in ["3p7#4"] + [c for c in PRODUCT_CASES if c.startswith("tie")]:
        inst = _product_instance(case)
        factors = inst.weights.factors
        remaining = [np.arange(inst.n, dtype=np.int64) for _ in range(inst.s)]
        while len(remaining[0]):
            fast = _product_min_vector(factors, remaining)
            assert tuple(fast) == tuple(_lightest_vector(inst, remaining)), case
            # the per-dimension argmin, the lightest factor of each dimension,
            # need not be the lexicographically-first lightest vector
            argmin = [r[int(np.argmin(f[r]))] for f, r in zip(factors, remaining)]
            argmin_differs += tuple(argmin) != tuple(fast)
            remaining = [r[r != v] for r, v in zip(remaining, fast)]
    assert argmin_differs  # the cases do hold rounding ties


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_product_constructions_match_generic_scan_and_frozen_reference(case, monkeypatch):
    # greedy against the generic scan (the frozen _ref_greedy keeps the
    # per-dimension argmin), max-regret against the frozen scan reference;
    # the closed forms scan no grid, so the block limit cannot matter
    inst = _product_instance(case)
    want_greedy, want_regret = _generic_greedy(inst).perms, _ref_max_regret(inst).perms
    for limit in (construct.BLOCK_ROWS, 1, 7):
        monkeypatch.setattr(construct._iter_grid_blocks, "__defaults__", (limit,))
        assert np.array_equal(greedy(inst).perms, want_greedy), limit
        assert np.array_equal(max_regret(inst).perms, want_regret), limit


def test_product_best_two_matches_grid_scan():
    # every slot's two lightest weights, bit for bit, on random partial
    # grids of rounding-tie factors, one value left included
    rng = np.random.default_rng(11)
    for _ in range(200):
        s, n = int(rng.integers(3, 7)), int(rng.integers(1, 6))
        inst = Instance(ProductWeights([rng.choice(ROUNDING_TIE_FACTORS, n) for _ in range(s)]), 0)
        m = int(rng.integers(1, n + 1))
        sets = [np.sort(rng.choice(n, m, replace=False)) for _ in range(s)]
        fast = construct._product_best_two(inst.weights.factors, sets)
        scan = construct._min_compatible_vector(inst, sets, tuple(range(s)), 2)[0]
        assert fast.tobytes() == scan.tobytes()


@pytest.mark.parametrize("case", ["3p8#1", "5p10#2", "tie-4-5"])
def test_product_constructions_weigh_nothing(case, monkeypatch):
    # the closed forms cannot fall back to a scan unnoticed
    inst = _product_instance(case)

    def refused(self, arg):
        raise AssertionError("a product construction weighed vectors")

    monkeypatch.setattr(Instance, "weight_grid", refused)
    monkeypatch.setattr(Instance, "weight_batch", refused)
    greedy(inst).validate()
    max_regret(inst).validate()


def test_greedy_beats_trivial_on_random():
    inst = generate(parse_instance_name("3r40", 1))
    assert assignment_weight(inst, greedy(inst)) < assignment_weight(inst, trivial(inst))


# Frozen reference: the scatter-based block scan, greedy, max-regret and the
# row-chunked ROM aggregate that the constructions must reproduce bit for bit
# under every block limit. Bodies are kept verbatim; the names carry a _ref
# prefix.


def _ref_iter_grid_blocks(sets: list[np.ndarray], limit: int = 500_000):
    """Yield (B, s) coordinate blocks of the cartesian product of `sets`,
    in lexicographic order (dim 0 most significant)."""
    s = len(sets)
    sizes = [len(x) for x in sets]
    split = s
    suffix = 1
    while split > 0 and suffix * sizes[split - 1] <= limit:
        split -= 1
        suffix *= sizes[split]
    tail = sets[split:]
    if tail:
        mesh = np.meshgrid(*tail, indexing="ij")
        tail_coords = np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)
    else:
        tail_coords = np.zeros((1, 0), dtype=np.int64)
    rows = len(tail_coords)
    block = np.empty((rows, s), dtype=np.int64)
    block[:, split:] = tail_coords
    for prefix in iter_product(*sets[:split]):
        for j, v in enumerate(prefix):
            block[:, j] = v
        yield block


def _ref_min_compatible_vector(inst: Instance, sets: list[np.ndarray], floor: float):
    """Lexicographically-first minimum-weight vector in the compatible grid,
    stopping early as soon as the instance-wide weight floor is attained."""
    best_w = np.inf
    best = None
    for block in _ref_iter_grid_blocks(sets):
        w = inst.weight_batch(block)
        k = int(np.argmin(w))
        if w[k] < best_w:
            best_w = float(w[k])
            best = block[k].copy()
            if best_w <= floor:
                break
    return best, best_w


def _ref_greedy(inst: Instance) -> Assignment:
    """n rounds, each committing the cheapest vector compatible with the
    partial assignment."""
    s, n = inst.s, inst.n
    model = inst.weights
    remaining = [np.arange(n, dtype=np.int64) for _ in range(s)]
    chosen = np.empty((n, s), dtype=np.int64)
    floor = inst.min_weight_floor()
    for t in range(n):
        if isinstance(model, ProductWeights):
            # the compatible minimum factors per dimension; exact shortcut
            vec = np.empty(s, dtype=np.int64)
            for j in range(s):
                vals = model.factors[j][remaining[j]]
                vec[j] = remaining[j][int(np.argmin(vals))]
        else:
            vec, _ = _ref_min_compatible_vector(inst, remaining, floor)
        chosen[t] = vec
        for j in range(s):
            remaining[j] = remaining[j][remaining[j] != vec[j]]
    return _ref_vectors_to_assignment(chosen)


def _ref_vectors_to_assignment(vectors: np.ndarray) -> Assignment:
    order = np.argsort(vectors[:, 0])
    return Assignment(vectors[order].T)


def _ref_merge_best_two(b1, b2, c1, c2):
    """Per-element two smallest values of the union of (b1, b2) and (c1, c2)."""
    m1 = np.minimum(b1, c1)
    m2 = np.minimum(np.maximum(b1, c1), np.minimum(b2, c2))
    return m1, m2


def _ref_max_regret(inst: Instance) -> Assignment:
    """n rounds; each scores every (dimension, unused value) slot by the gap
    between its best and second-best compatible vectors and commits the best
    vector of the widest-gap slot."""
    s, n = inst.s, inst.n
    remaining = [np.arange(n, dtype=np.int64) for _ in range(s)]
    chosen = np.empty((n, s), dtype=np.int64)
    for t in range(n):
        m = len(remaining[0])
        if m == 1:
            chosen[t] = [r[0] for r in remaining]
        else:
            chosen[t] = _ref_max_regret_round(inst, remaining)
        for j in range(s):
            remaining[j] = remaining[j][remaining[j] != chosen[t][j]]
    return _ref_vectors_to_assignment(chosen)


def _ref_max_regret_round(inst: Instance, sets: list[np.ndarray]) -> np.ndarray:
    s, n = inst.s, inst.n
    best1 = np.full((s, n), np.inf)
    best2 = np.full((s, n), np.inf)
    for block in _ref_iter_grid_blocks(sets):
        w = inst.weight_batch(block)
        for j in range(s):
            cols = block[:, j]
            b1 = np.full(n, np.inf)
            np.minimum.at(b1, cols, w)
            at_min = w == b1[cols]
            cnt = np.zeros(n, dtype=np.int64)
            np.add.at(cnt, cols[at_min], 1)
            b2 = np.where(cnt >= 2, b1, np.inf)
            above = w > b1[cols]
            np.minimum.at(b2, cols[above], w[above])
            best1[j], best2[j] = _ref_merge_best_two(best1[j], best2[j], b1, b2)

    pick_j, pick_v, pick_regret = 0, int(sets[0][0]), -np.inf
    for j in range(s):
        for v in sets[j]:
            regret = best2[j, v] - best1[j, v]
            if regret > pick_regret:
                pick_j, pick_v, pick_regret = j, int(v), regret

    slot_sets = list(sets)
    slot_sets[pick_j] = np.asarray([pick_v], dtype=np.int64)
    vec, _ = _ref_min_compatible_vector(inst, slot_sets, -np.inf)
    return vec


_REF_BLOCK_ROWS = 500_000


def _ref_rom(inst: Instance) -> Assignment:
    """Recursive aggregate matching: at each level, pair the chain built so
    far with the next dimension's values by solving a 2-AP over summed
    weights of all completions."""
    s, n = inst.s, inst.n
    perms = np.empty((s, n), dtype=np.int64)
    perms[0] = np.arange(n)
    for level in range(s - 1):
        agg = _ref_rom_aggregate(inst, perms, level)
        sigma, _ = solve_ap2(agg)
        perms[level + 1] = sigma
    return Assignment(perms)


def _ref_rom_aggregate(inst: Instance, perms: np.ndarray, level: int) -> np.ndarray:
    """agg[r, v]: total weight of vectors bound to row r through dimensions
    0..level, with dimension level+1 at value v and later dimensions free."""
    s, n = inst.s, inst.n
    free_dims = s - level - 2
    free = n**free_dims
    if free_dims:
        mesh = np.meshgrid(*[np.arange(n)] * free_dims, indexing="ij")
        free_coords = np.stack([m.ravel() for m in mesh], axis=1).astype(np.int64)
    else:
        free_coords = np.zeros((1, 0), dtype=np.int64)

    agg = np.empty((n, n), dtype=np.float64)
    rows_per_chunk = max(1, _REF_BLOCK_ROWS // (n * free))
    cell = np.empty((n * free, s), dtype=np.int64)
    cell[:, level + 1] = np.repeat(np.arange(n), free)
    cell[:, level + 2 :] = np.tile(free_coords, (n, 1))
    for start in range(0, n, rows_per_chunk):
        rows = range(start, min(n, start + rows_per_chunk))
        blocks = []
        for r in rows:
            for m in range(level + 1):
                cell[:, m] = perms[m, r]
            blocks.append(cell.copy())
        w = inst.weight_batch(np.concatenate(blocks))
        agg[list(rows)] = w.reshape(len(blocks), n, free).sum(axis=2)
    return agg


REFERENCE_CASES = [
    f"{kind}-{s}-{n}"
    for s, n in [(3, 1), (3, 2), (3, 6), (4, 5), (5, 4), (6, 3), (3, 9)]
    for kind in ("uniform", "2valued", "3valued")
] + [
    f"{name}#{index}"
    for name in ["3r8", "3gp8", "3c8", "3g8", "3p8", "3sr8", "4sr7", "7r4", "8c3"]
    for index in (1, 2, 3)
]


def _reference_instance(case: str) -> Instance:
    """A generated instance for "name#index"; otherwise an explicit tensor,
    uniform on [0, 1) or tie-heavy with 2 or 3 distinct values."""
    if "#" in case:
        name, index = case.split("#")
        return generate(parse_instance_name(name, int(index)))
    kind, s, n = case.split("-")
    s, n = int(s), int(n)
    rng = np.random.default_rng(list(case.encode()))
    if kind == "uniform":
        return explicit_instance(s, n, rng.random(n**s))
    return explicit_instance(s, n, rng.integers(0, int(kind[0]), n**s).astype(float))


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_constructions_match_frozen_reference(case, monkeypatch):
    # the default limit never fixes a prefix dimension at these sizes, so the
    # block limit is also forced to 1 (every dim a prefix), 7 and n^2 + 1
    inst = _reference_instance(case)
    want_greedy, want_regret = _ref_greedy(inst).perms, _ref_max_regret(inst).perms
    want_rom = _ref_rom(inst).perms
    for limit in (construct.BLOCK_ROWS, 1, 7, inst.n**2 + 1):
        monkeypatch.setattr(construct._iter_grid_blocks, "__defaults__", (limit,))
        assert np.array_equal(greedy(inst).perms, want_greedy), limit
        assert np.array_equal(max_regret(inst).perms, want_regret), limit
        assert np.array_equal(rom(inst).perms, want_rom), limit


def test_rom_matches_frozen_reference_on_non_integer_weights():
    # at the default limit each block holds a row's whole (v, free) grid, so
    # ROM sums every aggregate entry as the reference does, bit for bit
    rng = np.random.default_rng(8)
    inst = explicit_instance(8, 4, rng.random(4**8) / 3.0)
    assert np.array_equal(rom(inst).perms, _ref_rom(inst).perms)


@pytest.mark.parametrize("heuristic", [greedy, max_regret, rom])
@pytest.mark.parametrize("name", ["3r8", "4c5", "5gp4", "6sr3"])
def test_constructions_weigh_at_most_the_block_limit(heuristic, name, monkeypatch):
    # every construction weighs its blocks as grids, one path: no vector list
    inst = generate(parse_instance_name(name, 1))
    grid = Instance.weight_grid
    for limit in (7, 50):
        rows = []

        def counting(self, sets):
            w = grid(self, sets)
            rows.append(int(np.prod(w.shape)))
            return w

        def refused(self, coords):
            raise AssertionError("a construction called weight_batch")

        monkeypatch.setattr(Instance, "weight_grid", counting)
        monkeypatch.setattr(Instance, "weight_batch", refused)
        monkeypatch.setattr(construct._iter_grid_blocks, "__defaults__", (limit,))
        heuristic(inst)
        assert rows and max(rows) <= limit, limit


# Many rounds on slots kept from earlier rounds: greedy's slot minima go
# stale only through a commit, max-regret's lists are refilled only when
# short. 3r25 reaches the random family's weight floor, so greedy's floor
# stop runs on kept slots; the second limit splits every slot's sub-grid.
SLOT_STATE_CASES = ["3c20#1", "3sr20#2", "3r25#1", "4g12#1", "4r12#3", "4gp10#1",
                    "5r7#1", "5c6#2", "5sr6#1", "6g5#1"]


@pytest.mark.parametrize("case", SLOT_STATE_CASES)
def test_slot_state_matches_frozen_reference(case, monkeypatch):
    inst = _reference_instance(case)
    want_greedy, want_regret = _ref_greedy(inst), _ref_max_regret(inst)
    if case.startswith("3r"):
        assert (inst.weight_batch(want_greedy.perms.T) == inst.min_weight_floor()).sum() > 1
    for limit in (construct.BLOCK_ROWS, inst.n ** (inst.s - 1) // 2):
        monkeypatch.setattr(construct._iter_grid_blocks, "__defaults__", (limit,))
        assert np.array_equal(greedy(inst).perms, want_greedy.perms), limit
        assert np.array_equal(max_regret(inst).perms, want_regret.perms), limit


def test_greedy_refreshes_a_stale_slot_before_a_later_floor_slot():
    # round 1 weighs slots 0, then 1-2, then 3-6 and commits (3, 0, 0), the
    # first floor vector; that makes slot 4's (4, 0, 1) stale while slot 5
    # keeps (5, 2, 3) at the floor. Round 2 must re-weigh slot 4 first and
    # commit its other floor vector (4, 2, 2), which (5, 2, 3) conflicts with.
    n = 8
    vals = 1.0 + np.indices((n, n, n)).sum(axis=0) % 3
    for v in [(3, 0, 0), (4, 0, 1), (4, 2, 2), (5, 2, 3)]:
        vals[v] = 0.0
    inst = explicit_instance(3, n, vals.ravel())
    a = greedy(inst)
    assert {(3, 0, 0), (4, 2, 2)} <= set(map(tuple, a.perms.T.tolist()))
    assert np.array_equal(a.perms, _ref_greedy(inst).perms)


def _weighed(monkeypatch, run) -> int:
    """Vectors weighed by run()."""
    grid = Instance.weight_grid
    count = [0]

    def counting(self, sets):
        w = grid(self, sets)
        count[0] += w.size
        return w

    monkeypatch.setattr(Instance, "weight_grid", counting)
    run()
    monkeypatch.setattr(Instance, "weight_grid", grid)
    return count[0]


@pytest.mark.parametrize("heuristic, name, share", [
    ("greedy", "3c40", 0.25), ("greedy", "3c150", 0.1),
    ("max_regret", "3c40", 0.25), ("max_regret", "4c16", 0.5), ("max_regret", "5r15", 0.5),
])
def test_slot_state_weighs_a_fraction_of_the_per_round_scan(heuristic, name, share, monkeypatch):
    # the per-round scans: greedy's lightest vector of the whole compatible
    # grid, and max-regret's best two of every slot from a full scan
    inst = generate(parse_instance_name(name, 1))
    kept = _weighed(monkeypatch, lambda: getattr(construct, heuristic)(inst))
    if heuristic == "greedy":
        rescan = _weighed(monkeypatch, lambda: _generic_greedy(inst))
    else:
        every_slot = tuple(range(inst.s))
        monkeypatch.setattr(construct, "_listed_best_two", lambda inst: lambda sets:
                            construct._min_compatible_vector(inst, sets, every_slot, 2)[0])
        rescan = _weighed(monkeypatch, lambda: max_regret(inst))
    assert kept <= share * rescan, (kept, rescan)
