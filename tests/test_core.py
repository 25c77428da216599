"""Domain types, weight models and the swap primitives."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapls import (
    Assignment,
    CliqueSum,
    ExplicitTensor,
    Family,
    GeometricPoints,
    Instance,
    LazyRandom,
    Planted,
    ProductWeights,
    SquareRootSquares,
    apply_dimension_permutation,
    assignment_weight,
    build_generated_instance,
    generate,
    parse_instance_name,
    swap_weight_matrix,
)
from mapls import core
from mapls.rng import mix64, mix64_array

from conftest import all_vectors, explicit_instance, from_perm_rows, reference_swap_weight_matrix, swap_vectors


def clique_instance(s, mats):
    return Instance(CliqueSum(s, mats), 0)


def test_cliquesum_single_entries():
    mats = {
        (0, 1): np.full((1, 1), 5.0),
        (0, 2): np.full((1, 1), 7.0),
        (1, 2): np.full((1, 1), 11.0),
    }
    inst = clique_instance(3, mats)
    assert inst.weight((0, 0, 0)) == 23.0


def test_squareroot_rounds_to_nearest():
    mats = {pair: np.full((1, 1), 3.0) for pair in [(0, 1), (0, 2), (1, 2)]}
    inst = Instance(SquareRootSquares(3, mats), 0)
    # sqrt(9 + 9 + 9) = 5.196... -> 5
    assert inst.weight((0, 0, 0)) == 5.0


def test_product_weight():
    inst = Instance(ProductWeights([np.array([2.0]), np.array([3.0]), np.array([5.0])]), 0)
    assert inst.weight((0, 0, 0)) == 30.0


def test_geometric_zero_distance():
    pts = np.array([[4.0, 9.0], [4.0, 9.0]])
    inst = Instance(GeometricPoints([pts, pts, pts]), 0)
    assert inst.weight((0, 1, 0)) == 0.0


def _pair_mats(s, n, value=1.0):
    return {pair: np.full((n, n), value) for pair in combinations(range(s), 2)}


@pytest.mark.parametrize("cls", [CliqueSum, SquareRootSquares])
def test_pair_matrix_validation(cls):
    cls(3, _pair_mats(3, 2))
    nan, neg = np.ones((2, 2)), np.ones((2, 2))
    nan[0, 1], neg[1, 0] = np.nan, -40.0
    for bad in (np.ones((2, 3)), np.ones((3, 3)), np.ones(2), nan, np.full((2, 2), np.inf), neg):
        mats = _pair_mats(3, 2)
        mats[(1, 2)] = bad
        with pytest.raises(ValueError):
            cls(3, mats)
    with pytest.raises(ValueError):
        cls(3, {(0, 1): np.ones((2, 2))})  # missing pairs


def test_geometric_points_validation():
    pts = np.zeros((2, 2))
    GeometricPoints([pts, pts, pts])
    nan = pts.copy()
    nan[1, 0] = np.nan
    for bad in (nan, np.zeros((3, 2)), np.zeros((2, 3))):
        with pytest.raises(ValueError):
            GeometricPoints([pts, bad, pts])


def test_product_factor_validation():
    ok = np.array([1.0, 2.0])
    ProductWeights([ok, ok, ok])
    for bad in ([1.0, np.nan], [1.0, np.inf], [1.0, 0.0]):
        with pytest.raises(ValueError):
            ProductWeights([ok, np.array(bad), ok])


@pytest.mark.filterwarnings("error")
def test_models_reject_weights_that_overflow():
    # the heaviest weight bounds every weight, as rounding is monotone; when
    # it overflows, a grid may hold only inf weights, where a construction
    # finds no lightest vector
    far = np.array([[0.0, 0.0], [1e308, 0.0]])
    for build in (
        lambda: ProductWeights([np.full(3, 1e200)] * 3),
        lambda: ProductWeights([np.array([1.0, 1e200])] * 3),  # only the heaviest overflows
        lambda: CliqueSum(3, _pair_mats(3, 3, 1e308)),
        lambda: SquareRootSquares(3, _pair_mats(3, 3, 1e200)),  # its squares overflow
        lambda: GeometricPoints([far, far, far]),
    ):
        with pytest.raises(ValueError, match="overflows"):
            build()
    from mapls import greedy, max_regret

    for model in (
        ProductWeights([np.full(3, 1e100)] * 3),
        CliqueSum(3, _pair_mats(3, 3, 1e307)),
        SquareRootSquares(3, _pair_mats(3, 3, 1e150)),
    ):
        inst = Instance(model, 0)
        assert np.isfinite(inst.weight_grid([np.arange(3)] * 3)).all()
        for heuristic in (greedy, max_regret):
            heuristic(inst).validate()


# Frozen copies of the weight models that derived every geometric distance
# and every squared distance per row, which the table gathers must match bit
# for bit.
def _reference_geometric_batch(points, s, coords):
    acc = np.zeros(len(coords), dtype=np.float64)
    for i, j in combinations(range(s), 2):
        pi = points[i][coords[:, i]]
        pj = points[j][coords[:, j]]
        acc += np.hypot(pi[:, 0] - pj[:, 0], pi[:, 1] - pj[:, 1])
    return np.floor(acc + 0.5)


def _reference_geometric_floor(points, s):
    total = 0.0
    for i, j in combinations(range(s), 2):
        pi, pj = points[i], points[j]
        dx = pi[:, None, 0] - pj[None, :, 0]
        dy = pi[:, None, 1] - pj[None, :, 1]
        total += float(np.hypot(dx, dy).min())
    return float(np.floor(np.asarray(total) + 0.5))


def _reference_squareroot_batch(mats, coords):
    acc = np.zeros(len(coords), dtype=np.float64)
    for (i, j), d in mats.items():
        acc += d[coords[:, i], coords[:, j]] ** 2
    return np.floor(np.sqrt(acc) + 0.5)


def _reference_squareroot_floor(mats):
    return float(np.floor(np.sqrt(sum(d.min() ** 2 for d in mats.values())) + 0.5))


@pytest.mark.parametrize("name", ["3g75", "4g25", "5g15", "6g9", "7g6", "8g4",
                                  "3sr75", "4sr25", "5sr15", "6sr9", "7sr6", "8sr4"])
def test_pairwise_tables_match_reference(name):
    for index in (1, 2):
        inst = generate(parse_instance_name(name, index))
        model = inst.weights
        coords = np.random.default_rng(index).integers(0, inst.n, size=(50_000, inst.s))
        if inst.family == Family.GEOMETRIC:
            ref = _reference_geometric_batch(model.points, inst.s, coords)
            ref_floor = _reference_geometric_floor(model.points, inst.s)
        else:
            ref = _reference_squareroot_batch(model.mats, coords)
            ref_floor = _reference_squareroot_floor(model.mats)
        assert np.array_equal(inst.weight_batch(coords), ref)
        assert inst.min_weight_floor() == ref_floor


# Frozen copy of the per-pair running sum the stacked gather replaced: the
# pairs are added in pair order, starting from zero.
def _reference_pair_sum(mats, coords):
    acc = np.zeros(len(coords), dtype=np.float64)
    for (i, j), d in mats.items():
        acc += d[coords[:, i], coords[:, j]]
    return acc


@pytest.mark.parametrize("s, n", [(3, 30), (5, 15), (8, 4)])
def test_pair_sum_keeps_pair_order(s, n):
    # float geometric distances, unrounded: a change of summation order shows
    # in the last bit, which the rounded g/sr weights would hide
    mats = generate(parse_instance_name(f"{s}g{n}", 1)).weights.mats
    inst = Instance(CliqueSum(s, mats), 0)
    rng = np.random.default_rng(s)
    block = core._PAIR_BLOCK
    for size in (0, 1, 2, 3, block - 1, block, block + 1, 2 * block + 1):
        coords = rng.integers(0, n, size=(size, s))
        got = inst.weight_batch(coords)
        assert got.tobytes() == _reference_pair_sum(mats, coords).tobytes(), size
    coords = rng.integers(0, n, size=(3000, s))
    singles = np.array([inst.weight(e) for e in coords])
    assert singles.tobytes() == _reference_pair_sum(mats, coords).tobytes()
    # a 1-row tail after a full block, for vectors whose lone sums vary
    head = rng.integers(0, n, size=(block, s))
    for e in coords[:20]:
        tail = inst.weight_batch(np.vstack([head, e]))[-1:]
        assert tail.tobytes() == _reference_pair_sum(mats, e[None, :]).tobytes()
    assert inst.min_weight_floor() == float(sum(d.min() for d in mats.values()))


def test_signed_zero_entries_sum_to_zero():
    # the running sum starts from +0.0, so all -0.0 terms still add to +0.0
    inst = clique_instance(3, _pair_mats(3, 2, -0.0))
    for size in (1, 2):
        w = inst.weight_batch(np.zeros((size, 3), dtype=np.int64))
        assert w.tobytes() == np.zeros(size).tobytes()


def _product_list(sets):
    """The product of `sets` as an (m, s) coordinate list, dimension 0 most
    significant: the vectors a grid's C-order entries stand for."""
    return np.stack(np.meshgrid(*sets, indexing="ij"), axis=-1).reshape(-1, len(sets))


def _grid_cases(inst, rng):
    """Value sets for one instance: a full grid, one value per dimension,
    one-element leading sets before full ones, one one-element set in any
    dimension, and unsorted subsets through a planted vector (the zero
    vector off planted instances)."""
    s, n = inst.s, inst.n
    full = [np.arange(n)] * s
    vec = inst.weights.planted.perms[:, n - 1] if inst.family == Family.PLANTED else full[0][[0] * s]
    yield full
    yield [np.array([v]) for v in vec]
    for lead in range(1, s):
        yield [np.array([v]) for v in vec[:lead]] + full[lead:]
    for j in range(s):
        yield full[:j] + [vec[j : j + 1]] + full[j + 1 :]
    for _ in range(3):
        yield [rng.permutation(np.union1d(rng.choice(n, size=rng.integers(1, n + 1), replace=False), v))
               for v in vec]


_GRID_SIZES = {3: 9, 4: 6, 5: 5, 6: 4, 7: 3, 8: 3}


def _assert_grid_matches_batch(inst, sets):
    got = inst.weight_grid(sets)
    want = inst.weight_batch(_product_list(sets))
    assert got.shape == tuple(len(x) for x in sets) and got.dtype == np.float64
    assert np.array_equal(got.ravel(), want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ["r", "gp", "c", "sr", "g", "p", "explicit"])
@pytest.mark.parametrize("s", range(3, 9))
def test_weight_grid_matches_weight_batch(tag, s):
    n = _GRID_SIZES[s]
    rng = np.random.default_rng([s, len(tag)])
    if tag == "explicit":
        inst = explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
    else:
        inst = generate(parse_instance_name(f"{s}{tag}{n}", 1))
    for sets in _grid_cases(inst, rng):
        _assert_grid_matches_batch(inst, sets)
    if tag == "g":
        # the unrounded float distances: another summation order shows here
        sums = Instance(CliqueSum(s, inst.weights.mats), 0)
        for sets in _grid_cases(sums, rng):
            _assert_grid_matches_batch(sums, sets)
    if tag == "gp":
        # every planted vector lies in the full grid at the planted weight
        w = inst.weight_grid([np.arange(n)] * s)
        assert (w[tuple(inst.weights.planted.perms)] == inst.weights.a).all()


@pytest.mark.parametrize("cls", [CliqueSum, SquareRootSquares])
def test_weight_grid_signed_zero_tables(cls):
    # -0.0 table entries weigh +0.0 on a grid, as in a batch
    rng = np.random.default_rng(5)
    for s, n in ((3, 2), (5, 3)):
        inst = Instance(cls(s, _pair_mats(s, n, -0.0)), 0)
        for sets in _grid_cases(inst, rng):
            _assert_grid_matches_batch(inst, sets)
            assert inst.weight_grid(sets).tobytes() == np.zeros(np.prod([len(x) for x in sets])).tobytes()
    values = np.where(rng.random(3**4) < 0.5, -0.0, rng.random(3**4))
    inst = explicit_instance(4, 3, values)
    for sets in _grid_cases(inst, rng):
        _assert_grid_matches_batch(inst, sets)


def _batched_grid_instances(s, rng):
    """One instance of each weight family at s: generated r, gp, c, sr, g
    and p names, an explicit tensor of non-integral values, a clique sum of
    float tables with -0.0 entries, and product weights of float factors."""
    n = _GRID_SIZES[s]
    for tag in ("r", "gp", "c", "sr", "g", "p"):
        yield generate(parse_instance_name(f"{s}{tag}{n}", 1))
    yield explicit_instance(s, n, rng.uniform(0.0, 1.0, size=n**s))
    mats = {pair: np.where(rng.random((n, n)) < 0.3, -0.0, rng.uniform(0.0, 2.0, size=(n, n)))
            for pair in combinations(range(s), 2)}
    yield Instance(CliqueSum(s, mats), 0)
    yield Instance(ProductWeights([rng.uniform(0.5, 2.0, size=n) for _ in range(s)]), 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", range(3, 9))
def test_batched_weight_grid_matches_batch_and_columns(s):
    # c grids sharing a trailing batch axis weigh each column's vectors to
    # the floats weight_batch and a 1-D grid of that column give them
    rng = np.random.default_rng([s, 31])
    for inst in _batched_grid_instances(s, rng):
        for lens in [[1] * s] + [[(j + shift) % 4 + 1 for j in range(s)] for shift in range(4)]:
            for c in (1, 2, 17):
                sets = [rng.integers(0, inst.n, size=(m, c)) for m in lens]
                got = inst.weight_grid(sets)
                assert got.shape == (*lens, c) and got.dtype == np.float64
                for b in range(c):
                    column = [x[:, b] for x in sets]
                    want = inst.weight_batch(_product_list(column))
                    assert got[..., b].ravel().tobytes() == want.tobytes(), (inst.family, lens, c, b)
                    assert got[..., b].tobytes() == inst.weight_grid(column).tobytes()


def test_weight_grid_refuses_mixed_or_misshapen_sets():
    inst = generate(parse_instance_name("3r5", 1))
    flat, batched = np.arange(3), np.zeros((3, 2), dtype=np.int64)
    for sets in (
        [flat, batched, flat],  # 1-D and 2-D mixed
        [batched, batched, np.zeros((3, 2, 1), dtype=np.int64)],  # a 3-D array
        [flat, flat, np.zeros((2, 2, 2), dtype=np.int64)],
        [flat, flat, np.array(2)],  # a 0-D array
        [batched, batched, np.zeros((3, 4), dtype=np.int64)],  # batch lengths 2 and 4
    ):
        with pytest.raises(ValueError, match="all 1-D, or all 2-D"):
            inst.weight_grid(sets)
    for count in (2, 4):  # one array per dimension
        with pytest.raises(ValueError, match="need 3 value arrays"):
            inst.weight_grid([flat] * count)
    assert inst.weight_grid([batched] * 3).shape == (3, 3, 3, 2)


def test_instance_reads_shape_and_family_from_model():
    # 64 values would fit both 4^3 and 2^6: the tensor's own (s, n) decides
    planted = Assignment.identity(3, 6)
    points = [np.arange(6.0).reshape(3, 2)] * 4
    for model, s, n, family in (
        (CliqueSum(3, _pair_mats(3, 4)), 3, 4, Family.CLIQUE),
        (SquareRootSquares(4, _pair_mats(4, 2)), 4, 2, Family.SQUAREROOT),
        (GeometricPoints(points), 4, 3, Family.GEOMETRIC),
        (ProductWeights([np.array([1.0, 2.0])] * 6), 6, 2, Family.PRODUCT),
        (ExplicitTensor(3, 4, np.arange(64.0)), 3, 4, Family.EXPLICIT),
        (LazyRandom(5, 7, 1, 101), 5, 7, Family.RANDOM),
        (Planted(1, 101, planted), 3, 6, Family.PLANTED),
    ):
        inst = Instance(model, 1)
        assert (inst.s, inst.n, inst.family, inst.seed) == (s, n, family, 1)


def test_instance_rejects_factor_lengths_other_than_n():
    # n is the factors' common length, so factors of unequal length, which
    # name no single n, are refused before an instance is built
    with pytest.raises(ValueError):
        ProductWeights([np.ones(2), np.ones(3), np.ones(2)])
    with pytest.raises(ValueError):
        ProductWeights([np.ones(3), np.ones(3), np.ones(2)])
    assert Instance(ProductWeights([np.ones(3)] * 3), 0).n == 3


def test_random_models_reject_rank_wraparound():
    # 300^8 > 2^64: the uint64 rank would wrap and alias weights
    with pytest.raises(ValueError, match="2\\^64"):
        LazyRandom(8, 300, 1, 101)
    with pytest.raises(ValueError, match="2\\^64"):
        Planted(1, 101, Assignment.identity(8, 300))
    assert LazyRandom(8, 256, 1, 101).shape == (8, 256)  # 256^8 = 2^64


def test_random_models_reject_empty_shapes():
    # a negative n would reach the uint64 place values as numpy's OverflowError
    for s, n in ((3, -5), (3, 0), (0, 5), (-1, 4)):
        with pytest.raises(ValueError, match="s, n >= 1"):
            LazyRandom(s, n, 1, 101)


def test_random_models_reject_spans_past_uint64():
    # b - a must fit the uint64 the remainder divides by
    for b in (2**64, 2**64 + 1):
        with pytest.raises(ValueError, match="b - a < 2\\^64"):
            LazyRandom(3, 5, 0, b)
        with pytest.raises(ValueError, match="b - a < 2\\^64"):
            Planted(0, b, Assignment.identity(3, 5))
    assert LazyRandom(3, 5, 1, 2**64).b == 2**64


def test_random_models_reject_non_integral_ranges():
    # a fractional a or b would be truncated: weights below the asked-for a,
    # and a lower bound below a * n
    for a, b in ((0.5, 10.7), (0.5, 10), (1, 10.7)):
        with pytest.raises(ValueError, match="integral a and b"):
            LazyRandom(3, 5, a, b)
        with pytest.raises(ValueError, match="integral a and b"):
            Planted(a, b, Assignment.identity(3, 5))
    coords = all_vectors(3, 5)
    want = Instance(LazyRandom(3, 5, 1, 101), 7).weight_batch(coords)
    for a, b in ((1.0, 101.0), (np.int64(1), np.int64(101)), (np.uint8(1), 101)):
        model = LazyRandom(3, 5, a, b)
        assert (model.a, model.b) == (1, 101) and type(model.a) is type(model.b) is int
        assert np.array_equal(Instance(model, 7).weight_batch(coords), want)
        assert Planted(a, b, Assignment.identity(3, 5)).a == 1


# Frozen copies of the random and planted kernels that ranked a uint64 copy
# of the coordinates and masked planted vectors with s - 1 gathers, which the
# in-place kernel must match bit for bit.
def _reference_mix64_array(x):
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64, copy=True)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _reference_lazy_batch(inst, coords):
    model = inst.weights
    strides = (inst.n ** np.arange(inst.s - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)
    with np.errstate(over="ignore"):
        rank = coords.astype(np.uint64) @ strides
        z = _reference_mix64_array(np.uint64(mix64(inst.seed)) + rank)
    w = (z % np.uint64(model.b - model.a)).astype(np.float64) + model.a
    if isinstance(model, Planted):
        rows = coords[:, 0]
        hit = np.ones(len(coords), dtype=bool)
        for j in range(1, inst.s):
            hit &= coords[:, j] == model.planted.perms[j][rows]
        w[hit] = model.a
    return w


def _lazy_instances():
    # s = 3..8 at roster and desk sizes, plus the rank boundary n^s = 2^64
    for tag in ("r", "gp"):
        for shape in ("3{}150", "4{}25", "5{}40", "6{}9", "7{}6", "8{}4", "8{}256"):
            for index in (1, 2):
                yield generate(parse_instance_name(shape.format(tag), index))
    # a = 5, b = 17 over the planted assignment the generator draws at seed 123
    planted = build_generated_instance(Family.PLANTED, 4, 9, 123).weights.planted
    yield Instance(LazyRandom(4, 9, 5, 17), 123)
    yield Instance(Planted(5, 17, planted), 123)


@pytest.mark.filterwarnings("error")
def test_lazy_kernel_matches_reference():
    rng = np.random.default_rng(5)
    for inst in _lazy_instances():
        s, n = inst.s, inst.n
        corners = np.array([[0] * s, [n - 1] * s, [n - 1] + [0] * (s - 1)], dtype=np.int64)
        coords = np.vstack([corners, rng.integers(0, n, size=(20_000, s))])
        assert np.array_equal(inst.weight_batch(coords), _reference_lazy_batch(inst, coords))
        if inst.family == Family.PLANTED:
            planted = inst.weights.planted.perms.T
            w = inst.weight_batch(planted)
            assert np.array_equal(w, _reference_lazy_batch(inst, planted))
            assert (w == inst.weights.a).all()
        # empty, int32, and a non-contiguous slice (both axes strided)
        empty = np.zeros((0, s), dtype=np.int64)
        assert inst.weight_batch(empty).shape == (0,)
        assert np.array_equal(inst.weight_batch(coords.astype(np.int32)),
                              _reference_lazy_batch(inst, coords))
        wide = rng.integers(0, n, size=(3000, 2 * s))
        sliced = wide[::3, ::2]
        assert not sliced.flags.c_contiguous and not sliced.flags.f_contiguous
        assert np.array_equal(inst.weight_batch(sliced), _reference_lazy_batch(inst, sliced))
        # the input is read, never written
        assert np.array_equal(wide[::3, ::2], sliced)


def _chunk_cases():
    """Instances and grids around the hash's chunk boundaries: a long last
    dimension holding chunk - 1, chunk, chunk + 1 and several chunks of
    vectors, on random and planted models (planted vectors at the last
    position of a chunk and the first of the next) and on spans past 2^63,
    the widest of which leaves half its remainders past int64; ROM's row
    grid on 5r24 and a max-regret slot grid on 5r15."""
    c = core._HASH_CHUNK
    n = 3 * c + 5
    planted = Assignment.identity(3, n)
    for model in (LazyRandom(3, n, 1, 101), Planted(1, 101, planted),
                  LazyRandom(3, n, 0, 2**63 + 7), LazyRandom(3, n, 5, 2**64 + 4)):
        inst = Instance(model, 7)
        for x in (0, c - 1, c):
            for size in (c - 1, c, c + 1, 3 * c + 5):
                yield inst, [np.array([x]), np.array([x]), np.arange(size)]
        yield inst, [np.arange(2), np.array([c]), np.arange(c + 3)]
    for tag in ("r", "gp"):
        for index in (1, 2):
            rom = generate(parse_instance_name(f"5{tag}24", index))
            yield rom, [np.array([3])] + [np.arange(24)] * 4
            slot = generate(parse_instance_name(f"5{tag}15", index))
            yield slot, [np.array([6]), np.arange(15), np.arange(1, 15), np.arange(15)[::-1], np.arange(15)]


@pytest.mark.filterwarnings("error")
def test_chunked_hash_matches_reference_across_chunks():
    for inst, sets in _chunk_cases():
        coords = _product_list(sets)
        want = _reference_lazy_batch(inst, coords)
        assert inst.weight_batch(coords).tobytes() == want.tobytes()
        assert inst.weight_grid(sets).tobytes() == want.tobytes()
        if inst.family == Family.PLANTED:
            perms = inst.weights.planted.perms
            hits = (coords == perms[:, coords[:, 0]].T).all(axis=1)
            assert (want[hits] == inst.weights.a).all()
    c = core._HASH_CHUNK
    # planted vectors at the last position of a chunk and the first of the next
    n = 3 * c + 5
    inst = Instance(Planted(1, 101, Assignment.identity(3, n)), 7)
    coords = np.random.default_rng(3).integers(0, n, size=(3 * c, 3))
    coords[[c - 1, c, 2 * c - 1, 2 * c]] = [[c - 1] * 3, [c] * 3, [5] * 3, [n - 1] * 3]
    w = inst.weight_batch(coords)
    assert w.tobytes() == _reference_lazy_batch(inst, coords).tobytes()
    assert (w[[c - 1, c, 2 * c - 1, 2 * c]] == 1.0).all()
    # a span past 2^63 converts its remainders as uint64
    assert Instance(LazyRandom(3, 5, 0, 2**63 + 7), 7).weight((1, 2, 3)) == 6705872587133259776.0


def test_mix64_array_in_place():
    x = np.arange(1, 1001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    copy = x.copy()
    ref = _reference_mix64_array(copy)
    out = mix64_array(x)
    assert out is x and np.array_equal(x, ref)
    # the shifts through a scratch array instead of temporaries
    y, tmp = copy.copy(), np.empty_like(copy)
    assert mix64_array(y, tmp) is y and np.array_equal(y, ref)
    assert [int(v) for v in ref[:5]] == [mix64(int(v)) for v in copy[:5]]


def test_weight_out_of_range_rejected():
    inst = explicit_instance(3, 2, np.arange(8.0))
    with pytest.raises(ValueError):
        inst.weight((0, 0, 2))
    with pytest.raises(ValueError):
        inst.weight((0, -1, 0))


def test_weight_non_integral_rejected():
    inst = explicit_instance(3, 2, np.arange(8.0))
    assert inst.weight((1.0, 0.0, 1.0)) == inst.weight((1, 0, 1)) == 5.0
    for e in ((0.7, 1, 1), (0, 1, 0.5), (float("nan"), 0, 0)):
        with pytest.raises(ValueError, match="integers"):
            inst.weight(e)


def test_explicit_tensor_validation():
    with pytest.raises(ValueError):
        ExplicitTensor(3, 2, np.arange(7.0))  # wrong length
    with pytest.raises(ValueError):
        ExplicitTensor(3, 1, [np.inf])
    with pytest.raises(ValueError):
        ExplicitTensor(3, 1, [-1.0])


def test_assignment_weight_explicit_lookup():
    # n=2 tensor: vectors (0,0,0) and (1,1,1) are entries 0 and 7
    vals = np.arange(8.0) * 3 + 1
    inst = explicit_instance(3, 2, vals)
    a = Assignment.identity(3, 2)
    assert assignment_weight(inst, a) == vals[0] + vals[7]


def test_assignment_weight_single_vector():
    inst = explicit_instance(3, 1, [42.0])
    assert assignment_weight(inst, Assignment.identity(3, 1)) == 42.0


def test_planted_assignment_weight_is_an():
    inst = generate(parse_instance_name("4gp10"))
    assert assignment_weight(inst, inst.weights.planted) == 10.0


def test_swap_vectors_examples():
    u, v = (0, 1, 2), (3, 4, 5)
    assert swap_vectors(u, v, {1}).tolist() == [0, 4, 2]
    assert swap_vectors(u, v, set()).tolist() == list(u)
    assert swap_vectors(u, v, {0, 1, 2}).tolist() == list(v)


def test_apply_identity_is_noop():
    a = from_perm_rows([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    b = apply_dimension_permutation(a, {1}, np.arange(3))
    assert b == a


def test_apply_all_dims_is_identity_as_set():
    a = from_perm_rows([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    rho = np.array([2, 0, 1])
    b = apply_dimension_permutation(a, {0, 1, 2}, rho)
    assert b == a  # canonical form: same vector set


def test_apply_single_dim_hand_case():
    # s=3, n=2, transpose dimension 1 only
    a = Assignment.identity(3, 2)
    b = apply_dimension_permutation(a, {1}, np.array([1, 0]))
    assert b.perms[1].tolist() == [1, 0]
    assert b.perms[2].tolist() == [0, 1]


def test_apply_rejects_non_permutation():
    a = Assignment.identity(3, 3)
    with pytest.raises(ValueError):
        apply_dimension_permutation(a, {1}, np.array([0, 0, 2]))


def test_apply_rejects_non_integral_rho():
    # a non-integral rho is refused, not truncated: [0.5, 1.2, 2.9] would read as the identity
    a = Assignment.identity(3, 3)
    for rho in ([0.5, 1.2, 2.9], [1.0, np.nan, 2.0], [1 + 0j, 0, 2], ["1", "0", "2"]):
        with pytest.raises(ValueError):
            apply_dimension_permutation(a, (1,), rho)
    # integral values of any numeric dtype are the permutation they name
    for rho in ([1.0, 0.0, 2.0], np.array([1, 0, 2], dtype=np.int32)):
        assert apply_dimension_permutation(a, (1,), rho).perms[1].tolist() == [1, 0, 2]


def test_apply_matches_swap_multiset(rng):
    # vectors of p_D(A, rho) == { swap(A^i, A^rho(i), D) : i }
    inst = explicit_instance(3, 4, rng.integers(0, 99, 64).astype(float))
    a = from_perm_rows([np.arange(4), rng.permutation(4), rng.permutation(4)])
    rho = rng.permutation(4)
    for dims in [{0}, {1}, {2}, {0, 2}, {1, 2}]:
        b = apply_dimension_permutation(a, dims, rho)
        expected = sorted(
            tuple(swap_vectors(a.perms[:, i], a.perms[:, rho[i]], dims)) for i in range(4)
        )
        assert sorted(map(tuple, b.perms.T)) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.permutations(list(range(4))))
def test_symmetry_complement_inverse(seed, rho_list):
    # p_D(A, rho) == p_{complement D}(A, rho^-1)
    rng = np.random.default_rng(seed)
    a = from_perm_rows([np.arange(4), rng.permutation(4), rng.permutation(4)])
    rho = np.asarray(rho_list)
    inv = np.empty(4, dtype=np.int64)
    inv[rho] = np.arange(4)
    for dims, comp in [({0}, {1, 2}), ({1}, {0, 2}), ({0, 1}, {2})]:
        assert apply_dimension_permutation(a, dims, rho) == apply_dimension_permutation(a, comp, inv)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(4))))
def test_weight_invariant_under_relabeling(rho_list):
    rng = np.random.default_rng(7)
    inst = explicit_instance(3, 4, rng.integers(0, 99, 64).astype(float))
    a = from_perm_rows([np.arange(4), rng.permutation(4), rng.permutation(4)])
    b = apply_dimension_permutation(a, {0, 1, 2}, np.asarray(rho_list))
    assert assignment_weight(inst, b) == assignment_weight(inst, a)


def test_lazy_random_determinism():
    a = generate(parse_instance_name("4r9", 3))
    b = generate(parse_instance_name("4r9", 3))
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 9, size=(1000, 4))
    assert np.array_equal(a.weight_batch(coords), b.weight_batch(coords))


def test_lazy_random_range_and_integrality():
    inst = generate(parse_instance_name("3r30", 1))
    rng = np.random.default_rng(1)
    w = inst.weight_batch(rng.integers(0, 30, size=(5000, 3)))
    assert w.min() >= 1 and w.max() <= 100
    assert np.array_equal(w, np.round(w))


def test_swap_weight_matrix_matches_scalar(rng):
    inst = explicit_instance(3, 4, rng.integers(0, 99, 64).astype(float))
    a = from_perm_rows([np.arange(4), rng.permutation(4), rng.permutation(4)])
    for dims in [{0}, {1}, {1, 2}]:
        m = swap_weight_matrix(inst, a, dims)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == inst.weight(swap_vectors(a.perms[:, i], a.perms[:, j], dims))


def _swap_model(tag, s, n, rng):
    """One weight model of each kind the swap-matrix kernels build for."""
    def tables(draw):
        return {pair: draw((n, n)) for pair in combinations(range(s), 2)}

    def signed_zeros(shape):
        return np.where(rng.random(shape) < 0.5, -0.0, rng.integers(0, 50, shape).astype(float))

    if tag == "r":
        return LazyRandom(s, n, 1, 100)
    if tag == "gp":
        perms = np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)])
        return Planted(1, 100, Assignment(perms))
    if tag == "explicit":
        return ExplicitTensor(s, n, rng.uniform(0.0, 1.0, size=n**s))
    if tag == "explicit-zero":
        return ExplicitTensor(s, n, signed_zeros(n**s))
    if tag == "c":
        return CliqueSum(s, tables(lambda shape: rng.integers(0, 100, shape).astype(float)))
    if tag == "c-float":
        return CliqueSum(s, tables(lambda shape: rng.uniform(0.0, 1.0, shape)))
    if tag == "c-zero":
        return CliqueSum(s, tables(signed_zeros))
    if tag == "sr":
        return SquareRootSquares(s, tables(lambda shape: rng.integers(0, 100, shape).astype(float)))
    if tag == "sr-zero":
        return SquareRootSquares(s, tables(signed_zeros))
    if tag == "g":
        return GeometricPoints([rng.uniform(0.0, 100.0, size=(n, 2)) for _ in range(s)])
    if tag == "p":
        return ProductWeights([rng.integers(1, 11, n).astype(float) for _ in range(s)])
    assert tag == "p-float"
    return ProductWeights([rng.uniform(0.1, 3.0, n) for _ in range(s)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ["r", "gp", "explicit", "explicit-zero", "c", "c-float", "c-zero",
                                 "sr", "sr-zero", "g", "p", "p-float"])
def test_swap_matrix_kernels_match_reference(tag):
    # every kernel gives the frozen coordinate build's floats, byte for byte,
    # for a subset of every size, from none to all s dimensions
    for s in range(3, 9):
        for n in (1, 2, _GRID_SIZES[s], 75):
            if tag.startswith("explicit") and n**s > 500_000:
                continue
            rng = np.random.default_rng([s, n, len(tag)])
            inst = Instance(_swap_model(tag, s, n, rng), 0)
            a = Assignment(np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)]))
            for size in range(s + 1):
                for dims in {tuple(sorted(rng.choice(s, size, replace=False))) for _ in range(3)}:
                    got = swap_weight_matrix(inst, a, dims)
                    want = reference_swap_weight_matrix(inst, a, dims)
                    assert got.shape == (n, n) and got.dtype == np.float64
                    assert got.tobytes() == want.tobytes(), (tag, s, n, dims)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tag", ["r", "gp", "explicit", "explicit-zero", "c", "c-float", "c-zero",
                                 "sr", "sr-zero", "g", "p", "p-float"])
def test_swap_parts_kernel_matches_weight_batch(tag):
    # the (row, column, mask) weights that v-opt's chain steps and pair-minimum
    # table read, from swap_parts and swap_weigh, are weight_batch's floats of
    # the coordinate build, byte for byte: one row against t = 1..n-1 columns
    # (a chain step), and every row against every column (the table)
    from mapls.localsearch import _swap_masks

    for s in range(3, 9):
        n = _GRID_SIZES[s]
        rng = np.random.default_rng([s, n, len(tag), 1])
        inst = Instance(_swap_model(tag, s, n, rng), 0)
        model = inst.weights
        perms = np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(s - 1)])
        vecs = perms.T
        for max_size in (1, s // 2):
            masks = _swap_masks(s, max_size)
            sel = model.swap_selector(tuple(map(tuple, masks.tolist())))
            # (2, *lead, vectors, masks), the layout v-opt reads
            parts = model.swap_parts(perms, sel).swapaxes(-1, -2)
            for t in range(1, n):
                c = t % n
                cols = [r for r in range(n) if r != c][:t]
                got = model.swap_weigh(inst, parts[0][..., [c], :], parts[1][..., cols, :])
                cand = np.where(masks, vecs[cols, None, :], vecs[c])
                want = inst.weight_batch(cand.reshape(-1, s)).reshape(t, len(masks))
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (tag, s, max_size, t)
            got = model.swap_weigh(inst, parts[0][..., :, None, :], parts[1][..., None, :, :])
            cand = np.where(masks, vecs[None, :, None, :], vecs[:, None, None, :])
            want = inst.weight_batch(cand.reshape(-1, s)).reshape(n, n, len(masks))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (tag, s, max_size)


def test_exact_sums_on_every_family():
    # integral weights whose n-fold sums stay below 2^53, and nothing else
    two = np.full((2, 2), 2.0)
    assert Instance(LazyRandom(3, 4, 1, 101), 0).weights._exact_sums
    assert LazyRandom(3, 4, 0, 2**51)._exact_sums  # 4 * (2^51 - 1) = 2^53 - 4
    assert not LazyRandom(3, 5, 0, 2**51)._exact_sums
    assert ExplicitTensor(3, 2, np.arange(8.0))._exact_sums
    assert not ExplicitTensor(3, 2, np.arange(8.0) + 0.5)._exact_sums
    pairs = list(combinations(range(3), 2))
    assert CliqueSum(3, {p: two for p in pairs})._exact_sums
    assert not CliqueSum(3, {p: two + 0.25 for p in pairs})._exact_sums
    # square-root and geometric weights are rounded, so their tables need not be integral
    assert SquareRootSquares(3, {p: two + 0.25 for p in pairs})._exact_sums
    assert GeometricPoints([np.array([[0.0, 0.0], [0.5, 0.25]])] * 3)._exact_sums
    assert not CliqueSum(3, {p: np.full((2, 2), 2.0**51) for p in pairs})._exact_sums


def test_swap_dimensions_outside_range_refused():
    inst = generate(parse_instance_name("3c5", 1))
    a = Assignment(np.vstack([np.arange(5), [1, 0, 2, 4, 3], [4, 3, 2, 1, 0]]))
    for dims in ((5,), (-1,), (0, 3), (1, -3), ("1",), (1.5,)):
        with pytest.raises(ValueError, match="dimensions"):
            swap_weight_matrix(inst, a, dims)
        with pytest.raises(ValueError, match="dimensions"):
            apply_dimension_permutation(a, dims, np.arange(5))
    # sets, lists, generators and numpy integers all name the same dimensions
    want = reference_swap_weight_matrix(inst, a, (0, 2))
    rho = np.array([2, 0, 1, 4, 3])
    moved = apply_dimension_permutation(a, (0, 2), rho)
    forms = (lambda: {2, 0}, lambda: [2, 0, 2], lambda: (j for j in (0, 2)), lambda: np.array([0, 2]))
    for dims in forms:
        assert swap_weight_matrix(inst, a, dims()).tobytes() == want.tobytes()
        assert apply_dimension_permutation(a, dims(), rho) == moved


def test_assignment_validation():
    good = from_perm_rows([[0, 1], [1, 0], [0, 1]])
    good.validate()
    bad_row0 = from_perm_rows([[1, 0], [0, 1], [0, 1]])
    assert not bad_row0.is_valid()
    bad_perm = from_perm_rows([[0, 1], [1, 1], [0, 1]])
    assert not bad_perm.is_valid()


def test_instance_domain_bounds():
    with pytest.raises(ValueError):
        Instance(ExplicitTensor(2, 5, np.zeros(25)), 0)
    with pytest.raises(ValueError):
        explicit_instance(3, 0, [])
