"""Instance generators: naming, seeding, ranges, reproducibility."""

import numpy as np
import pytest

from mapls import (
    Assignment,
    Family,
    Instance,
    Planted,
    assignment_weight,
    generate,
    known_optimum,
    parse_instance_name,
)
from mapls.generate import FamilySpec
from mapls.meta import perturb
from mapls.rng import SplitMix64

from conftest import all_vectors, brute_force_optimum, random_explicit


def test_parse_examples():
    spec = parse_instance_name("5r40")
    assert (spec.family, spec.s, spec.n) == (Family.RANDOM, 5, 40)
    spec = parse_instance_name("3sr150")
    assert (spec.family, spec.s, spec.n) == (Family.SQUAREROOT, 3, 150)
    spec = parse_instance_name("4gp30")
    assert spec.family == Family.PLANTED
    assert parse_instance_name("6cq18").family == Family.CLIQUE  # published alias
    assert parse_instance_name("6c18").family == Family.CLIQUE


def test_parse_rejections():
    with pytest.raises(ValueError, match="s must be"):
        parse_instance_name("2r10")
    with pytest.raises(ValueError, match="family tag"):
        parse_instance_name("3zz10")
    with pytest.raises(ValueError, match="malformed"):
        parse_instance_name("r10")


def test_seed_is_s_plus_n_plus_index():
    assert parse_instance_name("3r150", 1).seed == 154
    assert parse_instance_name("5r40", 7).seed == 52
    assert generate(parse_instance_name("3r150", 1)).seed == 154


def test_generation_deterministic():
    for name in ("3r20", "3gp20", "3c10", "3g10", "3p10", "3sr10"):
        a = generate(parse_instance_name(name, 5))
        b = generate(parse_instance_name(name, 5))
        coords = all_vectors(a.s, a.n)[:1000]
        assert np.array_equal(a.weight_batch(coords), b.weight_batch(coords)), name


def test_random_weight_range():
    inst = generate(parse_instance_name("3r25", 1))
    w = inst.weight_batch(all_vectors(3, 25)[:8000])
    assert w.min() >= 1 and w.max() <= 100


def test_clique_weight_range():
    for s, n in ((3, 8), (4, 5)):
        inst = generate(FamilySpec(Family.CLIQUE, s, n))
        w = inst.weight_batch(all_vectors(s, n))
        pairs = s * (s - 1) // 2
        assert w.min() >= pairs
        assert w.max() <= 100 * pairs


def test_product_weight_range():
    inst = generate(FamilySpec(Family.PRODUCT, 3, 8))
    w = inst.weight_batch(all_vectors(3, 8))
    assert w.min() >= 1 and w.max() <= 10**3


def test_planted_is_lower_bound_over_samples():
    inst = generate(parse_instance_name("4gp8", 1))
    planted_w = assignment_weight(inst, inst.weights.planted)
    assert planted_w == 8.0
    rng = SplitMix64(99)
    best_sampled = np.inf
    base = inst.weights.planted
    for _ in range(10_000):
        best_sampled = min(best_sampled, assignment_weight(inst, perturb(base, rng)))
    assert planted_w <= best_sampled


def test_known_optimum():
    assert known_optimum(generate(parse_instance_name("3r150", 1))) == 150.0
    assert known_optimum(generate(parse_instance_name("5gp12", 1))) == 12.0
    assert known_optimum(generate(parse_instance_name("3c10", 1))) is None


def test_known_optimum_is_lower_bound():
    for name, expected in (("3r150", 150.0), ("5gp12", 12.0), ("8r9", 9.0), ("4gp30", 30.0)):
        inst = generate(parse_instance_name(name, 2))
        assert known_optimum(inst) == inst.lower_bound() == expected
    perms = np.vstack([np.arange(9), np.roll(np.arange(9), 1), np.arange(9)[::-1], np.arange(9)])
    inst = Instance(4, 9, Family.PLANTED, 3, Planted(5, 17, Assignment(perms)))
    assert known_optimum(inst) == inst.lower_bound() == 45.0
    assert assignment_weight(inst, inst.weights.planted) == 45.0
    for name in ("3c10", "4g6", "5p5", "3sr10"):
        assert known_optimum(generate(parse_instance_name(name, 2))) is None


@pytest.mark.parametrize("name", ["3r4", "3gp4", "3c4", "3g4", "3p4", "3sr4", "4c3", "4p3"])
def test_lower_bound_at_most_optimum(name):
    for index in (1, 2, 3):
        inst = generate(parse_instance_name(name, index))
        optimum = brute_force_optimum(inst)
        assert inst.lower_bound() <= optimum
        if inst.family == Family.PLANTED:
            assert inst.lower_bound() == optimum


def test_lower_bound_at_most_optimum_explicit(rng):
    for s, n in ((3, 4), (4, 3), (3, 3)):
        for _ in range(3):
            inst = random_explicit(s, n, rng, lo=20)
            assert 20 * n <= inst.lower_bound() <= brute_force_optimum(inst)


def test_nearby_seeds_give_unrelated_instances():
    # the weight tables of consecutive indices must not be permutations of
    # one another (guards the counter keying against rank-space aliasing)
    w1 = generate(parse_instance_name("3r8", 1)).weight_batch(all_vectors(3, 8))
    w2 = generate(parse_instance_name("3r8", 2)).weight_batch(all_vectors(3, 8))
    assert not np.array_equal(np.sort(w1), np.sort(w2))


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(Family.RANDOM, 3, 10, index=0)
    with pytest.raises(ValueError):
        FamilySpec(Family.RANDOM, 2, 10)


def test_splitmix_block_matches_scalar():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    scalar = [a.next_u64() for _ in range(100)]
    assert np.array_equal(np.asarray(scalar, dtype=np.uint64), b.next_block(100))


def test_random_families_reject_rank_wraparound():
    # 300^8 > 2^64: the uint64 rank of LazyRandom would wrap and alias weights
    for name in ("8r300", "8gp300"):
        with pytest.raises(ValueError, match="2\\^64"):
            generate(parse_instance_name(name, 1))
    inst = generate(parse_instance_name("8r200", 1))  # 200^8 < 2^64
    coords = np.array([[199] * 8, [0] * 8])
    assert inst.weight_batch(coords).shape == (2,)
