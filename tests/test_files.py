"""Instance and assignment file formats."""

import numpy as np
import pytest

from mapls import (
    Assignment,
    Instance,
    LazyRandom,
    Planted,
    assignment_weight,
    generate,
    greedy,
    load_assignment,
    load_instance,
    parse_instance_name,
    save_assignment,
    save_instance,
)
from mapls.rng import SplitMix64

from conftest import all_vectors, explicit_instance

# s = 5..8 as well, which take each family's arrays in an order checked at
# up to 28 dimension pairs
ALL_FAMILY_NAMES = ["3r5", "3gp5", "3c5", "3g5", "3p5", "3sr5",
                    "4r4", "4gp4", "4c4", "4g4", "4p4", "4sr4",
                    "5c3", "6sr2", "7g2", "8p2"]


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_instance_round_trip(name, tmp_path):
    inst = generate(parse_instance_name(name, 2))
    path = tmp_path / "inst.map"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert (loaded.s, loaded.n, loaded.family, loaded.seed) == (inst.s, inst.n, inst.family, inst.seed)
    coords = all_vectors(inst.s, inst.n)
    assert np.array_equal(loaded.weight_batch(coords), inst.weight_batch(coords))
    again = tmp_path / "again.map"
    save_instance(loaded, again)
    assert again.read_text() == path.read_text()


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_serialization_bit_identical(name, tmp_path):
    p1, p2 = tmp_path / "a.map", tmp_path / "b.map"
    save_instance(generate(parse_instance_name(name, 3)), p1)
    save_instance(generate(parse_instance_name(name, 3)), p2)
    assert p1.read_text() == p2.read_text()


@pytest.mark.parametrize("inst", [
    Instance(LazyRandom(3, 5, 0, 1000), 7),  # not the generator's range
    Instance(Planted(1, 101, Assignment.identity(3, 6)), 1),  # not the seed's planted perms
], ids=["random", "planted"])
def test_save_refuses_what_the_seed_does_not_rebuild(inst, tmp_path):
    # the header holds only the seed, so loading would change the weights
    path = tmp_path / "inst.map"
    path.write_text("kept")
    with pytest.raises(ValueError, match="only generated instances"):
        save_instance(inst, path)
    assert path.read_text() == "kept"


@pytest.mark.parametrize("name, lo, hi, lines, per_line", [
    ("5c3", 1, 100, 10 * 3, 3),  # one 3 x 3 table per pair, 10 pairs
    ("6sr2", 1, 100, 15 * 2, 2),
    ("7g2", 1, 100, 7 * 2, 2),  # one (2, 2) point array per dimension
    ("8p2", 1, 10, 8, 2),  # one factor array per dimension, a line each
])
def test_file_body_is_the_generator_draw(name, lo, hi, lines, per_line, tmp_path):
    # the file lists a family's arrays in the order the generator draws
    # them, one array row per line: the body is the seed's stream
    spec = parse_instance_name(name, 2)
    path = tmp_path / "inst.map"
    save_instance(generate(spec), path)
    header, sentinel, *body = path.read_text().splitlines()
    assert (header, sentinel) == (f"MAP {spec.s} {spec.n} {spec.family.value} {spec.seed}", "DATA")
    assert [len(line.split()) for line in body] == [per_line] * lines
    want = SplitMix64(spec.seed).randint_block(lo, hi, lines * per_line)
    assert [int(v) for line in body for v in line.split()] == want.tolist()


@pytest.mark.parametrize("family, need", [("clique", 54), ("squareroot", 54), ("geometric", 24), ("product", 12)])
def test_load_instance_counts_the_body(family, need, tmp_path):
    path = tmp_path / "bad.map"
    for count in (need - 1, need + 1):
        path.write_text(f"MAP 4 3 {family} 1\nDATA\n" + "1 " * count)
        with pytest.raises(ValueError, match=f"expected {need} {family} values, got {count}"):
            load_instance(path)
    path.write_text(f"MAP 4 3 {family} 1\nDATA\n" + "1 " * need)
    loaded = load_instance(path)
    assert (loaded.s, loaded.n, loaded.family.value) == (4, 3, family)


def test_explicit_round_trip(tmp_path):
    inst = explicit_instance(3, 2, np.arange(8.0))
    path = tmp_path / "e.map"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert np.array_equal(loaded.weight_batch(all_vectors(3, 2)), inst.weight_batch(all_vectors(3, 2)))


def test_explicit_header_format(tmp_path):
    inst = explicit_instance(3, 2, np.arange(8.0))
    path = tmp_path / "e.map"
    save_instance(inst, path)
    first = path.read_text().splitlines()[0]
    assert first == "MAP 3 2 explicit 0"


def test_assignment_round_trip(tmp_path):
    inst = generate(parse_instance_name("4r6", 1))
    a = greedy(inst)
    path = tmp_path / "a.txt"
    save_assignment(a, path)
    b = load_assignment(path, 4, 6)
    assert b == a
    assert assignment_weight(inst, b) == assignment_weight(inst, a)


def test_assignment_file_is_one_based(tmp_path):
    path = tmp_path / "a.txt"
    save_assignment(Assignment.identity(3, 3), path)
    assert path.read_text() == "1 2 3\n1 2 3\n"


def test_load_assignment_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        load_assignment(path, 3, 3)  # one line missing
    path.write_text("1 2 3\n1 2\n")
    with pytest.raises(ValueError):
        load_assignment(path, 3, 3)
    path.write_text("1 2 3\n1 1 3\n")
    with pytest.raises(ValueError):
        load_assignment(path, 3, 3)  # not a permutation


@pytest.mark.parametrize("header", ["MAP 3 -5 random 7", "MAP 3 0 random 7", "MAP -1 4 random 7"])
def test_load_instance_rejects_empty_random_shapes(header, tmp_path):
    path = tmp_path / "bad.map"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match="s, n >= 1"):
        load_instance(path)


def test_load_instance_errors(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("MAP 3 x random 1\n")
    with pytest.raises(ValueError):
        load_instance(path)
    path.write_text("MAP 3 2 clique 1\n1 2 3\n")
    with pytest.raises(ValueError):
        load_instance(path)  # missing DATA sentinel
    path.write_text("MAP 3 2 explicit 0\n1 2 3\n")
    with pytest.raises(ValueError):
        load_instance(path)  # wrong value count


@pytest.mark.parametrize("header, message", [
    ("MAP 3 -2 product 0", "needs s, n >= 1, got s=3 n=-2"),
    ("MAP 3 0 clique 1", "needs s, n >= 1, got s=3 n=0"),
    ("MAP 0 4 explicit 0", "needs s, n >= 1, got s=0 n=4"),
    ("MAP 2 4 clique 1", "needs s >= 3, got s=2"),
    ("MAP 2 3 explicit 0", "needs s >= 3, got s=2"),
])
def test_load_instance_refuses_bad_shapes_with_the_path(header, message, tmp_path):
    # the header is checked before the body is counted, so a negative n
    # cannot ask for a negative number of values
    path = tmp_path / "bad.map"
    path.write_text(header + "\nDATA\n")
    with pytest.raises(ValueError) as err:
        load_instance(path)
    assert str(err.value) == f"{path}: instance header {message}"


def test_load_instance_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.map"
    cases = [
        ("MAP 3 2 explicit 0\nDATA\n1 2 3 4 5 6 7\n", "non-numeric value 'DATA'"),
        ("MAP 3 2 clique 1\nDATA\n1 x 3\n", "non-numeric value 'x'"),
        ("MAP 3 x random 1\n", "bad instance header: 'MAP 3 x random 1'"),
        ("", "empty instance file"),
        ("MAP 3 2 clique 1\n1 2 3\n", "missing DATA sentinel for family clique"),
        ("MAP 3 2 explicit 0\n1 2 3\n", "need n^s = 8 values, got 3"),
        ("MAP 3 2 explicit 0\n" + "-1 " * 8, "weights must be non-negative"),
        ("MAP 3 2 product 1\nDATA\n" + "1 " * 5, "expected 6 product values, got 5"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value) == f"{path}: {message}", text
