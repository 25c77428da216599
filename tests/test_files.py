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

from conftest import all_vectors, explicit_instance

ALL_FAMILY_NAMES = ["3r5", "3gp5", "3c5", "3g5", "3p5", "3sr5",
                    "4r4", "4gp4", "4c4", "4g4", "4p4", "4sr4"]


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_instance_round_trip(name, tmp_path):
    inst = generate(parse_instance_name(name, 2))
    path = tmp_path / "inst.map"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert (loaded.s, loaded.n, loaded.family, loaded.seed) == (inst.s, inst.n, inst.family, inst.seed)
    coords = all_vectors(inst.s, inst.n)
    assert np.array_equal(loaded.weight_batch(coords), inst.weight_batch(coords))


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
