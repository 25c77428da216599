"""Closed-form cardinalities and the probability bound."""

import math

import pytest

from mapls import (
    derangements,
    moves_at_most,
    nbhd_size_combined,
    nbhd_size_dv,
    nbhd_size_kopt,
    optimum_probability_bound,
)
from mapls.analysis import dv_family_size, kopt_moves


def test_dv_sizes_examples():
    assert nbhd_size_dv("1dv", 3, 3) == 16  # 3 * (6 - 1) + 1
    assert nbhd_size_dv("sdv", 4, 3) == 7 * 5 + 1
    assert nbhd_size_dv("2dv", 5, 2) == (math.comb(5, 2) + 5) * 1 + 1


def test_kopt_sizes_examples():
    assert nbhd_size_kopt(2, 3, 3) == 10
    assert nbhd_size_kopt(3, 3, 3) == 36
    assert kopt_moves(3, 3) == 6**2 - 3 * 2**2 + 2 == 26
    assert nbhd_size_kopt(2, 5, 1) == 1  # C(1,2) = 0: only the center


def test_derangements_small_values():
    assert [derangements(i) for i in range(5)] == [1, 0, 1, 2, 9]


def test_moves_at_most():
    assert moves_at_most(2, 5) == 1 + math.comb(5, 2)
    assert moves_at_most(3, 5) == 1 + math.comb(5, 2) + 2 * math.comb(5, 3)
    assert moves_at_most(2, 5) == 11
    assert moves_at_most(3, 5) == 31


def test_combined_collapse_for_sdv_2opt():
    for s in range(3, 11):
        for n in range(2, 11):
            assert nbhd_size_combined("sdv", 2, s, n) == nbhd_size_dv("sdv", s, n)


def test_combined_strictly_larger_otherwise():
    assert nbhd_size_combined("1dv", 2, 4, 5) > nbhd_size_dv("1dv", 4, 5)
    assert nbhd_size_combined("sdv", 3, 4, 5) > nbhd_size_dv("sdv", 4, 5)


def test_big_numbers_exact():
    # n! territory far beyond 64-bit
    v = nbhd_size_dv("sdv", 8, 25)
    assert v == (2**7 - 1) * (math.factorial(25) - 1) + 1


def test_bound_paper_table():
    table = {
        (4, 15): 0.575, (4, 20): 0.823, (4, 25): 0.943,
        (4, 30): 0.986, (4, 35): 0.997, (4, 40): 1.000,
        (5, 10): 0.991, (5, 11): 0.998, (5, 12): 1.000,
        (6, 8): 1.000, (7, 7): 1.000,
    }
    for (s, n), want in table.items():
        res = optimum_probability_bound(s, n, 100)
        assert round(res.pr_lower, 3) == pytest.approx(want, abs=1e-3), (s, n)
        assert res.applicable


def test_bound_monotone_in_n():
    # strictly increasing over the tabulated ranges (saturates to 1.0 beyond)
    for s, ns in ((4, range(15, 41)), (5, range(10, 13))):
        values = [optimum_probability_bound(s, n, 100).pr_lower for n in ns]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_bound_sigma_positive():
    assert optimum_probability_bound(4, 10, 100).sigma > 0


def test_bound_applicability_edge():
    # s=3 at benchmark scale fails the applicability condition
    res = optimum_probability_bound(3, 20, 100)
    assert not res.applicable
    assert 0.0 <= res.pr_lower <= 1.0
    # but very large n satisfies it even for s=3
    assert optimum_probability_bound(3, 300, 100).applicable


def test_bound_validation():
    with pytest.raises(ValueError):
        optimum_probability_bound(4, 2, 100)
    with pytest.raises(ValueError):
        optimum_probability_bound(4, 10, 0)
    with pytest.raises(ValueError, match="s must be"):
        optimum_probability_bound(2, 10, 100)


@pytest.mark.parametrize("s,n", [(2, 4), (0, 5), (3, 0), (4, -1)])
def test_cardinalities_reject_out_of_range_shapes(s, n):
    for size in (
        lambda: nbhd_size_dv("sdv", s, n),
        lambda: nbhd_size_kopt(3, s, n),
        lambda: nbhd_size_combined("1dv", 2, s, n),
    ):
        with pytest.raises(ValueError):
            size()
    if s < 3:
        with pytest.raises(ValueError, match="s must be"):
            dv_family_size("2dv", s)
