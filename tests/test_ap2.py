"""2-AP solver: examples, brute-force optimality, determinism, start-up."""

import subprocess
import sys

import numpy as np
import pytest

from mapls import solve_ap2

from conftest import brute_force_ap2


def test_all_zeros_returns_identity():
    for n in (1, 2, 4, 6):
        perm, cost = solve_ap2(np.zeros((n, n)))
        assert cost == 0.0
        assert perm.tolist() == list(range(n))


def test_two_by_two_example():
    perm, cost = solve_ap2(np.array([[1.0, 2.0], [3.0, 0.0]]))
    # identity costs 1, the swap costs 5
    assert cost == 1.0
    assert perm.tolist() == [0, 1]


def test_random_matrices_against_brute_force(rng):
    for n in range(1, 8):
        for _ in range(10):
            m = rng.integers(0, 100, size=(n, n)).astype(float)
            _, cost = solve_ap2(m)
            assert cost == brute_force_ap2(m)


def test_optimality_over_all_permutations(rng):
    from itertools import permutations

    m = rng.integers(0, 50, size=(5, 5)).astype(float)
    _, cost = solve_ap2(m)
    for p in permutations(range(5)):
        assert cost <= sum(m[i, p[i]] for i in range(5)) + 1e-12


def test_row_constant_shift(rng):
    m = rng.integers(0, 50, size=(6, 6)).astype(float)
    _, cost = solve_ap2(m)
    shifted = m.copy()
    shifted[2] += 17.0
    _, cost2 = solve_ap2(shifted)
    assert cost2 == cost + 17.0
    shifted_col = m.copy()
    shifted_col[:, 3] += 9.0
    _, cost3 = solve_ap2(shifted_col)
    assert cost3 == cost + 9.0


def test_deterministic(rng):
    m = rng.integers(0, 5, size=(7, 7)).astype(float)  # plenty of ties
    p1, c1 = solve_ap2(m)
    p2, c2 = solve_ap2(m)
    assert c1 == c2
    assert p1.tolist() == p2.tolist()


def test_real_entries(rng):
    m = rng.random((5, 5))
    _, cost = solve_ap2(m)
    assert abs(cost - brute_force_ap2(m)) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        solve_ap2(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        solve_ap2(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_ap2(np.zeros((0, 0)))


def test_overflowing_cost_is_refused():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        solve_ap2(np.full((2, 2), 1e308))


# Imports mapls, records whether that imported scipy.optimize, then compares
# solve_ap2 with scipy.optimize.linear_sum_assignment on tie-heavy integer
# matrices and on real ones. "fallback" first hides every extension suffix
# from ap2's loader, so it must import the solver through scipy.optimize.
_SOLVER_CHECK = """
import importlib.machinery, sys
if sys.argv[1] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES.clear()
import numpy as np
import mapls, mapls.cli
lean = "scipy.optimize" not in sys.modules
import scipy.optimize
rng = np.random.default_rng(26)
mats = [rng.integers(0, 4, size=(n, n)).astype(float) for n in range(1, 41)]
mats += [rng.random((n, n)) for n in (1, 2, 7, 40)]
for m in mats:
    perm, cost = mapls.solve_ap2(m)
    rows, cols = scipy.optimize.linear_sum_assignment(m)
    assert perm.tolist() == cols.tolist() and cost == float(m[rows, cols].sum())
print(lean, mapls.ap2.linear_sum_assignment is scipy.optimize.linear_sum_assignment)
"""


@pytest.mark.parametrize("mode, lean", [("extension", True), ("fallback", False)])
def test_solver_loads_without_scipy_optimize(mode, lean):
    r = subprocess.run([sys.executable, "-c", _SOLVER_CHECK, mode], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [str(lean), "True"]
