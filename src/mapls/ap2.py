"""Exact solver for the two-dimensional assignment problem.

Thin, validated wrapper around scipy's shortest-augmenting-path solver
(Jonker-Volgenant with potentials, O(n^3)), which is the subroutine behind
every dimensionwise heuristic and ROM. Deterministic: equal matrices yield
equal permutations, and the all-zeros matrix yields the identity.

The solver is scipy's compiled `linear_sum_assignment`, loaded from its
extension file `scipy/optimize/_lsap<suffix>`. Importing it through
`scipy.optimize` would run that whole package's init, which took most of
`import mapls`'s start-up time and memory. The loaded function is the same
builtin: after a later `import scipy.optimize`, both names are one object.
When no such file exists (another scipy layout), it is imported from
`scipy.optimize` instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np


def _load_linear_sum_assignment():
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    roots = scipy.submodule_search_locations if scipy is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment()


def solve_ap2(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize sum(M[i, perm[i]]) over permutations.

    Returns (perm, cost) with perm an int64 array mapping rows to columns.
    Raises ValueError for complex, non-square or non-finite input, and when
    the optimal cost overflows float64.
    """
    m = np.asarray(matrix)
    if np.iscomplexobj(m):
        raise ValueError("matrix entries must be real")
    m = m.astype(np.float64, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"need a square matrix with n >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    perm, cost = _solve_unchecked(m)
    if not math.isfinite(cost):
        raise ValueError("optimal cost overflows float64")
    return perm.astype(np.int64), cost


def _solve_unchecked(m: np.ndarray) -> tuple[np.ndarray, float]:
    """solve_ap2 without its checks: scipy's column per row and their cost,
    summed as solve_ap2 sums it, for a square float64 matrix of finite
    entries. Nothing checks the matrix, and a cost that overflows comes back
    as inf; the dimensionwise search builds such matrices itself."""
    rows, cols = linear_sum_assignment(m)
    return cols, float(m[rows, cols].sum())
