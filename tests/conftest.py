"""Shared helpers: explicit-tensor builders, brute-force oracles and the exact
neighborhood enumeration that certifies local optima."""

import os
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from mapls import Assignment, ExplicitTensor, Instance, apply_dimension_permutation, build_family
from mapls.localsearch import DV_VARIANTS


def explicit_instance(s: int, n: int, values) -> Instance:
    return Instance(ExplicitTensor(s, n, values), 0)


def random_explicit(s: int, n: int, rng, lo=0, hi=60) -> Instance:
    return explicit_instance(s, n, rng.integers(lo, hi, size=n**s).astype(float))


def brute_force_optimum(inst: Instance) -> float:
    """Exact optimum by enumerating all (n!)^(s-1) assignments."""
    best = np.inf
    n, s = inst.n, inst.s
    for tail in product(permutations(range(n)), repeat=s - 1):
        perms = np.vstack([np.arange(n)] + [np.asarray(p) for p in tail])
        w = inst.weight_batch(perms.T).sum()
        best = min(best, w)
    return float(best)


def brute_force_ap2(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    return min(sum(m[i, p[i]] for i in range(n)) for p in permutations(range(n)))


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
    out = {a.copy()}
    for dims in build_family(variant, inst.s):
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
        for tup in product(permutations(range(k)), repeat=s - 1):
            b = a.copy()
            for j in range(1, s):
                b.perms[j, rows] = coords[j][np.asarray(tup[j - 1])]
            out.add(b)
    return out


def from_perm_rows(rows) -> Assignment:
    """Assignment from its s permutation rows, row 0 first."""
    return Assignment(np.asarray(list(rows), dtype=np.int64))


def swap_vectors(u, v, dims) -> np.ndarray:
    """Vector equal to v on the given dimensions and to u elsewhere."""
    out = np.asarray(u, dtype=np.int64).copy()
    vv = np.asarray(v, dtype=np.int64)
    for j in dims:
        out[j] = vv[j]
    return out


def all_vectors(s: int, n: int) -> np.ndarray:
    return np.asarray(list(product(range(n), repeat=s)), dtype=np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session", autouse=True)
def _subprocesses_import_src():
    """CLI tests run `python -m mapls.cli` in a child process; point its
    import path at this checkout's src/ so no install is needed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield
