"""Shared helpers: explicit-tensor builders and brute-force oracles."""

import os
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from mapls import ExplicitTensor, Family, Instance


def explicit_instance(s: int, n: int, values) -> Instance:
    return Instance(s, n, Family.EXPLICIT, 0, ExplicitTensor(s, n, values))


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
