"""Closed-form neighborhood cardinalities and the random-instance
optimality-probability bound.

Cardinalities use exact integer arithmetic (n! overflows fixed width as
early as n = 21); the probability bound works in the log domain because its
terms span hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .localsearch import DV_VARIANTS


def _check_shape(s: int, n: int = 1) -> None:
    if s < 3:
        raise ValueError(f"s must be >= 3, got {s}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def dv_family_size(variant: str, s: int) -> int:
    """|D| for a DV variant."""
    if variant not in DV_VARIANTS:
        raise ValueError(f"unknown DV variant {variant!r}")
    _check_shape(s)
    if variant == "1dv":
        return s
    if variant == "2dv":
        return 2 ** (s - 1) - 1 if s in (3, 4) else math.comb(s, 2) + s
    return 2 ** (s - 1) - 1


def nbhd_size_dv(variant: str, s: int, n: int) -> int:
    """|N_DV| = |D| * (n! - 1) + 1."""
    _check_shape(s, n)
    return dv_family_size(variant, s) * (math.factorial(n) - 1) + 1


def kopt_moves(k: int, s: int) -> int:
    """Number of recombinations of k vectors changing all of them somewhere:
    N^2 = 2^(s-1) - 1, N^3 = 6^(s-1) - 3*2^(s-1) + 2."""
    if k == 2:
        return 2 ** (s - 1) - 1
    if k == 3:
        return 6 ** (s - 1) - 3 * 2 ** (s - 1) + 2
    raise ValueError("k must be 2 or 3")


def nbhd_size_kopt(k: int, s: int, n: int) -> int:
    """|N_k-opt| = 1 + sum_{i=2..k} C(n,i) * N^i (C handles k > n)."""
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    _check_shape(s, n)
    total = 1
    for i in range(2, k + 1):
        total += math.comb(n, i) * kopt_moves(i, s)
    return total


def derangements(i: int) -> int:
    """d_i = i! * sum_{m=0..i} (-1)^m / m!, exactly."""
    return sum((-1) ** m * math.factorial(i) // math.factorial(m) for m in range(i + 1))


def moves_at_most(k: int, n: int) -> int:
    """r_k: permutations of n elements moving at most k of them."""
    return sum(math.comb(n, i) * derangements(i) for i in range(k + 1))


def nbhd_size_combined(variant: str, k: int, s: int, n: int) -> int:
    """|N_{DV+k-opt}| = 1 + |D|(n!-1) + sum C(n,i)N^i - |D|(r_k - 1).

    Valid for every (variant, k) pair, including sdv with k=2, for which it
    collapses onto |N_sDV| (the search itself rejects that pairing).
    """
    _check_shape(s, n)
    d = dv_family_size(variant, s)
    total = 1 + d * (math.factorial(n) - 1)
    for i in range(2, k + 1):
        total += math.comb(n, i) * kopt_moves(i, s)
    return total - d * (moves_at_most(k, n) - 1)


@dataclass
class BoundResult:
    sigma: float
    pr_lower: float
    applicable: bool


def optimum_probability_bound(s: int, n: int, c: int) -> BoundResult:
    """Lower bound on the probability that a random instance with integer
    weights spanning c consecutive values admits a minimum-possible-weight
    assignment: 1 - exp(-1/(2 sigma)) with
    sigma = sum_{k=1..n-2} C(n,k) c^k / [n (n-1) ... (n-k+1)]^(s-1),
    applicable when ((n-1)/e)^(s-1) >= c * 2^(1/(n-1))."""
    _check_shape(s)
    if n < 3:
        raise ValueError("the bound needs n >= 3")
    if c < 1:
        raise ValueError("c must be >= 1")
    log_c = math.log(c)
    log_falling = 0.0  # log of n (n-1) ... (n-k+1)
    sigma = 0.0
    for k in range(1, n - 1):
        log_falling += math.log(n - k + 1)
        log_term = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_c - (s - 1) * log_falling
        )
        sigma += math.exp(log_term) if log_term < 700 else math.inf
    pr_lower = -math.expm1(-1.0 / (2.0 * sigma)) if sigma > 0 else 1.0
    applicable = (s - 1) * (math.log(n - 1) - 1.0) >= log_c + math.log(2.0) / (n - 1)
    return BoundResult(sigma, pr_lower, applicable)
