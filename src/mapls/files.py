"""Text file formats for instances and assignments.

Instance files: line 1 is `MAP <s> <n> <family> <seed>`. Explicit instances
follow with n^s whitespace-separated weights in lexicographic order; random
and planted instances carry no body (they are regenerated from the seed, so
only the generator's own random and planted instances can be written);
decomposable and geometric instances carry their matrices/points row-major
after a `DATA` sentinel line.

Assignment files: s-1 lines, each a space-separated permutation of 1..n
(the permutations for dimensions 2..s; dimension 1 is the identity).
"""

from __future__ import annotations

import io
from itertools import combinations
from typing import TextIO

import numpy as np

from .core import (
    Assignment,
    CliqueSum,
    ExplicitTensor,
    Family,
    GeometricPoints,
    Instance,
    ProductWeights,
    SquareRootSquares,
)
from .generate import build_generated_instance


def _fmt(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


def _write_block(out: TextIO, values, per_line: int) -> None:
    vals = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, len(vals), per_line):
        out.write(" ".join(_fmt(v) for v in vals[start : start + per_line]) + "\n")


def dump_instance(inst: Instance, out: TextIO) -> None:
    model, family = inst.weights, inst.family
    if family in (Family.RANDOM, Family.PLANTED):
        # the file holds only the seed, so the seed must rebuild this model
        rebuilt = build_generated_instance(family, inst.s, inst.n, inst.seed).weights
        if (model.a, model.b) != (rebuilt.a, rebuilt.b) or (
                family == Family.PLANTED and not np.array_equal(model.planted.perms, rebuilt.planted.perms)):
            raise ValueError(f"seed {inst.seed} does not rebuild this {family.value} instance: "
                             "only generated instances can be saved")
    out.write(f"MAP {inst.s} {inst.n} {family.value} {inst.seed}\n")
    if family == Family.EXPLICIT:
        _write_block(out, model.values, inst.n)
    elif family in (Family.CLIQUE, Family.SQUAREROOT):
        out.write("DATA\n")
        for pair in combinations(range(inst.s), 2):
            _write_block(out, model.mats[pair], inst.n)
    elif family == Family.PRODUCT:
        out.write("DATA\n")
        for f in model.factors:
            _write_block(out, f, inst.n)
    elif family == Family.GEOMETRIC:
        out.write("DATA\n")
        for p in model.points:
            _write_block(out, p, 2)
    # random / planted: header only


def save_instance(inst: Instance, path) -> None:
    out = io.StringIO()
    dump_instance(inst, out)  # first, so that a refused instance leaves the file alone
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())


def _parse_header(line: str):
    parts = line.split()
    if len(parts) != 5 or parts[0] != "MAP":
        raise ValueError(f"bad instance header: {line.strip()!r}")
    try:
        s, n, seed = int(parts[1]), int(parts[2]), int(parts[4])
        family = Family(parts[3].lower())
    except ValueError as exc:
        raise ValueError(f"bad instance header: {line.strip()!r}") from exc
    return s, n, family, seed


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty instance file")
    s, n, family, seed = _parse_header(lines[0])
    rest = "\n".join(lines[1:])

    if family in (Family.RANDOM, Family.PLANTED):
        return build_generated_instance(family, s, n, seed)

    if family == Family.EXPLICIT:
        tokens = rest.split()
        values = np.asarray([float(t) for t in tokens], dtype=np.float64)
        return Instance(ExplicitTensor(s, n, values), seed)

    _, sentinel, data = rest.partition("DATA")
    if not sentinel:
        raise ValueError(f"{path}: missing DATA sentinel for family {family.value}")
    tokens = [float(t) for t in data.split()]

    if family in (Family.CLIQUE, Family.SQUAREROOT):
        pairs = list(combinations(range(s), 2))
        need = len(pairs) * n * n
        if len(tokens) != need:
            raise ValueError(f"{path}: expected {need} matrix entries, got {len(tokens)}")
        mats = {}
        pos = 0
        for pair in pairs:
            mats[pair] = np.asarray(tokens[pos : pos + n * n]).reshape(n, n)
            pos += n * n
        cls = CliqueSum if family == Family.CLIQUE else SquareRootSquares
        return Instance(cls(s, mats), seed)

    if family == Family.PRODUCT:
        if len(tokens) != s * n:
            raise ValueError(f"{path}: expected {s * n} factor entries, got {len(tokens)}")
        factors = [np.asarray(tokens[j * n : (j + 1) * n]) for j in range(s)]
        return Instance(ProductWeights(factors), seed)

    if family == Family.GEOMETRIC:
        if len(tokens) != s * n * 2:
            raise ValueError(f"{path}: expected {s * n * 2} coordinates, got {len(tokens)}")
        pts = [np.asarray(tokens[j * 2 * n : (j + 1) * 2 * n]).reshape(n, 2) for j in range(s)]
        return Instance(GeometricPoints(pts), seed)

    raise ValueError(f"{path}: unsupported family {family.value}")


def dump_assignment(a: Assignment, out: TextIO) -> None:
    for j in range(1, a.s):
        out.write(" ".join(str(v + 1) for v in a.perms[j]) + "\n")


def save_assignment(a: Assignment, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        dump_assignment(a, out)


def load_assignment(path, s: int, n: int) -> Assignment:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != s - 1:
        raise ValueError(f"{path}: expected {s - 1} permutation lines, got {len(rows)}")
    perms = np.empty((s, n), dtype=np.int64)
    perms[0] = np.arange(n)
    for j, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ValueError(f"{path}: line {j} has {len(row)} entries, expected {n}")
        perms[j] = np.asarray([int(t) - 1 for t in row])
    a = Assignment(perms)
    a.validate()
    return a
