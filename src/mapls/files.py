"""Text file formats for instances and assignments.

Instance files: line 1 is `MAP <s> <n> <family> <seed>`. Explicit instances
follow with n^s whitespace-separated weights in lexicographic order, n per
line; random and planted instances carry no body (they are regenerated from
the seed, so only the generator's own random and planted instances can be
written). The clique, square-root, geometric and product families carry
their arrays after a `DATA` sentinel line, one array row per line, in the
order and shapes of their layout in `generate.LAYOUTS`, the order the
generator draws them in.

Assignment files: s-1 lines, each a space-separated permutation of 1..n
(the permutations for dimensions 2..s; dimension 1 is the identity).
"""

from __future__ import annotations

import io
from typing import TextIO

import numpy as np

from .core import Assignment, ExplicitTensor, Family, Instance
from .generate import LAYOUTS, build_generated_instance


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
    elif family in LAYOUTS:
        out.write("DATA\n")
        layout = LAYOUTS[family]
        _write_block(out, layout.arrays(model), layout.shape(inst.s, inst.n)[-1])
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
    if s < 1 or n < 1:
        raise ValueError(f"instance header needs s, n >= 1, got s={s} n={n}")
    if s < 3:
        raise ValueError(f"instance header needs s >= 3, got s={s}")
    return s, n, family, seed


def _numbers(tokens: list[str]) -> list[float]:
    values = []
    for t in tokens:
        try:
            values.append(float(t))
        except ValueError:
            raise ValueError(f"non-numeric value {t!r}") from None
    return values


def _parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty instance file")
    s, n, family, seed = _parse_header(lines[0])
    rest = "\n".join(lines[1:])

    if family in (Family.RANDOM, Family.PLANTED):
        return build_generated_instance(family, s, n, seed)

    if family == Family.EXPLICIT:
        return Instance(ExplicitTensor(s, n, _numbers(rest.split())), seed)

    layout = LAYOUTS[family]
    _, sentinel, data = rest.partition("DATA")
    if not sentinel:
        raise ValueError(f"missing DATA sentinel for family {family.value}")
    tokens = _numbers(data.split())
    if len(tokens) != layout.size(s, n):
        raise ValueError(f"expected {layout.size(s, n)} {family.value} values, got {len(tokens)}")
    return Instance(layout.model(s, n, tokens), seed)


def load_instance(path) -> Instance:
    """Read an instance file; every ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _parse_instance(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
