"""Command-line interface.

Verbs: generate, construct, solve, bench, nbhd, bound, ap2, verify.
Exit codes: 0 ok, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import bench as bench_mod
from .analysis import nbhd_size_combined, nbhd_size_dv, nbhd_size_kopt, optimum_probability_bound
from .ap2 import solve_ap2
from .bench import CONSTRUCT_LABELS, CONSTRUCTORS, CSV_COLUMNS, ExperimentSpec, _num, suite_names
from .core import assignment_weight
from .files import dump_assignment, dump_instance, load_assignment, load_instance, save_assignment
from .generate import generate, parse_instance_name
from .localsearch import DV_VARIANTS, LS_NAMES, V_VARIANTS
from .meta import MetaConfig

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _parse_duration(text: str) -> float:
    t = text.strip().lower()
    if t.endswith("ms"):
        return float(t[:-2]) / 1000.0
    if t.endswith("s"):
        return float(t[:-1])
    return float(t)


def _parse_indices(text: str) -> list[int]:
    t = text.strip()
    if ".." in t:
        lo, hi = t.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in t.split(",") if part]


def _meta_from_args(args) -> MetaConfig | None:
    has_budget = args.time is not None or args.iters is not None
    if args.meta is None and not has_budget:
        return None
    kind = args.meta or "chain"
    if args.time is not None and args.iters is not None:
        raise ValueError("give exactly one of --time / --iters")
    if not has_budget:
        raise ValueError("a metaheuristic needs --time or --iters")
    return MetaConfig(
        kind=kind,
        c=args.multichain_width,
        time_budget=_parse_duration(args.time) if args.time is not None else None,
        iteration_cap=args.iters,
        rng_seed=args.meta_seed,
    )


def _add_instance_args(p, index_default=1):
    p.add_argument("--name", required=True, help="instance name, e.g. 3r150 or 5gp12")
    p.add_argument("--index", type=int, default=index_default, help="instance index (seed = s+n+index)")


def _add_meta_args(p):
    p.add_argument("--meta", choices=["chain", "multichain"], default=None)
    p.add_argument("--time", default=None, help="wall-clock budget of the metaheuristic, e.g. 10s;"
                   " instance generation and construction run before it starts")
    p.add_argument("--iters", type=int, default=None, help="local-search call cap")
    p.add_argument("--meta-seed", type=int, default=0)
    p.add_argument("--multichain-width", type=int, default=5, metavar="C")


def build_parser() -> _Parser:
    parser = _Parser(prog="mapls", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="emit an instance file")
    _add_instance_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="run a construction heuristic")
    _add_instance_args(p)
    p.add_argument("--heuristic", required=True, choices=sorted(CONSTRUCTORS))
    p.add_argument("--out", default=None, help="write the assignment here instead of stdout")
    p.add_argument("--csv", action="store_true", help="print a summary row instead of the assignment")

    p = sub.add_parser("solve", help="construct + local search (+ metaheuristic), one CSV row")
    _add_instance_args(p)
    p.add_argument("--construct", default="trivial", choices=sorted(CONSTRUCTORS))
    p.add_argument("--ls", default="1dv", choices=LS_NAMES)
    p.add_argument("--ls-variant", default="improved", choices=V_VARIANTS)
    _add_meta_args(p)
    p.add_argument("--header", action="store_true", help="print the CSV header line too")

    p = sub.add_parser("bench", help="run an experiment suite")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=["desk", "paper-full"])
    group.add_argument("--names", help="comma-separated instance names")
    p.add_argument("--indices", default=None, help="e.g. 1..10 or 1,2,3")
    p.add_argument("--construct", default="trivial", choices=sorted(CONSTRUCTORS))
    p.add_argument("--ls", default="1dv", choices=LS_NAMES)
    p.add_argument("--ls-variant", default="improved", choices=V_VARIANTS)
    _add_meta_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "markdown"])

    p = sub.add_parser("nbhd", help="closed-form neighborhood cardinality")
    p.add_argument("--variant", required=True,
                   help="1dv/2dv/sdv, 2opt/3opt, or a union like sdv+3opt")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bound", help="optimum-probability lower bound")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True, help="weight range width b - a")

    p = sub.add_parser("ap2", help="solve a 2-AP from a whitespace matrix file")
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("verify", help="re-check a serialized assignment")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", help="instance file")
    src.add_argument("--name", help="instance name to regenerate")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--assignment", required=True)

    return parser


def _cmd_generate(args) -> int:
    inst = generate(parse_instance_name(args.name, args.index))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            dump_instance(inst, out)
    else:
        dump_instance(inst, sys.stdout)
    return 0


def _cmd_construct(args) -> int:
    fam = parse_instance_name(args.name, args.index)
    inst = generate(fam)
    t0 = time.perf_counter()
    a = CONSTRUCTORS[args.heuristic](inst)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.csv:
        label = CONSTRUCT_LABELS.get(args.heuristic, args.heuristic)
        w = assignment_weight(inst, a)
        print(f"{fam.name},{fam.index},{fam.seed},{label},{_num(w)},{ms:.1f}")
        return 0
    if args.out:
        save_assignment(a, args.out)
    else:
        dump_assignment(a, sys.stdout)
    return 0


def _cmd_solve(args) -> int:
    spec = ExperimentSpec([args.name], [args.index], args.construct, args.ls, args.ls_variant,
                          _meta_from_args(args))
    [row] = bench_mod.run_experiment(spec).rows
    if args.header:
        print(",".join(CSV_COLUMNS))
    print(",".join(row.csv_values()))
    return 0


def _cmd_bench(args) -> int:
    if args.suite:
        names, indices = suite_names(args.suite)
    else:
        names, indices = [t for t in args.names.split(",") if t], list(range(1, 11))
    if args.indices:
        indices = _parse_indices(args.indices)
    spec = ExperimentSpec(
        instance_names=names, indices=indices,
        construct=args.construct, ls=args.ls, ls_variant=args.ls_variant,
        meta=_meta_from_args(args),
    )
    result = bench_mod.run_experiment(spec)
    text = result.to_csv() if args.format == "csv" else result.to_markdown()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_nbhd(args) -> int:
    variant = args.variant.lower()
    if variant in DV_VARIANTS:
        size = nbhd_size_dv(variant, args.s, args.n)
    elif variant in ("2opt", "3opt"):
        size = nbhd_size_kopt(2 if variant == "2opt" else 3, args.s, args.n)
    elif "+" in variant:
        dv, vw = variant.split("+", 1)
        if dv not in DV_VARIANTS or vw not in ("2opt", "3opt"):
            raise ValueError(f"unknown neighborhood {args.variant!r}")
        size = nbhd_size_combined(dv, 2 if vw == "2opt" else 3, args.s, args.n)
    else:
        raise ValueError(f"unknown neighborhood {args.variant!r}")
    print(size)
    return 0


def _cmd_bound(args) -> int:
    res = optimum_probability_bound(args.s, args.n, args.c)
    print(f"sigma={res.sigma:.6g} pr_lower={res.pr_lower:.3f} "
          f"applicable={'yes' if res.applicable else 'no'}")
    return 0


def _cmd_ap2(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        tokens = [float(t) for t in fh.read().split()]
    n = math.isqrt(len(tokens))
    if n * n != len(tokens) or n == 0:
        raise ValueError(f"{args.matrix}: expected n*n entries, got {len(tokens)}")
    with np.errstate(over="ignore"):  # an overflowing cost is an error from solve_ap2, not also a warning
        perm, cost = solve_ap2(np.asarray(tokens).reshape(n, n))
    print("cost", _num(cost))
    print("perm", " ".join(str(v + 1) for v in perm))
    return 0


def _cmd_verify(args) -> int:
    if args.instance:
        inst = load_instance(args.instance)
    else:
        inst = generate(parse_instance_name(args.name, args.index))
    a = load_assignment(args.assignment, inst.s, inst.n)
    a.validate()
    print(f"OK weight={_num(assignment_weight(inst, a))}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "construct": _cmd_construct,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "nbhd": _cmd_nbhd,
    "bound": _cmd_bound,
    "ap2": _cmd_ap2,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"mapls {args.verb}: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
