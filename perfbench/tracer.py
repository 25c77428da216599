"""Layer spans recorded from outside the library.

`Tracer.wrap` replaces a public function at the name its calling module binds
(for example `mapls.localsearch.solve_ap2`) with a wrapper that records one
span per call: name, start, end, parent span and the current job label. Spans
stay in memory until `write` is called at the end of a pass. Nothing here
runs unless the benchmark is started with `--trace 1`.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the durations of the root
spans; the rest of the traced window (from `install` to the end of the pass)
is unattributed.
"""

from __future__ import annotations

import importlib
import json
import time

LAYERS = ("core", "ap2", "construct", "localsearch", "meta", "generate", "bench")
FAMILIES = ("random", "planted", "clique", "squareroot", "geometric", "product")
SMALL_ROWS = 1_000
LARGE_ROWS = 100_000

_NAME, _START, _END, _PARENT, _JOB, _INFO = range(6)


def _batch_info(args, kwargs, out):
    inst, coords = args[0], args[1]
    return inst.family.value, len(coords)


def _report_info(args, kwargs, out):
    from mapls.localsearch import EPS

    return out.passes, out.candidate_evals, out.final_weight < out.initial_weight - EPS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.t0 = 0.0

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a span around every call of `owner.attr` (module, class or dict)."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if info is not None:
                rec[_INFO] = info(args, kwargs, out)
            return out

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every public entry point of the layers, at each binding a caller uses."""
        # by module path: the package re-exports functions named like their modules
        bench, construct, core, generate, ls, meta = (
            importlib.import_module(f"mapls.{m}")
            for m in ("bench", "construct", "core", "generate", "localsearch", "meta")
        )
        self.t0 = time.perf_counter()
        self.wrap(core.Instance, "weight_batch", "core.weight_batch", _batch_info)
        self.wrap(ls, "swap_weight_matrix", "core.swap_weight_matrix")
        for owner in (ls, construct):
            self.wrap(owner, "solve_ap2", "ap2.solve_ap2")
        for fn in ("trivial", "greedy", "max_regret", "rom"):
            self.wrap(construct, fn, f"construct.{fn}")
        for key, fn in list(bench.CONSTRUCTORS.items()):
            self.wrap(bench.CONSTRUCTORS, key, f"construct.{fn.__name__}")
        for fn in ("dv_search", "k_opt", "v_opt", "combined"):
            self.wrap(ls, fn, f"localsearch.{fn}", _report_info)
        for owner in (meta, bench):
            self.wrap(owner, "chain", "meta.chain")
        self.wrap(meta, "perturb", "meta.perturb")
        for owner in (generate, bench):
            self.wrap(owner, "generate", "generate.generate")
        # the registry's reads and writes count as resolve_best_known's own time
        for fn in ("run_experiment", "resolve_best_known"):
            self.wrap(bench, fn, f"bench.{fn}")

    def counters(self) -> dict[str, float]:
        """Additive totals from `install` until now; `derive_metrics` turns
        sums of them over passes into metrics. The traced window includes the
        set-up after `install`, so up-front instance generation is attributed."""
        wall_s = time.perf_counter() - self.t0
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        c: dict[str, float] = {"trace.wall_s": wall_s, "trace.root_s": 0.0}

        def add(key, value):
            c[key] = c.get(key, 0.0) + value

        for idx, rec in enumerate(spans):
            name, dur = rec[_NAME], rec[_END] - rec[_START]
            self_s = dur - child[idx]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            add(f"{name.split('.')[0]}.layer_self_s", self_s)
            if rec[_PARENT] < 0:
                add("trace.root_s", dur)
            info = rec[_INFO]
            if name == "core.weight_batch":
                family, rows = info
                add("core.weight_batch.rows", rows)
                add(f"core.weight_batch.{family}.rows", rows)
                add(f"core.weight_batch.{family}.s", dur)
                if rows <= SMALL_ROWS:
                    add("core.weight_batch.small.calls", 1)
                    add("core.weight_batch.small.s", dur)
                if rows >= LARGE_ROWS:
                    add("core.weight_batch.large.rows", rows)
                    add("core.weight_batch.large.s", dur)
            elif info is not None:
                passes, evals, improving = info
                add(f"{name}.passes", passes)
                add(f"{name}.candidate_evals", evals)
                parent = rec[_PARENT]
                if parent < 0 or not spans[parent][_NAME].startswith("localsearch."):
                    add("localsearch.top.calls", 1)
                    add("localsearch.top.improving", int(improving))
        return c

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, job, start and duration in µs,
        parent index and the call details (family and rows, or LS passes, evals, improved)."""
        if not self.spans:
            return
        t0 = self.spans[0][_START]
        with open(path, "w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps([
                    rec[_NAME], rec[_JOB], round((rec[_START] - t0) * 1e6, 1),
                    round((rec[_END] - rec[_START]) * 1e6, 1), rec[_PARENT], rec[_INFO],
                ]) + "\n")


def layer_unit(name: str) -> str:
    for suffix, unit in (("mrows_per_s", "Mrows/s"), ("us_per_call", "us"), ("_s", "s"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive_metrics(c: dict[str, float], untraced_wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from counters summed over the traced passes of a run.

    A rate whose base is empty (the layer did no such work) reads 0.
    """
    g = lambda key: c.get(key, 0.0)  # noqa: E731
    m: dict[str, float] = {}
    wb = "core.weight_batch"
    m[f"{wb}.calls"] = g(f"{wb}.calls")
    m[f"{wb}.rows"] = g(f"{wb}.rows")
    m[f"{wb}.self_s"] = g(f"{wb}.self_s")
    m[f"{wb}.small_us_per_call"] = 1e6 * _ratio(g(f"{wb}.small.s"), g(f"{wb}.small.calls"))
    m[f"{wb}.large_mrows_per_s"] = 1e-6 * _ratio(g(f"{wb}.large.rows"), g(f"{wb}.large.s"))
    for fam in FAMILIES:
        m[f"{wb}.{fam}.mrows_per_s"] = 1e-6 * _ratio(g(f"{wb}.{fam}.rows"), g(f"{wb}.{fam}.s"))
    for name in ("core.swap_weight_matrix", "ap2.solve_ap2"):
        m[f"{name}.calls"] = g(f"{name}.calls")
        m[f"{name}.self_s"] = g(f"{name}.self_s")
    m["ap2.solve_ap2.us_per_call"] = 1e6 * _ratio(g("ap2.solve_ap2.self_s"), g("ap2.solve_ap2.calls"))
    for fn in ("greedy", "max_regret", "rom"):
        m[f"construct.{fn}.self_s"] = g(f"construct.{fn}.self_s")
    for fn, work in (("v_opt", "candidate_evals"), ("k_opt", "candidate_evals"), ("dv_search", "passes")):
        for key in ("calls", "self_s", work):
            m[f"localsearch.{fn}.{key}"] = g(f"localsearch.{fn}.{key}")
    m["localsearch.improving_frac"] = _ratio(g("localsearch.top.improving"), g("localsearch.top.calls"))
    m["meta.chain.self_s"] = g("meta.chain.self_s")
    for name in ("meta.perturb", "bench.resolve_best_known"):
        m[f"{name}.calls"] = g(f"{name}.calls")
        m[f"{name}.self_s"] = g(f"{name}.self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = g(f"{layer}.layer_self_s")
    m["trace.wall_s"] = g("trace.wall_s")
    m["trace.overhead_frac"] = _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s)
    m["trace.unattributed_frac"] = _ratio(g("trace.wall_s") - g("trace.root_s"), g("trace.wall_s"))
    return m
