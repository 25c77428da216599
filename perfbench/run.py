"""The repository's benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload desk|vopt|scan --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from `src/`.
Every pass over the workload's job list runs in a fresh single-threaded
worker process (`worker.py`). The run starts another pass while the time
spent so far plus its slowest pass stays within `--seconds`, so it makes at
least one. With `--trace 0` it reports the end-to-end metrics: medians over
passes, percentiles over the pooled samples, and set-up time as the median
over at least seven fresh processes. With `--trace 1` it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.

Seed 0 runs the inputs the stored references in `reference/` were recorded
from and checks outputs against them; other seeds get the structural checks
only (see workloads.py). Scratch files go to `.bench_build/perfbench/` and
are removed at exit, except the spans of traced passes, written there as
`spans-<workload>-seed<N>-<pass>.jsonl`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name each
metric with its unit, the failure share, and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from tracer import derive_metrics, layer_unit  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "mapls"
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("desk", "vopt", "scan")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "ls_calls_per_s": "1/s",
    "ls_call_ms_p50": "ms",
    "ls_call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(
            os.environ, **THREADS,
            PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
            # the library's default registry path, should anything fall back to it
            MAPLS_REGISTRY=str(workdir / "mapls_best_known.txt"),
        )

    def worker(self, *extra: str) -> dict:
        """Run worker.py in a fresh process and return its JSON result."""
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--workdir", str(self.workdir), *extra,
        ]
        spawned_at = time.monotonic()
        cmd += ["--spawned-at", repr(spawned_at)]
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned_at),
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker passed the {DEADLINE_S:.0f} s deadline: {' '.join(cmd)}")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def run_passes(self) -> None:
        """Untraced (and traced) passes, as many as fit into --seconds, at least one round."""
        start = time.monotonic()
        slowest = 0.0
        while True:
            t = time.monotonic()
            self.untraced.append(self.worker("--trace", "0"))
            if self.args.trace:
                spans = BUILD / f"spans-{self.args.workload}-seed{self.args.seed}-{len(self.traced) + 1}.jsonl"
                self.traced.append(self.worker("--trace", "1", "--spans-out", str(spans)))
            slowest = max(slowest, time.monotonic() - t)
            if time.monotonic() - start + slowest > self.args.seconds:
                return

    def setups(self) -> list[float]:
        samples = [p["setup_s"] for p in self.untraced]
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.worker("--setup-only")["setup_s"])
        return samples


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    job_ms = [x for p in passes for x in p["job_ms"]]
    call_ms = [x for p in passes for x in p["ls_call_ms"]]
    if not call_ms or not all(p["chain_s"] > 0 for p in passes):
        raise WorkerFailed("a pass completed no chain, so there is nothing to measure")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": _p90(job_ms),
        "ls_calls_per_s": statistics.median(p["ls_calls"] / p["chain_s"] for p in passes),
        "ls_call_ms_p50": statistics.median(call_ms),
        "ls_call_ms_p90": _p90(call_ms),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, counters averaged over the traced passes."""
    counters: dict[str, float] = {}
    for p in traced:
        for key, value in p["counters"].items():
            counters[key] = counters.get(key, 0.0) + value / len(traced)
    return derive_metrics(
        counters,
        statistics.median(p["wall_s"] for p in untraced),
        statistics.median(p["wall_s"] for p in traced),
    )


def run_metadata(args, n_passes: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # the checkout may be a plain copy
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": n_passes,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": THREADS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0; 0 checks against the references")
    parser.add_argument("--seconds", type=int, default=15, help="measuring time per run, >= 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no library at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that the running worker is killed and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    runner = Runner(args, workdir)
    try:
        runner.run_passes()
        if args.trace:
            metrics = per_layer(runner.untraced, runner.traced)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(runner.untraced, runner.setups())
            units = END_TO_END_UNITS
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for p in runner.untraced + runner.traced:
            for label, reason in list(p["failures"].items())[:5]:
                print(f"FAILED {label}: {reason}", file=sys.stderr)

    passes = runner.untraced + runner.traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(min(len(p["failures"]), p["attempted"]) for p in passes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runner.untraced)} untraced and {len(runner.traced)} traced passes")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':<44} {failed / attempted if attempted else 0.0:>14.6g} ({failed} of {attempted} jobs)")
    print("run " + json.dumps(run_metadata(args, len(passes))))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
