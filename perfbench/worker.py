"""One pass of one workload, in a fresh process; `run.py` starts it.

Prints one JSON object: set-up time (from `--spawned-at`, the parent's
`time.monotonic()` just before it started this process, to the first job),
the pass's wall time, per-job and per-local-search-call latencies, the chain
call count and time, peak RSS, the failed jobs and, with `--trace 1`, the
per-layer counters. The checks run after the timed pass.

`--record` runs the pass on the default seed and overwrites the stored
reference instead of checking against it; use it only when a change is meant
to alter results, and say why in that change.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t0 = time.perf_counter()
    p = workload.run(tracer)
    wall_s = time.perf_counter() - t0
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_ms": p.job_ms,
        "ls_call_ms": p.ls_call_ms,
        "ls_calls": p.ls_calls,
        "chain_s": p.chain_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["counters"] = tracer.counters()
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    if args.record and args.seed != DEFAULT_SEED:
        print(f"--record needs the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 1
    workload.check(p, record=args.record)
    out["attempted"] = p.attempted
    out["failures"] = p.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
