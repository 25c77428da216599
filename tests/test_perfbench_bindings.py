"""The library names perfbench wraps or reads still exist and still work,
and its seed-0 passes still reproduce the stored references.

perfbench (the end-to-end benchmark in perfbench/) binds these names when
it starts; a refactor that renames one fails here, in the test suite,
rather than only in a benchmark run. A change that alters any result of
the desk, vopt or scan workload fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = ["perfbench", "src"]
from tracer import Tracer

tracer = Tracer()
tracer.install()  # wraps core.Instance.weight_batch, localsearch.swap_weight_matrix, ...
import workloads
from mapls import bench, construct, localsearch

generation = workloads.generation  # the mapls.generate module
for fn in (localsearch.swap_weight_matrix, construct.solve_ap2, bench.chain, generation.known_optimum):
    assert callable(fn), fn
inst = generation.generate(generation.parse_instance_name("3r4", 1))
assert generation.known_optimum(inst) == 4.0
inst.weight_batch([[0, 1, 2], [3, 3, 3]])
# the weight_batch span reads inst.family.value and the row count
assert tracer.spans[-1][0] == "core.weight_batch", tracer.spans[-1]
assert tracer.spans[-1][-1] == ("random", 2), tracer.spans[-1]
"""


def test_perfbench_binds_library_names():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload, attempted", [("desk", 108), ("vopt", 4), ("scan", 18)])
def test_perfbench_reproduces_its_references(workload, attempted, tmp_path):
    # one pass at seed 0; the worker itself compares the desk CSV minus
    # time_ms and the vopt and scan weights with perfbench/reference/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["failures"] == {} and out["attempted"] == attempted
