"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest -q bench/tests

The repeatability test runs the traced pass of every workload twice, each
in a fresh interpreter with the default hash randomisation, and requires
every count-valued per-layer metric to be identical: they are exact
counts, which is what lets a change cite them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

#: Count metrics that legitimately differ between fresh processes, with the
#: reason.  Empty: every counter has repeated exactly so far.
NOT_EXACT: dict = {}


def _traced(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    job = {"kind": "trace", "workload": workload, "seed": 0, "trace": 1}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    assert not first["activity_violations"], first["activity_violations"]
    counts = [name for name in first["metrics"] if run.layer_unit(name) == "count"]
    assert any(name.endswith(".calls") for name in counts)
    differ = {name: (first["metrics"][name], second["metrics"][name])
              for name in counts
              if name not in NOT_EXACT and first["metrics"][name] != second["metrics"][name]}
    assert not differ, f"not exact counts: {differ}"


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    traced = _traced("tau-general")
    printed = {name: run.layer_unit(name)
               for name in list(traced["metrics"]) + ["trace_overhead_ratio"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
