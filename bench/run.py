"""The nonnef benchmark: one command for every workload.

    python3 bench/run.py                       # all workloads, end-to-end metrics
    python3 bench/run.py --trace 1             # all workloads, per-layer metrics
    python3 bench/run.py --workload toric-sweep --seed 3 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Every sample runs in a fresh interpreter started by this
script, one caller, one item at a time (closed loop), so process-global
memo starts cold as it does for every CLI call.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is nonzero when an answer's digest, an oracle
spot-check or the per-layer activity table disagrees, or when the library
raises ContractError.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("toric-sweep", "jumps-monomial", "tau-general")
DIGESTS = BENCH / "digests.json"
SPANS_DIR = BENCH / "out"

#: Set-up is timed this many times per run, in fresh interpreters.
SETUP_SAMPLES = 9
#: Seconds a worker may take beyond its timed budget before it is killed.
WORKER_GRACE_S = 120


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def _spawn(job: dict, timeout: float):
    """Run one worker; returns (set-up seconds, its JSON report)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {job['kind']} failed with exit code {proc.returncode}"
                         f"{' (killed after %g s)' % timeout if proc.returncode < 0 else ''}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def _speed(refs) -> float:
    """Host speed against the reference host, from timings of the reference
    unit; a timing times this factor reads as on the reference host."""
    return reference.NOMINAL_S / statistics.fmean(refs)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics from untraced passes over the seeded order.

    A pass answers the whole catalog unless the time left runs out; another
    pass starts only while the time left is at least the last pass's
    length, so a run measures at most `seconds` of complete passes."""
    job = {"kind": "pass", "workload": workload, "seed": seed}
    passes, setups = [], []
    spent = 0.0
    while True:
        setup_s, out = _spawn(dict(job, budget_s=seconds - spent, check=not passes),
                              seconds - spent + WORKER_GRACE_S)
        setups.append((setup_s, out))
        passes.append(out)
        spent += out["elapsed_s"]
        if not out["complete"] or seconds - spent < out["elapsed_s"]:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(dict(job, kind="setup"), WORKER_GRACE_S))

    problems = list(passes[0]["mismatches"])
    if not passes[0]["compared"]:
        problems.append("the oracle spot-check compared nothing")
    recorded = json.loads(DIGESTS.read_text()).get(workload) if DIGESTS.exists() else None
    digests = {p["digest"] for p in passes}
    if recorded is not None and digests != {recorded}:
        problems.append(f"output digest {sorted(digests)} differs from the recorded {recorded}")

    wall = [t for p in passes for t in p["latencies_s"]]
    scaled = [t * _speed(p["refs_s"]) for p in passes for t in p["latencies_s"]]
    setup_wall = [s for s, _ in setups]
    setup_scaled = [s * _speed(out["setup_refs_s"]) for s, out in setups]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    capped = sum(p["cap_reached"] for p in passes)
    answered = attempted - failed
    metrics = {
        "items_per_s": (answered / sum(scaled), "1/s", answered),
        "item_p50_ms": (1e3 * statistics.median(scaled), "ms", len(scaled)),
        "item_p90_ms": (1e3 * _p90(scaled), "ms", len(scaled)),
        "setup_s": (statistics.median(setup_scaled), "s", len(setups)),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
        "answered_ratio": (answered / attempted, "ratio", attempted),
        "uncapped_ratio": (1 - capped / attempted, "ratio", attempted),
    }
    refs = [t for p in passes for t in p["refs_s"]]
    shown = dict(metrics,
                 failed_ratio=(failed / attempted, "ratio", attempted),
                 cap_reached_ratio=(capped / attempted, "ratio", attempted),
                 wall_items_per_s=(answered / sum(wall), "1/s", answered),
                 wall_item_p50_ms=(1e3 * statistics.median(wall), "ms", len(wall)),
                 wall_item_p90_ms=(1e3 * _p90(wall), "ms", len(wall)),
                 wall_setup_s=(statistics.median(setup_wall), "s", len(setups)),
                 host_speed=(_speed(refs), "ratio", len(refs)))
    return {"workload": workload, "correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed, "metrics": metrics, "shown": shown,
            "digest": digests.pop() if len(digests) == 1 else None,
            "note": f"{len(passes)} pass(es), {spent:.1f} s timed, "
                    f"{passes[0]['compared']} oracle comparisons"}


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_grid_point"):
        return "ratio"
    if name.endswith("_per_item"):
        return "calls/item"
    if name.endswith("_per_call") or name.endswith("_per_tau"):
        return "members/call"
    return "count"


def trace(workload: str, seed: int) -> dict:
    """Per-layer metrics from a traced pass over the trace prefix, and the
    tracing overhead against an untraced pass over the same items, which
    also spot-checks its answers."""
    job = {"kind": "trace", "workload": workload, "seed": seed}
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    _, plain = _spawn(dict(job, trace=0), WORKER_GRACE_S)
    _, traced = _spawn(dict(job, trace=1, spans_path=str(spans_path)), WORKER_GRACE_S)
    items = traced["attempted"]
    layer = dict(traced["metrics"])
    layer["trace_overhead_ratio"] = (
        (sum(plain["latencies_s"]) * _speed(plain["refs_s"]))
        / (sum(traced["latencies_s"]) * _speed(traced["refs_s"])))
    metrics = {name: (value, layer_unit(name), items) for name, value in layer.items()}
    problems = plain["mismatches"] + traced["activity_violations"]
    if not plain["compared"]:
        problems.append("the oracle spot-check compared nothing")
    return {"workload": workload, "correct": not problems, "problems": problems,
            "attempted": items, "failed": traced["failed"], "metrics": metrics,
            "shown": metrics, "digest": None,
            "note": f"{traced['spans']} spans written to {spans_path.relative_to(ROOT)}"}


def _print_table(result: dict):
    print(f"## {result['workload']}: {result['note']}")
    for name, (value, unit, samples) in result["shown"].items():
        print(f"{name:52s} {value:>16.6g} {unit:12s} n={samples}")
    for problem in result["problems"]:
        print(f"MISMATCH: {problem}")


def _result_line(results) -> str:
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, (value, unit, _) in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({"correct": all(r["correct"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
                        if (ROOT / "BENCHMARK.json").exists() else 30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digest", action="store_true",
                        help="record this run's output digests in bench/digests.json")
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "nonnef" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a checkout "
                  f"of the repository", file=sys.stderr)
            return 2

    print(f"# nonnef benchmark: python {sys.version.split()[0]}, "
          f"nproc {len(os.sched_getaffinity(0))}, seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds:g} s per workload'}, "
          f"closed loop with one caller")
    results = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            result = (trace(workload, args.seed) if args.trace
                      else measure(workload, args.seed, args.seconds))
            _print_table(result)
            results.append(result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.write_digest:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        recorded.update({r["workload"]: r["digest"] for r in results if r["digest"]})
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(_result_line(results))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
