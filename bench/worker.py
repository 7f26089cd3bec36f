"""One sample of the benchmark, in a fresh interpreter.

Started by run.py with a JSON job description as its only argument.  It
imports the package from the checkout's src/, builds the workload's
inputs, prints ``ready`` (run.py times set-up from process start to that
line), times the reference unit of reference.py a few times, then does the
job and prints one JSON line with what it measured, including every
timing of the reference unit.

Jobs:
  setup  stop after set-up.
  pass   run the seeded order one item at a time until it is done or the
         deadline passes; then answer the rest untimed, digest every
         answer and, if asked, spot-check a sample against the oracles.
  trace  run the trace prefix of the seeded order, either with the span
         wrappers installed, reporting per-layer metrics, or plain,
         spot-checking a sample of the answers against the oracles.

A ContractError, or any other unexpected exception, ends the process with
a traceback and a nonzero exit code.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import resource
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent

#: Seconds of items between two timings of the reference unit.
REF_EVERY_S = 1.0
#: Reference units timed right after set-up, to scale the set-up time.
SETUP_REFS = 3


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import nonnef
    if Path(nonnef.__file__).resolve().parent != ROOT / "src" / "nonnef":
        raise RuntimeError(f"imported nonnef from {nonnef.__file__}, not from src/")


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run(workloads, workload, items, results, deadline=None, recorder=None, refs=None):
    """Answer items[k] for k = len(results), ... in a closed loop, appending
    to `results`; returns the per-item latencies in seconds.  With `refs`,
    times a reference unit before the first item and then at least every
    REF_EVERY_S seconds, appending its durations to `refs`."""
    from nonnef.errors import DomainError, ResourceLimitError
    latencies = []
    clock = time.perf_counter
    last_ref = None
    for item in items[len(results):]:
        if refs is not None and (last_ref is None or clock() - last_ref >= REF_EVERY_S):
            refs.append(reference.timed_unit())
            last_ref = clock()
        if recorder is not None:
            recorder.item = len(results)
        t0 = clock()
        try:
            result = workloads.run_item(workload, item)
        except (DomainError, ResourceLimitError) as exc:
            result = exc
        t1 = clock()
        latencies.append(t1 - t0)
        results.append(result)
        if deadline is not None and t1 >= deadline:
            break
    return latencies


def _failed(result) -> bool:
    return isinstance(result, Exception)


def _summary(workloads, workload, results, latencies, elapsed, refs) -> dict:
    failed = sum(map(_failed, results))
    return {
        "attempted": len(results), "failed": failed, "elapsed_s": elapsed,
        "latencies_s": latencies, "refs_s": refs,
        "cap_reached": sum(1 for r in results
                           if not _failed(r) and workloads.cap_reached(workload, r)),
    }


def _digest(workloads, items, results) -> str:
    lines = []
    for item, result in zip(items, results):
        if _failed(result):
            result = {"error": type(result).__name__}
        lines.append(workloads.canonical_line(item, result))
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pass(workloads, job, items) -> dict:
    workload = job["workload"]
    results: list = []
    refs: list = []
    start = time.perf_counter()
    latencies = _run(workloads, workload, items, results, start + job["budget_s"], refs=refs)
    refs.append(reference.timed_unit())
    elapsed = time.perf_counter() - start
    out = _summary(workloads, workload, results, latencies, elapsed, refs)
    out["complete"] = len(results) == len(items)
    out["peak_rss_mb"] = _peak_rss_mb()
    _run(workloads, workload, items, results)
    out["digest"] = _digest(workloads, items, results)
    if job["check"]:
        _spot_check(workloads, job, items, results, out)
    return out


def _spot_check(workloads, job, items, results, out):
    answered = [None if _failed(r) else r for r in results]
    out["mismatches"], out["compared"] = workloads.spot_check(
        job["workload"], items, answered, job["seed"], _oracles())


def _trace(workloads, job, items) -> dict:
    import tracing
    workload = job["workload"]
    items = items[:workloads.TRACE_PREFIX[workload]]
    results: list = []
    recorder = tracing.Recorder() if job["trace"] else None
    if recorder is not None:
        recorder.install()
    refs: list = []
    start = time.perf_counter()
    latencies = _run(workloads, workload, items, results, recorder=recorder, refs=refs)
    refs.append(reference.timed_unit())
    elapsed = time.perf_counter() - start
    out = _summary(workloads, workload, results, latencies, elapsed, refs)
    if recorder is None:
        _spot_check(workloads, job, items, results, out)
        return out
    metrics = recorder.layer_metrics()
    metrics.update(tracing.cache_metrics())
    metrics.update(tracing.derived_metrics(recorder, metrics, len(items),
                                           workloads.JUMPS_GRID))
    out["metrics"] = metrics
    out["activity_violations"] = tracing.check_activity(workload, metrics)
    out["bindings"] = dict(recorder.bindings)
    out["spans"] = len(recorder.start)
    if job.get("spans_path"):
        header = {"workload": workload, "seed": job["seed"], "items": len(items),
                  "python": sys.version.split()[0]}
        recorder.write(job["spans_path"], header)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    _import_package()
    import workloads
    items = workloads.ordered_items(job["workload"], job["seed"])
    print("ready", flush=True)
    setup_refs = [reference.timed_unit() for _ in range(SETUP_REFS)]
    if job["kind"] == "setup":
        out = {}
    elif job["kind"] == "pass":
        out = _pass(workloads, job, items)
    else:
        out = _trace(workloads, job, items)
    out["setup_refs_s"] = setup_refs
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
