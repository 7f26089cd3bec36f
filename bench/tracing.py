"""Per-layer tracing of the nonnef package from outside it.

The traced run rebinds the package's public functions to span-recording
wrappers.  ``from .x import f`` copies a name into the importing module, so
every binding is found by object identity across every loaded ``nonnef.*``
module and every class defined there, and the run fails if an original
object is left bound anywhere.  Nothing inside ``src/`` is changed.

A span is (name, start, end, parent span, item id).  Spans stay in memory
in flat arrays and are written out when the run ends.  A span's self time
is its duration minus the durations of its child spans, which, in this
single-threaded program, never overlap one another.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

#: Functions that get a span, by module; each yields `<module>.<name>.calls`
#: and `<module>.<name>.self_s`, and the module gets a `<module>.self_s` rollup.
SPANNED = {
    "simplex": ("solve_lp",),
    "toric": ("classify_divisor", "asymptotic_ord_toric", "chart_ideal",
              "stable_base_locus", "tau_toric", "tau_plus_toric", "non_nef_locus"),
    "asymptotic": ("asymptotic_test_ideal", "GradedSequence.term"),
    "frobenius": ("f_jumping_numbers", "test_ideal", "monomial_root_of_power",
                  "frobenius_root"),
    "newton": ("monomial_tau_newton",),
    "ideal": ("ideal_power", "ideal_product", "ideal_contains"),
    "groebner": ("buchberger", "normal_form"),
    "poly": ("Polynomial.__mul__", "min_antichain"),
}

#: Functions whose calls are only counted (no span), by metric name.
COUNTED = {
    "simplex.pivots": ("simplex._pivot",),
    "toric.lattice_nodes": ("toric._lattice_minimals_rec", "toric._lattice_feasible_rec"),
    "groebner.s_polynomial.calls": ("groebner.s_polynomial",),
}

#: Process-global memo tables whose cache_info() is reported.
LRU_CACHES = ("frobenius._digit_table", "frobenius._small_power_gens",
              "newton._candidate_normals")

#: Which counters must be nonzero, and which must read zero, per workload.
#: A binding the wrapper missed would read zero, so the nonzero rows catch
#: it; the identity scan in `install` catches it independently.
ACTIVITY = {
    "toric-sweep": {
        "nonzero": ("simplex.solve_lp.calls", "simplex.pivots",
                    "toric.non_nef_locus.calls", "toric.classify_divisor.calls",
                    "toric.stable_base_locus.calls", "toric.chart_ideal.calls",
                    "toric.lattice_nodes", "asymptotic.asymptotic_test_ideal.calls",
                    "frobenius.test_ideal.calls"),
        "zero": ("groebner.buchberger.calls", "groebner.normal_form.calls",
                 "groebner.s_polynomial.calls", "frobenius.f_jumping_numbers.calls"),
    },
    "jumps-monomial": {
        "nonzero": ("frobenius.f_jumping_numbers.calls", "frobenius.test_ideal.calls",
                    "frobenius.monomial_root_of_power.calls",
                    "newton.monomial_tau_newton.calls", "poly.min_antichain.calls"),
        "zero": ("simplex.solve_lp.calls", "simplex.pivots",
                 "groebner.buchberger.calls", "groebner.normal_form.calls",
                 "groebner.s_polynomial.calls", "toric.non_nef_locus.calls",
                 "frobenius.frobenius_root.calls"),
    },
    "tau-general": {
        "nonzero": ("frobenius.test_ideal.calls", "frobenius.frobenius_root.calls",
                    "groebner.buchberger.calls", "groebner.s_polynomial.calls",
                    "ideal.ideal_power.calls", "poly.Polynomial.__mul__.calls"),
        "zero": ("simplex.solve_lp.calls", "simplex.pivots",
                 "toric.non_nef_locus.calls", "frobenius.f_jumping_numbers.calls",
                 "frobenius.monomial_root_of_power.calls"),
    },
}


def _resolve(dotted: str):
    module, _, attr = dotted.partition(".")
    obj = sys.modules[f"nonnef.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _holders():
    """Every loaded nonnef module and every class defined in one."""
    for name, module in sorted(sys.modules.items()):
        if name != "nonnef" and not name.startswith("nonnef."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("nonnef"):
                yield value


class Recorder:
    """Spans in flat arrays, plus plain call counters."""

    def __init__(self):
        self.names: list = []             # span name per name id
        self.name_of = array("i")         # per span
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.item = -1
        self.counts: Counter = Counter()
        self.bindings: Counter = Counter()

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, item_of = self.name_of, self.parent, self.item_of
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            item_of.append(rec.item)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return wrapper

    def _counted(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every binding site of every traced function; raise if any
        original object is still reachable from a nonnef module or class."""
        wrappers = {}
        for module, names in SPANNED.items():
            for name in names:
                dotted = f"{module}.{name}"
                orig = _resolve(dotted)
                wrappers[id(orig)] = (orig, dotted, self._spanned(orig, dotted))
        for metric, targets in COUNTED.items():
            for dotted in targets:
                orig = _resolve(dotted)
                wrappers[id(orig)] = (orig, dotted, self._counted(orig, metric))
        for holder in _holders():
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(holder, attr, hit[2])
                    self.bindings[hit[1]] += 1
        left = [f"{getattr(h, '__name__', h)}.{attr}"
                for h in _holders() for attr, value in vars(h).items()
                if id(value) in wrappers and wrappers[id(value)][0] is value]
        missing = [dotted for _, dotted, _ in wrappers.values()
                   if not self.bindings[dotted]]
        if left or missing:
            raise RuntimeError(f"tracing missed bindings: still bound {left}, "
                               f"never bound {missing}")

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls and self time per spanned function, the module rollups and
        the plain counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        self_ns = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        out = {}
        for module, names in SPANNED.items():
            total = 0
            for name in names:
                dotted = f"{module}.{name}"
                out[f"{dotted}.calls"] = calls[dotted]
                out[f"{dotted}.self_s"] = self_ns[dotted] / 1e9
                total += self_ns[dotted]
            out[f"{module}.self_s"] = total / 1e9
        for metric in COUNTED:
            out[metric] = self.counts[metric]
        return out

    def children_of(self, parent_name: str, child_names) -> int:
        """Number of spans named in `child_names` whose parent span is named
        `parent_name`."""
        want = {k for k, name in enumerate(self.names) if name in child_names}
        parent_ids = {k for k, name in enumerate(self.names) if name == parent_name}
        return sum(1 for i in range(len(self.start))
                   if self.name_of[i] in want and self.parent[i] >= 0
                   and self.name_of[self.parent[i]] in parent_ids)

    def write(self, path, header: dict):
        """All spans as gzipped JSON: a header, the name table, and one
        [name, parent, item, start_ns, end_ns] row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump(header, out)
            out.write("\n")
            json.dump(self.names, out)
            out.write("\n")
            t0 = self.start[0] if len(self.start) else 0
            for i in range(len(self.start)):
                out.write(f"[{self.name_of[i]},{self.parent[i]},{self.item_of[i]},"
                          f"{self.start[i] - t0},{self.end[i] - t0}]\n")


def cache_metrics() -> dict:
    """cache_info() of the lru tables, and the memo sizes of the built-in fans."""
    fans = list({id(f): f for f in _resolve("toric._BUILTIN_CACHE").values()}.values())
    out = {}
    for dotted in LRU_CACHES:
        info = _resolve(dotted).cache_info()
        out[f"{dotted}.hits"] = info.hits
        out[f"{dotted}.misses"] = info.misses
        out[f"{dotted}.currsize"] = info.currsize
    out["toric.builtin_fans"] = len(fans)
    out["toric.fan_sequences"] = sum(len(f._sequences) for f in fans)
    return out


def _hit_ratio(metrics: dict, caches) -> float:
    hits = sum(metrics[f"{c}.hits"] for c in caches)
    return _per(hits, hits + sum(metrics[f"{c}.misses"] for c in caches))


def _per(num, den) -> float:
    return num / den if den else 0.0


def derived_metrics(recorder: Recorder, m: dict, items: int, jumps_grid: int) -> dict:
    """Ratios from the spans, counters and cache metrics of a traced run;
    0 where the denominator is 0."""
    members = recorder.children_of("frobenius.test_ideal",
                                   {"frobenius.monomial_root_of_power",
                                    "frobenius.frobenius_root"})
    return {
        "simplex.solve_lp.calls_per_item": _per(m["simplex.solve_lp.calls"], items),
        "asymptotic.chain_members_per_call": _per(
            recorder.children_of("asymptotic.asymptotic_test_ideal",
                                 {"frobenius.test_ideal"}),
            m["asymptotic.asymptotic_test_ideal.calls"]),
        "frobenius.chain_members_per_tau": _per(members, m["frobenius.test_ideal.calls"]),
        "frobenius.jumps_evals_per_grid_point": _per(
            recorder.children_of("frobenius.f_jumping_numbers", {"frobenius.test_ideal"}),
            jumps_grid * m["frobenius.f_jumping_numbers.calls"]),
        "frobenius.cache_hit_ratio": _hit_ratio(
            m, ("frobenius._digit_table", "frobenius._small_power_gens")),
        "newton.cache_hit_ratio": _hit_ratio(m, ("newton._candidate_normals",)),
    }


def check_activity(workload: str, metrics: dict) -> list:
    """Rows of the activity table that do not hold."""
    table = ACTIVITY[workload]
    bad = [f"{m} should be nonzero" for m in table["nonzero"] if not metrics[m]]
    bad += [f"{m} should be zero, reads {metrics[m]}" for m in table["zero"] if metrics[m]]
    return bad
