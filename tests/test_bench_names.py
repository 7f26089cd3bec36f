"""The names the bench tracer binds must exist in the package.

`bench/tracing.py` wraps functions and reads memo tables by dotted name;
a deleted or renamed target would only surface in a traced bench run.
The tracer's source is executed here without importing it as a module,
so nothing is written next to it.  Its activity table is checked here too,
on one small call, so that a kernel which stops going through a traced
name fails before a traced bench run."""

import importlib
import runpy
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_names():
    spec = runpy.run_path(str(TRACING))
    names = [f"{module}.{name}" for module, names in spec["SPANNED"].items()
             for name in names]
    names += [dotted for targets in spec["COUNTED"].values() for dotted in targets]
    names += list(spec["LRU_CACHES"])
    return names + ["toric._BUILTIN_CACHE"]


@pytest.mark.parametrize("dotted", _traced_names())
def test_traced_name_resolves(dotted):
    module, _, attr = dotted.partition(".")
    obj = importlib.import_module(f"nonnef.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert obj is not None


def test_builtin_fan_carries_the_sequence_memo():
    # `cache_metrics` sums len(fan._sequences) over the built-in fans
    assert "._sequences" in TRACING.read_text()
    toric = importlib.import_module("nonnef.toric")
    fan = toric.builtin_fan("f1")
    assert fan in toric._BUILTIN_CACHE.values()
    fan.sequence(toric.divisor(0, 0, 2, 1), fan.max_cones[0], 2)
    assert len(fan._sequences) >= 1


def _toric_sweep_call():
    # a big divisor of f1 that is not nef: E lies in its non-nef locus.  The
    # fan is built here, before any wrapper is installed, so neither its
    # ample-witness LP nor a memoized chart ideal stands in for the call's.
    toric = importlib.import_module("nonnef.toric")
    f1 = toric.builtin_fan("f1")
    fan = toric.Fan(f1.rays, f1.max_cones)

    def call():
        report = toric.non_nef_locus(fan, toric.divisor(0, 0, 2, 1))
        assert report.status == "pseudo-effective-not-nef"
    return call


def _jumps_monomial_call():
    def call():
        a = importlib.import_module("nonnef.parsing").parse_ideal(
            "p=3; vars=x,y; gens=[x^3, x*y, y^4]")
        importlib.import_module("nonnef.frobenius").f_jumping_numbers(a, 2, 5)
    return call


def _tau_general_call():
    def call():
        a = importlib.import_module("nonnef.parsing").parse_ideal(
            "p=2; vars=x,y; gens=[x^2 + y^3, x*y + y^2]")
        importlib.import_module("nonnef.frobenius").test_ideal(a, Fraction(3, 4))
    return call


#: per workload, a setup that returns one small call of the workload's kind
SMALL_CALLS = {"toric-sweep": _toric_sweep_call, "jumps-monomial": _jumps_monomial_call,
               "tau-general": _tau_general_call}


@pytest.mark.parametrize("workload", sorted(SMALL_CALLS))
def test_activity_rows_hold_on_a_small_call(workload, monkeypatch):
    """Every function behind a "nonzero" row of the workload's activity
    table is called by one small call of the workload's kind, and none
    behind a "zero" row, so a kernel that stops going through a traced
    name fails here and not only in a traced bench run.  As in the tracer,
    every binding of a target in a nonnef module or class is rebound."""
    spec = runpy.run_path(str(TRACING))
    assert sorted(spec["ACTIVITY"]) == sorted(SMALL_CALLS)
    activity = spec["ACTIVITY"][workload]

    def targets(metric):
        if metric in spec["COUNTED"]:
            return spec["COUNTED"][metric]
        assert metric.endswith(".calls"), metric
        return (metric[:-len(".calls")],)

    call = SMALL_CALLS[workload]()
    counts = Counter()
    originals = {}
    for metric in activity["nonzero"] + activity["zero"]:
        for dotted in targets(metric):
            module, _, attr = dotted.partition(".")
            obj = importlib.import_module(f"nonnef.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part)
            originals[id(obj)] = (obj, metric)

    def counting(fn, metric):
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {key: counting(fn, metric) for key, (fn, metric) in originals.items()}
    holders = [m for name, m in sorted(sys.modules.items())
               if name == "nonnef" or name.startswith("nonnef.")]
    holders += [v for m in list(holders) for v in vars(m).values()
                if isinstance(v, type) and v.__module__.startswith("nonnef")]
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                monkeypatch.setattr(holder, attr, wrappers[id(value)])

    call()
    assert [m for m in activity["nonzero"] if not counts[m]] == []
    assert [m for m in activity["zero"] if counts[m]] == []
    if workload == "jumps-monomial":
        assert "frobenius.frobenius_root.calls" in activity["zero"]
