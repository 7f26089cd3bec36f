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


def test_jumps_monomial_activity_rows_hold_on_a_small_call(monkeypatch):
    """Every function behind a "nonzero" row of the jumps-monomial activity
    table is called by one small f_jumping_numbers, and none behind a
    "zero" row, so a kernel that stops going through a traced name fails
    here and not only in a traced bench run.  As in the tracer, every
    binding of a target in a nonnef module or class is rebound."""
    spec = runpy.run_path(str(TRACING))
    activity = spec["ACTIVITY"]["jumps-monomial"]

    def targets(metric):
        if metric in spec["COUNTED"]:
            return spec["COUNTED"][metric]
        assert metric.endswith(".calls"), metric
        return (metric[:-len(".calls")],)

    frobenius = importlib.import_module("nonnef.frobenius")
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

    a = importlib.import_module("nonnef.parsing").parse_ideal(
        "p=3; vars=x,y; gens=[x^3, x*y, y^4]")
    frobenius.f_jumping_numbers(a, 2, 5)
    assert [m for m in activity["nonzero"] if not counts[m]] == []
    assert [m for m in activity["zero"] if counts[m]] == []
    assert "frobenius.frobenius_root.calls" in activity["zero"]
