"""The names the bench tracer binds must exist in the package.

`bench/tracing.py` wraps functions and reads memo tables by dotted name;
a deleted or renamed target would only surface in a traced bench run.
The tracer's source is executed here without importing it as a module,
so nothing is written next to it."""

import importlib
import runpy
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
