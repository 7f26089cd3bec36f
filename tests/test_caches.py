"""Every process-global lru_cache of the package is bounded or documented.

An unbounded memo grows for the life of a library session, so each one
must be named in the README's design notes, which say why its size stays
small; a memo with a finite maxsize bounds itself.
"""

import importlib
import pathlib
import pkgutil

import nonnef

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def lru_caches():
    """(module.name, maxsize) of every lru_cache wrapper defined in a
    nonnef module, at module level or in a class of that module."""
    found = {}
    for info in pkgutil.iter_modules(nonnef.__path__):
        if info.name == "__main__":   # importing it runs the command line
            continue
        module = importlib.import_module(f"nonnef.{info.name}")
        holders = [(info.name, module)] + [
            (f"{info.name}.{name}", value) for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__]
        for prefix, holder in holders:
            for name, value in vars(holder).items():
                if hasattr(value, "cache_parameters") \
                        and getattr(value, "__module__", None) == module.__name__:
                    found[f"{prefix}.{name}"] = value.cache_parameters()["maxsize"]
    return found


def test_every_unbounded_cache_is_named_in_the_design_notes():
    notes = README.read_text().split("## Design notes", 1)[1].split("\n## ", 1)[0]
    caches = lru_caches()
    assert {"newton._staircase_memo", "newton._candidate_normals", "frobenius._jump_grid",
            "frobenius._digit_table", "ideal.unit_ideal"} <= set(caches)
    undocumented = sorted(name for name, maxsize in caches.items()
                          if maxsize is None and f"`{name}`" not in notes)
    assert not undocumented
