"""Computation budgets.

Every "for e >> 0" / "for m divisible enough" quantifier in the theory
becomes a user-visible budget here.  Results that hit a cap are returned
with evidence='cap-reached' instead of being silently wrong.  Every budget
is a positive integer; anything else is a DomainError naming the field.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError


@dataclass(frozen=True)
class Caps:
    e_max_monomial: int = 10     # Frobenius-iterate cap, monomial chain; it stops
                                 # exactly at the Newton-facet certificate
    e_max_general: int = 5       # Frobenius-iterate cap, general chain
    window: int = 2              # consecutive repeats that stop the general,
                                 # asymptotic, stable-base-locus and sigma chains
    m_cap: int = 64              # divisibility-chain cap for asymptotic chains
                                 # and stable base loci
    epsilon_depth: int = 12      # eps = 1/2^k schedules of tau_+ and sigma, k <= depth;
                                 # tau_+ stops at its first repeat, not at `window`
    gb_pair_cap: int = 20000     # Buchberger S-pair budget
    power_degree_cap: int = 512  # total-degree cap for powers of general ideals

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise DomainError(f"cap {f.name} must be a positive integer, "
                                  f"got {value!r}")

    def with_overrides(self, **kw) -> "Caps":
        return replace(self, **kw)


#: Environment variables recognized by :func:`caps_from_env`.
ENV_VARS = {f"NONNEF_{f.name.upper()}": f.name for f in fields(Caps)}

DEFAULT_CAPS = Caps()


def caps_from_env(base: Caps = DEFAULT_CAPS) -> Caps:
    """Defaults overridden by NONNEF_* environment variables."""
    overrides = {}
    for var, field in ENV_VARS.items():
        raw = os.environ.get(var)
        if raw is not None:
            try:
                overrides[field] = int(raw)
            except ValueError:
                raise DomainError(f"{var} must be an integer, got {raw!r}") from None
    return base.with_overrides(**overrides) if overrides else base
