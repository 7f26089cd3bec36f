"""Computation budgets.

Every "for e >> 0" / "for m divisible enough" quantifier in the theory
becomes a user-visible budget here.  Results that hit a cap are returned
with evidence='cap-reached' instead of being silently wrong.  Every budget
is a positive integer; anything else is a DomainError naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import require_int


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
            require_int(getattr(self, f.name), f"cap {f.name}")


DEFAULT_CAPS = Caps()
