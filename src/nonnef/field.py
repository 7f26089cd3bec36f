"""Prime fields F_p with machine-word residues.

Coefficients are plain ints in [0, p); exponents elsewhere are Python ints,
so nothing in the library ever overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, require_int

_MAX_P = 2**31


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, adequate for p < 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if require_int(self.p, "characteristic p", least=2) >= _MAX_P:
            raise DomainError(f"characteristic must satisfy 2 <= p < 2^31, got {self.p}")
        if not is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"F_{self.p}"
