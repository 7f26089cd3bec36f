"""Sparse multivariate polynomials over a prime field.

Monomials are exponent tuples; the fixed term order everywhere is graded
reverse lexicographic.

Polynomials are immutable once built: no code writes to `terms` after
construction, so the leading monomial and the canonical key are computed at
most once per polynomial and cached.  `Polynomial(ring, terms)` copies and
cleans its input (reduces every coefficient mod p and drops zeros).
`Polynomial._clean(ring, terms)` skips that pass and takes the dict itself;
its caller guarantees that every monomial has one exponent per variable,
that every coefficient lies in 1..p-1, and that nothing else keeps or
mutates the dict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, le, neg

from .errors import ContractError, DomainError
from .field import PrimeField

Monomial = tuple  # exponent vector, one natural number per variable

#: A variable name, as the ideal grammar reads one.
VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Ring:
    """Ambient polynomial ring F_p[variables]."""

    field: PrimeField
    variables: tuple

    def __post_init__(self):
        for v in self.variables:
            if not isinstance(v, str) or not VARIABLE_NAME.fullmatch(v):
                raise DomainError(f"variable name {v!r} must match {VARIABLE_NAME.pattern}")
        if len(set(self.variables)) != len(self.variables):
            raise DomainError(f"duplicate variable names in {self.variables!r}")
        if not self.variables:
            raise DomainError("need at least one variable")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __repr__(self):
        return f"F_{self.field.p}[{','.join(self.variables)}]"


def ring(p: int, *variables: str) -> Ring:
    return Ring(PrimeField(p), tuple(variables))


# -- monomial helpers --------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if x^a divides x^b."""
    return all(map(le, a, b))


def monos_in_ideal(gens, monomials) -> bool:
    """True if every x^v, v in `monomials`, is divisible by some x^w, w in
    `gens`: the monomial ideal that `gens` generate contains them all."""
    for v in monomials:
        for w in gens:
            if all(map(le, w, v)):
                break
        else:
            return False
    return True


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(m: Monomial):
    """Sort key: ascending under graded reverse lexicographic order."""
    return (sum(m), tuple(map(neg, reversed(m))))


def min_antichain(monomials) -> frozenset:
    """Minimal elements of a set of exponent vectors under componentwise <=.

    This is the minimal generating set of the monomial ideal the vectors
    generate.
    """
    # total degree is a linear extension of divisibility: every proper
    # divisor of m is seen before m
    kept: list = []
    for m in sorted(set(monomials), key=sum):
        for k in kept:
            if all(map(le, k, m)):
                break
        else:
            kept.append(m)
    return frozenset(kept)


# -- polynomials --------------------------------------------------------------

class Polynomial:
    """Finite map monomial -> nonzero residue, over a fixed Ring."""

    __slots__ = ("ring", "terms", "_key", "_lead")

    def __init__(self, ring: Ring, terms: dict):
        p = ring.field.p
        clean = {}
        for m, c in terms.items():
            if len(m) != ring.nvars:
                raise ContractError("monomial length does not match variable count")
            c %= p
            if c:
                clean[m] = c
        self.ring = ring
        self.terms = clean
        self._key = None
        self._lead = None

    @classmethod
    def _clean(cls, ring: Ring, terms: dict) -> "Polynomial":
        """A polynomial that takes `terms` as they are; see the module
        docstring for the precondition."""
        f = object.__new__(cls)
        f.ring = ring
        f.terms = terms
        f._key = None
        f._lead = None
        return f

    # construction helpers
    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {(0,) * ring.nvars: 1})

    @classmethod
    def monomial(cls, ring: Ring, exponents, coeff: int = 1) -> "Polynomial":
        return cls(ring, {tuple(exponents): coeff})

    # predicates
    def is_zero(self) -> bool:
        return not self.terms

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ring.nvars}

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def leading_monomial(self) -> Monomial:
        if self._lead is None:
            if not self.terms:
                raise ContractError("zero polynomial has no leading monomial")
            self._lead = max(self.terms, key=grevlex_key)
        return self._lead

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        """This polynomial scaled to leading coefficient 1; `self` itself
        when it already is (polynomials are immutable, so sharing is safe)."""
        if not self.terms or self.leading_coeff() == 1:
            return self
        p = self.ring.field.p
        inv = self.ring.field.inv(self.leading_coeff())
        return Polynomial._clean(self.ring, {m: c * inv % p for m, c in self.terms.items()})

    # arithmetic
    def _check_same_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ContractError(f"ambient ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        p = self.ring.field.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial._clean(self.ring, {m: r for m, c in out.items() if (r := c % p)})

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.ring, {m: cf * c for m, cf in self.terms.items()})

    def scale_monomial(self, mono: Monomial) -> "Polynomial":
        return Polynomial._clean(self.ring,
                                 {mono_mul(m, mono): c for m, c in self.terms.items()})

    def frobenius(self, q: int) -> "Polynomial":
        """f^q for q a power of p: every exponent times q.  Exact because the
        Frobenius fixes the prime field, so c^q = c for every coefficient."""
        return Polynomial._clean(self.ring,
                                 {tuple(q * e for e in m): c for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        """f^n, the one-generator case of `multiset_products`; f^0 and f^1
        directly, a polynomial never changing once built."""
        if n < 0:
            raise ContractError("negative polynomial power")
        if n == 0:
            return Polynomial.one(self.ring)
        if n == 1:
            return self
        return multiset_products((self,), n)[0]

    # identity
    def key(self):
        """Canonical hashable form: terms sorted descending in grevlex."""
        if self._key is None:
            items = tuple(sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True))
            self._key = (self.ring.field.p, self.ring.variables, items)
        return self._key

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return format_poly(self)


def _count_vectors(total: int, parts: int) -> list:
    """Every tuple of `parts` naturals summing to `total`."""
    if parts == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _count_vectors(total - head, parts - 1)]


def _digit_product(gens, r: tuple, memo: dict) -> Polynomial:
    """prod_j gens[j]^r_j for a nonzero digit vector r, one product per
    vector: r is r' plus one at its last nonzero place, and memo holds r'."""
    f = memo.get(r)
    if f is None:
        j = len(r) - 1
        while not r[j]:
            j -= 1
        rest = r[:j] + (r[j] - 1,) + r[j + 1:]
        f = gens[j] if not any(rest) else _digit_product(gens, rest, memo) * gens[j]
        memo[r] = f
    return f


def _digit_horner(gens, c: tuple, p: int, lifted: dict, digit_products: dict) -> Polynomial:
    """prod_j gens[j]^c_j for a nonzero count vector c, as
    P(c div p)^[p] * prod_j gens[j]^(c_j mod p).  `lifted` holds P(h)^[p]
    by h and `digit_products` the second factor by digit vector; every count
    vector of one power shares them, so each is formed once."""
    high = tuple([x // p for x in c])
    r = tuple([x % p for x in c])
    if not any(high):
        return _digit_product(gens, r, digit_products)
    f = lifted.get(high)
    if f is None:
        f = lifted[high] = _digit_horner(gens, high, p, lifted, digit_products).frobenius(p)
    return f * _digit_product(gens, r, digit_products) if any(r) else f


def multiset_products(gens, n: int) -> list:
    """prod_j gens[j]^c_j for every count vector c with sum n, in the
    order of `_count_vectors(n, len(gens))`.

    Each product comes from the base-p digits of its count vector by
    Horner's rule, P(c) = P(c div p)^[p] * prod_j gens[j]^(c_j mod p): the
    first factor is `frobenius` (exact because the Frobenius fixes F_p),
    the second a product of powers below p, formed once per digit vector.
    The memo tables are plain locals, not a closure cell, so no reference
    cycle keeps the intermediate products alive after the call.
    """
    ring = gens[0].ring
    if n == 0:
        return [Polynomial.one(ring)]
    lifted: dict = {}
    digit_products: dict = {}
    return [_digit_horner(gens, c, ring.field.p, lifted, digit_products)
            for c in _count_vectors(n, len(gens))]


def format_poly(f: Polynomial) -> str:
    """Canonical expanded form: grevlex-descending terms, '^' powers,
    explicit '*' between factors."""
    if f.is_zero():
        return "0"
    parts = []
    for m, c in sorted(f.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
        factors = []
        if c != 1 or not any(m):
            factors.append(str(c))
        for name, e in zip(f.ring.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
