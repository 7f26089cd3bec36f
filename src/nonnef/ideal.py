"""Ideals in F_p[x_1..x_n] with a monomial fast lane.

An Ideal stores a finite generator list.  When every generator is a single
term the ideal is flagged monomial and normalized to its unique minimal
monic generating set; all the operations below then run on exponent
vectors alone.  General ideals fall back to a cached reduced Groebner
basis for containment questions.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .caps import DEFAULT_CAPS
from .errors import ContractError, DomainError, ResourceLimitError, require_int
from .groebner import buchberger, normal_form
from .poly import (Polynomial, Ring, grevlex_key, min_antichain, mono_mul,
                   monos_in_ideal, multiset_products)


class Ideal:
    """Immutable ideal given by generators.

    The generator list is empty exactly for the zero ideal; the unit ideal
    is represented by the single generator 1.
    """

    __slots__ = ("ring", "generators", "is_monomial", "_gb", "_gb_lock", "_monos")

    def __init__(self, ring: Ring, generators):
        gens = [g for g in generators if not g.is_zero()]
        for g in gens:
            if g.ring != ring:
                raise ContractError("generator outside the ambient ring")
        if any(g.is_constant() for g in gens):
            self._init_monomial(ring, frozenset([(0,) * ring.nvars]))
        elif all(g.is_term() for g in gens):
            self._init_monomial(ring, min_antichain(g.leading_monomial() for g in gens))
        else:
            seen, unique = set(), []
            for g in sorted((g.monic() for g in gens), key=lambda h: h.key()):
                if g.key() not in seen:
                    seen.add(g.key())
                    unique.append(g)
            self._init(ring, tuple(unique), None)

    def _init(self, ring: Ring, generators: tuple, monos):
        self.ring = ring
        self.generators = generators
        self.is_monomial = monos is not None
        self._monos = monos
        self._gb = None
        self._gb_lock = threading.Lock()

    def _init_monomial(self, ring: Ring, monos: frozenset):
        """The monomial ideal with minimal generating exponent vectors
        `monos`, each of length ring.nvars: one monic term per vector."""
        self._init(ring, tuple(Polynomial._clean(ring, {m: 1})
                               for m in sorted(monos, key=grevlex_key)), monos)

    # -- basic predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    @property
    def monomials(self) -> frozenset:
        """Minimal generating exponent vectors (monomial ideals only)."""
        if self._monos is None:
            raise ContractError("not a monomial ideal")
        return self._monos

    def groebner(self, pair_cap: int = DEFAULT_CAPS.gb_pair_cap):
        """Reduced Groebner basis, computed once per ideal."""
        if self._gb is None:
            with self._gb_lock:
                if self._gb is None:
                    if self.is_monomial:
                        self._gb = self.generators  # minimal monomial gens are already reduced
                    else:
                        self._gb = tuple(buchberger(list(self.generators), pair_cap))
        return self._gb

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        if self.is_monomial and other.is_monomial:
            return self._monos == other._monos
        return ideal_equal(self, other)

    def __hash__(self):
        # equality is semantic (Groebner-backed), so the hash may only
        # depend on presentation-independent data
        return hash((self.ring.field.p, self.ring.variables))

    def __repr__(self):
        from .parsing import format_ideal
        return format_ideal(self)


def monomial_ideal(ring: Ring, exponent_vectors) -> Ideal:
    vectors = {tuple(v) for v in exponent_vectors}
    if any(len(v) != ring.nvars for v in vectors):
        raise ContractError("monomial length does not match variable count")
    return _antichain_ideal(ring, min_antichain(vectors))


def _antichain_ideal(ring: Ring, monos: frozenset) -> Ideal:
    """The monomial ideal of an antichain of exponent vectors of length
    ring.nvars, which are then its minimal generators."""
    a = object.__new__(Ideal)
    a._init_monomial(ring, monos)
    return a


@lru_cache(maxsize=None)
def unit_ideal(ring: Ring) -> Ideal:
    """The unit ideal of `ring`, built once per ring (ideals are immutable)."""
    return Ideal(ring, [Polynomial.one(ring)])


def zero_ideal(ring: Ring) -> Ideal:
    return Ideal(ring, [])


def _check_same_ring(a: Ideal, b: Ideal):
    if a.ring != b.ring:
        raise ContractError(f"ambient ring mismatch: {a.ring} vs {b.ring}")


# -- products and powers -------------------------------------------------------

def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Ideal generated by the pairwise products of generators."""
    _check_same_ring(a, b)
    if a.is_zero() or b.is_zero():
        return zero_ideal(a.ring)
    if a.is_monomial and b.is_monomial:
        return _antichain_ideal(a.ring, min_antichain(
            mono_mul(m1, m2) for m1 in a.monomials for m2 in b.monomials))
    return Ideal(a.ring, [f * g for f in a.generators for g in b.generators])


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _check_same_ring(a, b)
    return Ideal(a.ring, list(a.generators) + list(b.generators))


def monomial_power_gens(monos: frozenset, n: int) -> frozenset:
    """Minimal generators of the n-th power of a monomial ideal, by repeated
    squaring: O(log n) products, each reduced to its minimal antichain."""
    power, square = frozenset([(0,) * len(next(iter(monos)))]), monos
    while n:
        if n & 1:
            power = min_antichain(mono_mul(m, v) for m in power for v in square)
        n >>= 1
        if n:
            square = min_antichain(mono_mul(m, v) for m in square for v in square)
    return power


def ideal_power(a: Ideal, n: int, caps=DEFAULT_CAPS) -> Ideal:
    """a^n; a^0 is the unit ideal even for a = 0.  A general power is
    generated by one product per multiset of generators, each built from
    the base-p digits of its counts (`poly.multiset_products`)."""
    if require_int(n, "ideal power n", least=0) == 0:
        return unit_ideal(a.ring)
    if a.is_zero():
        return zero_ideal(a.ring)
    if a.is_unit():
        return unit_ideal(a.ring)
    if a.is_monomial:
        return _antichain_ideal(a.ring, monomial_power_gens(a.monomials, n))
    max_deg = max(g.total_degree() for g in a.generators)
    if n * max_deg > caps.power_degree_cap:
        raise ResourceLimitError(
            f"power degree {n * max_deg} exceeds cap {caps.power_degree_cap}")
    return Ideal(a.ring, multiset_products(a.generators, n))


# -- containment ---------------------------------------------------------------

def poly_in_monomial_ideal(f: Polynomial, a: Ideal) -> bool:
    """Membership in a monomial ideal: every term must be divisible by some
    generator."""
    return monos_in_ideal(a.monomials, f.terms)


def ideal_contains(a: Ideal, b: Ideal, caps=DEFAULT_CAPS) -> bool:
    """True iff b is a subset of a."""
    _check_same_ring(a, b)
    if b.is_zero():
        return True
    if a.is_zero():
        return False
    if a.is_unit():
        return True
    if a.is_monomial:
        return all(poly_in_monomial_ideal(g, a) for g in b.generators)
    gb = a.groebner(caps.gb_pair_cap)
    return all(normal_form(g, list(gb)).is_zero() for g in b.generators)


def ideal_equal(a: Ideal, b: Ideal, caps=DEFAULT_CAPS) -> bool:
    if a.is_monomial and b.is_monomial:
        return a.ring == b.ring and a.monomials == b.monomials
    return ideal_contains(a, b, caps) and ideal_contains(b, a, caps)


def groebner_basis(a: Ideal, caps=DEFAULT_CAPS) -> Ideal:
    """The reduced Groebner basis of a, packaged as an ideal."""
    if a.is_zero():
        raise DomainError("Groebner basis of the zero ideal is undefined here")
    basis = a.groebner(caps.gb_pair_cap)
    gb = Ideal(a.ring, basis)
    gb._gb = basis  # a reduced basis is its own Groebner basis
    return gb
