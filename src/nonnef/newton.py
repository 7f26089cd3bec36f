"""Exact stabilization certificate for monomial test-ideal chains.

For monomial ideals the test ideal has a characteristic-free description:
x^u lies in tau(a1^l1 * a2^l2 * ...) exactly when u + (1,..,1) is in the
interior of l1*P(a1) + l2*P(a2), the weighted Minkowski sum of Newton
polyhedra.  The chain member (prod a_i^{N_i})^[1/p^e] always sits inside
this ideal, so chain == certificate is an exact stabilization test: once
equal, the ascending chain can never move again.

The interior test is pure integer arithmetic.  Every facet normal h of the
sum is orthogonal to n-1 vectors drawn from the pooled generator
differences and coordinate rays, so enumerating those orthogonal
complements (kept when componentwise >= 0, which every valid normal of a
Newton polyhedron is) yields a finite superset of valid inequalities; a
redundant valid inequality can never be tight at an interior point, so the
superset decides interiority exactly:

    u in tau  <=>  <h, u> > sum_i l_i * min_{v in V_i} <h, v> - |h|_1  for all h.

A candidate normal is the vector of signed maximal minors of its n-1
vectors, so the certificate holds in any number of variables.  Minimal
generators are then read off the integer staircase of these inequalities,
scanned by recursion on the first coordinate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import ContractError
from .poly import min_antichain


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, c)
    return tuple(c // g for c in v) if g else None


def _det(rows):
    """Determinant of a square integer matrix by cofactor expansion along
    the first row: n! terms, cheap for the small matrices of fan charts and
    Newton facet normals."""
    if not rows:
        return 1
    total, sign, rest = 0, 1, rows[1:]
    for j, a in enumerate(rows[0]):
        if a:
            total += sign * a * _det([r[:j] + r[j + 1:] for r in rest])
        sign = -sign
    return total


def _orthogonal_normal(vectors, n):
    """The primitive vector of signed maximal minors of the given n-1
    integer vectors: orthogonal to each of them, None when they are
    linearly dependent."""
    return _primitive(tuple((-1) ** i * _det([v[:i] + v[i + 1:] for v in vectors])
                            for i in range(n)))


@lru_cache(maxsize=None)
def _candidate_normals(gens_tuple: tuple, n: int):
    """Nonnegative primitive candidate facet normals for the Minkowski sum
    of the Newton polyhedra of the given monomial generator families, each
    as (h, |h|_1, (min_{v in V_i} <h, v> for each family i)).  None of these
    depends on the exponents, so one entry serves every lambda."""
    pool = [tuple(e) for e in _unit_vectors(n)]
    for gens in gens_tuple:
        gens = list(gens)
        for i, v in enumerate(gens):
            for w in gens[i + 1:]:
                d = tuple(a - b for a, b in zip(v, w))
                if any(d):
                    pool.append(d)
    normals = set(_unit_vectors(n))
    for combo in combinations(range(len(pool)), n - 1):
        h = _orthogonal_normal([pool[i] for i in combo], n)
        if h is None:
            continue
        if all(c <= 0 for c in h):
            h = tuple(-c for c in h)
        if all(c >= 0 for c in h) and any(h):
            normals.add(h)
    return tuple((h, sum(h), tuple(min(sum(map(mul, h, v)) for v in gens)
                                   for gens in gens_tuple))
                 for h in sorted(normals))


def _unit_vectors(n: int):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def monomial_tau_newton(n: int, pairs_with_lambda) -> frozenset:
    """Minimal generators of tau(prod_i a_i^{lambda_i}) for monomial ideals
    a_i given as tuples of exponent vectors, lambda_i exact rationals."""
    gens_tuple = tuple(tuple(sorted(g)) for g, _ in pairs_with_lambda)
    # rhs = sum_i l_i * min_i - |h| = sum_i num_i * min_i / den - |h| over
    # the common denominator den of the l_i
    den = lcm(*(l.denominator for _, l in pairs_with_lambda))
    nums = [l.numerator * (den // l.denominator) for _, l in pairs_with_lambda]
    constraints = []
    for h, size, mins in _candidate_normals(gens_tuple, n):
        # <h, u> > rhs  with integer left side: <h, u> >= floor(rhs) + 1
        bound = sum(map(mul, nums, mins)) // den - size + 1
        if bound > 0:
            constraints.append((h, bound))
    return _staircase(constraints, n)


def _staircase(constraints, n: int) -> frozenset:
    """Minimal lattice points u >= 0 with <h, u> >= bound for all constraints.

    The feasible set is upward closed, so scanning the first coordinate and
    recursing terminates as soon as the sub-staircase equals its limit (the
    sub-problem with every first-coordinate-loaded constraint dropped)."""
    if not constraints:
        return frozenset([(0,) * n])
    if n == 1:
        need = max(-(-b // h[0]) for h, b in constraints)
        return frozenset([(max(0, need),)])

    def tail_staircase(cons):
        return _staircase([(h[1:], b) for h, b in cons], n - 1)

    blockers = [(h, b) for h, b in constraints if not any(h[1:])]
    start = max((-(-b // h[0]) for h, b in blockers), default=0)
    active = [(h, b) for h, b in constraints if any(h[1:])]
    limit = tail_staircase([(h, b) for h, b in active if h[0] == 0])
    out = set()
    u1 = max(0, start)
    guard = 0
    while True:
        sub = tail_staircase([(h, b - h[0] * u1) for h, b in active])
        out.update((u1,) + t for t in sub)
        if sub == limit:
            break
        u1 += 1
        guard += 1
        if guard > 10**6:
            raise ContractError("staircase scan failed to terminate")
    return min_antichain(out)
