"""Frobenius bracket powers and roots, test ideals, F-jumping numbers.

Everything here is exact: exponents of the form ceil(lambda * p^e) are
computed in integer arithmetic, never floats.

The chain (a^ceil(lambda p^e))^[1/p^e] ascends with e and its stable member
is the test ideal.  Stabilization has no effective a-priori bound, so
results carry an evidence grade: 'closed-form' (principal monomial
inputs), 'window-stable' (the chain demonstrably stabilized: for monomial
ideals it reached the exact facet-description value, for general ideals a
run of equal members of configurable length was observed) or 'cap-reached'
(the iterate budget ran out; the reported ideal is then a lower bound, the
chain being ascending).

For monomial ideals the chain member is computed without expanding the
huge power a^N: writing each multiset count c_j in base p as c_j = p*s_j +
r_j regroups every generator exponent sum as

    floor((sum_j c_j v_j + m)/p) = sum_j s_j v_j + floor((sum_j r_j v_j + m)/p)

which expresses (a^N * x^m)^[1/p] as a finite sum of ideals
a^{(N-R)/p} * x^{m'} over digit totals R = sum r_j congruent to N mod p.
Taking p-th roots one at a time turns this into a recursion whose N shrinks
geometrically; the antichain pruning along the way is sound because roots,
products and floors are all monotone.  The recursion is checked against
the naive multiset expansion in the test suite.

For general ideals a^N is generated by one product P(c) = prod_j g_j^c_j
per count vector c of the generators with sum N.  The first member of the
chain is `frobenius_root` of the expanded power `ideal_power(a, N)`; the
later ones never form a^N.  Since the Frobenius fixes F_p,
(g^q h)^[1/q] = g h^[1/q], so writing c = q s + t with t < q componentwise,
the level-q buckets of P(c) = P(s)^[q] P(t) are P(s) times those of P(t).
These come from the base-p digits r_0, r_1, ... of t, lowest first: the
buckets of D(r_0) = prod_j g_j^(r_0)_j, then the level-p buckets of w D(r_1)
for each bucket w, and so on, in a digit tree that every member of the
chain shares.  An intermediate constant bucket is kept, since the next
digit multiplies it; the unit test, the generator cap and the Ideal act on
the final buckets only, which are, as a set, the generators
`frobenius_root` takes from the expanded power.  A monomial factor of a
mixed call enters as the minimal generators x^u of its power, u split into
digits the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product as iter_product
from math import gcd, lcm

from .caps import DEFAULT_CAPS, Caps
from .errors import ContractError, DomainError, ResourceLimitError, require_int
from .field import PrimeField
from .ideal import (Ideal, _antichain_ideal, ideal_contains, ideal_power,
                    ideal_product, monomial_power_gens, unit_ideal)
from .newton import monomial_tau_newton
from .poly import (Polynomial, _count_vectors, _digit_horner, _digit_product, min_antichain,
                   mono_mul, monos_in_ideal)

EVIDENCE_CLOSED = "closed-form"
EVIDENCE_WINDOW = "window-stable"
EVIDENCE_CAP = "cap-reached"

_EVIDENCE_RANK = {EVIDENCE_CLOSED: 0, EVIDENCE_WINDOW: 1, EVIDENCE_CAP: 2}


def worst_evidence(*grades: str) -> str:
    return max(grades, key=_EVIDENCE_RANK.__getitem__)


@dataclass(frozen=True)
class TestIdealResult:
    ideal: Ideal
    stabilization_e: int      # first chain index at which the reported ideal appeared
    evidence: str             # closed-form | window-stable | cap-reached


def check_lambda(lam) -> Fraction:
    """lam as a Fraction if it is an int (not a bool) or a Fraction >= 0,
    a Fraction being returned as it is; otherwise a DomainError that names
    the exponent."""
    if type(lam) not in (int, Fraction):
        raise DomainError(f"exponent must be an int or a Fraction, got {lam!r}")
    if lam < 0:
        raise DomainError(f"exponent must be non-negative, got {lam}")
    return lam if type(lam) is Fraction else Fraction(lam)


def ceil_times(lam: Fraction, q: int) -> int:
    """ceil(lam * q), exactly."""
    return -((-lam.numerator * q) // lam.denominator)


# -- bracket powers and roots --------------------------------------------------

def frobenius_power(a: Ideal, e: int) -> Ideal:
    """Bracket power a^[q], q = p^e: generated by g^q over the generators g."""
    q = a.ring.field.p ** require_int(e, "Frobenius iterate e", least=0)
    if a.is_zero() or q == 1:
        return a
    return Ideal(a.ring, [g.frobenius(q) for g in a.generators])


_ROOT_GEN_CAP = 100000
#: Largest size bound lam_max * D(D+1)/2 of a candidate grid f_jumping_numbers builds.
_JUMP_GRID_CAP = 10 ** 6


def _digit_split(terms: dict, q: int) -> dict:
    """The base-q digit split of a polynomial given by its terms: the
    residue b = w mod q of every exponent w that occurs, mapped to its
    bucket {w div q: c}, so that f = sum_b x^b g_b(x^q)."""
    buckets: dict = {}
    for m, c in terms.items():
        b = tuple([w % q for w in m])
        bucket = buckets.get(b)
        if bucket is None:
            bucket = buckets[b] = {}
        bucket[tuple([w // q for w in m])] = c
    return buckets


def _root_ideal(ring, roots: list) -> Ideal:
    """The ideal of the distinct root polynomials `roots`, none of them a
    constant, within the generator-count cap."""
    if len(roots) > _ROOT_GEN_CAP:
        raise ResourceLimitError("Frobenius root generator count exploded")
    return Ideal(ring, roots)


def frobenius_root(a: Ideal, e: int) -> Ideal:
    """The ideal a^[1/q], q = p^e: the coefficients g_b of the base-q digit
    decompositions f = sum_b g_b^q x^b of the generators, b < q componentwise.

    Valid over F_p because the Frobenius fixes the prime field, so the term
    c x^w contributes c x^(w div q) to the bucket b = w mod q; a monomial
    x^v maps to x^(v div q).  One pass at level q gives the same generators
    as taking p-th roots e times: each iterated bucket is a base-q digit
    bucket, and a constant bucket stays constant.
    """
    require_int(e, "Frobenius iterate e", least=0)
    if a.is_zero():
        raise DomainError("Frobenius root requires a nonzero ideal")
    if e == 0:
        return a
    # p^k > every exponent once k is its bit length: deeper roots floor to 0
    top = max([max(m) for g in a.generators for m in g.terms])
    q = a.ring.field.p ** min(e, top.bit_length())
    zero = (0,) * a.ring.nvars
    roots = {}  # bucket polynomials, deduplicated by their term sets
    for f in a.generators:
        for terms in _digit_split(f.terms, q).values():
            if len(terms) == 1 and zero in terms:
                return unit_ideal(a.ring)
            roots[frozenset(terms.items())] = terms
    return _root_ideal(a.ring, [Polynomial._clean(a.ring, terms) for terms in roots.values()])


# -- fused monomial root-of-power ----------------------------------------------

@lru_cache(maxsize=None)
def _digit_table(gens: tuple, p: int):
    """For the monomial generators v_1..v_g: minimal exponent sums
    sum_j r_j v_j with digits 0 <= r_j <= p-1, grouped by R = sum_j r_j."""
    n = len(gens[0])
    table = {0: frozenset([(0,) * n])}
    for v in gens:
        grown: dict = {}
        for rcount in range(p):
            rv = tuple(rcount * c for c in v)
            for total, zs in table.items():
                bucket = grown.setdefault(total + rcount, set())
                bucket.update(mono_mul(z, rv) for z in zs)
        table = {total: min_antichain(zs) for total, zs in grown.items()}
    return {total: tuple(sorted(zs)) for total, zs in table.items()}


@lru_cache(maxsize=None)
def _small_power_gens(gens: tuple, n: int) -> frozenset:
    return monomial_power_gens(frozenset(gens), n)


@lru_cache(maxsize=1)
def _root_memo(families: tuple, p: int) -> tuple:
    """(memo, interned) shared by every monomial_root_of_power call on one
    generator family: memo maps the flat key (e_left, *ns, *m) to the
    antichain rec(ns, m, e_left), which depends on nothing else, and interned
    maps each antichain to one shared copy.  Only the most recent family is
    kept."""
    return {}, {}


def monomial_root_of_power(ring, pairs, e: int, p: int) -> frozenset:
    """Minimal generators of (prod_i a_i^{N_i})^[1/p^e] for monomial ideals
    a_i given by minimal generator tuples, without expanding the powers.

    pairs: sequence of (sorted tuple of exponent vectors, N_i >= 0).
    """
    families = tuple(tuple(sorted(g)) for g, _ in pairs)
    memo, interned = _root_memo(families, p)

    def rec(ns: tuple, m: tuple, e_left: int) -> frozenset:
        key = (e_left, *ns, *m)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if e_left == 0:
            gens = {m}
            for gvecs, n in zip(families, ns):
                pw = _small_power_gens(gvecs, n)
                gens = min_antichain(mono_mul(g, w) for g in gens for w in pw)
            out = frozenset(gens)
        else:
            options = []
            for gvecs, n in zip(families, ns):
                rmax = min(n, len(gvecs) * (p - 1))
                options.append(range(n % p, rmax + 1, p))
            collected: set = set()
            for combo in iter_product(*options):
                zs = {m}
                for gvecs, r in zip(families, combo):
                    if r:
                        zset = _digit_table(gvecs, p)[r]
                        zs = min_antichain(mono_mul(z, w) for z in zs for w in zset)
                sub_ns = tuple((n - r) // p for n, r in zip(ns, combo))
                for z in zs:
                    m2 = tuple(c // p for c in z)
                    collected |= rec(sub_ns, m2, e_left - 1)
            out = min_antichain(collected)
        out = interned.setdefault(out, out)
        memo[key] = out
        return out

    return rec(tuple(n for _, n in pairs), (0,) * ring.nvars, e)


# -- test ideals -----------------------------------------------------------------

def _principal_monomial_closed_form(a: Ideal, lam: Fraction) -> TestIdealResult:
    """tau((x^v)^lam) = x^floor(lam*v): the chain value floor(ceil(lam q) v / q)
    reaches this for every q > max(v) * denominator(lam) and never moves again.

    stabilization_e is the first e at which it does.  With lam = a/b and
    ceil(lam q) = (a q + r)/b, r = (-a q) mod b, the coordinate c stays at
    floor(lam c) exactly when r c < q s_c, s_c = b (floor(lam c) + 1) - a c > 0,
    so the walk only has to pass the coordinate of largest c / s_c."""
    (v,) = a.monomials
    num, den = lam.numerator, lam.denominator
    limit = tuple((num * c) // den for c in v)
    c, s = max(((c, den * (f + 1) - num * c) for c, f in zip(v, limit)),
               key=lambda cs: Fraction(*cs))
    p = a.ring.field.p
    e, q = 1, p
    while (-num * q) % den * c >= q * s:
        e += 1
        q *= p
    return TestIdealResult(_antichain_ideal(a.ring, frozenset([limit])), e, EVIDENCE_CLOSED)


def stabilize(members, window: int, order, key=None):
    """Scan chain members (index, value) and return
    (value, first_index, stabilized).

    Every "for e >> 0", "for m divisible enough" and "for eps small enough"
    in the package is read off such a chain.  order(prev, cur) is the
    theorem that makes the chain monotone; a failure is a ContractError.
    Members are compared by key(value) when a key is given, else by value.
    The scan stops once `window` consecutive members equal their
    predecessor.  The value returned is the first-seen member of the final
    run and first_index the index where it appeared; an exhausted chain
    returns its last run with stabilized=False.
    """
    value = first = prev = prev_key = prev_index = None
    run = 0
    for index, cur in members:
        cur_key = cur if key is None else key(cur)
        if prev_index is not None and not order(prev, cur):
            raise ContractError(f"chain order violated between members "
                                f"{prev_index} and {index}")
        if prev_index is not None and cur_key == prev_key:
            run += 1
            if run >= window:
                return value, first, True
        else:
            run, value, first = 0, cur, index
        prev, prev_key, prev_index = cur, cur_key, index
    return value, first, False


def _monomial_chain(ring, pairs_with_lambda, caps: Caps) -> TestIdealResult:
    """Run the ascending chain; stop exactly when it reaches the Newton-facet
    value, which certifies stabilization (a plain equality window can sit on
    a false plateau for several steps, e.g. (x,y)^(9/5) in F_2)."""
    p = ring.field.p
    target = monomial_tau_newton(ring.nvars, pairs_with_lambda)
    prev = None
    first_e = None
    j = None
    q = 1
    for e in range(1, caps.e_max_monomial + 1):
        q *= p
        pairs = tuple((gens, ceil_times(lam, q)) for gens, lam in pairs_with_lambda)
        j = monomial_root_of_power(ring, pairs, e, p)
        if prev is not None and not monos_in_ideal(j, prev):
            raise ContractError(f"test-ideal chain failed to ascend at e={e}")
        if not monos_in_ideal(target, j):
            raise ContractError("chain member escaped the certified test ideal")
        if j != prev:
            first_e = e
        prev = j
        if j == target:
            return TestIdealResult(_antichain_ideal(ring, j), first_e, EVIDENCE_WINDOW)
    return TestIdealResult(_antichain_ideal(ring, j), first_e, EVIDENCE_CAP)


def _shifted_product(ring, gens, v: tuple, lifted: dict, digit_products: dict):
    """P(c) * x^u = prod_j gens[j]^c_j * x^u for v = c + u, the counts c over
    `gens` followed by an exponent vector u; None for the constant 1."""
    counts, shift = v[:len(gens)], v[len(gens):]
    f = (_digit_horner(gens, counts, ring.field.p, lifted, digit_products)
         if any(counts) else None)
    if any(shift):
        f = (f or Polynomial.one(ring)).scale_monomial(shift)
    return f


def _digit_level(ring, gens, node, digit: tuple, lifted: dict, digit_products: dict):
    """The child of `node` at the digit vector r_i in the digit tree of one
    general chain, built and stored.

    A node (W, children) holds the distinct level-p^i buckets W of
    prod_{j<i} D(r_j)^[p^j] over the digit vectors r_0..r_{i-1} on its path,
    D(r) = `_shifted_product` of r, and children maps the next digit vector
    to its node.  The child holds the distinct level-p buckets of w * D(r_i)
    over w in W: the buckets of a bucket are the deeper buckets, and
    (h^[p] * D)^[1/p] = h * D^[1/p] because the Frobenius fixes F_p.  A
    constant bucket is kept as it is, since the next digit multiplies it.
    """
    d = _shifted_product(ring, gens, digit, lifted, digit_products)
    level: dict = {}
    for w in node[0]:
        for terms in _digit_split((w * d if d else w).terms, ring.field.p).values():
            level[frozenset(terms.items())] = terms
    child = node[1][digit] = ([Polynomial._clean(ring, t) for t in level.values()], {})
    return child


def _fused_member(ring, gens, choices, e: int, tree, lifted: dict,
                  digit_products: dict) -> Ideal:
    """(prod_i a_i^N_i)^[1/q], q = p^e, without expanding the power.

    `choices` lists the generators P(c) * x^u of the power as vectors
    v = c + u (see `_shifted_product`).  Writing v = q s + t with t < q
    componentwise, P(c) x^u = (P(s) x^s')^[q] * (P(t) x^t'), s' and t' being
    the exponent parts, so its level-q buckets are P(s) x^s' * w over the
    buckets w of the second factor, which the digit tree `tree` holds under
    the base-p digits of t, lowest first.  These are the buckets
    frobenius_root takes from the expanded power, as the same set of
    polynomials, so the unit test, the generator cap and the Ideal see what
    they see there.
    """
    p, q = ring.field.p, ring.field.p ** e
    groups: dict = {}   # low part t -> the distinct high parts s sharing it
    for v in choices:
        groups.setdefault(tuple([x % q for x in v]), {})[tuple([x // q for x in v])] = None
    zero = (0,) * ring.nvars
    powers = [p ** i for i in range(e)]
    roots: dict = {}   # final buckets, deduplicated by their term sets
    for t, highs in groups.items():
        node = tree
        for pi in powers:
            digit = tuple([x // pi % p for x in t])
            node = (node[1].get(digit)
                    or _digit_level(ring, gens, node, digit, lifted, digit_products))
        for s in highs:
            base = _shifted_product(ring, gens, s, lifted, digit_products)
            for w in node[0]:
                f = base * w if base else w
                if len(f.terms) == 1 and zero in f.terms:
                    return unit_ideal(ring)
                roots[frozenset(f.terms.items())] = f
    return _root_ideal(ring, list(roots.values()))


def _general_members(ring, ideals_with_lambda, caps: Caps):
    """The members (e, (prod_i a_i^ceil(lam_i p^e))^[1/p^e]) of a general
    chain, e = 1, 2, ..., e_max_general, at least one a_i not monomial.

    The first member is the root of the expanded power.  Every later one is
    `_fused_member`, on a digit tree, a Horner memo and digit products that
    the whole chain shares; a power past `power_degree_cap` ends the chain
    there (the first one raises, as `ideal_power` does).
    """
    p = ring.field.p
    gens = tuple(g for a, _ in ideals_with_lambda if not a.is_monomial for g in a.generators)
    tree = ([Polynomial.one(ring)], {})
    lifted: dict = {}
    digit_products: dict = {}
    zero = (0,) * ring.nvars
    q = 1
    for e in range(1, caps.e_max_general + 1):
        q *= p
        counts = [ceil_times(lam, q) for _, lam in ideals_with_lambda]
        if e == 1:
            yield e, frobenius_root(reduce(ideal_product, [
                ideal_power(a, n, caps) for (a, _), n in zip(ideals_with_lambda, counts)]), e)
            continue
        counts_part, shifts = [()], [zero]
        for (a, _), n in zip(ideals_with_lambda, counts):
            if a.is_monomial:
                shifts = [mono_mul(u, w) for u in shifts for w in ideal_power(a, n).monomials]
            elif n * max(g.total_degree() for g in a.generators) > caps.power_degree_cap:
                return  # chain truncated by the degree cap: cap-reached below
            else:
                counts_part = [c + d for c in counts_part
                               for d in _count_vectors(n, len(a.generators))]
        choices = [c + u for c in counts_part for u in shifts]
        yield e, _fused_member(ring, gens, choices, e, tree, lifted, digit_products)


def _general_chain(ring, ideals_with_lambda, caps: Caps) -> TestIdealResult:
    # reduced Groebner keys, not Ideal.__eq__, which would add normal forms
    ideal, first_e, stable = stabilize(
        _general_members(ring, ideals_with_lambda, caps), caps.window,
        lambda prev, cur: ideal_contains(cur, prev, caps),
        key=lambda j: _ideal_key_for_chain(j, caps))
    return TestIdealResult(ideal, first_e, EVIDENCE_WINDOW if stable else EVIDENCE_CAP)


def _ideal_key_for_chain(a: Ideal, caps: Caps):
    if a.is_monomial:
        return ("monomial", a.monomials)
    return ("gb", tuple(g.key() for g in a.groebner(caps.gb_pair_cap)))


def test_ideal(a: Ideal, lam, caps: Caps = DEFAULT_CAPS) -> TestIdealResult:
    """tau(a^lam): stable member of the ascending Frobenius-root chain."""
    lam = check_lambda(lam)
    if a.is_zero():
        raise DomainError("test ideal requires a nonzero ideal")
    if a.is_unit() or lam == 0:
        return TestIdealResult(unit_ideal(a.ring), 1,
                               EVIDENCE_CLOSED if lam == 0 else EVIDENCE_WINDOW)
    if a.is_monomial and len(a.monomials) == 1:
        return _principal_monomial_closed_form(a, lam)
    if a.is_monomial:
        return _monomial_chain(a.ring, ((tuple(sorted(a.monomials)), lam),), caps)
    return _general_chain(a.ring, ((a, lam),), caps)


def mixed_test_ideal(a: Ideal, lam, b: Ideal, mu, caps: Caps = DEFAULT_CAPS) -> TestIdealResult:
    """tau(a^lam b^mu): same chain contract applied to the product power."""
    lam, mu = check_lambda(lam), check_lambda(mu)
    if a.is_zero() or b.is_zero():
        raise DomainError("mixed test ideal requires nonzero ideals")
    if a.ring != b.ring:
        raise DomainError(f"mixed test ideal needs a common ambient ring, "
                          f"got {a.ring!r} and {b.ring!r}")
    if a.is_monomial and b.is_monomial:
        return _monomial_chain(a.ring, ((tuple(sorted(a.monomials)), lam),
                                        (tuple(sorted(b.monomials)), mu)), caps)
    return _general_chain(a.ring, ((a, lam), (b, mu)), caps)


# -- F-jumping numbers -----------------------------------------------------------

@dataclass(frozen=True)
class Plateau:
    """tau equals `ideal` at every grid point in [start, end), the final
    plateau's grid points including end; start 0 means (0, end).  Between
    the last such grid point and end, tau may already have dropped."""
    start: Fraction
    end: Fraction
    ideal: Ideal


@dataclass(frozen=True)
class JumpReport:
    interval_end: Fraction
    jumps: tuple
    plateaus: tuple
    # False if a Frobenius chain hit a cap: for a monomial ideal test_ideal
    # runs only at the jumps and at the last grid point, for any other
    # ideal at every grid point evaluated
    certified: bool


@lru_cache(maxsize=1)
def _jump_grid(lam_max: Fraction, denom_bound: int) -> tuple:
    """The candidate points n/d in (0, lam_max] with d <= denom_bound, as
    pairs (n, d) in lowest terms, ascending.  They are sorted by the exact
    integer rank n * (L // d) = (n/d) * L with L = lcm(1..denom_bound), so
    no Fraction is built.  The most recent grid is kept: a run of calls with
    the same bounds sorts it once."""
    lcm_all = lcm(*range(1, denom_bound + 1))
    ranked = sorted((n * (lcm_all // d), n, d)
                    for d in range(1, denom_bound + 1)
                    for n in range(1, lam_max.numerator * d // lam_max.denominator + 1)
                    if gcd(n, d) == 1)
    return tuple((n, d) for _, n, d in ranked)


def f_jumping_numbers(a: Ideal, lam_max, denom_bound: int,
                      caps: Caps = DEFAULT_CAPS) -> JumpReport:
    """The points n/d of the candidate grid (0 < n/d <= lam_max,
    d <= denom_bound) where tau differs from tau at the previous grid point,
    tau(0+) = (1) standing before the first.

    tau is non-increasing in the exponent, so equal ideals at two grid
    points freeze the whole stretch between them and a bisection finds every
    change on the grid.  A reported jump is a grid point, and at least one
    jumping number lies in (previous grid point, reported point]; a jumping
    number whose denominator is at most denom_bound is a grid point and is
    reported as it is.  Constancy is checked on the grid only; see
    `Plateau`.

    For a monomial ideal the bisection reads tau at each grid point it
    visits off the Newton polyhedron (`monomial_tau_newton`; the test ideal
    of a monomial ideal is its multiplier ideal in every characteristic).
    `test_ideal` then runs once at each reported jump and once at the last
    grid point, which also checks a closed form that never changes; a
    result that stabilizes on another ideal is a ContractError.  A
    non-monomial ideal gets `test_ideal` at every visited grid point.
    """
    lam_max = check_lambda(lam_max)
    if a.is_zero():
        raise DomainError("jumping numbers require a nonzero ideal")
    require_int(denom_bound, "denom_bound")
    # the grid has sum_{d <= D} floor(lam_max * d) points; bound it before
    # lcm(1..D) is formed
    grid_bound = lam_max * denom_bound * (denom_bound + 1) / 2
    if grid_bound > _JUMP_GRID_CAP:
        raise ResourceLimitError(f"candidate grid of up to {int(grid_bound)} points "
                                 f"exceeds {_JUMP_GRID_CAP}; lower denom_bound or lam_max")
    grid = _jump_grid(lam_max, denom_bound)
    ring = a.ring
    chains: dict = {}    # grid index -> TestIdealResult of test_ideal run there
    if a.is_monomial:
        gens = tuple(sorted(a.monomials))
        taus: dict = {-1: frozenset([(0,) * ring.nvars])}   # tau(0+) = (1)

        def tau_at(i: int) -> frozenset:
            return monomial_tau_newton(ring.nvars, ((gens, Fraction(*grid[i])),))
    else:
        taus = {-1: unit_ideal(ring)}

        def tau_at(i: int) -> Ideal:
            chains[i] = test_ideal(a, Fraction(*grid[i]), caps)
            return chains[i].ideal

    def tau(i: int):
        if i not in taus:
            taus[i] = tau_at(i)
        return taus[i]

    jump_at: list = []   # grid indices of the jumps

    def bisect(lo: int, hi: int):
        # precondition: tau(lo) != tau(hi); find every change point in between
        if hi - lo == 1:
            jump_at.append(hi)
            return
        mid = (lo + hi) // 2
        if tau(lo) != tau(mid):
            bisect(lo, mid)
        if tau(mid) != tau(hi):
            bisect(mid, hi)

    if grid and tau(-1) != tau(len(grid) - 1):
        bisect(-1, len(grid) - 1)
    jump_at.sort()
    jumps = tuple(Fraction(*grid[i]) for i in jump_at)

    if a.is_monomial:
        for i in sorted({*jump_at, len(grid) - 1}) if grid else ():
            r = chains[i] = test_ideal(a, Fraction(*grid[i]), caps)
            if r.evidence != EVIDENCE_CAP and r.ideal.monomials != taus[i]:
                raise ContractError(f"test ideal at {Fraction(*grid[i])} stabilized "
                                    f"off the Newton-polyhedron test ideal")
        ideals = [unit_ideal(ring)] + [_antichain_ideal(ring, taus[i]) for i in jump_at]
    else:
        ideals = [taus[i] for i in [-1] + jump_at]
    plateaus = [Plateau(start, end, ideal) for ideal, start, end in
                zip(ideals, (Fraction(0),) + jumps, jumps + (lam_max,))]
    for prev, nxt in zip(plateaus, plateaus[1:]):
        if not (ideal_contains(prev.ideal, nxt.ideal) and prev.ideal != nxt.ideal):
            raise ContractError("plateau ideals must strictly decrease")
    certified = all(r.evidence != EVIDENCE_CAP for r in chains.values())
    return JumpReport(lam_max, jumps, tuple(plateaus), certified)


# -- the ceiling-splitting identity ----------------------------------------------

@dataclass(frozen=True)
class CeilSplit:
    s: int
    t: int
    lhs: int
    rhs: int


def ceil_split(lam, m: int, p: int, e: int) -> CeilSplit:
    """Write p^e = m*b*s + t with 0 <= t < m*b for lam = a/b; then
    ceil(lam p^e / m) = a*s + ceil(a*t/(b*m)).  Both sides are returned and
    asserted equal."""
    lam = check_lambda(lam)
    require_int(m, "m")
    require_int(e, "e", least=0)
    PrimeField(p)  # validates primality
    a, b = lam.numerator, lam.denominator
    q = p ** e
    s, t = divmod(q, m * b)
    lhs = -((-a * q) // (b * m))
    rhs = a * s + -((-a * t) // (b * m))
    if lhs != rhs:
        raise ContractError(f"ceil identity violated at lam={lam}, m={m}, p={p}, e={e}")
    return CeilSplit(s, t, lhs, rhs)
