"""The three benchmark workloads: their inputs, the library call per item,
the canonical encoding of each answer, and oracle spot-checks.

Each workload has a fixed catalog of items, drawn once from
``random.Random(f"{workload}:catalog")`` in a rotation over strata (fan;
prime and variable count; ideal shape and exponent).  The run's --seed
orders the catalog: it shuffles the items of each stratum and deals the
strata in the same rotation, so every prefix of the order has the same mix
of item kinds.  Per-item cost is heavy-tailed (a coefficient of variation
of 1.3 on toric-sweep and about 4.5 on the other two), so independent
draws of a few hundred items per seed would move the throughput of a run
by 7 to 27 percent from seed to seed; a run that covers the whole catalog
measures the same work under every seed.  A string seed is hashed with
SHA-512, so nothing here depends on PYTHONHASHSEED.

The library is always called through its module attributes, so that the
traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import nonnef.frobenius as frobenius
import nonnef.ideal as ideal_mod
import nonnef.parsing as parsing
import nonnef.poly as poly
import nonnef.toric as toric
import nonnef.verify as verify
from nonnef.cli import _enc

#: Catalog size per workload; a multiple of the stratum count.
CATALOG = {"toric-sweep": 432, "jumps-monomial": 800, "tau-general": 2016}

#: Items of the seeded order that the traced run covers.
TRACE_PREFIX = {"toric-sweep": 90, "jumps-monomial": 120, "tau-general": 480}

# criterion-8 call
EPS_GRID = (Fraction(1, 8), Fraction(1, 16))
TAU_LEVEL_CAP = 4
FAN_ROTATION = ("p2", "p1xp1", "f1", "f2") * 2 + ("p3",)
COEFFS = range(-2, 4)

# f_jumping_numbers(a, JUMPS_MAX, JUMPS_DENOM) on verify.random_monomial_ideal
JUMPS_MAX = 4
JUMPS_DENOM = 12
#: Size of the candidate grid f_jumping_numbers bisects over.
JUMPS_GRID = len({Fraction(n, d) for d in range(1, JUMPS_DENOM + 1)
                  for n in range(1, JUMPS_MAX * d + 1)})
# (p, number of variables, max_gens, max_deg).  Two-variable ideals use the
# defaults of random_monomial_ideal; with three variables, four generators
# or degree 5 and up give single items that run for 10 s to minutes, so
# those bounds are lowered.
JUMPS_STRATA = ((2, 2, 4, 6), (3, 2, 4, 6), (2, 3, 3, 4), (3, 3, 3, 4))

# test_ideal(a, lam): (p, generator count, max exponent per variable)
TAU_SHAPES = ((2, 1, 3), (3, 1, 3), (5, 1, 3), (2, 2, 2))
TAU_LAMBDAS = tuple(sorted({Fraction(a, b) for b in range(1, 5) for a in range(1, b + 1)}))


@dataclass(frozen=True)
class Item:
    label: str        # canonical description of the input, part of the digest
    args: tuple       # positional arguments of the library call


def ordered_items(workload: str, seed: int) -> list:
    """The catalog of `workload` in the order given by `seed`."""
    strata = _STRATA[workload]
    catalog = _MAKERS[workload](random.Random(f"{workload}:catalog"), CATALOG[workload])
    rng = random.Random(f"{workload}:{seed}")
    decks = []
    for s in range(strata):
        deck = catalog[s::strata]
        rng.shuffle(deck)
        decks.append(deck)
    return [item for row in zip(*decks) for item in row]


def _toric_items(rng, count):
    """Divisors dealt without replacement from each fan's coefficient grid."""
    decks = {}
    for name in dict.fromkeys(FAN_ROTATION):
        fan = toric.builtin_fan(name)
        grid = list(product(COEFFS, repeat=len(fan.rays)))
        rng.shuffle(grid)
        decks[name] = (fan, grid)
    items = []
    for i in range(count):
        name = FAN_ROTATION[i % len(FAN_ROTATION)]
        fan, grid = decks[name]
        coeffs = grid.pop()
        items.append(Item(f"{name} {coeffs}", (fan, toric.ToricDivisor(coeffs))))
    return items


def _jumps_items(rng, count):
    rings = [poly.ring(p, *[f"x{k}" for k in range(n)]) for p, n, _, _ in JUMPS_STRATA]
    items = []
    for i in range(count):
        stratum = i % len(JUMPS_STRATA)
        _, _, max_gens, max_deg = JUMPS_STRATA[stratum]
        a = verify.random_monomial_ideal(rng, rings[stratum], max_gens, max_deg)
        items.append(Item(repr(a), (a,)))
    return items


def _random_poly_text(rng, p, max_exp, terms):
    exps = [(i, j) for i in range(max_exp + 1) for j in range(max_exp + 1) if i or j]
    parts = []
    for i, j in sorted(rng.sample(exps, terms), reverse=True):
        factors = [str(rng.randrange(1, p))] if p > 2 else []
        if i:
            factors.append(f"x^{i}")
        if j:
            factors.append(f"y^{j}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _tau_items(rng, count):
    items = []
    for i in range(count):
        p, ngens, max_exp = TAU_SHAPES[i % len(TAU_SHAPES)]
        lam = TAU_LAMBDAS[(i // len(TAU_SHAPES)) % len(TAU_LAMBDAS)]
        while True:
            if ngens == 1:
                gens = [_random_poly_text(rng, p, max_exp, rng.randint(2, 3))]
            else:
                gens = [_random_poly_text(rng, p, max_exp, rng.randint(1, 3))
                        for _ in range(ngens)]
            a = parsing.parse_ideal(f"p={p}; vars=x,y; gens=[{', '.join(gens)}]")
            if not a.is_monomial and len(a.generators) == ngens:
                break
        items.append(Item(f"{a!r} lambda={lam}", (a, lam)))
    return items


_MAKERS = {"toric-sweep": _toric_items, "jumps-monomial": _jumps_items,
           "tau-general": _tau_items}
_STRATA = {"toric-sweep": len(FAN_ROTATION), "jumps-monomial": len(JUMPS_STRATA),
           "tau-general": len(TAU_SHAPES) * len(TAU_LAMBDAS)}


# -- the library call ------------------------------------------------------------

def run_item(workload: str, item: Item):
    if workload == "toric-sweep":
        fan, d = item.args
        return toric.non_nef_locus(fan, d, p=2, eps_grid=EPS_GRID,
                                   tau_level_cap=TAU_LEVEL_CAP)
    if workload == "jumps-monomial":
        (a,) = item.args
        return frobenius.f_jumping_numbers(a, JUMPS_MAX, JUMPS_DENOM)
    a, lam = item.args
    return frobenius.test_ideal(a, lam)


def cap_reached(workload: str, result) -> bool:
    """True for answers that carry cap-reached evidence or are uncertified."""
    if workload == "tau-general":
        return result.evidence == frobenius.EVIDENCE_CAP
    return not result.certified


def canonical_line(item: Item, result) -> str:
    """One item in the CLI's byte-deterministic JSON encoding."""
    return json.dumps({"input": item.label, "result": _enc(result)}, sort_keys=True)


# -- oracle spot-checks ----------------------------------------------------------

def spot_check(workload: str, items, results, seed: int, oracles):
    """Compare a seeded sample of the answered items (None marks a failed
    item) against the independent oracles of tests/oracles.py; returns the
    mismatch descriptions and the number of comparisons made."""
    rng = random.Random(f"{workload}:{seed}:check")
    answered = [k for k, r in enumerate(results) if r is not None]
    rng.shuffle(answered)
    return _CHECKS[workload](items, results, answered, oracles)


def _check_toric(items, results, order, oracles):
    """Order LPs by vertex enumeration: ord_Z(||D||) from the library LP and
    the sigma of every cross-check record equal the oracle minimum; a
    divisor that is not pseudo-effective has an empty section polytope."""
    bad, compared = [], 0
    for k in order[:6]:
        fan, d = items[k].args
        rep = results[k]
        cons = fan.polytope_constraints(d)
        if rep.status == "not-pseudo-effective":
            value, _ = oracles.lp_min_by_vertices([0] * fan.dim, cons, fan.dim)
            compared += 1
            if value is not None:
                bad.append(f"{items[k].label}: not pseudo-effective, yet P_D is nonempty")
            continue
        for rec in rep.cross_checks:
            objective = [sum(fan.rays[i][c] for i in rec.subvariety.rays)
                         for c in range(fan.dim)]
            const = sum(d.coefficients[i] for i in rec.subvariety.rays)
            value, _ = oracles.lp_min_by_vertices(objective, cons, fan.dim)
            expected = value + const
            got = toric.asymptotic_ord_toric(fan, d, rec.subvariety)
            compared += 1
            if got != expected:
                bad.append(f"{items[k].label} at {rec.subvariety}: ord LP {got}, "
                           f"vertex oracle {expected}")
            if rec.sigma_value is not None and rec.sigma_value != expected:
                bad.append(f"{items[k].label} at {rec.subvariety}: sigma "
                           f"{rec.sigma_value}, vertex oracle {expected}")
    return bad, compared


#: Largest number of multisets the naive monomial root may enumerate
#: (points whose chain stabilizes late are skipped, to bound the check's time).
NAIVE_LIMIT = 200_000


def _check_jumps(items, results, order, oracles):
    """At a point lam of each plateau, tau(a^lam) evaluated on its own equals
    the plateau ideal, and equals the naively expanded chain member
    (a^ceil(lam q))^[1/q] at its certified stabilization depth q = p^e."""
    bad, compared = [], 0
    for k in order:
        if compared >= 8:
            break
        (a,) = items[k].args
        p = a.ring.field.p
        gens = tuple(sorted(a.monomials))
        for plateau in results[k].plateaus:
            lam = plateau.start if plateau.start > 0 else plateau.end / 2
            r = frobenius.test_ideal(a, lam)
            if r.ideal != plateau.ideal:
                bad.append(f"{items[k].label} at {lam}: plateau {plateau.ideal!r}, "
                           f"tau {r.ideal!r}")
            q = p ** r.stabilization_e
            n = frobenius.ceil_times(lam, q)
            if comb(n + len(gens) - 1, len(gens) - 1) > NAIVE_LIMIT:
                continue
            compared += 1
            naive = oracles.naive_monomial_power_root(gens, n, q)
            if r.ideal.monomials != naive:
                bad.append(f"{items[k].label} at {lam}: tau {sorted(r.ideal.monomials)}, "
                           f"naive root at q={q} {sorted(naive)}")
    return bad, compared


#: Largest total degree of a^ceil(lam q) the one-shot root oracle expands.
ONESHOT_DEGREE_LIMIT = 120


def _check_tau(items, results, order, oracles):
    """The reported ideal equals the one-shot digit decomposition
    (a^ceil(lam q))^[1/q] at the reported chain index q = p^e."""
    bad, compared = [], 0
    for k in order:
        if compared >= 6:
            break
        a, lam = items[k].args
        r = results[k]
        q = a.ring.field.p ** r.stabilization_e
        n = frobenius.ceil_times(lam, q)
        if n * max(g.total_degree() for g in a.generators) > ONESHOT_DEGREE_LIMIT:
            continue
        compared += 1
        expected = oracles.oneshot_q_root(ideal_mod.ideal_power(a, n), q)
        if expected != r.ideal:
            bad.append(f"{items[k].label}: tau {r.ideal!r}, one-shot root at q={q} "
                       f"{expected!r}")
    return bad, compared


_CHECKS = {"toric-sweep": _check_toric, "jumps-monomial": _check_jumps,
           "tau-general": _check_tau}
