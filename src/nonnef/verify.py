"""Seeded property suites behind the `verify` subcommand.

Each suite draws deterministic random instances, checks an invariant that
is a theorem, and reports either a pass summary or a shrunk counterexample.
Cap-flagged evaluations are skipped, never counted as violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product

from .asymptotic import (CoordinateSubvariety, GradedSequence,
                         check_asymptotic_props, check_estimate_order)
from .caps import DEFAULT_CAPS, Caps
from .errors import ContractError, DomainError, require_int
from .frobenius import EVIDENCE_CAP, ceil_split, test_ideal
from .ideal import Ideal, ideal_contains, ideal_power, ideal_product, monomial_ideal
from .poly import ring
from .toric import ToricDivisor, builtin_fan, non_nef_locus


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    cases: int
    skipped_cap_flagged: int
    violations: int
    counterexample: object = None


def random_monomial_ideal(rng: random.Random, amb, max_gens=4, max_deg=6) -> Ideal:
    n = amb.nvars
    while True:
        gens = set()
        for _ in range(rng.randint(1, max_gens)):
            v = [0] * n
            total = rng.randint(0, max_deg)
            for _ in range(total):
                v[rng.randrange(n)] += 1
            gens.add(tuple(v))
        a = monomial_ideal(amb, gens)
        if not a.is_zero():
            return a


def _shrink_pair(a: Ideal, b: Ideal, still_fails) -> tuple:
    """Greedy shrink: drop generators while the failure persists."""
    changed = True
    while changed:
        changed = False
        for which in (0, 1):
            cur = (a, b)[which]
            if len(cur.generators) <= 1:
                continue
            for g in cur.generators:
                smaller = Ideal(cur.ring, [h for h in cur.generators if h is not g])
                if smaller.is_zero():
                    continue
                trial = (smaller, b) if which == 0 else (a, smaller)
                if still_fails(*trial):
                    a, b = trial
                    changed = True
                    break
    return a, b


def run_subadditivity(seed: int, budget: int, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """tau((ab)^lam) inside tau(a^lam)*tau(b^lam), and the m=2 power form.

    Each of `budget` random generator pairs is tested at every lambda in
    {1/2, 1, 3/2, 2} over both F_2 and F_3."""
    rng = random.Random(seed)
    lams = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    cases = skipped = 0
    for _ in range(budget):
        nvars = rng.randint(1, 3)
        seed_ring = ring(2, *[f"x{k}" for k in range(nvars)])
        gens_a = random_monomial_ideal(rng, seed_ring).monomials
        gens_b = random_monomial_ideal(rng, seed_ring).monomials
        for p in (2, 3):
            amb = ring(p, *[f"x{k}" for k in range(nvars)])
            a = monomial_ideal(amb, gens_a)
            b = monomial_ideal(amb, gens_b)
            for lam in lams:

                def violates(x, y, lam=lam, caps=caps):
                    tx, ty = test_ideal(x, lam, caps), test_ideal(y, lam, caps)
                    txy = test_ideal(ideal_product(x, y), lam, caps)
                    if EVIDENCE_CAP in (tx.evidence, ty.evidence, txy.evidence):
                        return None
                    return not ideal_contains(ideal_product(tx.ideal, ty.ideal),
                                              txy.ideal)

                verdict = violates(a, b)
                if verdict is None:
                    skipped += 1
                    continue
                cases += 1
                if verdict:
                    a, b = _shrink_pair(a, b, lambda x, y: violates(x, y) is True)
                    return SuiteResult("subadditivity", cases, skipped, 1,
                                       {"a": repr(a), "b": repr(b),
                                        "lambda": str(lam), "p": p})
                ta = test_ideal(a, lam, caps)
                t2 = test_ideal(a, 2 * lam, caps)
                if EVIDENCE_CAP in (ta.evidence, t2.evidence):
                    skipped += 1
                elif not ideal_contains(ideal_power(ta.ideal, 2, caps), t2.ideal):
                    return SuiteResult("subadditivity", cases, skipped, 1,
                                       {"a": repr(a), "lambda": str(lam), "p": p,
                                        "failure": "tau(a^{2L}) escaped tau(a^L)^2"})
    return SuiteResult("subadditivity", cases, skipped, 0)


def run_estimate_order(seed: int, budget: int, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """Strict bound ord_Z(tau(a^lam)) > lam*ord_Z(a) - codim, fuzzed."""
    rng = random.Random(seed)
    cases = skipped = 0
    for _ in range(budget):
        p = rng.choice([2, 3])
        nvars = rng.randint(2, 3)
        amb = ring(p, *[f"x{k}" for k in range(nvars)])
        a = random_monomial_ideal(rng, amb)
        lam = Fraction(rng.randint(0, 6), rng.choice([1, 2]))
        zs = [CoordinateSubvariety(tuple(range(nvars)))] + \
             [CoordinateSubvariety((k,)) for k in range(nvars)]
        z = rng.choice(zs)
        chk = check_estimate_order(a, z, lam, caps)
        if chk.evidence == EVIDENCE_CAP:
            skipped += 1
            continue
        cases += 1
        if not chk.holds:
            return SuiteResult("estimate-order", cases, skipped, 1,
                               {"a": repr(a), "lambda": str(lam),
                                "subvariety": list(z.indices), "p": p,
                                "lhs": str(chk.lhs), "rhs": str(chk.rhs)})
    return SuiteResult("estimate-order", cases, skipped, 0)


def run_asymptotic_props(seed: int, budget: int, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """Monotonicity in the exponent and power subadditivity for asymptotic
    test ideals of random power sequences."""
    rng = random.Random(seed)
    cases = skipped = 0
    for _ in range(budget):
        p = rng.choice([2, 3])
        nvars = rng.randint(1, 2)
        amb = ring(p, *[f"x{k}" for k in range(nvars)])
        seq = GradedSequence.power(random_monomial_ideal(rng, amb, max_gens=3, max_deg=4))
        lam = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
        mu = lam - Fraction(rng.randint(0, 2), 2)
        mu = max(mu, Fraction(0))
        m = rng.choice([1, 2])
        chk = check_asymptotic_props(seq, None, None, lam, mu, m, caps)
        if chk.evidence == EVIDENCE_CAP:
            skipped += 1
            continue
        cases += 1
        if not (chk.monotone_holds and chk.power_subadditive_holds):
            failure = "power subadditivity" if chk.monotone_holds else "monotonicity"
            return SuiteResult("asymptotic-props", cases, skipped, 1,
                               {"seq": repr(seq.base), "lambda": str(lam), "mu": str(mu),
                                "m": m, "p": p, "failure": failure})
    return SuiteResult("asymptotic-props", cases, skipped, 0)


def _divisor_grid(fan, budget: int, seed: int):
    full = list(iter_product(range(-2, 4), repeat=len(fan.rays)))
    if len(full) > budget:
        full = random.Random(seed).sample(full, budget)
    return [ToricDivisor(c) for c in full]


def _toric_sweep(seed: int, budget: int, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """non_nef_locus on seeded divisors of the built-in surfaces.  It raises a
    ContractError when its three methods disagree, when a nef divisor gets a
    nonempty report, and when B_- has more codimension-one members than the
    Picard number; that error is the counterexample.  Both toric suite names
    run this sweep, and `run_suite` names its result."""
    cases = skipped = 0
    per_fan = max(1, budget // 4)
    for name in ("p2", "p1xp1", "f1", "f2"):
        fan = builtin_fan(name)
        for d in _divisor_grid(fan, per_fan, seed):
            try:
                rep = non_nef_locus(fan, d, caps=caps)
            except ContractError as exc:
                return SuiteResult("toric-sweep", cases, skipped, 1,
                                   {"fan": name, "divisor": repr(d), "error": str(exc)})
            if rep.certified:
                cases += 1
            else:
                skipped += 1
    return SuiteResult("toric-sweep", cases, skipped, 0)


def run_ceil_identity(seed: int, budget: int, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    rng = random.Random(seed)
    for i in range(budget):
        lam = Fraction(rng.randint(0, 20), rng.randint(1, 20))
        m = rng.randint(1, 10)
        p = rng.choice([2, 3, 5, 7])
        e = rng.randint(0, 12)
        try:
            ceil_split(lam, m, p, e)  # asserts lhs == rhs internally
        except ContractError:
            return SuiteResult("ceil-identity", i + 1, 0, 1,
                               {"lambda": str(lam), "m": m, "p": p, "e": e})
    return SuiteResult("ceil-identity", budget, 0, 0)


# suite name -> (runner, default budget), in the order `verify all` runs them
_SUITE_TABLE = {
    "subadditivity": (run_subadditivity, 200),
    "estimate-order": (run_estimate_order, 200),
    "asymptotic-props": (run_asymptotic_props, 60),
    "toric-equivalences": (_toric_sweep, 80),
    "picard-bound": (_toric_sweep, 80),
    "ceil-identity": (run_ceil_identity, 10000),
}
SUITES = (*_SUITE_TABLE, "all")


def run_suite(name: str, seed: int = 0, budget: int = None,
              caps: Caps = DEFAULT_CAPS):
    """Run one named suite (or every suite for 'all'); deterministic in the
    seed.  Returns a list of SuiteResult."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; have {SUITES}")
    names = list(_SUITE_TABLE) if name == "all" else [name]
    done = {}  # one run per (runner, budget): the two toric suites share a sweep
    out = []
    for n in names:
        runner, default = _SUITE_TABLE[n]
        b = default if budget is None else require_int(budget, "budget")
        if (runner, b) not in done:
            done[runner, b] = runner(seed, b, caps)
        out.append(replace(done[runner, b], suite=n))
    return out
