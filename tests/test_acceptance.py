"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected value is exact; the stated time budgets
are asserted too.
"""

import random
import time
from fractions import Fraction
from itertools import product as iter_product

import pytest

from nonnef import f_jumping_numbers, frobenius_root, parse_ideal
from nonnef.asymptotic import (CoordinateSubvariety, GradedSequence,
                               check_compute_test, check_estimate_order, ord_along)
from nonnef.frobenius import ceil_times
from nonnef.ideal import monomial_ideal
from nonnef.poly import ring
from nonnef.toric import (InvariantSubvariety, ToricDivisor, asymptotic_ord_toric,
                          base_locus_ord, blowup_lab, builtin_fan, non_nef_locus,
                          tau_plus_toric, tau_toric)
from nonnef.verify import (random_monomial_ideal, run_ceil_identity,
                           run_subadditivity)
from oracles import jump_grid_by_fractions, naive_monomial_power_root


def _report(number, name, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_smooth_divisor_closed_form():
    t0 = time.time()
    checked = 0
    for p in (2, 3, 5):
        amb = ring(p, "x")
        for m in range(1, 61):
            a = monomial_ideal(amb, {(m,)})
            for e in range(1, 6):
                expected = m // p ** e
                got = frobenius_root(a, e)
                assert got.monomials == frozenset({(expected,)}), (p, m, e)
                checked += 1
    assert checked == 3 * 60 * 5
    _report(1, "smooth-divisor closed form", t0, 1.0)


def test_criterion_2_blowup_remark():
    t0 = time.time()
    fan, pullback_h, e_div = blowup_lab()
    d = pullback_h + e_div
    e_sub = InvariantSubvariety((3,))
    chart = (0, 3)
    pos = chart.index(3)
    for m in range(1, 9):
        assert base_locus_ord(fan, d, m, e_sub) == m
        tau = tau_toric(fan, d, m, chart)
        assert tau.ideal.monomials == frozenset({tuple(m if i == pos else 0
                                                       for i in range(2))})
        tau_plus = tau_plus_toric(fan, d, m, chart)
        assert tau_plus.ideal.monomials == frozenset({tuple(m - 1 if i == pos else 0
                                                            for i in range(2))})
    rep = non_nef_locus(fan, d)
    assert rep.positive_sigma == ((InvariantSubvariety((3,)), Fraction(1)),)
    _report(2, "blow-up worked example", t0, 10.0)


def _oracle_jumps(a, lam_max, denom_bound, e_oracle):
    """Direct-iteration jump detection at a fixed Frobenius depth."""
    p = a.ring.field.p
    q = p ** e_oracle
    grid = jump_grid_by_fractions(lam_max, denom_bound)
    gens = tuple(sorted(a.monomials))
    prev = frozenset({(0,) * a.ring.nvars})
    jumps = []
    for lam in grid:
        cur = naive_monomial_power_root(gens, ceil_times(lam, q), q)
        if cur != prev:
            jumps.append(lam)
        prev = cur
    return tuple(jumps)


def test_criterion_3_f_jumping_numbers():
    t0 = time.time()
    for p in (2, 3):
        a1 = parse_ideal(f"p={p}; vars=x; gens=[x]")
        rep1 = f_jumping_numbers(a1, 4, 8)
        assert rep1.jumps == (1, 2, 3, 4), (p, rep1.jumps)
        assert rep1.certified
        assert rep1.jumps == _oracle_jumps(a1, Fraction(4), 8, 8)

        a2 = parse_ideal(f"p={p}; vars=x,y; gens=[x, y]")
        rep2 = f_jumping_numbers(a2, Fraction(7, 2), 8)
        assert rep2.jumps == (2, 3), (p, rep2.jumps)
        assert rep2.certified
        assert rep2.jumps == _oracle_jumps(a2, Fraction(7, 2), 8, 8)
    _report(3, "F-jumping numbers with direct-iteration oracle", t0, 30.0)


def test_criterion_4_subadditivity_fuzz():
    t0 = time.time()
    result = run_subadditivity(seed=2024, budget=200)
    assert result.violations == 0, result.counterexample
    # 200 pairs, each at four exponents over both characteristics
    assert result.cases + result.skipped_cap_flagged == 200 * 4 * 2
    _report(4, "subadditivity fuzz (200 pairs x 4 lambdas x 2 primes)", t0, 120.0)


def test_criterion_5_order_estimate_fuzz():
    t0 = time.time()
    rng = random.Random(31337)
    lams = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    checked = 0
    for i in range(200):
        p = rng.choice([2, 3])
        nvars = rng.randint(2, 3)
        amb = ring(p, *[f"x{k}" for k in range(nvars)])
        a = random_monomial_ideal(rng, amb)
        # the origin and every coordinate hyperplane, each tested
        zs = [CoordinateSubvariety(tuple(range(nvars)))] + \
             [CoordinateSubvariety((k,)) for k in range(nvars)]
        for z in zs:
            chk = check_estimate_order(a, z, lams[i % len(lams)])
            if chk.evidence == "cap-reached":
                continue
            checked += 1
            assert chk.holds, (repr(a), z, chk)
    assert checked >= 700  # caps should be rare at these sizes
    _report(5, "strict order estimate fuzz (200 ideals, all listed Z)", t0, 120.0)


def test_criterion_6_sandwich():
    t0 = time.time()
    rng = random.Random(99)
    for _ in range(20):
        p = rng.choice([2, 3])
        nvars = rng.randint(2, 3)
        amb = ring(p, *[f"x{k}" for k in range(nvars)])
        a = random_monomial_ideal(rng, amb, max_gens=3, max_deg=4)
        seq = GradedSequence.power(a)
        z = CoordinateSubvariety(tuple(range(nvars)))
        rep = check_compute_test(seq, z, 8)
        assert {row.m for row in rep.rows} == {1, 2, 4, 8}
        assert rep.all_hold, (repr(a), rep.rows)
        base = Fraction(ord_along(a, z))
        for row in rep.rows:
            if row.evidence == "cap-reached":
                continue
            assert row.ord_b_over_m <= row.ord_a_over_m
            assert row.ord_b_over_m > base - Fraction(z.codim, row.m)
    _report(6, "asymptotic-order sandwich (20 power sequences)", t0, 120.0)


def test_criterion_7_ceil_identity():
    t0 = time.time()
    result = run_ceil_identity(seed=5, budget=10000)
    assert result.violations == 0 and result.cases == 10000
    _report(7, "ceiling-splitting identity (10^4 draws)", t0, 5.0)


@pytest.fixture(scope="module")
def nonnef_sweep():
    """Shared sweep for criteria 8 and 9: every invariant divisor with
    coefficients in {-2..3}, capped at 300 per fan by a seeded sample.
    Returns the reports plus the wall time the sweep itself took."""
    t0 = time.time()
    reports = {}
    for name in ("p2", "p1xp1", "f1", "f2"):
        fan = builtin_fan(name)
        grid = list(iter_product(range(-2, 4), repeat=len(fan.rays)))
        if len(grid) > 300:
            grid = random.Random(0).sample(grid, 300)
        rows = []
        for coeffs in grid:
            rep = non_nef_locus(fan, ToricDivisor(coeffs), p=2,
                                eps_grid=(Fraction(1, 8), Fraction(1, 16)),
                                tau_level_cap=4)
            rows.append(rep)
        reports[name] = (fan, rows)
    return reports, time.time() - t0


def test_criterion_8_three_method_agreement(nonnef_sweep):
    reports, sweep_time = nonnef_sweep
    t0 = time.time() - sweep_time   # charge the fixture to this criterion
    total = 0
    for name, (fan, rows) in reports.items():
        for rep in rows:
            total += 1
            # agreement is hard-asserted inside non_nef_locus; re-verify the
            # per-subvariety records and the nef case here
            for rec in rep.cross_checks:
                assert rec.lp_member == rec.tau_member == rec.base_locus_member
            if rep.status == "nef":
                assert rep.positive_sigma == () and rep.members == ()
    assert total == 216 + 3 * 300
    _report(8, f"three-method agreement ({total} divisors)", t0, 300.0)


def test_criterion_9_picard_bound(nonnef_sweep):
    t0 = time.time()
    for name, (fan, rows) in nonnef_sweep[0].items():
        rho = fan.picard_number
        for rep in rows:
            codim1 = [s for s, _ in rep.positive_sigma if s.codim == 1]
            assert len(codim1) <= rho, (name, rep.divisor)
    _report(9, "Picard-number bound", t0, 60.0)


def test_criterion_10_homogeneity_and_subadditivity():
    t0 = time.time()
    rng = random.Random(8)
    for name in ("p2", "p1xp1", "f1", "f2"):
        fan = builtin_fan(name)
        subs = fan.invariant_subvarieties()
        for _ in range(100):
            d1 = ToricDivisor(tuple(rng.randrange(0, 4) for _ in fan.rays))
            d2 = ToricDivisor(tuple(rng.randrange(0, 4) for _ in fan.rays))
            z = rng.choice(subs)
            v1 = asymptotic_ord_toric(fan, d1, z)
            v2 = asymptotic_ord_toric(fan, d2, z)
            for k in (2, 3, 5):
                assert asymptotic_ord_toric(fan, d1.scale(k), z) == k * v1
            assert asymptotic_ord_toric(fan, d1 + d2, z) <= v1 + v2
    _report(10, "homogeneity and order subadditivity", t0, 60.0)
