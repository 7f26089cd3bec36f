"""Graded sequences, ord along coordinate subvarieties, asymptotic tau."""

import math
import random
from fractions import Fraction

import pytest

from nonnef import (Caps, ContractError, DomainError, ideal_power, ideal_product,
                    monomial_ideal, parse_ideal, ring, unit_ideal, zero_ideal)
from nonnef.asymptotic import (CoordinateSubvariety,
                               GradedSequence, asymptotic_ord,
                               asymptotic_test_ideal, check_asymptotic_props,
                               check_compute_test, check_estimate_order,
                               ord_along)
from nonnef.frobenius import test_ideal as tau

R2 = ring(2, "x", "y")
I = parse_ideal
ORIGIN = CoordinateSubvariety((0, 1))
VX = CoordinateSubvariety((0,))


def ceil_half_rule(m):
    return monomial_ideal(R2, {(-(-m // 2), 0)})


class TestOrdAlong:
    def test_origin_weight(self):
        assert ord_along(I("p=2; vars=x,y; gens=[x^2, x*y]"), ORIGIN) == 2

    def test_divisor(self):
        assert ord_along(I("p=2; vars=x,y; gens=[x]"), VX) == 1

    def test_additive_on_products(self):
        a = I("p=2; vars=x,y; gens=[x]")
        b = I("p=2; vars=x,y; gens=[x^2*y]")
        assert ord_along(ideal_product(a, b), ORIGIN) == 4 == \
            ord_along(a, ORIGIN) + ord_along(b, ORIGIN)

    def test_zero_ideal_is_infinite(self):
        assert ord_along(zero_ideal(R2), ORIGIN) == math.inf

    def test_general_ideal_uses_min_term_weight(self):
        assert ord_along(I("p=3; vars=x,y; gens=[x^3 + x*y]"), VX) == 1
        assert ord_along(I("p=3; vars=x,y; gens=[x^3 + x*y]"), ORIGIN) == 2

    def test_additivity_fuzz(self):
        rng = random.Random(19)
        for _ in range(40):
            a = monomial_ideal(R2, {tuple(rng.randrange(4) for _ in range(2))
                                    for _ in range(rng.randrange(1, 3))})
            b = monomial_ideal(R2, {tuple(rng.randrange(4) for _ in range(2))
                                    for _ in range(rng.randrange(1, 3))})
            z = rng.choice([ORIGIN, VX, CoordinateSubvariety((1,))])
            assert ord_along(ideal_product(a, b), z) == ord_along(a, z) + ord_along(b, z)


class TestGradedSequence:
    def test_power_terms(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x, y]"))
        assert seq.term(3) == ideal_power(I("p=2; vars=x,y; gens=[x, y]"), 3)

    def test_table_multiplicative_extension(self):
        seq = GradedSequence.from_table(R2, {1: I("p=2; vars=x,y; gens=[x]")})
        assert seq.term(4) == I("p=2; vars=x,y; gens=[x^4]")

    def test_rule_sequence(self):
        seq = GradedSequence.from_rule(R2, ceil_half_rule, "ceil-half")
        assert seq.term(5) == I("p=2; vars=x,y; gens=[x^3]")

    def test_superadditivity_violation_names_split(self):
        bad = GradedSequence.from_table(
            R2, {1: unit_ideal(R2), 2: I("p=2; vars=x,y; gens=[x]")})
        with pytest.raises(ContractError, match=r"\(1, 1\)"):
            bad.term(2)

    def test_table_gap_gives_zero(self):
        seq = GradedSequence.from_table(R2, {2: I("p=2; vars=x,y; gens=[x]")})
        assert seq.term(1).is_zero() and seq.term(3).is_zero()
        assert seq.term(4) == I("p=2; vars=x,y; gens=[x^2]")

    def test_all_zero_table_rejected(self):
        with pytest.raises(DomainError):
            GradedSequence.from_table(R2, {1: zero_ideal(R2)})


class TestAsymptoticOrd:
    def test_ceil_half_upper_bound(self):
        seq = GradedSequence.from_rule(R2, ceil_half_rule, "ceil-half")
        est = asymptotic_ord(seq, VX, 16)
        assert est.upper_bound == Fraction(1, 2)
        assert not est.indeterminate

    def test_power_sequence_exact(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x^2, x*y]"))
        est = asymptotic_ord(seq, ORIGIN, 8)
        assert est.exact and est.upper_bound == 2

    def test_indeterminate_when_all_zero_below_cap(self):
        seq = GradedSequence.from_table(R2, {8: I("p=2; vars=x,y; gens=[x]")})
        est = asymptotic_ord(seq, VX, 4)
        assert est.indeterminate


class TestAsymptoticTestIdeal:
    def test_power_sequence_matches_plain_tau(self):
        a = I("p=2; vars=x,y; gens=[x^2, x*y, y^3]")
        seq = GradedSequence.power(a)
        for lam in (Fraction(1, 2), 1, 2):
            assert asymptotic_test_ideal(seq, lam).ideal == tau(a, lam).ideal

    def test_lambda_zero(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x, y]"))
        assert asymptotic_test_ideal(seq, 0).ideal == unit_ideal(R2)

    def test_principal_growing_sequence(self):
        # a_m = (x^m): tau(m0 * ||.||) = (x^m0)
        seq = GradedSequence.from_rule(
            R2, lambda m: monomial_ideal(R2, {(m, 0)}), "principal")
        for m0 in (1, 2, 3):
            assert asymptotic_test_ideal(seq, m0).ideal == \
                monomial_ideal(R2, {(m0, 0)})

    def test_gapped_sequence_starts_chain_at_first_nonzero(self):
        table = {3: I("p=2; vars=x,y; gens=[x^3]")}
        seq = GradedSequence.from_table(R2, table)
        r = asymptotic_test_ideal(seq, 1)
        assert r.ideal == I("p=2; vars=x,y; gens=[x]")


class TestEstimateOrder:
    def test_maximal_ideal_case(self):
        chk = check_estimate_order(I("p=2; vars=x,y; gens=[x, y]"), ORIGIN, 2)
        assert chk.lhs == 1 and chk.rhs == 0 and chk.holds

    def test_lambda_zero(self):
        chk = check_estimate_order(I("p=2; vars=x,y; gens=[x, y]"), ORIGIN, 0)
        assert chk.lhs == 0 and chk.rhs == -2 and chk.holds

    def test_principal_cube(self):
        chk = check_estimate_order(I("p=2; vars=x,y; gens=[x^3]"), VX, 1)
        assert chk.lhs == 3 and chk.rhs == 2 and chk.holds

    def test_fuzz_strict_inequality(self):
        rng = random.Random(23)
        for _ in range(40):
            gens = {tuple(rng.randrange(5) for _ in range(2))
                    for _ in range(rng.randrange(1, 4))}
            a = monomial_ideal(R2, gens)
            lam = Fraction(rng.randrange(0, 7), rng.randrange(1, 3))
            z = rng.choice([ORIGIN, VX, CoordinateSubvariety((1,))])
            chk = check_estimate_order(a, z, lam)
            if chk.evidence != "cap-reached":
                assert chk.holds, (sorted(gens), lam, z)


class TestComputeTestSandwich:
    def test_power_sequence_of_maximal_ideal(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x, y]"))
        rep = check_compute_test(seq, ORIGIN, 8)
        assert rep.all_hold
        for row in rep.rows:
            assert Fraction(1) - Fraction(2, row.m) < row.ord_b_over_m <= 1

    def test_unit_sequence(self):
        seq = GradedSequence.power(unit_ideal(R2))
        rep = check_compute_test(seq, ORIGIN, 4)
        assert rep.all_hold
        assert all(row.ord_b_over_m == 0 and row.ord_a_over_m == 0 for row in rep.rows)

    def test_principal_exact_ratio(self):
        seq = GradedSequence.from_rule(
            R2, lambda m: monomial_ideal(R2, {(m, 0)}), "principal")
        rep = check_compute_test(seq, VX, 8)
        assert rep.all_hold
        assert all(row.ord_b_over_m == 1 for row in rep.rows)


class TestAsymptoticProps:
    def test_monotone_and_subadditive_on_power_sequence(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x, y]"))
        rep = check_asymptotic_props(seq, None, None, 2, 1, 2)
        assert rep.monotone_holds and rep.power_subadditive_holds
        assert rep.comparison_holds is None

    def test_reports_the_worst_evidence(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x, y]"))
        assert check_asymptotic_props(seq, None, None, 2, 1, 2).evidence == "window-stable"
        # the chain for (x,y)^(9/5) needs e=4 to reach its certified value
        rep = check_asymptotic_props(seq, None, None, Fraction(9, 5), 1, 2,
                                     Caps(e_max_monomial=2))
        assert rep.evidence == "cap-reached"

    def test_m_one_is_trivial_equality(self):
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x^2, y]"))
        rep = check_asymptotic_props(seq, None, None, 1, 1, 1)
        assert rep.power_subadditive_holds

    def test_comparison_item(self):
        seq = GradedSequence.from_rule(
            R2, lambda m: monomial_ideal(R2, {(0, m)}), "y-powers")
        seq2 = GradedSequence.from_rule(
            R2, lambda m: monomial_ideal(R2, {(1, m)}), "x*y-powers")
        c = I("p=2; vars=x,y; gens=[x]")
        rep = check_asymptotic_props(seq, seq2, c, 1, 1, 2)
        assert rep.comparison_holds

    def test_right_constancy_probe(self):
        # just to the right of lam the asymptotic tau is unchanged
        seq = GradedSequence.power(I("p=2; vars=x,y; gens=[x, y]"))
        for lam in (1, 2, Fraction(5, 2)):
            base = asymptotic_test_ideal(seq, lam).ideal
            probe = asymptotic_test_ideal(seq, lam + Fraction(1, 2 ** 6)).ideal
            assert base == probe
