"""Frobenius powers/roots, test ideals, jumping numbers, the ceil identity."""

import operator
import random
from fractions import Fraction

import pytest

from nonnef import (Caps, ContractError, DomainError, FrobeniusContext,
                    ceil_split, f_jumping_numbers, frobenius_power,
                    frobenius_root, ideal_contains, ideal_power, ideal_product,
                    mixed_test_ideal, monomial_ideal, parse_ideal, ring,
                    unit_ideal, zero_ideal)
from nonnef.field import PrimeField
from nonnef.frobenius import monomial_root_of_power, stabilize
from nonnef.frobenius import test_ideal as tau
from oracles import (naive_monomial_power_root, naive_product_power_root,
                     naive_test_ideal_chain, oneshot_q_root)

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")
F2 = PrimeField(2)
F3 = PrimeField(3)
I = parse_ideal


def ctx(p, e):
    return FrobeniusContext(PrimeField(p), e)


class TestBracketPower:
    def test_principal(self):
        assert frobenius_power(I("p=2; vars=x,y; gens=[x]"), ctx(2, 2)) \
            == I("p=2; vars=x,y; gens=[x^4]")

    def test_unit(self):
        assert frobenius_power(unit_ideal(R2), ctx(2, 3)) == unit_ideal(R2)

    def test_char2_squaring(self):
        assert frobenius_power(I("p=2; vars=x,y; gens=[x + y]"), ctx(2, 1)) \
            == I("p=2; vars=x,y; gens=[x^2 + y^2]")


class TestFrobeniusRoot:
    def test_smooth_divisor_formula(self):
        assert frobenius_root(I("p=2; vars=x,y; gens=[x^3]"), ctx(2, 1)) \
            == I("p=2; vars=x,y; gens=[x]")

    def test_unit_root(self):
        assert frobenius_root(unit_ideal(R3), ctx(3, 4)) == unit_ideal(R3)

    def test_decomposition_char3(self):
        # x^3 + x y^3 = x^3 * 1 + y^3 * x in the basis x^a y^b, 0 <= a,b < 3
        assert frobenius_root(I("p=3; vars=x,y; gens=[x^3 + x*y^3]"), ctx(3, 1)) \
            == I("p=3; vars=x,y; gens=[x, y]")

    def test_e_zero_identity(self):
        a = I("p=3; vars=x,y; gens=[x^2 + y]")
        assert frobenius_root(a, ctx(3, 0)) == a

    def test_zero_ideal_rejected(self):
        with pytest.raises(DomainError):
            frobenius_root(zero_ideal(R2), ctx(2, 1))

    def test_iterated_matches_oneshot_oracle(self):
        rng = random.Random(5)
        for p, amb in ((2, R2), (3, R3)):
            for _ in range(25):
                terms = {tuple(rng.randrange(6) for _ in range(2)): rng.randrange(1, p)
                         for _ in range(rng.randrange(1, 4))}
                from nonnef.poly import Polynomial
                f = Polynomial(amb, terms)
                if f.is_zero():
                    continue
                a = parse_ideal(f"p={p}; vars=x,y; gens=[{f!r}]")
                for e in (1, 2):
                    assert frobenius_root(a, ctx(p, e)) == oneshot_q_root(a, p ** e)

    def test_root_composition(self):
        rng = random.Random(9)
        for p, amb in ((2, R2), (3, R3)):
            for _ in range(15):
                gens = {tuple(rng.randrange(8) for _ in range(2))
                        for _ in range(rng.randrange(1, 4))}
                a = monomial_ideal(amb, gens)
                for e in (1, 2, 3):
                    assert frobenius_root(frobenius_root(a, ctx(p, e)), ctx(p, 1)) \
                        == frobenius_root(a, ctx(p, e + 1))

    def test_adjunction_and_minimality_monomial(self):
        # a lies inside J^[q], and J is exactly the floors: any K with
        # a inside K^[q] must contain every floor vector, hence J.
        rng = random.Random(13)
        for p, amb in ((2, R2), (3, R3)):
            for _ in range(20):
                gens = {tuple(rng.randrange(9) for _ in range(2))
                        for _ in range(rng.randrange(1, 4))}
                a = monomial_ideal(amb, gens)
                for e in (1, 2):
                    q = p ** e
                    j = frobenius_root(a, ctx(p, e))
                    assert ideal_contains(frobenius_power(j, ctx(p, e)), a)
                    floors = {tuple(c // q for c in v) for v in a.monomials}
                    from nonnef.poly import min_antichain
                    assert j.monomials == min_antichain(floors)

    def test_monotone(self):
        rng = random.Random(21)
        for _ in range(20):
            gens = {tuple(rng.randrange(6) for _ in range(2)) for _ in range(2)}
            b = monomial_ideal(R2, gens)
            a = ideal_product(b, monomial_ideal(R2, {(1, 1)}))  # a subset of b
            for e in (1, 2):
                assert ideal_contains(frobenius_root(b, ctx(2, e)),
                                      frobenius_root(a, ctx(2, e)))


class TestFusedRootOfPower:
    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_naive_expansion(self, p):
        amb = R2 if p == 2 else R3
        rng = random.Random(100 + p)
        for _ in range(60):
            g = rng.randrange(1, 5)
            gens = tuple(sorted({tuple(rng.randrange(5) for _ in range(2))
                                 for _ in range(g)}))
            n = rng.randrange(0, 13)
            e = rng.randrange(1, 3)
            fused = monomial_root_of_power(amb, ((gens, n),), e, p)
            naive = naive_monomial_power_root(gens, n, p ** e)
            assert fused == naive, (gens, n, e, p)

    def test_matches_naive_for_products(self):
        rng = random.Random(42)
        for _ in range(25):
            gens1 = tuple(sorted({tuple(rng.randrange(4) for _ in range(2))
                                  for _ in range(rng.randrange(1, 3))}))
            gens2 = tuple(sorted({tuple(rng.randrange(4) for _ in range(2))
                                  for _ in range(rng.randrange(1, 3))}))
            n1, n2 = rng.randrange(0, 7), rng.randrange(0, 7)
            e = rng.randrange(1, 3)
            fused = monomial_root_of_power(R2, ((gens1, n1), (gens2, n2)), e, 2)
            naive = naive_product_power_root(((gens1, n1), (gens2, n2)), 2 ** e)
            assert fused == naive

    def test_three_vars(self):
        amb3 = ring(2, "x", "y", "z")
        rng = random.Random(77)
        for _ in range(20):
            gens = tuple(sorted({tuple(rng.randrange(4) for _ in range(3))
                                 for _ in range(rng.randrange(1, 4))}))
            n, e = rng.randrange(0, 9), rng.randrange(1, 3)
            assert monomial_root_of_power(amb3, ((gens, n),), e, 2) \
                == naive_monomial_power_root(gens, n, 2 ** e)


class TestStabilize:
    def test_returns_first_seen_member_of_the_final_run(self):
        members = [(1, "a"), (2, "bb"), (3, "BB"), (4, "Bb"), (5, "c")]
        assert stabilize(members, 2, lambda prev, cur: True, key=str.lower) == ("bb", 2, True)

    def test_stops_without_drawing_another_member(self):
        def members():
            yield from [(1, 0), (2, 0)]
            raise AssertionError("drew a member past the window")
        assert stabilize(members(), 1, operator.le) == (0, 1, True)

    def test_exhausted_chain_is_not_stable(self):
        assert stabilize([(1, 1), (2, 2), (3, 2)], 2, operator.le) == (2, 2, False)
        assert stabilize([], 2, operator.le) == (None, None, False)

    def test_order_violation_is_contract_error(self):
        with pytest.raises(ContractError, match="members 1 and 2"):
            stabilize([(1, 2), (2, 1)], 2, operator.le)


class TestTestIdeal:
    def test_principal_closed_form(self):
        r = tau(parse_ideal("p=2; vars=x; gens=[x]"), Fraction(3, 2))
        assert r.ideal == parse_ideal("p=2; vars=x; gens=[x]")
        assert r.evidence == "closed-form"

    def test_lambda_zero_is_unit(self):
        r = tau(I("p=2; vars=x,y; gens=[x, y]"), 0)
        assert r.ideal == unit_ideal(R2)

    def test_maximal_ideal_lambda_two(self):
        r = tau(I("p=2; vars=x,y; gens=[x, y]"), 2)
        assert r.ideal == I("p=2; vars=x,y; gens=[x, y]")
        assert r.evidence == "window-stable"

    def test_maximal_ideal_lambda_three_halves(self):
        r = tau(I("p=2; vars=x,y; gens=[x, y]"), Fraction(3, 2))
        assert r.ideal == unit_ideal(R2)

    def test_zero_ideal_rejected(self):
        with pytest.raises(DomainError):
            tau(zero_ideal(R2), 1)

    def test_matches_direct_chain_oracle(self):
        # window-stable members agree with the naive chain at the window e's
        rng = random.Random(31)
        for p, amb in ((2, R2), (3, R3)):
            for _ in range(10):
                gens = {tuple(rng.randrange(4) for _ in range(2))
                        for _ in range(rng.randrange(2, 4))}
                a = monomial_ideal(amb, gens)
                lam = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
                r = tau(a, lam)
                if r.evidence == "cap-reached":
                    continue
                e_probe = r.stabilization_e + 2
                if lam.denominator == 1 and a.ring.field.p ** e_probe > 3 ** 6:
                    e_probe = r.stabilization_e
                oracle = naive_test_ideal_chain(a, lam, [e_probe])[0]
                assert r.ideal == oracle, (sorted(gens), lam, p)

    def test_contains_input(self):
        rng = random.Random(55)
        for _ in range(15):
            gens = {tuple(rng.randrange(4) for _ in range(2)) for _ in range(2)}
            a = monomial_ideal(R2, gens)
            assert ideal_contains(tau(a, 1).ideal, a)

    def test_lambda_monotone(self):
        a = I("p=3; vars=x,y; gens=[x^2, y^3]")
        lams = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)]
        ideals = [tau(a, l).ideal for l in lams]
        for big, small in zip(ideals[1:], ideals):
            assert ideal_contains(small, big)

    def test_rescaling(self):
        a = I("p=2; vars=x,y; gens=[x^2, x*y, y^3]")
        for r in (2, 3):
            for lam in (Fraction(1, 2), 1):
                assert tau(a, r * lam).ideal == \
                    tau(ideal_power(a, r), lam).ideal

    def test_general_path_principal(self):
        # (x^3 + x y^3) over F_3: tau at lambda=1 contains the ideal itself
        a = I("p=3; vars=x,y; gens=[x^3 + x*y^3]")
        r = tau(a, 1, Caps(e_max_general=4))
        assert ideal_contains(r.ideal, a)
        assert r.evidence in ("window-stable", "cap-reached")

    def test_subadditivity_small(self):
        rng = random.Random(88)
        for _ in range(10):
            a = monomial_ideal(R2, {tuple(rng.randrange(3) for _ in range(2))})
            b = monomial_ideal(R2, {tuple(rng.randrange(3) for _ in range(2)),
                                    tuple(rng.randrange(3) for _ in range(2))})
            for lam in (1, Fraction(3, 2)):
                lhs = tau(ideal_product(a, b), lam)
                rhs = ideal_product(tau(a, lam).ideal, tau(b, lam).ideal)
                if "cap-reached" not in (lhs.evidence,):
                    assert ideal_contains(rhs, lhs.ideal)


class TestMixedTestIdeal:
    def test_mu_zero_reduces_to_plain(self):
        a = I("p=2; vars=x,y; gens=[x^2, y]")
        b = I("p=2; vars=x,y; gens=[x*y]")
        assert mixed_test_ideal(a, Fraction(3, 2), b, 0).ideal == \
            tau(a, Fraction(3, 2)).ideal

    def test_equal_factors_contained_in_square(self):
        a = I("p=2; vars=x,y; gens=[x, y^2]")
        lam = Fraction(1, 2)
        mixed = mixed_test_ideal(a, lam, a, lam).ideal
        square = tau(ideal_power(a, 2), lam).ideal
        assert ideal_contains(square, mixed)

    def test_principal_pair(self):
        r = mixed_test_ideal(I("p=2; vars=x,y; gens=[x]"), 1,
                             I("p=2; vars=x,y; gens=[y]"), 1)
        assert r.ideal == I("p=2; vars=x,y; gens=[x*y]")


class TestJumpingNumbers:
    def test_principal_integer_jumps(self):
        rep = f_jumping_numbers(parse_ideal("p=2; vars=x; gens=[x]"), 3, 8)
        assert rep.jumps == (1, 2, 3)
        assert rep.certified

    def test_unit_no_jumps(self):
        rep = f_jumping_numbers(unit_ideal(R2), 4, 8)
        assert rep.jumps == ()
        assert len(rep.plateaus) == 1

    def test_maximal_ideal_two_vars(self):
        rep = f_jumping_numbers(I("p=2; vars=x,y; gens=[x, y]"), 3, 8)
        assert rep.jumps == (2, 3)

    def test_plateaus_match_pointwise_evaluations(self):
        a = I("p=2; vars=x,y; gens=[x, y]")
        rep = f_jumping_numbers(a, 3, 4)
        for pl in rep.plateaus:
            mid = (max(pl.start, Fraction(1, 8)) + pl.end) / 2 \
                if pl.start < pl.end else pl.start
            if pl.start == 0 and pl.end == 0:
                continue
            if mid == 0:
                continue
            assert tau(a, mid).ideal == pl.ideal

    def test_plateau_ideals_strictly_decrease(self):
        rep = f_jumping_numbers(I("p=3; vars=x,y; gens=[x^2, y^2]"), 3, 6)
        for prev, nxt in zip(rep.plateaus, rep.plateaus[1:]):
            assert ideal_contains(prev.ideal, nxt.ideal)
            assert prev.ideal != nxt.ideal


class TestCeilSplit:
    def test_worked_example(self):
        rec = ceil_split(Fraction(1, 2), 1, 3, 2)
        assert (rec.s, rec.t, rec.lhs, rec.rhs) == (4, 1, 5, 5)

    def test_lambda_zero(self):
        rec = ceil_split(Fraction(0), 5, 2, 6)
        assert rec.lhs == rec.rhs == 0

    def test_fuzz(self):
        rng = random.Random(1)
        for _ in range(2000):
            lam = Fraction(rng.randrange(0, 21), rng.randrange(1, 21))
            m = rng.randrange(1, 11)
            p = rng.choice([2, 3, 5, 7])
            e = rng.randrange(0, 13)
            rec = ceil_split(lam, m, p, e)
            assert rec.lhs == rec.rhs


class TestNewtonCertificate:
    def test_false_plateau_case(self):
        # J_1 = J_2 = J_3 = (x,y) but the true value is (1): a pure
        # equality window of 2 would stop early here
        r = tau(I("p=2; vars=x,y; gens=[x, y]"), Fraction(9, 5))
        assert r.ideal == unit_ideal(R2)
        assert r.stabilization_e == 4 and r.evidence == "window-stable"

    @pytest.mark.parametrize("p", [2, 3])
    def test_certified_tau_matches_deep_iteration(self, p):
        # the certificate must agree with the raw chain evaluated far past
        # the stabilization point
        amb = R2 if p == 2 else R3
        rng = random.Random(500 + p)
        for _ in range(12):
            gens = {tuple(rng.randrange(5) for _ in range(2))
                    for _ in range(rng.randrange(1, 4))}
            a = monomial_ideal(amb, gens)
            lam = Fraction(rng.randrange(1, 8), rng.randrange(1, 6))
            r = tau(a, lam)
            if r.evidence == "cap-reached":
                continue
            e_deep = 8 if p == 2 else 6
            from nonnef.frobenius import ceil_times, monomial_root_of_power
            q = p ** e_deep
            deep = monomial_root_of_power(amb, ((tuple(sorted(gens)), ceil_times(lam, q)),),
                                          e_deep, p)
            assert r.ideal.monomials == deep, (sorted(gens), lam, p)


    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_four_variables_match_naive_root(self, lam):
        # the certificate holds in any number of variables
        from nonnef.frobenius import ceil_times
        gens = ((1, 1, 0, 0), (0, 0, 1, 1))
        r = tau(monomial_ideal(ring(2, "a", "b", "c", "d"), gens), lam)
        q = 2 ** r.stabilization_e
        assert r.evidence == "window-stable"
        assert r.ideal.monomials == naive_monomial_power_root(gens, ceil_times(lam, q), q)


class TestOrthogonalNormal:
    def test_primitive_and_orthogonal(self):
        from math import gcd
        from nonnef.newton import _orthogonal_normal
        rng = random.Random(7)
        for n in range(1, 5):
            for _ in range(40):
                vectors = [tuple(rng.randrange(-3, 4) for _ in range(n))
                           for _ in range(n - 1)]
                h = _orthogonal_normal(vectors, n)
                if h is None:
                    continue
                assert gcd(*h) == 1, (vectors, h)
                assert all(sum(a * b for a, b in zip(h, v)) == 0 for v in vectors)

    def test_dependent_vectors_give_none(self):
        from nonnef.newton import _orthogonal_normal
        assert _orthogonal_normal([(1, 2, 0, 1), (2, 4, 0, 2), (0, 0, 1, 0)], 4) is None


class TestMixedNewtonCertificate:
    @pytest.mark.parametrize("p", [2, 3])
    def test_mixed_tau_matches_deep_iteration(self, p):
        amb = R2 if p == 2 else R3
        rng = random.Random(900 + p)
        e_deep = 5 if p == 2 else 4
        q = p ** e_deep
        for _ in range(12):
            ga = tuple(sorted({tuple(rng.randrange(4) for _ in range(2))
                               for _ in range(rng.randrange(1, 3))}))
            gb = tuple(sorted({tuple(rng.randrange(4) for _ in range(2))
                               for _ in range(rng.randrange(1, 3))}))
            lam = Fraction(rng.randrange(0, 3), rng.randrange(1, 3))
            mu = Fraction(rng.randrange(0, 3), rng.randrange(1, 3))
            r = mixed_test_ideal(monomial_ideal(amb, ga), lam,
                                 monomial_ideal(amb, gb), mu)
            if r.evidence == "cap-reached" or r.stabilization_e > e_deep:
                continue
            from nonnef.frobenius import ceil_times
            from oracles import naive_product_power_root
            deep = naive_product_power_root(
                ((ga, ceil_times(lam, q)), (gb, ceil_times(mu, q))), q)
            assert r.ideal.monomials == deep, (ga, gb, lam, mu, p)
