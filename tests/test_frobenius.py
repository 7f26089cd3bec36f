"""Frobenius powers/roots, test ideals, jumping numbers, the ceil identity."""

import gc
import json
import operator
import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache, reduce
from math import floor

import pytest

from nonnef import (Caps, ContractError, DomainError, Ideal, Polynomial,
                    ResourceLimitError, ceil_split, f_jumping_numbers, frobenius_power,
                    frobenius_root, ideal_contains, ideal_power, ideal_product,
                    mixed_test_ideal, monomial_ideal, parse_ideal, ring,
                    unit_ideal, zero_ideal)
from nonnef import cli, frobenius, newton
from nonnef.field import PrimeField
from nonnef.frobenius import (_JUMP_GRID_CAP, _general_members, _jump_grid,
                              _principal_monomial_closed_form, _root_memo, ceil_times,
                              check_lambda, monomial_root_of_power, stabilize)
from nonnef.frobenius import test_ideal as tau
from nonnef.newton import _candidate_normals, monomial_tau_newton
from nonnef.verify import random_monomial_ideal
from oracles import (jump_grid_by_fractions, jumps_by_chain, multiset_power,
                     naive_monomial_power_root, iterated_p_root, naive_product_power_root,
                     naive_test_ideal_chain, newton_tau_by_fractions)

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")
F2 = PrimeField(2)
F3 = PrimeField(3)
I = parse_ideal


class TestBracketPower:
    def test_principal(self):
        assert frobenius_power(I("p=2; vars=x,y; gens=[x]"), 2) \
            == I("p=2; vars=x,y; gens=[x^4]")

    def test_unit(self):
        assert frobenius_power(unit_ideal(R2), 3) == unit_ideal(R2)

    def test_char2_squaring(self):
        assert frobenius_power(I("p=2; vars=x,y; gens=[x + y]"), 1) \
            == I("p=2; vars=x,y; gens=[x^2 + y^2]")

    def test_exponent_scaling_matches_repeated_multiplication(self):
        # p = 3, e = 3: g^27 by 26 multiplications against exponents times 27
        a = I("p=3; vars=x,y; gens=[x^2 + 2*x*y + y, 2*x*y^2 + x + 1]")
        expanded = Ideal(a.ring, [reduce(operator.mul, [g] * 27) for g in a.generators])
        assert repr(frobenius_power(a, 3)) == repr(expanded)


class TestFrobeniusRoot:
    def test_smooth_divisor_formula(self):
        assert frobenius_root(I("p=2; vars=x,y; gens=[x^3]"), 1) \
            == I("p=2; vars=x,y; gens=[x]")

    def test_unit_root(self):
        assert frobenius_root(unit_ideal(R3), 4) == unit_ideal(R3)

    def test_decomposition_char3(self):
        # x^3 + x y^3 = x^3 * 1 + y^3 * x in the basis x^a y^b, 0 <= a,b < 3
        assert frobenius_root(I("p=3; vars=x,y; gens=[x^3 + x*y^3]"), 1) \
            == I("p=3; vars=x,y; gens=[x, y]")

    def test_e_zero_identity(self):
        a = I("p=3; vars=x,y; gens=[x^2 + y]")
        assert frobenius_root(a, 0) == a

    def test_zero_ideal_rejected(self):
        with pytest.raises(DomainError):
            frobenius_root(zero_ideal(R2), 1)

    def test_deep_monomial_root_does_not_form_q(self):
        start = time.perf_counter()
        assert frobenius_root(I("p=3; vars=x,y; gens=[x^2*y]"), 10 ** 9) == unit_ideal(R3)
        assert time.perf_counter() - start < 0.5

    def test_iterated_matches_oneshot_oracle(self):
        # production takes the base-q digits in one pass; the oracle takes
        # p-th roots e times, and the two must agree on the presentation
        rng = random.Random(5)
        for p in (2, 3, 5):
            amb = ring(p, "x", "y")
            for _ in range(25):
                gens = [Polynomial(amb, {tuple(rng.randrange(7) for _ in range(2)):
                                         rng.randrange(1, p)
                                         for _ in range(rng.randrange(1, 4))})
                        for _ in range(rng.randrange(1, 3))]
                a = Ideal(amb, gens)
                if a.is_monomial:
                    continue
                for e in range(1, 5):
                    assert repr(frobenius_root(a, e)) == repr(iterated_p_root(a, e))
                assert frobenius_root(a, 10 ** 9) == unit_ideal(amb)

    def test_buckets_with_equal_support_stay_apart(self):
        # x^3 + y^3 and x^3 + 2*y^3 have the roots x + y and x + 2*y
        a = I("p=3; vars=x,y; gens=[x^3 + y^3, x^3 + 2*y^3]")
        assert repr(frobenius_root(a, 1)) == repr(iterated_p_root(a, 1)) \
            == "p=3; vars=x,y; gens=[x + y, x + 2*y]"

    def test_root_composition(self):
        rng = random.Random(9)
        for p, amb in ((2, R2), (3, R3)):
            for _ in range(15):
                gens = {tuple(rng.randrange(8) for _ in range(2))
                        for _ in range(rng.randrange(1, 4))}
                a = monomial_ideal(amb, gens)
                for e in (1, 2, 3):
                    assert frobenius_root(frobenius_root(a, e), 1) \
                        == frobenius_root(a, e + 1)

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
                    j = frobenius_root(a, e)
                    assert ideal_contains(frobenius_power(j, e), a)
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
                assert ideal_contains(frobenius_root(b, e),
                                      frobenius_root(a, e))


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


class TestRootMemo:
    """monomial_root_of_power shares one memo per generator family; its
    answers must not depend on what that memo holds."""

    @staticmethod
    def _cases():
        rng = random.Random(2026)
        cases = []
        for k in range(8):
            p = (2, 3)[k % 2]
            amb = ring(p, *[f"x{i}" for i in range(2 + k % 3 // 2)])
            a = random_monomial_ideal(rng, amb, 3, 4)
            cases.append((p, amb, tuple(sorted(a.monomials)), a))
        return cases

    EXPONENTS = [(e, n) for e in (1, 2, 3) for n in (0, 1, 5, 11, 2 * 3 ** e + 1)]

    def _roots(self, amb, gens, p):
        return [monomial_root_of_power(amb, ((gens, n),), e, p) for e, n in self.EXPONENTS]

    def test_roots_independent_of_memo_state(self):
        cases = self._cases()
        other = ((2, 1), (0, 3))
        for p, amb, gens, _ in cases:
            _root_memo.cache_clear()
            cold = self._roots(amb, gens, p)
            # warm: the same family, filled by the other exponents first
            _root_memo.cache_clear()
            for e in (4, 3, 2):
                monomial_root_of_power(amb, ((gens, 3 * p ** e - 1),), e, p)
            warm = self._roots(amb, gens, p)
            # evicted: another family in between, then this family over the other prime
            monomial_root_of_power(ring(p, "u", "v"), ((other, 7),), 2, p)
            evicted = self._roots(amb, gens, p)
            self._roots(amb, gens, 5 - p)
            evicted_by_prime = self._roots(amb, gens, p)
            assert cold == warm == evicted == evicted_by_prime, (p, gens)
            assert cold == [naive_monomial_power_root(gens, n, p ** e)
                            for e, n in self.EXPONENTS], (p, gens)

    def test_jumps_independent_of_memo_state(self):
        for p, amb, gens, a in self._cases()[:4]:
            _root_memo.cache_clear()
            cold = f_jumping_numbers(a, Fraction(5, 2), 6)
            warm = f_jumping_numbers(a, Fraction(5, 2), 6)
            tau(monomial_ideal(amb, [(1,) * amb.nvars, (3,) + (0,) * (amb.nvars - 1)]),
                Fraction(7, 3))
            evicted = f_jumping_numbers(a, Fraction(5, 2), 6)
            assert cold == warm == evicted, (p, gens)

    def test_mixed_ideal_independent_of_memo_state(self):
        a = I("p=2; vars=x,y; gens=[x^2, y^3, x*y]")
        b = I("p=2; vars=x,y; gens=[x^3, y]")
        lam, mu = Fraction(5, 3), Fraction(3, 4)
        _root_memo.cache_clear()
        cold = mixed_test_ideal(a, lam, b, mu)
        for e in (1, 2, 3, 4):
            mixed_test_ideal(a, Fraction(e, 3), b, Fraction(e, 2))
        warm = mixed_test_ideal(a, lam, b, mu)
        tau(a, lam)
        evicted = mixed_test_ideal(a, lam, b, mu)
        assert cold == warm == evicted
        q = 2 ** cold.stabilization_e
        assert cold.ideal.monomials == naive_product_power_root(
            ((tuple(sorted(a.monomials)), ceil_times(lam, q)),
             (tuple(sorted(b.monomials)), ceil_times(mu, q))), q)

    def test_threads_evicting_each_other_get_serial_answers(self):
        ideals = [a for _, _, _, a in self._cases()[:4]]
        _root_memo.cache_clear()
        serial = [f_jumping_numbers(a, 4, 8) for a in ideals]
        got = [None] * 8
        errors = []

        def work(k):
            try:
                got[k] = f_jumping_numbers(ideals[k % 4], 4, 8)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _root_memo.cache_clear()
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and not errors
        assert got == serial * 2

    def test_at_most_one_family_retained(self):
        _root_memo.cache_clear()
        families = [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 1),)]
        for gens in families:
            monomial_root_of_power(R2, ((gens, 5),), 2, 2)
            assert _root_memo.cache_info().currsize == 1
        memo, _ = _root_memo((families[-1],), 2)
        assert memo and _root_memo.cache_info().hits == 1
        fresh, interned = _root_memo((families[0],), 2)
        assert not fresh and not interned

    def test_memo_values_are_interned(self):
        _root_memo.cache_clear()
        gens = ((0, 2), (1, 1), (3, 0))
        for e in (1, 2, 3):
            monomial_root_of_power(R2, ((gens, 5 * 2 ** e),), e, 2)
        memo, interned = _root_memo((gens,), 2)
        assert set(map(id, memo.values())) == set(map(id, interned.values()))
        assert len(interned) < len(memo)


class TestJumpGrid:
    @pytest.mark.parametrize("lam_max", [0, Fraction(1, 2), Fraction(7, 2), 4])
    def test_matches_the_fraction_set(self, lam_max):
        for denom_bound in range(1, 13):
            grid = _jump_grid(Fraction(lam_max), denom_bound)
            assert [Fraction(n, d) for n, d in grid] == \
                jump_grid_by_fractions(Fraction(lam_max), denom_bound)
            assert all(Fraction(n, d).denominator == d for n, d in grid)


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


class TestCheckLambda:
    def test_fraction_is_returned_as_it_is(self):
        lam = Fraction(5, 6)
        assert check_lambda(lam) is lam
        assert check_lambda(3) == 3 and type(check_lambda(3)) is Fraction

    @pytest.mark.parametrize("lam, message", [(True, "an int or a Fraction"),
                                              (0.5, "an int or a Fraction"),
                                              (Fraction(-1, 2), "non-negative")])
    def test_refused(self, lam, message):
        with pytest.raises(DomainError, match=message):
            check_lambda(lam)


class TestTestIdeal:
    def test_principal_closed_form(self):
        r = tau(parse_ideal("p=2; vars=x; gens=[x]"), Fraction(3, 2))
        assert r.ideal == parse_ideal("p=2; vars=x; gens=[x]")
        assert r.evidence == "closed-form"

    def test_principal_stabilization_e_matches_the_walk(self):
        # the first e with floor(ceil(lam q) v / q) = floor(lam v), walked
        # member by member
        rng = random.Random(77)
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7])
            v = tuple(rng.randrange(10) for _ in range(rng.randint(1, 3)))
            if not any(v):
                continue
            lam = Fraction(rng.randint(1, 40), rng.randint(1, 30))
            limit = tuple(lam.numerator * c // lam.denominator for c in v)
            e, q = 1, p
            while tuple(ceil_times(lam, q) * c // q for c in v) != limit:
                e, q = e + 1, q * p
            amb = ring(p, *[f"x{k}" for k in range(len(v))])
            r = _principal_monomial_closed_form(monomial_ideal(amb, [v]), lam)
            assert (r.stabilization_e, r.ideal.monomials) == (e, frozenset([limit])), \
                (v, lam, p)

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

    def test_different_rings_is_domain_error(self):
        with pytest.raises(DomainError, match=r"F_2\[x,y\] and F_3\[x,y\]"):
            mixed_test_ideal(I("p=2; vars=x,y; gens=[x^2, y^3]"), 1,
                             I("p=3; vars=x,y; gens=[x]"), 1)

    def test_principal_pair(self):
        r = mixed_test_ideal(I("p=2; vars=x,y; gens=[x]"), 1,
                             I("p=2; vars=x,y; gens=[y]"), 1)
        assert r.ideal == I("p=2; vars=x,y; gens=[x*y]")


def _expanded_power(amb, pairs, q):
    """prod_i a_i^ceil(lam_i q) by the multiset oracle, the product taken
    generator by generator, as `ideal_product` presents it."""
    power = unit_ideal(amb)
    for a, lam in pairs:
        factor = multiset_power(amb, list(a.generators), ceil_times(lam, q))
        power = Ideal(amb, [f * g for f in power.generators for g in factor.generators])
    return power


def _root_outcomes(members):
    """repr of each chain member in turn, then "capped" if the next one
    raised ResourceLimitError."""
    out = []
    try:
        for _, member in members:
            out.append(repr(member))
    except ResourceLimitError:
        out.append("capped")
    return out


class TestFusedGeneralChain:
    """Members at e >= 2 are built from the base-p digits of the counts;
    each must print as the root of the expanded power."""

    CAPS = Caps(e_max_general=4, power_degree_cap=64)

    def _assert_members_match(self, amb, pairs):
        members = list(_general_members(amb, pairs, self.CAPS))
        assert [e for e, _ in members] == list(range(1, len(members) + 1))
        p = amb.field.p
        for e, member in members:
            expected = iterated_p_root(_expanded_power(amb, pairs, p ** e), e)
            assert repr(member) == repr(expected), (pairs, e)
        return members

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_members_match_the_iterated_root_of_the_expanded_power(self, p):
        amb = ring(p, "x", "y")
        rng = random.Random(2200 + p)
        fused = []   # (lam > 1, generator count) of each chain with a member at e >= 2
        for k in (1, 2, 3):
            for lam in (Fraction(1, 3), Fraction(3, 4), Fraction(5, 4), Fraction(7, 3)):
                gens = [Polynomial(amb, {tuple(rng.randrange(3) for _ in range(2)):
                                         rng.randrange(1, p)
                                         for _ in range(rng.randint(1, 3))})
                        for _ in range(k)]
                if p > 2 and gens[0].leading_coeff() == 1:
                    gens[0] = gens[0].scale(2)
                a = Ideal(amb, gens)
                if a.is_monomial:
                    continue
                if len(self._assert_members_match(amb, [(a, lam)])) > 1:
                    fused.append((lam > 1, len(a.generators)))
        assert len(fused) >= 4 and any(high for high, _ in fused)

    @pytest.mark.parametrize("second", ["x*y^2", "x^2, y", "x + y^2", "x^2 + y, x*y + 1"])
    def test_mixed_members_match(self, second):
        amb = R3
        a = I("p=3; vars=x,y; gens=[x^2 + 2*y + x*y]")
        b = I(f"p=3; vars=x,y; gens=[{second}]")
        for lam, mu in ((Fraction(1, 2), Fraction(2, 3)), (Fraction(4, 3), Fraction(1, 4)),
                        (Fraction(2, 3), 0)):
            members = self._assert_members_match(amb, [(a, lam), (b, Fraction(mu))])
            assert len(members) >= 2
            assert self._assert_members_match(amb, [(b, Fraction(mu)), (a, lam)])

    def test_constant_digit_bucket_is_kept(self):
        # (x + y^2)^6 at q = 4, 6 = 4 * 1 + 2: the level-4 buckets of
        # (x + y^2)^2 = x^2 + y^4 are 1 and y, and the high part x + y^2
        # multiplies both; collapsing the constant to (1) would print [y^2 + x]
        a = I("p=2; vars=x,y; gens=[x + y^2]")
        members = dict(self._assert_members_match(R2, [(a, Fraction(3, 2))]))
        assert repr(members[2]) == "p=2; vars=x,y; gens=[y^2 + x, y^3 + x*y]"

    def test_root_generator_cap_trips_at_the_same_member(self, monkeypatch):
        # distinct buckets per member: 6, 8, then a unit member (20 buckets);
        # and 9, then unit members (15 and 20 buckets), the unit test coming
        # before the cap
        for text, lam, cap, members in (
                ("p=2; vars=x,y; gens=[x^2 + x*y + y, x*y^2 + x]", Fraction(5, 4), 7, 1),
                ("p=3; vars=x,y; gens=[x^2 + x*y + y^2, x + 2*y^2]", Fraction(4, 3), 10, 4)):
            monkeypatch.setattr(frobenius, "_ROOT_GEN_CAP", cap)
            a = I(text)
            p = a.ring.field.p
            expected = []
            for e in range(1, 5):
                try:
                    expected.append(repr(frobenius_root(
                        ideal_power(a, ceil_times(lam, p ** e)), e)))
                except ResourceLimitError:
                    expected.append("capped")
                    break
            assert len(expected) - expected.count("capped") == members
            assert _root_outcomes(_general_members(a.ring, [(a, lam)],
                                                   Caps(e_max_general=4))) == expected
        monkeypatch.setattr(frobenius, "_ROOT_GEN_CAP", 7)
        with pytest.raises(ResourceLimitError, match="generator count"):
            tau(I("p=2; vars=x,y; gens=[x^2 + x*y + y, x*y^2 + x]"), Fraction(5, 4))

    def test_chain_leaves_no_cyclic_garbage(self):
        a = I("p=3; vars=x,y; gens=[x^2 + 2*y, x*y + 1]")
        gc.collect()
        gc.disable()
        try:
            # no window of equal members: e = 1..4 all ran, three of them fused
            assert tau(a, Fraction(5, 4), Caps(e_max_general=4)).evidence == "cap-reached"
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    def test_reported_jump_is_the_first_grid_point_past_the_true_one(self):
        # the jumping number of (x^2, y^3) is 5/6, which is not on the grid
        # of denominators <= 4: the report names the next grid point, 1, and
        # only the grid points are checked to be constant
        a = I("p=2; vars=x,y; gens=[x^2, y^3]")
        rep = f_jumping_numbers(a, 1, 4)
        assert rep.jumps == (1,) and rep.certified
        maximal = I("p=2; vars=x,y; gens=[x, y]")
        assert [pl.ideal for pl in rep.plateaus] == [unit_ideal(R2), maximal]
        grid = [Fraction(n, d) for n, d in _jump_grid(Fraction(1), 4)]
        assert grid[-2:] == [Fraction(3, 4), 1]
        # the true jump lies in (previous grid point, reported point]
        assert tau(a, Fraction(3, 4)).ideal == unit_ideal(R2)
        assert tau(a, Fraction(9, 10)).ideal == maximal
        assert tau(a, Fraction(5, 6)).ideal == maximal
        assert tau(a, Fraction(4, 5)).ideal == unit_ideal(R2)
        # each plateau's ideal is tau at every grid point it covers
        for pl in rep.plateaus:
            for lam in grid:
                if pl.start <= lam < pl.end or (pl is rep.plateaus[-1] and lam == pl.end):
                    assert tau(a, lam).ideal == pl.ideal

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("nvars", [2, 3])
    @pytest.mark.parametrize("principal", [True, False], ids=["principal", "several-gens"])
    def test_matches_the_chain_at_every_grid_point(self, p, nvars, principal):
        # the Newton lane, which runs the chain only at the jumps and at the
        # last grid point, reports what the chain at every visited point does
        amb = ring(p, *[f"x{k}" for k in range(nvars)])
        rng = random.Random(f"jumps:{p}:{nvars}:{principal}")
        max_deg = 5 if nvars == 2 else 3
        checked = 0
        while checked < 4:
            a = random_monomial_ideal(rng, amb, 1 if principal else 3, max_deg)
            if (len(a.monomials) == 1) != principal or a.is_unit():
                continue
            checked += 1
            rep, expected = f_jumping_numbers(a, 2, 6), jumps_by_chain(a, 2, 6)
            assert rep == expected, repr(a)
            assert [pl.ideal.monomials for pl in rep.plateaus] \
                == [pl.ideal.monomials for pl in expected.plateaus]

    @pytest.mark.parametrize("spec, lam_max, bound", [
        ("p=2; vars=x; gens=[x]", 3, 8),
        ("p=3; vars=x,y; gens=[x^3*y^2]", 2, 6),
        ("p=5; vars=x,y,z; gens=[x*y^4*z^2]", Fraction(5, 2), 5),
        ("p=2; vars=x,y; gens=[1]", 4, 8),
    ], ids=["x", "x3y2", "xy4z2", "unit"])
    def test_principal_ideal_runs_test_ideal_only_at_the_jumps_and_the_end(
            self, monkeypatch, spec, lam_max, bound):
        # a principal monomial ideal takes the Newton lane: test_ideal runs
        # once per reported jump and once at the last grid point, no more
        called = []

        def counting(a, lam, caps):
            called.append(lam)
            return tau(a, lam, caps)

        monkeypatch.setattr(frobenius, "test_ideal", counting)
        rep = f_jumping_numbers(I(spec), lam_max, bound)
        last = Fraction(*_jump_grid(Fraction(lam_max), bound)[-1])
        assert sorted(called) == sorted({*rep.jumps, last})
        assert rep.certified

    def test_capped_chain_at_a_jump_is_not_certified(self):
        # with one Frobenius iterate the chain at the jumps of (x^2, y^2)
        # stops short; the plateaus still carry the Newton-polyhedron ideals
        a = I("p=2; vars=x,y; gens=[x^2, y^2]")
        full = f_jumping_numbers(a, 2, 4)
        assert full.certified and full.jumps == (1, Fraction(3, 2), 2)
        assert any(tau(a, lam).stabilization_e >= 2 for lam in full.jumps)
        capped = f_jumping_numbers(a, 2, 4, Caps(e_max_monomial=1))
        assert not capped.certified
        assert capped.jumps == full.jumps
        assert [pl.ideal.monomials for pl in capped.plateaus] \
            == [pl.ideal.monomials for pl in full.plateaus]

    def test_closed_form_that_never_changes_is_not_certified(self, monkeypatch):
        # a Newton value stuck at the unit ideal gives no jump; the chain at
        # the last grid point, where tau((x^2, y^3)^1) = (x, y), cannot reach
        # it and caps
        monkeypatch.setattr(frobenius, "monomial_tau_newton",
                            lambda n, pairs: frozenset([(0,) * n]))
        rep = f_jumping_numbers(I("p=2; vars=x,y; gens=[x^2, y^3]"), 1, 4)
        assert rep.jumps == () and not rep.certified

    def test_chain_off_the_newton_value_is_contract_error(self, monkeypatch):
        a = I("p=2; vars=x,y; gens=[x^2, y^3]")
        # a chain that claims to stabilize on the unit ideal at a jump
        unit_chain = frobenius.TestIdealResult(unit_ideal(R2), 1, frobenius.EVIDENCE_WINDOW)
        monkeypatch.setattr(frobenius, "test_ideal", lambda a, lam, caps: unit_chain)
        with pytest.raises(ContractError, match="Newton"):
            f_jumping_numbers(a, 1, 4)

    def test_plateau_ideals_strictly_decrease(self):
        rep = f_jumping_numbers(I("p=3; vars=x,y; gens=[x^2, y^2]"), 3, 6)
        for prev, nxt in zip(rep.plateaus, rep.plateaus[1:]):
            assert ideal_contains(prev.ideal, nxt.ideal)
            assert prev.ideal != nxt.ideal

    @pytest.mark.parametrize("bound", [2.5, True, 0, -3, Fraction(4)],
                             ids=["float", "bool", "zero", "negative", "fraction"])
    def test_bad_denom_bound_is_domain_error(self, bound):
        with pytest.raises(DomainError, match="denom_bound"):
            f_jumping_numbers(I("p=2; vars=x,y; gens=[x^2, y^3]"), 4, bound)

    @pytest.mark.parametrize("lam_max, bound", [(4, 100000), (1, 1414)],
                             ids=["huge", "just-over"])
    def test_large_candidate_grid_is_refused_before_it_is_built(self, lam_max, bound):
        # lam_max * D(D+1)/2 bounds the grid size: 1 * 1414 * 1415 / 2 > 10^6
        assert lam_max * bound * (bound + 1) / 2 > _JUMP_GRID_CAP == 10 ** 6
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="candidate grid"):
            f_jumping_numbers(I("p=2; vars=x,y; gens=[x^2, y^3]"), lam_max, bound)
        assert time.perf_counter() - start < 0.5


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


class TestIntegerNewtonBound:
    """monomial_tau_newton sums the facet bounds in integers over the
    common denominator of the exponents; the oracle sums them in Fractions."""

    LAMBDAS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3),
               Fraction(5, 4), Fraction(7, 5), Fraction(5, 6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("families", [1, 2])
    def test_matches_fraction_bounds(self, n, families):
        rng = random.Random(1900 + 10 * n + families)
        for _ in range(15):
            pairs = tuple(
                (tuple(sorted({tuple(rng.randrange(4) for _ in range(n))
                               for _ in range(rng.randrange(1, 4))})),
                 rng.choice(self.LAMBDAS))
                for _ in range(families))
            assert monomial_tau_newton(n, pairs) == newton_tau_by_fractions(n, pairs), pairs

    def test_two_families_with_different_denominators(self):
        gens_a, gens_b = ((2, 0, 1), (0, 3, 0)), ((1, 1, 0), (0, 0, 2))
        for lam, mu in [(Fraction(1, 2), Fraction(2, 3)), (Fraction(3, 4), Fraction(6, 5)),
                        (Fraction(0), Fraction(5, 3)), (Fraction(7, 6), 0)]:
            pairs = ((gens_a, lam), (gens_b, mu))
            assert monomial_tau_newton(3, pairs) == newton_tau_by_fractions(3, pairs)

    def test_integer_right_hand_side_is_floor_plus_one(self):
        # (x^2, y^3) has the facet 3u + 2v >= 6; at lam = 5/6 and lam = 1
        # the right-hand side 6 lam - 5 is the integer 0 or 1, so the
        # strict inequality needs 3a + 2b >= 1 or 2: the ideal (x, y)
        pairs = lambda lam: ((((2, 0), (0, 3)), lam),)
        maximal = frozenset([(1, 0), (0, 1)])
        for lam in (Fraction(5, 6), 1):
            assert monomial_tau_newton(2, pairs(lam)) == maximal
            assert newton_tau_by_fractions(2, pairs(lam)) == maximal
        assert monomial_tau_newton(2, pairs(Fraction(4, 5))) == frozenset([(0, 0)])
        assert monomial_tau_newton(2, pairs(0)) == frozenset([(0, 0)])

    def test_second_lambda_on_a_family_is_a_cache_hit(self):
        pairs = lambda lam: ((((0, 2, 5), (3, 1, 0)), lam),)
        monomial_tau_newton(3, pairs(Fraction(1, 3)))
        before = _candidate_normals.cache_info()
        monomial_tau_newton(3, pairs(Fraction(7, 4)))
        after = _candidate_normals.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestStaircaseMemo:
    """monomial_tau_newton looks its staircase up by the integer facet
    bounds; answers must not depend on what that memo holds."""

    @staticmethod
    def _ideals(count):
        rng = random.Random("staircase-memo")
        ideals = []
        while len(ideals) < count:
            a = random_monomial_ideal(rng, R3, 3, 5)
            if len(a.monomials) > 1:
                ideals.append(a)
        return ideals

    @staticmethod
    def _bounds(gens, lam):
        # <h, u> > lam * min_v <h, v> - |h|_1, summed in Fractions
        return tuple((h, floor(lam * mins[0] - size) + 1)
                     for h, size, mins in _candidate_normals((gens,), 2)
                     if floor(lam * mins[0] - size) + 1 > 0)

    def test_misses_are_the_distinct_bounds_of_the_visited_points(self, monkeypatch):
        (a,) = self._ideals(1)
        memo = newton._staircase_memo
        visited, chain_misses, in_chain = [], [], []
        real_newton, real_tau = frobenius.monomial_tau_newton, frobenius.test_ideal

        def recording_newton(n, pairs):
            if not in_chain:
                visited.append(pairs[0][1])
            return real_newton(n, pairs)

        def recording_tau(b, lam, caps):
            before = memo.cache_info().misses
            in_chain.append(lam)
            try:
                return real_tau(b, lam, caps)
            finally:
                in_chain.pop()
                chain_misses.append(memo.cache_info().misses - before)

        monkeypatch.setattr(frobenius, "monomial_tau_newton", recording_newton)
        monkeypatch.setattr(frobenius, "test_ideal", recording_tau)
        memo.cache_clear()
        rep = f_jumping_numbers(a, 4, 12)
        gens = tuple(sorted(a.monomials))
        distinct = {self._bounds(gens, lam) for lam in visited}
        assert memo.cache_info().misses == len(distinct) < len(visited)
        # one certificate chain per jump and one at the last grid point
        assert len(chain_misses) == len({*rep.jumps, Fraction(4)}) > 1
        assert chain_misses == [0] * len(chain_misses)

    def test_report_encoding_independent_of_memo_state(self, monkeypatch):
        a, *others = self._ideals(4)

        def encoded():
            return json.dumps(cli._enc(f_jumping_numbers(a, 4, 12))).encode()

        newton._staircase_memo.cache_clear()
        cold = encoded()
        newton._staircase_memo.cache_clear()
        for b in others:
            f_jumping_numbers(b, 4, 12)
        assert newton._staircase_memo.cache_info().currsize > 0
        warm = encoded()
        monkeypatch.setattr(newton, "_staircase_memo", lru_cache(maxsize=2)(newton._staircase))
        evicted = encoded()
        assert newton._staircase_memo.cache_info().misses > 2
        assert cold == warm == evicted

    def test_slice_limit_is_raised_again_on_a_second_call(self, monkeypatch):
        # the CLI repro x^2000000, y at lambda 2 needs 2 * 10^6 slices of x;
        # a lower slice bound trips the same guard without scanning 10^6
        monkeypatch.setattr(newton, "_STAIRCASE_SLICE_CAP", 1000)
        pairs = ((((0, 1), (2000000, 0)), Fraction(2)),)
        newton._staircase_memo.cache_clear()
        for misses in (1, 2):
            with pytest.raises(ResourceLimitError, match="exceeds 1000 slices"):
                monomial_tau_newton(2, pairs)
            info = newton._staircase_memo.cache_info()
            assert (info.misses, info.hits, info.currsize) == (misses, 0, 0)


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
