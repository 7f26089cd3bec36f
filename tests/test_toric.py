"""Fans, divisor classes, base loci, sigma, chart test ideals, non-nef loci."""

import random
from fractions import Fraction
from math import inf

import pytest

from nonnef import Caps, ContractError, DomainError
from nonnef.toric import (Fan, InvariantSubvariety, ToricDivisor,
                          asymptotic_ord_toric, base_locus_ord, blowup_lab,
                          build_fan, builtin_fan, chart_ideal, classify_divisor,
                          divisor, non_nef_locus, sigma, stable_base_locus,
                          tau_plus_toric, tau_toric)
from nonnef.simplex import Polytope
from oracles import lp_min_by_vertices

E_SUB = InvariantSubvariety((3,))


class TestFanValidation:
    def test_p2_valid(self):
        fan = build_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert fan.picard_number == 1

    def test_blowup_valid(self):
        assert builtin_fan("blowup-p2").picard_number == 2

    def test_incomplete_rejected(self):
        with pytest.raises(ContractError, match="completeness"):
            build_fan([(1, 0), (-1, 0)], [(0,), (1,)])

    def test_nonsmooth_rejected(self):
        # cone with determinant 2
        with pytest.raises(ContractError, match="smoothness"):
            build_fan([(1, 0), (-1, 2), (0, -1)], [(0, 1), (1, 2), (0, 2)])

    def test_folded_fan_rejected(self):
        # two copies of the same cone on one side
        with pytest.raises(ContractError):
            build_fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 2)])

    def test_every_builtin_has_verified_ample(self):
        for name in ("p2", "p1xp1", "f1", "f2", "p3"):
            fan = builtin_fan(name)
            assert classify_divisor(fan, fan.ample).ample


    @pytest.mark.parametrize("name", ["p2", "p1xp1", "f1", "f2", "p3"])
    def test_walls_are_ray_coordinates(self, name):
        fan = builtin_fan(name)
        for cone in fan.max_cones:
            walls = fan.walls(cone)
            assert [j for j, _ in walls] == [j for j in range(len(fan.rays))
                                             if j not in cone]
            for j, c in walls:
                assert fan.rays[j] == tuple(
                    sum(ck * fan.rays[i][k] for ck, i in zip(c, cone))
                    for k in range(fan.dim))


class TestDomainChecks:
    @pytest.mark.parametrize("coeffs", [(1, 0), (1, 0, 0, 5)])
    def test_wrong_length_divisor(self, coeffs):
        fan = builtin_fan("p2")
        d = ToricDivisor(coeffs)
        for call in (lambda: classify_divisor(fan, d),
                     lambda: asymptotic_ord_toric(fan, d, InvariantSubvariety((0,))),
                     lambda: stable_base_locus(fan, d),
                     lambda: chart_ideal(fan, d, 1, (0, 1)),
                     lambda: non_nef_locus(fan, divisor(1, 0, 0), ample=d)):
            with pytest.raises(DomainError, match="coefficients"):
                call()

    @pytest.mark.parametrize("rays", [(7,), (-1,), (0, 1, 2)])
    def test_subvariety_outside_the_fan(self, rays):
        fan = builtin_fan("p2")
        sub = InvariantSubvariety(rays)
        with pytest.raises(DomainError, match="does not span a cone"):
            asymptotic_ord_toric(fan, divisor(1, 0, 0), sub)
        with pytest.raises(DomainError, match="does not span a cone"):
            sigma(fan, divisor(1, 0, 0), sub)

    def test_repeated_ray_rejected(self):
        with pytest.raises(DomainError, match="twice"):
            InvariantSubvariety((0, 0))


class TestClassification:
    def test_line_on_p2(self):
        cls = classify_divisor(builtin_fan("p2"), divisor(1, 0, 0))
        assert cls.ample and cls.nef and cls.big

    def test_exceptional_on_blowup(self):
        fan, _, e = blowup_lab()
        cls = classify_divisor(fan, e)
        assert cls.effective and not cls.nef and not cls.big
        assert cls.pseudo_effective

    def test_negative_line_not_psef(self):
        cls = classify_divisor(builtin_fan("p2"), divisor(-1, 0, 0))
        assert not cls.pseudo_effective and not cls.effective

    def test_effective_iff_psef_on_complete_toric(self):
        rng = random.Random(4)
        for name in ("p2", "p1xp1", "f1", "f2"):
            fan = builtin_fan(name)
            for _ in range(30):
                d = ToricDivisor(tuple(rng.randrange(-2, 3)
                                       for _ in fan.rays))
                cls = classify_divisor(fan, d)
                assert cls.effective == cls.pseudo_effective
                if cls.ample:
                    assert cls.nef and cls.big


class TestWorkedExample:
    """Blow-up of P^2, H = 2*line, D = pullback(H) + E."""

    def setup_method(self):
        self.fan, ph, self.e = blowup_lab()
        self.d = ph + self.e

    def test_pullback_minus_e_is_ample(self):
        assert classify_divisor(self.fan, divisor(0, 0, 2, -1)).ample

    def test_base_locus_ord_is_m(self):
        for m in range(1, 9):
            assert base_locus_ord(self.fan, self.d, m, E_SUB) == m

    def test_chart_ideal_is_principal_power(self):
        for m in (1, 2, 4):
            for cone in ((0, 3), (1, 3)):
                a = chart_ideal(self.fan, self.d, m, cone)
                pos = cone.index(3)
                expected = frozenset({tuple(m if i == pos else 0 for i in range(2))})
                assert a.monomials == expected

    def test_asymptotic_ord(self):
        assert asymptotic_ord_toric(self.fan, self.d, E_SUB) == 1

    def test_sigma_is_one(self):
        res = sigma(self.fan, self.d, E_SUB)
        assert res.value == 1 and res.evidence == "window-stable"

    def test_tau_chain(self):
        for m in (1, 2, 3):
            r = tau_toric(self.fan, self.d, m, (0, 3))
            assert r.ideal.monomials == frozenset({(0, m)})

    def test_tau_plus_drops_one(self):
        for m in (1, 2, 3):
            r = tau_plus_toric(self.fan, self.d, m, (0, 3))
            expected = frozenset({(0, m - 1)}) if m > 1 else frozenset({(0, 0)})
            assert r.ideal.monomials == expected

    def test_stable_base_locus(self):
        rep = stable_base_locus(self.fan, self.d)
        assert set(rep.members) == {InvariantSubvariety((3,)),
                                    InvariantSubvariety((0, 3)),
                                    InvariantSubvariety((1, 3))}

    def test_stable_base_locus_honours_window(self):
        default = stable_base_locus(self.fan, self.d)
        wider = stable_base_locus(self.fan, self.d, Caps(window=3))
        assert wider.levels == default.levels + (2 * default.levels[-1],)
        assert wider.members == default.members and wider.certified

    def test_exceptional_divisor_base_locus(self):
        rep = stable_base_locus(self.fan, self.e)
        assert InvariantSubvariety((3,)) in rep.members

    def test_non_nef_report(self):
        rep = non_nef_locus(self.fan, self.d)
        assert rep.status == "pseudo-effective-not-nef"
        assert rep.positive_sigma == ((InvariantSubvariety((3,)), Fraction(1)),)

    def test_sigma_of_exceptional_along_itself(self):
        res = sigma(self.fan, self.e, E_SUB)
        assert res.value == 1

    def test_base_locus_ord_of_exceptional(self):
        assert base_locus_ord(self.fan, self.e, 1, E_SUB) == 1


class TestLPOrders:
    def test_nef_divisors_have_zero_order(self):
        fan = builtin_fan("p1xp1")
        for sub in fan.invariant_subvarieties():
            assert asymptotic_ord_toric(fan, divisor(1, 0, 1, 0), sub) == 0

    def test_homogeneity(self):
        fan, ph, e = blowup_lab()
        d = ph + e
        for k in (2, 3, 5):
            for sub in fan.invariant_subvarieties():
                assert asymptotic_ord_toric(fan, d.scale(k), sub) == \
                    k * asymptotic_ord_toric(fan, d, sub)

    def test_empty_polytope_raises(self):
        with pytest.raises(DomainError, match="no pluri-sections"):
            asymptotic_ord_toric(builtin_fan("p2"), divisor(-1, 0, 0),
                                 InvariantSubvariety((0,)))

    def test_order_subadditive(self):
        fan = builtin_fan("f1")
        rng = random.Random(12)
        subs = fan.invariant_subvarieties()
        for _ in range(40):
            d1 = ToricDivisor(tuple(rng.randrange(0, 3) for _ in fan.rays))
            d2 = ToricDivisor(tuple(rng.randrange(0, 3) for _ in fan.rays))
            for sub in subs:
                lhs = asymptotic_ord_toric(fan, d1 + d2, sub)
                assert lhs <= asymptotic_ord_toric(fan, d1, sub) + \
                    asymptotic_ord_toric(fan, d2, sub)

    def test_lp_value_matches_vertex_oracle(self):
        rng = random.Random(3)
        for name in ("p2", "f1", "f2"):
            fan = builtin_fan(name)
            for _ in range(15):
                d = ToricDivisor(tuple(rng.randrange(0, 4) for _ in fan.rays))
                sub = rng.choice(fan.invariant_subvarieties())
                cons = fan.polytope_constraints(d)
                obj = [Fraction(0)] * fan.dim
                const = Fraction(0)
                for i in sub.rays:
                    for k in range(fan.dim):
                        obj[k] += fan.rays[i][k]
                    const += d.coefficients[i]
                oracle, _ = lp_min_by_vertices(
                    obj, [(list(map(Fraction, a)), Fraction(b)) for a, b in cons],
                    fan.dim)
                assert asymptotic_ord_toric(fan, d, sub) == oracle + const

    def test_linear_equivalence_invariance(self):
        # shifting by the divisor of a character changes nothing
        fan, ph, e = blowup_lab()
        d = ph + e
        for u in ((1, 0), (0, 1), (-2, 3)):
            shifted = ToricDivisor(tuple(
                c + sum(a * b for a, b in zip(u, ray))
                for c, ray in zip(d.coefficients, fan.rays)))
            for sub in fan.invariant_subvarieties():
                assert asymptotic_ord_toric(fan, shifted, sub) == \
                    asymptotic_ord_toric(fan, d, sub)
            for m in (1, 2):
                assert chart_ideal(fan, shifted, m, (0, 3)).monomials == \
                    chart_ideal(fan, d, m, (0, 3)).monomials


class TestSigma:
    def test_nef_gives_zero(self):
        fan = builtin_fan("f2")
        for sub in fan.invariant_subvarieties():
            assert sigma(fan, fan.ample, sub).value == 0

    def test_big_case_equals_lp_order(self):
        fan, ph, e = blowup_lab()
        d = ph + e
        for sub in fan.invariant_subvarieties():
            assert sigma(fan, d, sub).value == asymptotic_ord_toric(fan, d, sub)

    def test_not_psef_rejected(self):
        with pytest.raises(DomainError, match="pseudo-effective"):
            sigma(builtin_fan("p2"), divisor(-1, 0, 0), InvariantSubvariety((0,)))

    def test_boundary_case_exceptional(self):
        fan, _, e = blowup_lab()
        assert sigma(fan, e, E_SUB).value == 1


class TestNonNef:
    def test_nef_reports_empty(self):
        fan = builtin_fan("p1xp1")
        rep = non_nef_locus(fan, divisor(2, 0, 1, 0))
        assert rep.status == "nef" and rep.positive_sigma == ()

    def test_not_psef_flag(self):
        rep = non_nef_locus(builtin_fan("p2"), divisor(-2, 0, 0))
        assert rep.status == "not-pseudo-effective"

    def test_picard_bound(self):
        fan, ph, e = blowup_lab()
        rep = non_nef_locus(fan, ph + e)
        codim1 = [s for s, _ in rep.positive_sigma if s.codim == 1]
        assert len(codim1) <= fan.picard_number

    def test_agreement_on_random_divisors(self):
        rng = random.Random(77)
        for name in ("p2", "f1"):
            fan = builtin_fan(name)
            for _ in range(12):
                d = ToricDivisor(tuple(rng.randrange(-1, 3) for _ in fan.rays))
                rep = non_nef_locus(fan, d)  # methods assert agreement internally
                if rep.status == "nef":
                    assert classify_divisor(fan, d).nef

    @pytest.mark.parametrize("coeffs", [(1, 1, 1), (0, 0, 0), (-1, 0, 0)],
                             ids=["big", "not-big", "not-psef"])
    def test_perturbation_divisor_checked_for_every_divisor(self, coeffs):
        with pytest.raises(DomainError, match="perturbation divisor must be ample"):
            non_nef_locus(builtin_fan("p2"), divisor(*coeffs), ample=divisor(0, 0, 0))

    def test_explicit_ample_matches_default(self):
        fan, ph, e = blowup_lab()
        assert non_nef_locus(fan, ph + e, ample=fan.ample) == non_nef_locus(fan, ph + e)

    @pytest.mark.parametrize("name, coeffs", [("p2", (1, 0, -1)), ("f1", (0, 0, 2, 1)),
                                              ("p3", (1, 0, 0, 0))])
    def test_one_phase_one_per_polytope(self, monkeypatch, name, coeffs):
        fan = builtin_fan(name)   # built first: fan validation runs LPs of its own
        built = []
        init = Polytope.__init__

        def counting(self, constraints, n):
            built.append(n)
            init(self, constraints, n)

        monkeypatch.setattr(Polytope, "__init__", counting)
        non_nef_locus(fan, divisor(*coeffs))
        # three for classifying D, one per sampled eps = 1/2 .. 1/16 shared
        # by the order LPs of every subvariety
        assert len(built) == 3 + 4


class TestChartIdeals:
    def test_non_integral_level_rejected(self):
        fan = builtin_fan("p2")
        with pytest.raises(DomainError, match="integral"):
            chart_ideal(fan, ToricDivisor((Fraction(1, 2), 0, 0)), 1, (0, 1))

    def test_base_point_free_gives_unit(self):
        fan = builtin_fan("p2")
        a = chart_ideal(fan, divisor(1, 0, 0), 1, (0, 1))
        assert a.is_unit()

    def test_empty_system_gives_zero(self):
        fan = builtin_fan("p2")
        a = chart_ideal(fan, divisor(-1, 0, 0), 1, (0, 1))
        assert a.is_zero()

    def test_nef_tau_is_unit(self):
        fan = builtin_fan("p1xp1")
        r = tau_toric(fan, divisor(1, 0, 1, 0), 2, (0, 2))
        assert r.ideal.is_unit()

    def test_tau_lambda_zero(self):
        fan, ph, e = blowup_lab()
        r = tau_toric(fan, ph + e, 0, (0, 3))
        assert r.ideal.is_unit()

    def test_chart_choice_does_not_change_ord(self):
        fan, ph, e = blowup_lab()
        d = ph + e
        # E lies in charts (0,3) and (1,3); both give the same order
        for m in (1, 2, 3):
            vals = []
            for cone in ((0, 3), (1, 3)):
                a = chart_ideal(fan, d, m, cone)
                from nonnef.asymptotic import CoordinateSubvariety, ord_along
                vals.append(ord_along(a, CoordinateSubvariety((cone.index(3),))))
            assert vals[0] == vals[1] == m


class TestLatticeLPCrossCheck:
    def test_level_minima_hit_the_lp_value(self):
        # on fans whose section polytopes have integral vertices the
        # lattice minimum at level m equals m times the LP value
        rng = random.Random(41)
        for name in ("p2", "f1"):
            fan = builtin_fan(name)
            subs = fan.invariant_subvarieties()
            for _ in range(10):
                d = ToricDivisor(tuple(rng.randrange(0, 4) for _ in fan.rays))
                sub = rng.choice(subs)
                lp = asymptotic_ord_toric(fan, d, sub)
                ratios = [Fraction(base_locus_ord(fan, d, m, sub), m)
                          for m in (1, 2, 4, 8)]
                assert all(r >= lp for r in ratios if r != inf)
                assert lp in ratios


class TestTauPlusEdges:
    def test_lambda_zero_is_unit(self):
        fan, ph, e = blowup_lab()
        assert tau_plus_toric(fan, ph + e, 0, (0, 3)).ideal.is_unit()

    def test_ample_divisor_gives_unit(self):
        fan, _, _ = blowup_lab()
        amp = divisor(0, 0, 2, -1)
        assert tau_plus_toric(fan, amp, 2, (0, 3)).ideal.is_unit()

    def test_not_psef_rejected(self):
        with pytest.raises(DomainError, match="pseudo-effective"):
            tau_plus_toric(builtin_fan("p2"), divisor(-1, 0, 0), 1, (0, 1))

    def test_stabilization_index_is_first_appearance(self):
        fan, ph, e = blowup_lab()
        r = tau_plus_toric(fan, ph + e, 2, (0, 3))
        assert r.stabilization_e == 1 and r.evidence == "window-stable"

    def test_schedule_ends_where_m_cap_has_no_term(self):
        # eps = 1/4 first gives a nonzero term at level 4 > m_cap
        fan, ph, e = blowup_lab()
        r = tau_plus_toric(fan, ph + e, 2, (0, 3), caps=Caps(m_cap=2))
        assert r.evidence == "cap-reached" and r.stabilization_e == 1
        assert r.ideal.monomials == frozenset({(0, 1)})

    def test_first_perturbation_without_terms_raises(self):
        fan, ph, e = blowup_lab()
        with pytest.raises(DomainError, match="no nonzero term"):
            tau_plus_toric(fan, ph + e, 2, (0, 3), caps=Caps(m_cap=1))


class TestThreeDimensional:
    def test_p3_surface_counts(self):
        p3 = builtin_fan("p3")
        # 4 invariant divisors, 6 curves, 4 points
        assert len(p3.invariant_subvarieties()) == 14

    def test_hyperplane_is_ample_and_nef_everywhere(self):
        p3 = builtin_fan("p3")
        h = divisor(1, 0, 0, 0)
        assert classify_divisor(p3, h).ample
        rep = non_nef_locus(p3, h)
        assert rep.status == "nef" and stable_base_locus(p3, h).members == ()

    def test_negative_hyperplane(self):
        p3 = builtin_fan("p3")
        assert non_nef_locus(p3, divisor(-1, 0, 0, 0)).status == "not-pseudo-effective"

    def test_chart_ideal_and_orders_in_3d(self):
        p3 = builtin_fan("p3")
        assert chart_ideal(p3, divisor(2, 0, 0, 0), 1, (0, 1, 2)).is_unit()
        pt = InvariantSubvariety((0, 1, 2))
        assert asymptotic_ord_toric(p3, divisor(1, 0, 0, 0), pt) == 0
        assert base_locus_ord(p3, divisor(1, 0, 0, 0), 2, pt) == 0


def test_non_primitive_ray_rejected():
    with pytest.raises(ContractError, match="primitive"):
        build_fan([(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
