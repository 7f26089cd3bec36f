"""Fans, divisor classes, base loci, sigma, chart test ideals, non-nef loci."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import inf

import pytest

from nonnef import (Caps, ContractError, DomainError, ResourceLimitError, f_jumping_numbers,
                    parse_ideal, toric)
from nonnef import test_ideal as tau
from nonnef.asymptotic import CoordinateSubvariety, ord_along
from nonnef.toric import (Fan, InvariantSubvariety, ToricDivisor, _chart_system,
                          _lattice_minimals_rec, _perturbation, asymptotic_ord_toric,
                          base_locus_ord, blowup_lab, builtin_fan, chart_ideal,
                          classify_divisor, divisor, non_nef_locus, sigma,
                          stable_base_locus, tau_plus_toric, tau_toric)
from nonnef.simplex import Polytope
from fans import (TWO_FOLD_CYCLE, blow_up_point, cycle_times_lines, product_of_lines,
                  projective_space, suspension)
from oracles import (big_by_vertices, effective_by_vertices, lattice_minimals_by_enumeration,
                     lp_min_by_vertices, pseudo_effective_by_eps_lp, pseudo_effective_threshold,
                     sigma_by_eps_chords)

E_SUB = InvariantSubvariety((3,))
FANS = ("p2", "p1xp1", "f1", "f2", "p3")


@pytest.fixture
def polytopes(monkeypatch):
    """The dimensions of every `Polytope` built from here on, in order."""
    built = []
    init = Polytope.__init__

    def counting(self, constraints, n, *t):
        built.append(n)
        init(self, constraints, n, *t)

    monkeypatch.setattr(Polytope, "__init__", counting)
    return built


class TestFanValidation:
    def test_p2_valid(self):
        fan = Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert fan.picard_number == 1

    def test_blowup_valid(self):
        assert builtin_fan("blowup-p2").picard_number == 2

    def test_incomplete_rejected(self):
        with pytest.raises(DomainError, match="completeness"):
            Fan([(1, 0), (-1, 0)], [(0,), (1,)])

    def test_nonsmooth_rejected(self):
        # cone with determinant 2
        with pytest.raises(DomainError, match="smoothness"):
            Fan([(1, 0), (-1, 2), (0, -1)], [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("rays, cones", [
        ([(1.5, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
        ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2.0), (0, 2)]),
        ([(True, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
        ([(1, 0), (0, 1), (-1, -1)], [(0, "1"), (1, 2), (0, 2)]),
    ], ids=["float-ray", "float-index", "bool-ray", "string-index"])
    def test_non_integer_entries_rejected(self, rays, cones):
        with pytest.raises(DomainError, match="integers only"):
            Fan(rays, cones)

    def test_folded_fan_rejected(self):
        # two copies of the same cone on one side
        with pytest.raises(DomainError):
            Fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 2)])

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
        if min(rays) < 0:
            # no ray has a negative index: refused before any fan is consulted
            with pytest.raises(DomainError, match="^ray index must be an integer >= 0"):
                InvariantSubvariety(rays)
            return
        sub = InvariantSubvariety(rays)
        with pytest.raises(DomainError, match="does not span a cone"):
            asymptotic_ord_toric(fan, divisor(1, 0, 0), sub)
        with pytest.raises(DomainError, match="does not span a cone"):
            sigma(fan, divisor(1, 0, 0), sub)

    def test_repeated_ray_rejected(self):
        with pytest.raises(DomainError, match="twice"):
            InvariantSubvariety((0, 0))


class TestMemos:
    def test_sequence_is_shared_by_equal_divisors(self):
        fan = builtin_fan("f1")
        seq = fan.sequence(divisor(0, 0, 2, 1), (0, 3), 2)
        assert fan.sequence(divisor(0, 0, Fraction(4, 2), 1), (3, 0), 2) is seq
        assert fan.sequence(divisor(0, 0, 2, 1), (0, 3), 3) is not seq
        assert fan.sequence(divisor(0, 0, 2, 2), (0, 3), 2) is not seq

    def test_divisor_coefficients_are_hashed_once(self, monkeypatch):
        d = divisor(Fraction(1, 2), 3, Fraction(-2, 3))
        h = hash(d)
        hashed = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__",
                            lambda c: hashed.append(c) or fraction_hash(c))
        assert hash(d) == h and hashed == []
        assert hash(divisor(Fraction(1, 2), 3, Fraction(-2, 3))) == h and len(hashed) == 3

    def test_chart_is_found_once_per_subvariety(self):
        fan = builtin_fan("f2")
        for sub in fan.invariant_subvarieties():
            cone, positions = fan.chart_for(sub)
            assert set(sub.rays) <= set(cone) and cone in fan.max_cones
            assert tuple(cone[i] for i in positions) == sub.rays
            assert fan.chart_for(InvariantSubvariety(sub.rays)) is fan.chart_for(sub)


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
        # effectiveness and bigness by vertex enumeration, pseudo-effectivity
        # by its eps-LP definition, on integer and rational divisors
        rng = random.Random(4)
        for name in FANS:
            fan = builtin_fan(name)
            rays = fan.rays
            for k in range(60):
                den = 1 if k < 30 else rng.choice((2, 3, 4))
                d = ToricDivisor(tuple(Fraction(rng.randrange(-2 * den, 3 * den + 1), den)
                                       for _ in rays))
                cls = classify_divisor(fan, d)
                assert cls.effective == effective_by_vertices(rays, d.coefficients)
                assert cls.big == big_by_vertices(rays, d.coefficients)
                assert cls.pseudo_effective == pseudo_effective_by_eps_lp(
                    rays, d.coefficients, fan.ample.coefficients)
                assert cls.effective == cls.pseudo_effective
                if cls.ample:
                    assert cls.nef and cls.big

    @pytest.mark.parametrize("name", FANS)
    def test_classification_builds_one_polytope(self, name, polytopes):
        fan = builtin_fan(name)
        for d in (fan.ample, fan.ample.scale(-1)):
            del polytopes[:]
            classify_divisor(fan, d)
            assert polytopes == [fan.dim + 1]

    def test_building_a_fan_runs_one_lp(self, polytopes):
        fan = Fan([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 3), (1, 3), (1, 2), (0, 2)])
        assert len(polytopes) == 1
        assert classify_divisor(fan, fan.ample).ample

    def test_ample_check_runs_no_lp(self, polytopes):
        fan = builtin_fan("f1")
        del polytopes[:]   # building the fan runs its witness LP
        assert _perturbation(fan, divisor(0, 0, 2, -1)) == divisor(0, 0, 2, -1)
        with pytest.raises(DomainError, match="must be ample"):
            _perturbation(fan, divisor(0, 0, 2, 0))
        assert polytopes == []


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
            res = sigma(fan, d, sub)
            assert res.value == asymptotic_ord_toric(fan, d, sub)
            assert res.samples == tuple(
                (eps, asymptotic_ord_toric(fan, d + fan.ample.scale(eps), sub))
                for eps, _ in res.samples)

    @pytest.mark.parametrize("name", FANS)
    def test_walked_samples_equal_fresh_order_lps(self, name):
        """Every sample of the one walked tableau is the order LP solved
        afresh on P_{D + eps*A}, for big and for merely pseudo-effective D."""
        fan = builtin_fan(name)
        rng = random.Random(5)
        kinds = set()
        for _ in range(10):
            d = ToricDivisor(tuple(Fraction(rng.randint(-4, 8), rng.choice((1, 2, 4)))
                                   for _ in fan.rays))
            cls = classify_divisor(fan, d)
            if not cls.pseudo_effective:
                continue
            kinds.add(cls.big)
            for sub in fan.invariant_subvarieties():
                res = sigma(fan, d, sub)
                assert len(res.samples) >= 4
                assert res.samples == tuple(
                    (eps, asymptotic_ord_toric(fan, d + fan.ample.scale(eps), sub))
                    for eps, _ in res.samples)
        assert True in kinds

    #: divisors whose sigma samples kink inside the schedule, so the basis
    #: line changes between two samples and a chord is fitted there
    KINKED = (("f1", (Fraction(3, 4), 2, Fraction(1, 2), 3)),                # big
              ("f1", (Fraction(1, 4), Fraction(3, 2), Fraction(-7, 4), 2)),  # not big
              ("f2", (Fraction(-1, 4), 1, 2, 3)),                           # big
              ("f2", (0, Fraction(1, 12), 0, 0)))                           # not big

    def test_sigma_equals_the_eps_chord_oracle(self):
        """Value, samples and evidence of sigma equal the oracle's, which
        solves every sample by vertex enumeration and fits every chord, on
        seeded rational divisors of every built-in fan, big and on the
        boundary of the pseudo-effective cone, under the default caps and
        under an epsilon_depth too small to stabilize."""
        drawn = []
        for name in FANS:
            fan = builtin_fan(name)
            rng = random.Random(f"sigma-oracle:{name}")
            for k in range(12):
                b = [Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3, 4))) for _ in fan.rays]
                if k % 2:   # push B onto the boundary: pseudo-effective, not big
                    s = pseudo_effective_threshold(fan.rays, b, fan.ample.coefficients)
                    b = [c + s * a for c, a in zip(b, fan.ample.coefficients)]
                drawn.append((name, b))
        kinds, kinked, evidences = Counter(), Counter(), Counter()
        for name, coeffs in drawn + list(self.KINKED):
            fan = builtin_fan(name)
            d = ToricDivisor(tuple(coeffs))
            cls = classify_divisor(fan, d)
            if not cls.pseudo_effective:
                continue
            kinds[name, cls.big] += 1
            for sub in fan.invariant_subvarieties():
                for caps in (Caps(), Caps(epsilon_depth=2)):
                    res = sigma(fan, d, sub, caps=caps)
                    assert (res.value, res.samples, res.evidence) == sigma_by_eps_chords(
                        fan.rays, d.coefficients, fan.ample.coefficients, sub.rays,
                        caps.window, caps.epsilon_depth), (name, d, sub, caps)
                    evidences[res.evidence] += 1
                    kinked[name] += any(
                        (f2 - f1) * (e3 - e2) != (f3 - f2) * (e2 - e1)
                        for (e1, f1), (e2, f2), (e3, f3)
                        in zip(res.samples, res.samples[1:], res.samples[2:]))
        assert {(name, big) for name in FANS for big in (True, False)} <= set(kinds)
        assert kinked["f1"] and kinked["f2"]
        assert evidences["window-stable"] and evidences["cap-reached"]

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

    @pytest.mark.parametrize("caps", [Caps(window=11), Caps(epsilon_depth=2)],
                             ids=["window", "epsilon-depth"])
    def test_capped_sigma_leaves_membership_to_the_other_methods(self, caps):
        fan, ph, e = blowup_lab()
        rep = non_nef_locus(fan, ph + e, caps=caps)
        assert rep.status == "pseudo-effective-not-nef" and not rep.certified
        assert rep.members == non_nef_locus(fan, ph + e).members
        assert rep.positive_sigma == ((E_SUB, None),)
        for r in rep.cross_checks:
            assert r.sigma_value is None and r.lp_member is None
            assert r.tau_member == r.base_locus_member == (r.subvariety in rep.members)

    def test_explicit_ample_matches_default(self):
        fan, ph, e = blowup_lab()
        assert non_nef_locus(fan, ph + e, ample=fan.ample) == non_nef_locus(fan, ph + e)

    @pytest.mark.parametrize("name, coeffs", [("p2", (1, 0, -1)), ("f1", (0, 0, 2, 1)),
                                              ("p3", (1, 0, 0, 0))])
    def test_one_phase_one_per_polytope(self, name, coeffs, polytopes):
        fan = builtin_fan(name)   # built first: fan validation runs an LP of its own
        del polytopes[:]
        non_nef_locus(fan, divisor(*coeffs))
        # one for classifying D, and one tableau of P_{D + eps*A} walked by
        # the order LPs of every subvariety down the whole eps schedule
        assert len(polytopes) == 1 + 1
        del polytopes[:]
        non_nef_locus(fan, divisor(*coeffs), ample=fan.ample)
        assert len(polytopes) == 1 + 1

    def test_tau_level_below_the_order_bound_names_the_cap(self):
        # big D with sigma_V(3)(D) = 1/8: tau(m||D||) is only known to vanish
        # along V(3) from m = ceil(1 / (1/8)) = 8 on
        fan = builtin_fan("f1")
        d = divisor(Fraction(-1, 2), Fraction(7, 4), Fraction(-3, 4), Fraction(11, 8))
        with pytest.raises(ResourceLimitError, match=r"V\(3\).* level 8 .*tau_level_cap=4"):
            non_nef_locus(fan, d)
        with pytest.raises(ResourceLimitError, match="tau_level_cap=7"):
            non_nef_locus(fan, d, tau_level_cap=7)
        rep = non_nef_locus(fan, d, tau_level_cap=8)
        assert rep.certified and rep.status == "pseudo-effective-not-nef"
        assert rep.positive_sigma == ((E_SUB, Fraction(1, 8)),)

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_single_tau_level_matches_every_level_up_to_the_cap(self, cap):
        """tau_member is the rule it replaced: tau(m||D||), or tau_+ when D
        is not big, vanishes along Z for some m <= tau_level_cap.  Where the
        methods disagree, that rule finds no vanishing at the named Z either."""
        kinds = Counter()
        for name in FANS:
            fan = builtin_fan(name)
            rng = random.Random(31)
            for _ in range(12):
                d = ToricDivisor(tuple(rng.randint(-1, 2) for _ in fan.rays))
                cls = classify_divisor(fan, d)
                if not cls.pseudo_effective:
                    continue
                tau_at = tau_toric if cls.big else tau_plus_toric
                levels = {cone: [tau_at(fan, d, m, cone).ideal for m in range(1, cap + 1)]
                          for cone in fan.max_cones}

                def old_rule(sub):
                    cone, positions = fan.chart_for(sub)
                    z = CoordinateSubvariety(positions)
                    return any(ord_along(t, z) >= 1 for t in levels[cone])

                try:
                    rep = non_nef_locus(fan, d, tau_level_cap=cap)
                except (ContractError, ResourceLimitError) as exc:
                    [named] = [s for s in fan.invariant_subvarieties()
                               if f" at {s} for" in str(exc)]
                    assert "tau-vanishing is False" in str(exc) and not old_rule(named)
                    # the cap, not the code, is named only where the order bound applies
                    assert isinstance(exc, ContractError) or cls.big
                    kinds[cls.big, "disagreement"] += 1
                    continue
                kinds[cls.big, rep.status] += 1
                for r in rep.cross_checks:
                    assert r.tau_member == old_rule(r.subvariety)
        assert {(big, status) for big in (True, False)
                for status in ("nef", "pseudo-effective-not-nef")} <= set(kinds)

    @pytest.mark.parametrize("name, coeffs, kind, status", [
        ("f2", (0, 1, 0, 2), "tau", "pseudo-effective-not-nef"),
        ("f1", (0, 0, 0, 1), "tau_+", "pseudo-effective-not-nef"),
        ("p3", (1, 0, 0, 0), "tau", "nef"),
    ], ids=["big", "not-big", "p3"])
    def test_one_tau_evaluation_per_chart(self, name, coeffs, kind, status, monkeypatch):
        fan, d = builtin_fan(name), divisor(*coeffs)
        calls = []   # (evaluator, exponent, chart) of the calls non_nef_locus makes
        tau_toric_, tau_plus_ = toric.tau_toric, toric._tau_plus

        def counting_tau(fan_, d_, lam, cone, *args):
            if d_ == d:   # not the perturbed divisors of _tau_plus
                calls.append(("tau", lam, cone))
            return tau_toric_(fan_, d_, lam, cone, *args)

        def counting_plus(perturbations, lam, cone, *args):
            calls.append(("tau_+", lam, cone))
            return tau_plus_(perturbations, lam, cone, *args)

        monkeypatch.setattr(toric, "tau_toric", counting_tau)
        monkeypatch.setattr(toric, "_tau_plus", counting_plus)
        assert non_nef_locus(fan, d, tau_level_cap=3).status == status
        charts = sorted({fan.chart_for(s)[0] for s in fan.invariant_subvarieties()})
        assert calls == [(kind, 3, cone) for cone in charts]


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


def _random_integer_systems(seed, count):
    """(rows, n) in dimensions 1-3: each coordinate between a lower bound in
    -2..1 and an upper bound in 1..4, plus one or two rows with mostly
    positive coefficients, so that empty, unit, principal and
    non-principal staircases all occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 4)
        rows = []
        for j in range(n):
            unit = tuple(int(k == j) for k in range(n))
            rows.append((unit, rng.randrange(-2, 2)))
            rows.append((tuple(-u for u in unit), -rng.randrange(1, 5)))
        for _ in range(rng.randrange(1, 3)):
            rows.append((tuple(rng.choice((-1, 0, 1, 1, 2, 3)) for _ in range(n)),
                         rng.randrange(-2, 7)))
        yield rows, n


class TestLatticeStaircase:
    def test_random_systems_match_enumeration(self):
        shapes = set()
        for rows, n in _random_integer_systems(3, 100):
            got = _lattice_minimals_rec(rows, n)
            assert got == lattice_minimals_by_enumeration(rows, n), rows
            shapes.add("empty" if not got else "unit" if got == {(0,) * n}
                       else "principal" if len(got) == 1 else "staircase")
            if got and rows[0][1] < 0:
                shapes.add("first range below 0")
        assert shapes == {"empty", "unit", "principal", "staircase", "first range below 0"}

    def test_chart_systems_match_enumeration(self):
        rng = random.Random(7)
        for name in ("p2", "p1xp1", "f1", "f2", "p3"):
            fan = builtin_fan(name)
            for _ in range(2):
                d = ToricDivisor(tuple(rng.randrange(-1, 3) for _ in fan.rays))
                for level in (1, 2, 3, 4):
                    for cone in fan.max_cones:
                        rows = _chart_system(fan, d, level, cone)
                        assert (_lattice_minimals_rec(rows, fan.dim)
                                == lattice_minimals_by_enumeration(rows, fan.dim)), (name, d)


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


class TestAnyDimension:
    def test_p1_builds(self):
        fan = Fan([(1,), (-1,)], [(0,), (1,)])
        assert fan.picard_number == 1 and classify_divisor(fan, divisor(1, 0)).ample
        assert non_nef_locus(fan, divisor(1, -1)).status == "nef"

    def test_single_ray_rejected(self):
        with pytest.raises(DomainError, match="completeness"):
            Fan([(1,)], [(0,)])

    @pytest.mark.parametrize("rays, cones", [
        cycle_times_lines(TWO_FOLD_CYCLE, 0),
        suspension(*cycle_times_lines(TWO_FOLD_CYCLE, 0)),
        cycle_times_lines(TWO_FOLD_CYCLE, 2),
    ], ids=["2d-cycle", "3d-suspension", "4d-cycle-times-p1xp1"])
    def test_two_fold_cover_rejected(self, rays, cones):
        with pytest.raises(DomainError, match="the cones overlap"):
            Fan(rays, cones)

    def test_four_dimensional_gap_rejected(self):
        rays, cones = projective_space(4)
        with pytest.raises(DomainError, match="completeness failure: facet"):
            Fan(rays, cones[1:])

    def test_dimension_above_the_bound_rejected(self):
        with pytest.raises(DomainError, match="between 1 and 4, got 5"):
            Fan(*projective_space(5))

    def test_exceptional_divisor_of_a_blown_up_p4(self):
        fan = Fan(*blow_up_point(*projective_space(4), (0, 1, 2, 3)))
        # pullback of a hyperplane plus the exceptional divisor E = V(5)
        rep = non_nef_locus(fan, divisor(0, 0, 0, 0, 1, 1))
        assert rep.status == "pseudo-effective-not-nef" and rep.certified
        assert rep.positive_sigma == ((InvariantSubvariety((5,)), 1),)

    def test_seeded_sweep_agrees_and_meets_every_status(self):
        p4 = projective_space(4)
        statuses = Counter()
        for data in (p4, product_of_lines(4), blow_up_point(*p4, (0, 1, 2, 3))):
            fan = Fan(*data)
            assert fan.dim == 4 and classify_divisor(fan, fan.ample).ample
            rng = random.Random(1)
            for _ in range(40):
                d = ToricDivisor(tuple(rng.randint(-1, 2) for _ in fan.rays))
                rep = non_nef_locus(fan, d)  # raises unless the three methods agree
                assert rep.certified
                assert (rep.status == "nef") == classify_divisor(fan, d).nef
                assert (rep.status != "not-pseudo-effective") == pseudo_effective_by_eps_lp(
                    fan.rays, d.coefficients, fan.ample.coefficients)
                statuses[rep.status] += 1
        assert set(statuses) == {"nef", "pseudo-effective-not-nef", "not-pseudo-effective"}


def test_non_primitive_ray_rejected():
    with pytest.raises(DomainError, match="primitive"):
        Fan([(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("p, message", [(4, "prime"), (2.5, "characteristic p")],
                         ids=["composite", "float"])
@pytest.mark.parametrize("coefficients", [(-1, 0, 0), (1, 0, 0)],
                         ids=["not-pseudo-effective", "ample"])
def test_non_nef_locus_checks_the_characteristic_first(p, message, coefficients):
    with pytest.raises(DomainError, match=message):
        non_nef_locus(builtin_fan("p2"), divisor(*coefficients), p=p)


@pytest.mark.parametrize("cap", [0, -1, Fraction(2)], ids=["zero", "negative", "fraction"])
def test_non_positive_tau_level_cap_is_domain_error(cap):
    with pytest.raises(DomainError, match="tau_level_cap"):
        non_nef_locus(builtin_fan("f1"), divisor(0, 0, 2, 1), tau_level_cap=cap)


@pytest.mark.parametrize("grid", [(), (0,), (-1,), (0.5,), (True,), (Fraction(1, 8), 0)],
                         ids=["empty", "zero", "negative", "float", "bool", "zero-after-legal"])
def test_eps_grid_must_hold_positive_exact_values(grid):
    with pytest.raises(DomainError, match="^eps_grid must be"):
        non_nef_locus(builtin_fan("f1"), divisor(0, 0, 0, 1), eps_grid=grid)


def test_eps_grid_accepts_ints_fractions_and_an_iterator():
    fan, d = builtin_fan("f1"), divisor(0, 0, 0, 1)
    members = non_nef_locus(fan, d).members
    assert non_nef_locus(fan, d, eps_grid=(1, Fraction(1, 3))).members == members
    assert non_nef_locus(fan, d, eps_grid=iter((Fraction(1, 8), Fraction(1, 16)))).members == members


@pytest.mark.parametrize("level", [-1, 0, 2.5, True])
def test_chart_level_must_be_a_positive_integer(level):
    fan = builtin_fan("p2")
    with pytest.raises(DomainError, match="^level must be a positive integer"):
        chart_ideal(fan, divisor(1, 0, 0), level, (0, 1))
    with pytest.raises(DomainError, match="^level must be a positive integer"):
        base_locus_ord(fan, divisor(1, 0, 0), level, InvariantSubvariety((0,)))


# values that are not an int (a bool is not) or a Fraction
INEXACT = [0.1, 0.5, True, False, "x", "1/2", None, Decimal("0.1"), 1j]


@pytest.mark.parametrize("coefficient", INEXACT)
def test_divisor_coefficients_must_be_exact(coefficient):
    with pytest.raises(DomainError, match="exact rationals"):
        divisor(coefficient, 0, 0)
    with pytest.raises(DomainError, match="exact rationals"):
        ToricDivisor((1, coefficient, Fraction(1, 2)))
    with pytest.raises(DomainError, match="exact rational"):
        divisor(1, 0, 0).scale(coefficient)


@pytest.mark.parametrize("lam, message", [*((v, "an int or a Fraction") for v in INEXACT),
                                         (-1, "non-negative"), (Fraction(-1, 2), "non-negative")])
def test_exponents_must_be_exact_and_non_negative(lam, message):
    a = parse_ideal("p=2; vars=x; gens=[x]")
    for call in (lambda: tau(a, lam),
                 lambda: f_jumping_numbers(a, lam, 12),
                 lambda: tau_toric(builtin_fan("blowup-p2"), divisor(0, 0, 2, 1), lam, (0, 3))):
        with pytest.raises(DomainError, match=f"^exponent must be {message}"):
            call()
