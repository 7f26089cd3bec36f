"""Cross-cutting invariant suites: perturbed test ideals, non-nef set
identities, semicontinuity probes, and algebra laws under hypothesis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonnef.verify as verify_mod
from nonnef import (Caps, ContractError, DomainError, Ideal, ceil_split,
                    frobenius_root, ideal_contains, parse_poly, ring)
from nonnef.frobenius import test_ideal as tau
from nonnef.groebner import buchberger, normal_form
from nonnef.ideal import ideal_product, monomial_ideal
from nonnef.poly import Polynomial, min_antichain
from nonnef.toric import (ToricDivisor, asymptotic_ord_toric, base_locus_ord,
                          blowup_lab, builtin_fan, classify_divisor,
                          non_nef_locus, sigma, stable_base_locus,
                          tau_plus_toric)
from nonnef.verify import run_suite
from oracles import minimal_elements

R3 = ring(3, "x", "y")


def _psef_divisors(fan, rng, count, lo=-1, hi=3):
    out = []
    guard = 0
    while len(out) < count and guard < 40 * count:
        guard += 1
        d = ToricDivisor(tuple(rng.randrange(lo, hi + 1) for _ in fan.rays))
        if classify_divisor(fan, d).pseudo_effective:
            out.append(d)
    return out


class TestTauPlusProperties:
    """Perturbed asymptotic test ideals on toric instances."""

    def setup_method(self):
        self.fan, ph, e = blowup_lab()
        self.d = ph + e
        self.chart = (0, 3)

    def test_lambda_monotone(self):
        prev = None
        for lam in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
            cur = tau_plus_toric(self.fan, self.d, lam, self.chart).ideal
            if prev is not None:
                assert ideal_contains(prev, cur)
            prev = cur

    def test_adding_nef_enlarges(self):
        nef_b = ToricDivisor((0, 0, 1, 0))  # pullback of a line: nef
        assert classify_divisor(self.fan, nef_b).nef
        for lam in (1, 2):
            small = tau_plus_toric(self.fan, self.d, lam, self.chart).ideal
            large = tau_plus_toric(self.fan, self.d + nef_b, lam, self.chart).ideal
            assert ideal_contains(large, small)

    def test_rational_rescaling(self):
        for lam in (2, 3, Fraction(1, 2)):
            lhs = tau_plus_toric(self.fan, self.d, lam, self.chart).ideal
            rhs = tau_plus_toric(self.fan, self.d.scale(lam), 1, self.chart).ideal
            assert lhs == rhs


class TestNonNefSetIdentities:
    """Set-level consequences of the definition of B_-."""

    def test_scaling_invariance(self):
        fan, ph, e = blowup_lab()
        d = ph + e
        base = non_nef_locus(fan, d).members
        for lam in (2, 3):
            assert non_nef_locus(fan, d.scale(lam)).members == base

    def test_contained_in_stable_base_locus(self):
        rng = random.Random(14)
        for name in ("f1", "f2"):
            fan = builtin_fan(name)
            for d in _psef_divisors(fan, rng, 8):
                bminus = set(non_nef_locus(fan, d).members)
                b = set(stable_base_locus(fan, d).members)
                assert bminus <= b, (name, d)

    def test_subadditive_in_the_divisor(self):
        rng = random.Random(15)
        fan = builtin_fan("f1")
        pairs = _psef_divisors(fan, rng, 12)
        for d1, d2 in zip(pairs[::2], pairs[1::2]):
            lhs = set(non_nef_locus(fan, d1 + d2).members)
            rhs = set(non_nef_locus(fan, d1).members) | \
                set(non_nef_locus(fan, d2).members)
            assert lhs <= rhs, (d1, d2)


class TestBoundedOrderWhenSigmaZero:
    def test_zero_sigma_big_divisor_has_section_free_level(self):
        # on toric data a vanishing sigma forces an actual level with no
        # vanishing along Z (the LP optimum is attained at a lattice point
        # once the level clears the vertex denominators)
        rng = random.Random(16)
        for name in ("f1", "f2"):
            fan = builtin_fan(name)
            for d in _psef_divisors(fan, rng, 6, lo=0, hi=3):
                if not classify_divisor(fan, d).big:
                    continue
                for sub in fan.invariant_subvarieties():
                    if asymptotic_ord_toric(fan, d, sub) == 0:
                        levels = [base_locus_ord(fan, d, m, sub)
                                  for m in (1, 2, 4, 8, 16)]
                        assert 0 in levels, (name, d, sub, levels)


class TestSigmaSemicontinuityProbe:
    def test_liminf_along_segments(self):
        # sample sigma along D + t*G for t -> 0; when the tail of the
        # samples is collinear its extrapolated limit must dominate sigma(D)
        rng = random.Random(17)
        fan = builtin_fan("f1")
        subs = fan.invariant_subvarieties()
        for d in _psef_divisors(fan, rng, 6):
            g = ToricDivisor(tuple(rng.randrange(0, 2) for _ in fan.rays))
            sub = rng.choice(subs)
            base = sigma(fan, d, sub)
            ts = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
            vals = [sigma(fan, d + g.scale(t), sub) for t in ts]
            if base.value is None or any(v.value is None for v in vals):
                continue
            s1 = (vals[1].value - vals[0].value) / (ts[1] - ts[0])
            s2 = (vals[2].value - vals[1].value) / (ts[2] - ts[1])
            if s1 == s2:
                limit = vals[2].value - s2 * ts[2]
                assert limit >= base.value, (d, g, sub)


class TestTauMonotoneInIdeal:
    def test_smaller_ideal_smaller_tau(self):
        rng = random.Random(18)
        for _ in range(25):
            b = monomial_ideal(R3, {tuple(rng.randrange(4) for _ in range(2))
                                    for _ in range(rng.randrange(1, 4))})
            a = ideal_product(b, monomial_ideal(
                R3, {(rng.randrange(1, 3), rng.randrange(1, 3))}))
            for lam in (Fraction(1, 2), 1, 2):
                ta, tb = tau(a, lam), tau(b, lam)
                if "cap-reached" in (ta.evidence, tb.evidence):
                    continue
                assert ideal_contains(tb.ideal, ta.ideal)


class TestToricChartSequenceOrder:
    def test_blowup_sequence_sampled_order_is_one(self):
        from nonnef.asymptotic import CoordinateSubvariety, asymptotic_ord
        fan, ph, e = blowup_lab()
        seq = fan.sequence(ph + e, (0, 3), 2)
        est = asymptotic_ord(seq, CoordinateSubvariety((1,)), 8)
        assert est.upper_bound == 1 and est.value_at_cap == 1


class TestCleanTermsConstructor:
    """Every polynomial built from already clean terms equals the one the
    validating constructor builds from the same terms."""

    @staticmethod
    def _random_poly(rng, amb):
        return Polynomial(amb, {tuple(rng.randrange(5) for _ in range(amb.nvars)):
                                rng.randrange(-3, 8) for _ in range(rng.randrange(1, 5))})

    @staticmethod
    def _assert_canonical(f):
        ref = Polynomial(f.ring, dict(f.terms))
        assert f.key() == ref.key() and hash(f) == hash(ref) and repr(f) == repr(ref)
        if not ref.is_zero():
            assert f.leading_monomial() == ref.leading_monomial()

    def test_fast_paths_match_the_public_constructor(self, monkeypatch):
        # record every polynomial the fast path builds, inside the results
        # and inside the intermediate steps, and check it after the fact:
        # that also catches a terms dict changed after it was handed over
        fast = []
        clean = Polynomial._clean.__func__

        def recording(cls, amb, terms):
            fast.append(clean(cls, amb, terms))
            return fast[-1]

        monkeypatch.setattr(Polynomial, "_clean", classmethod(recording))
        rng = random.Random(19)
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            amb = ring(p, *["x", "y", "z"][:rng.choice([2, 3])])
            f, g, h = (self._random_poly(rng, amb) for _ in range(3))
            e = rng.randrange(1, 3)
            results = [f * g, f.frobenius(p ** e), f ** rng.randrange(0, 2 * p + 2),
                       f.scale_monomial(tuple(rng.randrange(3) for _ in range(amb.nvars))),
                       normal_form(f * g + h, [g, h])]
            if not (f.is_zero() or f.is_constant()):
                results += frobenius_root(Ideal(amb, [f, g * h]), e).generators
            results += buchberger([g, h], 10_000)
            for r in results:
                self._assert_canonical(r)
        assert len(fast) > 1000
        for r in fast:
            self._assert_canonical(r)

    def test_min_antichain_matches_pairwise_minimal_elements(self):
        rng = random.Random(20)
        for _ in range(300):
            n = rng.choice([1, 2, 3])
            points = [tuple(rng.randrange(6) for _ in range(n))
                      for _ in range(rng.randrange(1, 25))]
            assert min_antichain(points) == minimal_elements(points)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.integers(1, 20), st.integers(1, 10),
       st.sampled_from([2, 3, 5, 7]), st.integers(0, 12))
def test_ceil_split_identity_hypothesis(a, b, m, p, e):
    rec = ceil_split(Fraction(a, b), m, p, e)
    assert rec.lhs == rec.rhs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(1, 2)), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(1, 2)), min_size=1, max_size=4))
def test_poly_ring_laws_hypothesis(terms_f, terms_g):
    f = Polynomial(R3, {(i, j): c for i, j, c in terms_f})
    g = Polynomial(R3, {(i, j): c for i, j, c in terms_g})
    h = parse_poly("x + 2*y + 1", R3)
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f * (g * h) == (f * g) * h


@pytest.mark.parametrize("budget", [0, -1, 2.5, True],
                         ids=["zero", "negative", "float", "bool"])
def test_run_suite_rejects_a_budget_below_one(budget):
    with pytest.raises(DomainError, match="budget"):
        run_suite("ceil-identity", 0, budget)


def test_verify_all_runs_the_toric_sweep_once(monkeypatch):
    calls = []

    def counting(fan, d, **kw):
        calls.append(d)
        return non_nef_locus(fan, d, **kw)

    monkeypatch.setattr(verify_mod, "non_nef_locus", counting)
    results = {r.suite: r for r in run_suite("all", 0, 8)}
    assert len(calls) == 8
    assert results["toric-equivalences"].cases == results["picard-bound"].cases == 8


def test_uncertified_toric_report_counts_only_as_skipped(monkeypatch):
    calls = []

    def counting(fan, d, **kw):
        calls.append(d)
        return non_nef_locus(fan, d, **kw)

    monkeypatch.setattr(verify_mod, "non_nef_locus", counting)
    # one eps sample gives sigma no slope, so every pseudo-effective D is capped
    [result] = run_suite("toric-equivalences", 0, 12, Caps(epsilon_depth=1))
    assert result.skipped_cap_flagged > 0 and result.violations == 0
    assert result.cases + result.skipped_cap_flagged == len(calls) == 12


def test_toric_contract_error_is_a_counterexample(monkeypatch):
    def failing(fan, d, **kw):
        raise ContractError("codimension-one members exceed the Picard number")

    monkeypatch.setattr(verify_mod, "non_nef_locus", failing)
    results = run_suite("all", 0, 4)
    assert [r.suite for r in results] == ["subadditivity", "estimate-order",
                                          "asymptotic-props", "toric-equivalences",
                                          "picard-bound", "ceil-identity"]
    for r in results[3:5]:
        assert r.violations == 1 and r.cases == 0
        assert r.counterexample["fan"] == "p2"
        assert r.counterexample["error"] == "codimension-one members exceed the Picard number"
