"""Polynomials, ideals, Groebner bases, the text grammar, computation caps."""

import gc
import random
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from nonnef import (ContractError, DomainError, Ideal, PrimeField, ResourceLimitError,
                    ceil_split, f_jumping_numbers, frobenius_power, frobenius_root,
                    groebner_basis, ideal_contains, ideal_equal, ideal_power,
                    ideal_product, mixed_test_ideal, monomial_ideal, parse_ideal,
                    parse_poly, ring, unit_ideal, zero_ideal)
from nonnef.asymptotic import CoordinateSubvariety, GradedSequence, asymptotic_ord, ord_along
from nonnef.caps import DEFAULT_CAPS, Caps
from nonnef.frobenius import test_ideal as tau
from nonnef.groebner import buchberger
from nonnef.ideal import monomial_power_gens
from nonnef.poly import Polynomial, grevlex_key
from nonnef.toric import (InvariantSubvariety, ToricDivisor, asymptotic_ord_toric,
                          base_locus_ord, builtin_fan, chart_ideal, non_nef_locus)
from nonnef.verify import run_suite
from oracles import _power_sums, minimal_by_degree, minimal_elements, multiset_power

CAP_FIELDS = sorted(f.name for f in fields(Caps))

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")


def I(text):
    return parse_ideal(text)


def test_freshman_dream_char2():
    f = parse_poly("x + y", R2)
    assert f * f == parse_poly("x^2 + y^2", R2)


def test_monic():
    f = parse_poly("2*x^2 + y + 3", ring(5, "x", "y"))
    assert repr(f.monic()) == "x^2 + 3*y + 4"
    g = parse_poly("x^2 + 2*y", ring(5, "x", "y"))
    assert g.monic() is g


def test_zeroth_and_first_powers_build_nothing():
    f = parse_poly("x^2 + 2*x*y + y^3", R3)
    assert f ** 1 is f
    assert f ** 0 == Polynomial.one(R3) == parse_poly("0", R3) ** 0
    assert repr(f ** 2) == repr(f * f)


def test_mul_identity():
    f = parse_poly("x^3 + x*y + 1", R3)
    assert f * Polynomial.one(R3) == f


def test_mul_hand_expansion_char3():
    # (x+1)(x+2) = x^2 + 3x + 2 = x^2 + 2 over F_3
    f = parse_poly("x + 1", R3)
    g = parse_poly("x + 2", R3)
    assert f * g == parse_poly("x^2 + 2", R3)


# a variable name must be one the ideal grammar reads back
_UNREADABLE_NAMES = ["2", "y z", "x-1", "x^2", "", "é", "x\n", 1, None]


@pytest.mark.parametrize("names, message", [
    (("x", "x"), "duplicate variable names"),
    (("x", "y", "x"), "duplicate variable names"),
    ((), "at least one variable"),
    *((("x", name), f"variable name {re.escape(repr(name))}") for name in _UNREADABLE_NAMES),
], ids=["duplicate", "later-duplicate", "empty",
        *(f"unreadable-{i}" for i in range(len(_UNREADABLE_NAMES)))])
def test_bad_variable_list_is_domain_error(names, message):
    with pytest.raises(DomainError, match=message):
        ring(2, *names)


def test_grammar_names_round_trip():
    a = monomial_ideal(ring(3, "x_1", "_y", "Z9"), [(1, 0, 2), (0, 1, 0)])
    assert parse_ideal(repr(a)) == a


def test_mul_ambient_mismatch():
    with pytest.raises(ContractError):
        parse_poly("x", R2) * parse_poly("x", R3)


def test_term_count_bound():
    f = parse_poly("x^2 + y + 1", R3)
    g = parse_poly("x*y + 2", R3)
    assert len((f * g).terms) <= len(f.terms) * len(g.terms)


def _seeded_poly(rng, amb, max_exp, nterms):
    return Polynomial(amb, {tuple(rng.randrange(max_exp + 1) for _ in amb.variables):
                            rng.randrange(1, amb.field.p) for _ in range(nterms)})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pow_matches_repeated_multiplication(p):
    amb = ring(p, "x", "y")
    rng = random.Random(p)
    for _ in range(3):
        f = _seeded_poly(rng, amb, 2, rng.randint(2, 3))
        expected = Polynomial.one(amb)
        for n in range(41):
            assert repr(f ** n) == repr(expected)
            expected = expected * f


def test_grevlex_order():
    # graded first, then reverse-lex tie break: x^2 > x*y > y^2 in two vars
    ms = [(0, 2), (2, 0), (1, 1)]
    assert sorted(ms, key=grevlex_key, reverse=True) == [(2, 0), (1, 1), (0, 2)]
    f = parse_poly("y^2 + x*y + x^2", R3)
    assert f.leading_monomial() == (2, 0)


class TestIdealPower:
    def test_square_of_maximal(self):
        a = I("p=2; vars=x,y; gens=[x, y]")
        assert ideal_power(a, 2) == I("p=2; vars=x,y; gens=[x^2, x*y, y^2]")

    def test_zeroth_power_is_unit(self):
        a = I("p=2; vars=x,y; gens=[x, y]")
        assert ideal_power(a, 0) == unit_ideal(R2)
        assert ideal_power(zero_ideal(R2), 0) == unit_ideal(R2)

    def test_pruned_square(self):
        a = I("p=2; vars=x,y; gens=[x^2, y^3]")
        assert ideal_power(a, 2) == I("p=2; vars=x,y; gens=[x^4, x^2*y^3, y^6]")

    def test_matches_multiset_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            gens = {tuple(rng.randrange(4) for _ in range(2)) for _ in range(rng.randrange(1, 4))}
            a = monomial_ideal(R2, gens)
            if a.is_zero():
                continue
            n = rng.randrange(0, 5)
            naive = minimal_elements(
                tuple(map(sum, zip(*c))) if c else (0, 0)
                for c in __import__("itertools").combinations_with_replacement(sorted(a.monomials), n))
            assert ideal_power(a, n).monomials == (naive if n else frozenset([(0, 0)]))

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_repeated_squaring_matches_the_multiset_sums(self, nvars):
        # n up to 12 runs every pattern of up to four binary digits; the
        # generators need not be an antichain
        rng = random.Random(f"power-gens:{nvars}")
        for _ in range(100):
            gens = frozenset(tuple(rng.randrange(4) for _ in range(nvars))
                             for _ in range(rng.randrange(1, 4)))
            n = rng.randrange(13)
            assert monomial_power_gens(gens, n) \
                == minimal_by_degree(_power_sums(gens, n)), (gens, n)

    def test_mixed_call_with_a_monomial_power(self):
        # (x, y)^N at every chain member of the mixed chain
        r = mixed_test_ideal(I("p=5; vars=x,y; gens=[x^2 + y]"), Fraction(1, 2),
                             I("p=5; vars=x,y; gens=[x, y]"), 3)
        assert repr(r.ideal) == "p=5; vars=x,y; gens=[y^2, x*y, x^2]"
        assert (r.stabilization_e, r.evidence) == (1, "window-stable")

    def test_power_additivity_fuzz(self):
        rng = random.Random(11)
        for _ in range(30):
            gens = {tuple(rng.randrange(3) for _ in range(2)) for _ in range(rng.randrange(1, 4))}
            a = monomial_ideal(R2, gens)
            m, n = rng.randrange(0, 4), rng.randrange(0, 4)
            assert ideal_power(a, m + n) == ideal_product(ideal_power(a, m), ideal_power(a, n))

    def test_multi_generator_power_matches_iterated_product(self):
        # n up to 3p + 1 makes the base-p digits of the multiset counts carry;
        # for p > 2 the first generator's leading coefficient is not 1
        rng = random.Random(17)
        for p in (2, 3, 5):
            amb = ring(p, "x", "y")
            for k in (2, 3):
                for _ in range(2):
                    gens = [_seeded_poly(rng, amb, 2, rng.randint(1, 3)) for _ in range(k)]
                    if p > 2 and gens[0].leading_coeff() == 1:
                        gens[0] = gens[0].scale(2)
                    a = Ideal(amb, gens)
                    if a.is_monomial:
                        continue
                    expected = unit_ideal(amb)
                    for n in range(3 * p + 2):
                        power = repr(ideal_power(a, n))
                        assert power == repr(multiset_power(amb, gens, n))
                        assert power == repr(expected)
                        expected = ideal_product(expected, a)

    def test_power_leaves_no_cyclic_garbage(self):
        a = I("p=3; vars=x,y; gens=[x^2 + 2*y, x*y + 1]")
        gc.collect()
        gc.disable()
        try:
            ideal_power(a, 3 * 3 + 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_power_degree_cap(self):
        a = I("p=2; vars=x,y; gens=[x^2 + y, x*y]")
        with pytest.raises(ResourceLimitError, match="power degree 12 exceeds cap 10"):
            ideal_power(a, 6, Caps(power_degree_cap=10))
        assert repr(ideal_power(a, 5, Caps(power_degree_cap=10))) == repr(ideal_power(a, 5))

    def test_power_degree_cap_truncates_the_general_chain(self):
        # degree 3 * 2^e: e = 2 meets the cap 12 exactly, e = 3 exceeds it
        a = I("p=2; vars=x,y; gens=[x^2 + y^3, x*y]")
        full = tau(a, 1)
        assert (full.stabilization_e, full.evidence) == (2, "window-stable")
        capped = tau(a, 1, Caps(power_degree_cap=12))
        assert (capped.stabilization_e, capped.evidence) == (2, "cap-reached")
        assert repr(capped.ideal) == repr(full.ideal)


class TestIdealProduct:
    def test_principal_product(self):
        assert (ideal_product(I("p=2; vars=x,y; gens=[x]"), I("p=2; vars=x,y; gens=[y]"))
                == I("p=2; vars=x,y; gens=[x*y]"))

    def test_unit_is_identity(self):
        a = I("p=2; vars=x,y; gens=[x^2 + y, x*y]")
        assert ideal_product(a, unit_ideal(R2)) == a

    def test_square_equals_power(self):
        a = I("p=2; vars=x,y; gens=[x, y]")
        assert ideal_product(a, a) == ideal_power(a, 2)


class TestGroebner:
    def test_principal(self):
        gb = groebner_basis(I("p=5; vars=x,y; gens=[x]"))
        assert [repr(g) for g in gb.generators] == ["x"]

    def test_one_s_reduction(self):
        for p in (2, 3, 5):
            gb = groebner_basis(parse_ideal(f"p={p}; vars=x,y; gens=[x^2 + y, y]"))
            assert {repr(g) for g in gb.generators} == {"x^2", "y"}

    def test_monomial_ideal_is_its_own_basis(self):
        a = I("p=3; vars=x,y; gens=[x^2, x*y, x^2*y]")
        gb = groebner_basis(a)
        assert gb.generators == a.generators

    def test_idempotent(self):
        a = I("p=3; vars=x,y; gens=[x^2 + y^2, x*y + 1]")
        gb1 = groebner_basis(a)
        gb2 = groebner_basis(gb1)
        assert [g.key() for g in gb1.generators] == [g.key() for g in gb2.generators]

    # the least S-pair budget that buchberger accepts on seeded generators;
    # it pins the pair order (lcm degree, lcm, indices) and the budget check
    LEAST_PAIR_CAP = {0: 21, 1: 28, 2: 6, 3: 45, 4: 15, 5: 21, 6: 10, 9: 45, 10: 21, 13: 105}

    @pytest.mark.parametrize("seed", sorted(LEAST_PAIR_CAP))
    def test_least_pair_cap(self, seed):
        rng = random.Random(f"buchberger:{seed}")
        amb = ring((2, 3, 5)[seed % 3], *("x", "y", "z")[:2 + seed % 2])
        gens = [_seeded_poly(rng, amb, 3, rng.randint(2, 3)) for _ in range(rng.randint(2, 3))]
        cap = self.LEAST_PAIR_CAP[seed]
        assert buchberger(gens, cap)
        with pytest.raises(ResourceLimitError, match="pair budget"):
            buchberger(gens, cap - 1)


class TestContainment:
    def test_divisibility_fast_path(self):
        assert ideal_contains(I("p=2; vars=x,y; gens=[x, y]"),
                              I("p=2; vars=x,y; gens=[x^2, x*y]"))

    def test_strict(self):
        assert not ideal_contains(I("p=2; vars=x,y; gens=[x^2]"),
                                  I("p=2; vars=x,y; gens=[x]"))

    def test_normal_form_zero(self):
        assert ideal_contains(I("p=3; vars=x,y; gens=[x^2, y]"),
                              I("p=3; vars=x,y; gens=[x^2 + y]"))

    def test_zero_and_unit_cases(self):
        a = I("p=2; vars=x,y; gens=[x]")
        assert ideal_contains(a, zero_ideal(R2))
        assert not ideal_contains(zero_ideal(R2), a)
        assert ideal_contains(unit_ideal(R2), a)

    def test_transitivity_fuzz(self):
        rng = random.Random(3)
        for _ in range(40):
            c_gens = {tuple(rng.randrange(4) for _ in range(2)) for _ in range(2)}
            c = monomial_ideal(R2, c_gens)
            b = ideal_product(c, monomial_ideal(R2, {(rng.randrange(3), rng.randrange(3))}))
            a = ideal_product(b, monomial_ideal(R2, {(rng.randrange(3), rng.randrange(3))}))
            # a subset of b subset of c by construction
            assert ideal_contains(b, a) and ideal_contains(c, b)
            assert ideal_contains(c, a)

    def test_equality_is_equivalence(self):
        a = I("p=3; vars=x,y; gens=[x^2 + y, y]")
        b = I("p=3; vars=x,y; gens=[y, x^2]")
        assert ideal_equal(a, b) and ideal_equal(b, a) and ideal_equal(a, a)


class TestGrammar:
    def test_monomial_autodetect(self):
        a = I("p=2; vars=x,y; gens=[x^2, x*y]")
        assert a.is_monomial and a.monomials == frozenset({(2, 0), (1, 1)})

    def test_non_monomial(self):
        a = I("p=3; vars=x,y; gens=[x^3 + x*y^3]")
        assert not a.is_monomial and len(a.generators) == 1

    def test_non_prime_rejected(self):
        with pytest.raises(DomainError, match="prime"):
            I("p=4; vars=x; gens=[x]")

    def test_float_characteristic_rejected(self):
        with pytest.raises(DomainError, match="characteristic p"):
            ring(2.0, "x", "y")

    def test_syntax_error_reports_position(self):
        with pytest.raises(DomainError, match="position"):
            I("p=2; vars=x; gens=[x &]")

    def test_star_optional(self):
        assert I("p=5; vars=x,y; gens=[2x y^2]") == I("p=5; vars=x,y; gens=[2*x*y^2]")

    @pytest.mark.parametrize("text", [
        "p=2; vars=x,y; gens=[x^2, x*y]",
        "p=3; vars=x,y; gens=[x^3 + x*y^3]",
        "p=7; vars=x,y,z; gens=[x*y*z + 5, z^4]",
        "p=2; vars=x; gens=[]",
    ])
    def test_round_trip(self, text):
        a = parse_ideal(text)
        assert parse_ideal(repr(a)) == a

    def test_minimalization_on_construction(self):
        a = I("p=2; vars=x,y; gens=[x, x^2, x*y]")
        assert a.monomials == frozenset({(1, 0)})

    def test_unit_normalization(self):
        a = I("p=3; vars=x; gens=[2, x]")
        assert a.is_unit() and len(a.generators) == 1


def test_unit_ideal_is_built_once_per_ring():
    assert unit_ideal(R2) is unit_ideal(ring(2, "x", "y"))
    assert unit_ideal(R3) is not unit_ideal(R2)


class TestGroebnerCacheValidation:
    def test_groebner_basis_result_runs_no_second_buchberger(self, monkeypatch):
        import nonnef.ideal as ideal_mod
        calls = []

        def counting(generators, pair_cap):
            calls.append(pair_cap)
            return buchberger(generators, pair_cap)

        monkeypatch.setattr(ideal_mod, "buchberger", counting)
        gb = groebner_basis(I("p=3; vars=x,y; gens=[x^2 + y, x*y + 1]"))
        assert len(calls) == 1
        assert gb.groebner() == tuple(buchberger(list(gb.generators), DEFAULT_CAPS.gb_pair_cap))
        assert len(calls) == 1

    def test_zero_ideal_has_no_groebner_basis(self):
        import pytest as _pytest
        with _pytest.raises(DomainError):
            groebner_basis(zero_ideal(R2))

    def test_equal_ideals_share_hash(self):
        a = I("p=3; vars=x,y; gens=[x^2 + y, y]")
        b = I("p=3; vars=x,y; gens=[y, x^2]")
        assert a == b and hash(a) == hash(b)


class TestCaps:
    @pytest.mark.parametrize("field", CAP_FIELDS)
    @pytest.mark.parametrize("value", [0, -1, 2.0])
    def test_every_field_must_be_a_positive_integer(self, field, value):
        with pytest.raises(DomainError, match=field):
            Caps(**{field: value})
        with pytest.raises(DomainError, match=field):
            replace(DEFAULT_CAPS, **{field: value})

    def test_one_is_accepted(self):
        caps = Caps(**{field: 1 for field in CAP_FIELDS})
        assert caps.window == caps.epsilon_depth == 1


# (argument name, least legal value, call with the value under test)
_INTEGER_ARGUMENTS = [
    *((f"cap {field}", 1, lambda v, field=field: Caps(**{field: v}))
      for field in CAP_FIELDS),
    ("denom_bound", 1, lambda v: f_jumping_numbers(I("p=2; vars=x; gens=[x]"), 1, v)),
    ("tau_level_cap", 1, lambda v: non_nef_locus(builtin_fan("p2"), ToricDivisor((1, 0, 0)),
                                                 tau_level_cap=v)),
    ("budget", 1, lambda v: run_suite("ceil-identity", 0, v)),
    ("m", 1, lambda v: ceil_split(1, v, 2, 3)),
    ("e", 0, lambda v: ceil_split(1, 3, 2, v)),
    ("Frobenius iterate e", 0, lambda v: frobenius_root(I("p=2; vars=x,y; gens=[x^5*y^3]"), v)),
    ("Frobenius iterate e", 0, lambda v: frobenius_power(I("p=2; vars=x,y; gens=[x^5*y^3]"), v)),
    ("m_cap", 1, lambda v: asymptotic_ord(GradedSequence.power(I("p=2; vars=x; gens=[x]")),
                                          CoordinateSubvariety((0,)), v)),
    ("characteristic p", 2, lambda v: PrimeField(v)),
    ("ideal power n", 0, lambda v: ideal_power(I("p=2; vars=x,y; gens=[x + y^2, x*y]"), v)),
    ("ideal power n", 0, lambda v: ideal_power(I("p=2; vars=x,y; gens=[x^2, y]"), v)),
    ("sequence index m", 1, lambda v: GradedSequence.power(I("p=2; vars=x; gens=[x]")).term(v)),
    ("level", 1, lambda v: chart_ideal(builtin_fan("f1"), ToricDivisor((0, 0, 0, 1)), v,
                                       (0, 3))),
    ("level", 1, lambda v: base_locus_ord(builtin_fan("f1"), ToricDivisor((0, 0, 0, 1)), v,
                                          InvariantSubvariety((3,)))),
    ("table index m", 1, lambda v: GradedSequence.from_table(
        R2, {v: I("p=2; vars=x,y; gens=[x]")}).term(3)),
    ("subvariety index", 0, lambda v: ord_along(I("p=2; vars=x; gens=[x]"),
                                                CoordinateSubvariety((v,)))),
    ("ray index", 0, lambda v: asymptotic_ord_toric(builtin_fan("p2"), ToricDivisor((1, 0, 0)),
                                                    InvariantSubvariety((v,)))),
]


@pytest.mark.parametrize("bad", ["below", 2.5, True], ids=["below-least", "float", "bool"])
@pytest.mark.parametrize("name, least, call", _INTEGER_ARGUMENTS,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(_INTEGER_ARGUMENTS)])
def test_integer_arguments_follow_one_rule(name, least, call, bad):
    value = least - 1 if bad == "below" else bad
    with pytest.raises(DomainError, match=f"^{name} must be "):
        call(value)
    call(least)  # the least value itself is accepted
