"""Frobenius roots and test ideals over small prime fields, end to end.

Run:  python demos/01_frobenius_roots_and_test_ideals.py
"""

from fractions import Fraction

from nonnef import (frobenius_power, frobenius_root, mixed_test_ideal,
                    parse_ideal, test_ideal)

# The p-th root of an ideal undoes the bracket power: for a principal
# monomial ideal it is just a floor division on the exponent.
a = parse_ideal("p=2; vars=x,y; gens=[x^3]")
print("ideal:          ", a)
print("bracket power:  ", frobenius_power(a, 1))
print("Frobenius root: ", frobenius_root(a, 1))
print()

# For a genuinely non-monomial generator the root collects the coefficient
# polynomials of the base-q digit decomposition.  Over F_3:
#   x^3 + x*y^3 = (x)^3 * 1 + (y)^3 * x
b = parse_ideal("p=3; vars=x,y; gens=[x^3 + x*y^3]")
print("ideal:          ", b)
print("Frobenius root: ", frobenius_root(b, 1))
print()

# Test ideals: the stable member of the ascending chain of roots of powers.
# Results carry an evidence grade; principal monomial ideals short-circuit
# to an exact closed form.
for text, lam in [
    ("p=2; vars=x; gens=[x]", Fraction(3, 2)),
    ("p=2; vars=x,y; gens=[x, y]", Fraction(2)),
    ("p=2; vars=x,y; gens=[x, y]", Fraction(3, 2)),
    ("p=2; vars=x,y; gens=[x, y]", Fraction(9, 5)),   # stabilizes only at e = 4
    ("p=3; vars=x,y; gens=[x^2, y^3]", Fraction(5, 6)),
]:
    r = test_ideal(parse_ideal(text), lam)
    print(f"tau( {text} , lambda={lam} )")
    print(f"  = {r.ideal!r}   [{r.evidence}, first attained at e={r.stabilization_e}]")
print()

# Mixed test ideals share the same chain mechanics.
m = mixed_test_ideal(parse_ideal("p=2; vars=x,y; gens=[x]"), 1,
                     parse_ideal("p=2; vars=x,y; gens=[y]"), 1)
print("mixed tau((x)^1 (y)^1) =", repr(m.ideal))
