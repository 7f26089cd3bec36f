"""The toric laboratory: the blow-up of the plane, sigma invariants, and
the non-nef locus computed three independent ways.

Run:  python demos/04_toric_non_nef_locus.py
"""

from fractions import Fraction

from nonnef.toric import (InvariantSubvariety, ToricDivisor, asymptotic_ord_toric,
                          base_locus_ord, blowup_lab, builtin_fan,
                          classify_divisor, non_nef_locus, sigma,
                          stable_base_locus, tau_plus_toric, tau_toric)

# The stage: X = blow-up of P^2 at a torus-fixed point.  Ray 3 = (1,1) is
# the exceptional curve E.  H is twice a line downstairs, so that the
# pullback of H minus E is ample.
fan, pullback_h, e = blowup_lab()
d = pullback_h + e
print("fan:", fan, " Picard number:", fan.picard_number)
print("D = pullback(2*line) + E =", d)
print("classification:", classify_divisor(fan, d))
print()

# Along E everything is exactly computable: base loci grow linearly, the
# asymptotic order is the LP value 1, and sigma agrees.
E = InvariantSubvariety((3,))
print("ord_E of |mD| for m = 1..6:",
      [base_locus_ord(fan, d, m, E) for m in range(1, 7)])
print("ord_E(||D||) by exact LP:", asymptotic_ord_toric(fan, d, E))
sg = sigma(fan, d, E)
print("sigma_E(D), the order LP on P_D:", sg.value, f"[{sg.evidence}]")
print()

# Chart test ideals: tau detects the E-multiplicity m, its perturbed
# variant tau_+ sees one less - the two genuinely differ on this divisor.
for m in (1, 2, 3):
    t = tau_toric(fan, d, m, (0, 3))
    tp = tau_plus_toric(fan, d, m, (0, 3))
    print(f"m={m}:  tau(m||D||) = {t.ideal!r}    tau_+(m||D||) = {tp.ideal!r}")
print()

print("stable base locus of D:", stable_base_locus(fan, d).members)
rep = non_nef_locus(fan, d)
print("non-nef locus status:", rep.status)
print("components with sigma > 0:",
      [(str(s), str(v)) for s, v in rep.positive_sigma])
print("all invariant members:", rep.members)
print()

# A second Hirzebruch surface: sweep a few divisors and watch the three
# characterizations (LP sigma, tau vanishing, perturbed base loci) agree.
# Ray 1 carries the negative section; sigma along it can be fractional.
f2 = builtin_fan("f2")
for coeffs in [(1, 0, 1, 0), (0, 1, 0, 0), (1, 1, 0, 1), (0, -1, 1, 0)]:
    r = non_nef_locus(f2, ToricDivisor(coeffs))
    print(f"F_2, D={coeffs}: {r.status:28s}",
          "components:", [(str(s), str(v)) for s, v in r.positive_sigma])
