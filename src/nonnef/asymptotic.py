"""Graded sequences and asymptotic invariants along coordinate subvarieties.

A coordinate subvariety is V(x_i : i in S) in the current chart; its local
order function has the exact combinatorial form "smallest S-weight of a
term", which is what makes every estimate here exact.  Orders of the zero
ideal are +infinity and poison minima the right way.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .caps import DEFAULT_CAPS, Caps
from .errors import ContractError, DomainError, require_int
from .frobenius import (EVIDENCE_CAP, EVIDENCE_WINDOW, TestIdealResult,
                        check_lambda, stabilize, test_ideal, worst_evidence)
from .ideal import (Ideal, ideal_contains, ideal_power, ideal_product,
                    ideal_sum, zero_ideal)
from .poly import Ring

INFINITY = math.inf


@dataclass(frozen=True)
class CoordinateSubvariety:
    """V(x_i : i in S).  S = all indices is the origin of the chart."""

    indices: tuple

    def __post_init__(self):
        if not self.indices:
            raise DomainError("coordinate subvariety needs a nonempty index set")
        for i in self.indices:
            require_int(i, "subvariety index", 0)
        if len(set(self.indices)) != len(self.indices):
            raise DomainError("duplicate variable indices")

    @property
    def codim(self) -> int:
        return len(self.indices)


def ord_along(a: Ideal, z: CoordinateSubvariety):
    """Largest r with a contained in the r-th power of the ideal of Z, at
    the generic point of Z: the least total S-weight of any generator term.
    Returns +infinity for the zero ideal."""
    if any(i < 0 or i >= a.ring.nvars for i in z.indices):
        raise DomainError("subvariety indices outside the ambient variable range")
    if a.is_zero():
        return INFINITY
    s = set(z.indices)
    return min(min(sum(e for i, e in enumerate(m) if i in s) for m in g.terms)
               for g in a.generators)


class GradedSequence:
    """A rule m -> a_m with a_{m1} * a_{m2} contained in a_{m1+m2}.

    Three construction modes: powers of a fixed ideal, a finite table
    extended multiplicatively (the minimal completion compatible with
    superadditivity), or an arbitrary rule such as toric base-locus ideals.
    Superadditivity is spot-checked lazily: requesting a_m checks every
    split m = m1 + m2 (powers are exempt, where it holds identically).
    """

    def __init__(self, ring: Ring, kind: str, base=None, table=None, rule=None,
                 name: str = ""):
        self.ring = ring
        self.kind = kind
        self.base = base
        self.table = dict(table) if table else None
        self.rule = rule
        self.name = name or kind
        self._terms: dict = {}
        self._validated: set = set()
        self._lock = threading.Lock()

    @classmethod
    def power(cls, base: Ideal) -> "GradedSequence":
        if base.is_zero():
            raise DomainError("power sequence of the zero ideal is identically zero")
        return cls(base.ring, "power", base=base, name="power")

    @classmethod
    def from_table(cls, ring: Ring, table: dict) -> "GradedSequence":
        if not table:
            raise DomainError("table needs indices m >= 1")
        for m in table:
            require_int(m, "table index m")
        if all(a.is_zero() for a in table.values()):
            raise DomainError("graded sequence must have some nonzero term")
        return cls(ring, "table", table=table, name="table")

    @classmethod
    def from_rule(cls, ring: Ring, rule, name: str = "rule") -> "GradedSequence":
        return cls(ring, "rule", rule=rule, name=name)

    def _raw(self, m: int) -> Ideal:
        if m in self._terms:
            return self._terms[m]
        if self.kind == "power":
            value = ideal_power(self.base, m)
        elif self.kind == "rule":
            value = self.rule(m)
        elif m in self.table:
            value = self.table[m]
        else:
            # gap index: minimal multiplicative completion from table entries
            value = zero_ideal(self.ring)
            for k in sorted(self.table):
                if k < m:
                    prev = self._raw(m - k)
                    if not prev.is_zero() and not self.table[k].is_zero():
                        value = ideal_sum(value, ideal_product(self.table[k], prev))
        self._terms[m] = value
        return value

    def term(self, m: int) -> Ideal:
        """a_m, after spot-checking superadditivity on every split of m."""
        value = self._raw(require_int(m, "sequence index m"))
        if self.kind != "power" and m not in self._validated:
            with self._lock:
                for m1 in range(1, m // 2 + 1):
                    left, right = self._raw(m1), self._raw(m - m1)
                    if left.is_zero() or right.is_zero():
                        continue
                    if not ideal_contains(value, ideal_product(left, right)):
                        raise ContractError(
                            f"superadditivity fails at ({m1}, {m - m1}): "
                            f"a_{m1} * a_{m - m1} is not inside a_{m}")
                self._validated.add(m)
        return value

    def first_nonzero(self, m_cap: int):
        for m in range(1, m_cap + 1):
            if not self._raw(m).is_zero():
                return m
        return None

    def __repr__(self):
        return f"GradedSequence({self.name}, {self.ring})"


@dataclass(frozen=True)
class AsymptoticOrdEstimate:
    value_at_cap: object        # Fraction, or inf if a_{m*} = 0
    m_star: int
    upper_bound: object         # running min of ord(a_m)/m, >= the true limit
    exact: bool
    indeterminate: bool = False


def asymptotic_ord(seq: GradedSequence, z: CoordinateSubvariety,
                   m_cap: int) -> AsymptoticOrdEstimate:
    """inf_m ord_Z(a_m)/m sampled up to m_cap; exact for power sequences
    (where it equals ord_Z(a_1) by additivity of ord on products)."""
    require_int(m_cap, "m_cap")
    if seq.kind == "power":
        v = ord_along(seq.base, z)
        value = Fraction(v) if v != INFINITY else INFINITY
        return AsymptoticOrdEstimate(value, 1, value, exact=True)
    best = None
    last_value = None
    last_m = None
    ratios: dict = {}
    for m in range(1, m_cap + 1):
        a_m = seq.term(m)
        if a_m.is_zero():
            continue
        r = Fraction(ord_along(a_m, z), m)
        if m % 2 == 0 and (m // 2) in ratios and r > ratios[m // 2]:
            raise ContractError(
                f"ord ratio increased along the divisibility chain at m={m}")
        ratios[m] = r
        best = r if best is None else min(best, r)
        last_value, last_m = r, m
    if best is None:
        return AsymptoticOrdEstimate(None, m_cap, None, exact=False, indeterminate=True)
    return AsymptoticOrdEstimate(last_value, last_m, best, exact=False)


def asymptotic_test_ideal(seq: GradedSequence, lam, caps: Caps = DEFAULT_CAPS) -> TestIdealResult:
    """Stable member of the ascending chain tau(a_m^{lam/m}) along the
    doubling chain starting at the first nonzero index.

    The returned stabilization index is the chain index m (not a Frobenius
    iterate).  Inner cap flags propagate as the worst evidence seen.
    """
    lam = check_lambda(lam)
    m0 = seq.first_nonzero(caps.m_cap)
    if m0 is None:
        raise DomainError(f"no nonzero term up to the chain cap {caps.m_cap}")
    evidences = []

    def members():
        m = m0
        while m <= caps.m_cap:
            r = test_ideal(seq.term(m), Fraction(lam, m), caps)
            evidences.append(r.evidence)
            yield m, r.ideal
            m *= 2

    ideal, first_m, stable = stabilize(
        members(), caps.window, lambda prev, cur: ideal_contains(cur, prev, caps))
    return TestIdealResult(ideal, first_m, worst_evidence(
        EVIDENCE_WINDOW if stable else EVIDENCE_CAP, *evidences))


# -- executable proposition checks ----------------------------------------------

@dataclass(frozen=True)
class OrderEstimateCheck:
    lhs: object      # ord_Z(tau(a^lam))
    rhs: Fraction    # lam * ord_Z(a) - codim(Z)
    holds: bool
    evidence: str


def check_estimate_order(a: Ideal, z: CoordinateSubvariety, lam,
                         caps: Caps = DEFAULT_CAPS) -> OrderEstimateCheck:
    """The strict lower bound ord_Z(tau(a^lam)) > lam*ord_Z(a) - codim(Z, X);
    guaranteed whenever the tau evaluation carries clean evidence."""
    lam = check_lambda(lam)
    if a.is_zero():
        raise DomainError("estimate-order check requires a nonzero ideal")
    r = test_ideal(a, lam, caps)
    lhs = ord_along(r.ideal, z)
    rhs = lam * ord_along(a, z) - z.codim
    return OrderEstimateCheck(lhs, rhs, lhs > rhs, r.evidence)


@dataclass(frozen=True)
class SandwichRow:
    m: int
    ord_b_over_m: Fraction
    ord_a_over_m: object
    lower_bound: Fraction
    upper_ok: bool
    lower_ok: bool
    evidence: str


@dataclass(frozen=True)
class SandwichReport:
    rows: tuple
    all_hold: bool   # over rows with clean evidence


def check_compute_test(seq: GradedSequence, z: CoordinateSubvariety, m_cap: int,
                       caps: Caps = DEFAULT_CAPS) -> SandwichReport:
    """Sandwich linking the orders of a_bullet and of its asymptotic test
    ideals b_m = tau(a_bullet^m):

        ord_Z(b_m)/m <= ord_Z(a_m)/m   and
        ord_Z(b_m)/m  > ord_Z(a_M)/M - codim/m

    where a_M is the term at which the inner chain for b_m stabilized."""
    rows = []
    m = 1
    while m <= m_cap:
        a_m = seq.term(m)
        if a_m.is_zero():
            m *= 2
            continue
        b = asymptotic_test_ideal(seq, m, caps)
        big_m = b.stabilization_e
        ord_b = ord_along(b.ideal, z)
        ratio_b = Fraction(ord_b, m) if ord_b != INFINITY else INFINITY
        ord_a = ord_along(a_m, z)
        ratio_a = Fraction(ord_a, m) if ord_a != INFINITY else INFINITY
        lower = Fraction(ord_along(seq.term(big_m), z), big_m) - Fraction(z.codim, m)
        rows.append(SandwichRow(m, ratio_b, ratio_a, lower,
                                upper_ok=ratio_b <= ratio_a,
                                lower_ok=ratio_b > lower,
                                evidence=b.evidence))
        m *= 2
    clean = [r for r in rows if r.evidence != EVIDENCE_CAP]
    return SandwichReport(tuple(rows), all(r.upper_ok and r.lower_ok for r in clean))


@dataclass(frozen=True)
class AsymptoticPropsCheck:
    monotone_holds: bool          # tau(a^lam) inside tau(a^mu) for lam >= mu
    power_subadditive_holds: bool  # tau(a^{m lam}) inside tau(a^lam)^m
    comparison_holds: object      # c*a_m inside b_m  =>  tau(a^lam) inside tau(b^lam); None if skipped
    evidence: str                 # worst evidence of the asymptotic test ideals


#: Levels m at which check_asymptotic_props checks its precondition c*a_m inside b_m.
_COMPARISON_LEVELS = 8


def check_asymptotic_props(seq: GradedSequence, seq2, c, lam, mu, m: int,
                           caps: Caps = DEFAULT_CAPS) -> AsymptoticPropsCheck:
    """Containments satisfied by asymptotic test ideals; each is guaranteed
    whenever the asymptotic test ideals carry clean evidence.  The
    comparison is checked only when `seq2` and `c` are given."""
    lam, mu = check_lambda(lam), check_lambda(mu)
    if lam < mu:
        raise DomainError("monotonicity check needs lam >= mu")
    t_lam = asymptotic_test_ideal(seq, lam, caps)
    t_mu = asymptotic_test_ideal(seq, mu, caps)
    t_mlam = asymptotic_test_ideal(seq, m * lam, caps)
    evidences = [t_lam.evidence, t_mu.evidence, t_mlam.evidence]
    monotone = ideal_contains(t_mu.ideal, t_lam.ideal, caps)
    subadd = ideal_contains(ideal_power(t_lam.ideal, m, caps), t_mlam.ideal, caps)

    comparison = None
    if seq2 is not None and c is not None:
        if c.is_zero():
            raise DomainError("comparison ideal c must be nonzero")
        for k in range(1, _COMPARISON_LEVELS + 1):
            if not ideal_contains(seq2.term(k), ideal_product(c, seq.term(k)), caps):
                raise DomainError(f"precondition c*a_m inside b_m fails at m={k}")
        t2 = asymptotic_test_ideal(seq2, lam, caps)
        evidences.append(t2.evidence)
        comparison = ideal_contains(t2.ideal, t_lam.ideal, caps)
    return AsymptoticPropsCheck(monotone, subadd, comparison, worst_evidence(*evidences))
