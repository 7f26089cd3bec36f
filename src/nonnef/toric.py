"""Smooth projective toric varieties: the desk-scale stage.

Everything is driven by the section polytope P_D = {u : <u, v_i> >= -d_i}.
On a complete fan P_D is a rational polytope; its lattice points are the
global sections of O(D), their chart exponents <u, v_i> + d_i generate the
base-locus ideal in that chart, and the asymptotic order of vanishing
along an invariant subvariety is an exact rational linear program.

Characteristic p enters only when chart test ideals are computed; the LP
layer is characteristic-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, inf

from .asymptotic import CoordinateSubvariety, GradedSequence, asymptotic_test_ideal, ord_along
from .caps import DEFAULT_CAPS, Caps
from .errors import ContractError, DomainError
from .frobenius import (EVIDENCE_CAP, EVIDENCE_WINDOW, TestIdealResult,
                        check_lambda, stabilize, worst_evidence)
from .ideal import Ideal, ideal_contains, monomial_ideal, zero_ideal
from .newton import _det, _orthogonal_normal
from .poly import min_antichain, ring
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, Polytope, solve_lp


class Fan:
    """Validated smooth complete projective fan of dimension <= 3.

    Each maximal cone is a chart; `walls(cone)` gives the coordinates of
    every other ray in the cone's basis, the one table from which the
    nef/ample test, the ample witness LP and the chart systems are read.
    The dimension bound comes from the Euler check of `_check_complete`."""

    def __init__(self, rays, max_cones):
        self.rays = tuple(tuple(int(c) for c in v) for v in rays)
        self.dim = len(self.rays[0]) if self.rays else 0
        self.max_cones = tuple(tuple(sorted(c)) for c in max_cones)
        self._walls = {}
        self._sequences = {}
        self._ample = None
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self):
        n = self.dim
        if not (1 <= n <= 3):
            raise ContractError("fan dimension must be 1, 2 or 3")
        if any(len(v) != n for v in self.rays):
            raise ContractError("ray length mismatch")
        if len(set(self.rays)) != len(self.rays):
            raise ContractError("duplicate rays")
        for v in self.rays:
            g = 0
            for c in v:
                g = gcd(g, c)
            if g != 1:
                raise ContractError(f"ray {v} is not a primitive integer vector")
        used = {i for c in self.max_cones for i in c}
        if used != set(range(len(self.rays))):
            raise ContractError("completeness failure: unused or unknown rays")
        for c in self.max_cones:
            if len(c) < n:
                raise ContractError(f"completeness failure: maximal cone {c} is not "
                                    f"full-dimensional")
            if len(c) > n:
                raise ContractError(f"smoothness failure: cone {c} is not simplicial")
            if abs(_det([self.rays[i] for i in c])) != 1:
                raise ContractError(f"smoothness failure: cone {c} has determinant != +-1")
        self._check_complete()
        self._ample = self._find_ample()

    def _check_complete(self):
        n = self.dim
        if n == 1:
            if set(self.rays) != {(1,), (-1,)}:
                raise ContractError("completeness failure: a complete 1-dim fan "
                                    "needs rays (1) and (-1)")
            return
        facets = {}
        for ci, cone in enumerate(self.max_cones):
            for facet in combinations(cone, n - 1):
                facets.setdefault(tuple(facet), []).append(ci)
        for facet, owners in facets.items():
            if len(owners) != 2:
                raise ContractError(f"completeness failure: facet {facet} lies in "
                                    f"{len(owners)} maximal cones (want 2)")
            # the two remaining rays must sit strictly on opposite sides
            normal = _orthogonal_normal([self.rays[i] for i in facet], n)
            sides = []
            for ci in owners:
                (extra,) = [i for i in self.max_cones[ci] if i not in facet]
                s = sum(a * b for a, b in zip(normal, self.rays[extra]))
                if s == 0:
                    raise ContractError(f"completeness failure: cone {self.max_cones[ci]} "
                                        f"degenerate across facet {facet}")
                sides.append(s > 0)
            if sides[0] == sides[1]:
                raise ContractError(f"completeness failure: fan folds at facet {facet}")
        # Euler characteristic of the induced sphere complex
        v, e, f = len(self.rays), len(facets), len(self.max_cones)
        ok = (v == f) if n == 2 else (v - e + f == 2)
        if not ok:
            raise ContractError("completeness failure: Euler characteristic mismatch")
        # connectivity through facets
        seen = {0}
        frontier = [0]
        adjacency = {}
        for owners in facets.values():
            a, b = owners
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        while frontier:
            c = frontier.pop()
            for d in adjacency.get(c, ()):
                if d not in seen:
                    seen.add(d)
                    frontier.append(d)
        if len(seen) != len(self.max_cones):
            raise ContractError("completeness failure: fan support is disconnected")

    def _find_ample(self):
        """An integral ample divisor found by the strict-convexity LP; its
        existence is the projectivity check."""
        nrays = len(self.rays)
        cons = []
        for cone in self.max_cones:
            for j, c in self.walls(cone):
                # d_j - c_j . d_sigma >= 1 is linear in d
                row = [Fraction(0)] * nrays
                row[j] = Fraction(1)
                for ck, i in zip(c, cone):
                    row[i] = Fraction(-ck)
                cons.append((row, Fraction(1)))
        res = solve_lp([0] * nrays, cons, nrays)
        if res.status != OPTIMAL:
            raise ContractError("projectivity failure: no strictly convex "
                                "support function exists")
        scale = 1
        for c in res.point:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        d = ToricDivisor(tuple(Fraction(c * scale) for c in res.point))
        cls = classify_divisor(self, d)
        if not cls.ample:
            raise ContractError("projectivity witness failed the ample check")
        return d

    # -- helpers ----------------------------------------------------------

    def walls(self, cone):
        """(j, c_j) for every ray v_j outside the maximal cone, where c_j are
        the integer coordinates of v_j in the basis of the cone's rays:
        v_j = sum_k c_j[k] * v_{cone[k]}.  Cramer's rule is exact here
        because the cone is unimodular."""
        cone = tuple(sorted(cone))
        if cone not in self._walls:
            basis = [self.rays[i] for i in cone]
            det = _det(basis)
            self._walls[cone] = tuple(
                (j, tuple(_det(basis[:k] + [vj] + basis[k + 1:]) // det
                          for k in range(self.dim)))
                for j, vj in enumerate(self.rays) if j not in cone)
        return self._walls[cone]

    @property
    def picard_number(self):
        return len(self.rays) - self.dim

    @property
    def ample(self):
        return self._ample

    def invariant_subvarieties(self):
        """Every nonempty torus-invariant subvariety, smallest codim first."""
        subs = set()
        for cone in self.max_cones:
            for k in range(1, self.dim + 1):
                subs.update(combinations(cone, k))
        return tuple(InvariantSubvariety(t) for t in sorted(subs, key=lambda t: (len(t), t)))

    def chart_for(self, sub):
        for cone in self.max_cones:
            if set(sub.rays) <= set(cone):
                return cone
        raise DomainError(f"{sub} does not span a cone of the fan")

    def sequence(self, d: "ToricDivisor", cone, p: int) -> "GradedSequence":
        """Memoized chart base-locus sequence; repeated tau evaluations on
        the same divisor then share every computed term."""
        key = (d.coefficients, tuple(sorted(cone)), p)
        if key not in self._sequences:
            self._sequences[key] = toric_sequence(self, d, cone, p)
        return self._sequences[key]

    def polytope_constraints(self, divisor):
        """P_D as rows for the LP layer: <u, v_i> >= -d_i."""
        return [(v, -c) for v, c in zip(self.rays, divisor.coefficients)]

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, cones={len(self.max_cones)})"


def build_fan(rays, max_cones) -> Fan:
    """Validated fan; rejects non-smooth / non-complete / non-projective
    input with a named diagnostic."""
    return Fan(rays, max_cones)


@dataclass(frozen=True)
class ToricDivisor:
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(Fraction(c) for c in self.coefficients))

    def scale(self, k) -> "ToricDivisor":
        return ToricDivisor(tuple(k * c for c in self.coefficients))

    def __add__(self, other) -> "ToricDivisor":
        return ToricDivisor(tuple(a + b for a, b in zip(self.coefficients,
                                                        other.coefficients)))

    def is_integral_at(self, level: int) -> bool:
        return all((level * c).denominator == 1 for c in self.coefficients)

    @property
    def denominator(self) -> int:
        d = 1
        for c in self.coefficients:
            d = d * c.denominator // gcd(d, c.denominator)
        return d

    def __repr__(self):
        from .parsing import format_rational
        return "(" + ",".join(format_rational(c) for c in self.coefficients) + ")"


@dataclass(frozen=True)
class InvariantSubvariety:
    rays: tuple

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(self.rays)))
        if not self.rays:
            raise DomainError("invariant subvariety needs at least one ray")
        if len(set(self.rays)) != len(self.rays):
            raise DomainError(f"invariant subvariety lists a ray twice: {self.rays}")

    @property
    def codim(self) -> int:
        return len(self.rays)

    def __repr__(self):
        return "V(" + ",".join(str(i) for i in self.rays) + ")"


def divisor(*coeffs) -> ToricDivisor:
    return ToricDivisor(tuple(coeffs))


# -- the built-in fan library ----------------------------------------------------

def _p2():
    return build_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def _p1xp1():
    return build_fan([(1, 0), (-1, 0), (0, 1), (0, -1)],
                     [(0, 2), (1, 2), (1, 3), (0, 3)])


def _f1():
    # blow-up of P^2 at the point of the cone spanned by rays 0 and 1;
    # ray 3 = (1,1) is the exceptional curve E
    return build_fan([(1, 0), (0, 1), (-1, -1), (1, 1)],
                     [(0, 3), (1, 3), (1, 2), (0, 2)])


def _f2():
    return build_fan([(1, 0), (0, 1), (-1, 2), (0, -1)],
                     [(0, 1), (1, 2), (2, 3), (0, 3)])


def _p3():
    return build_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


_BUILTINS = {"p2": _p2, "p1xp1": _p1xp1, "f1": _f1, "blowup-p2": _f1,
             "f2": _f2, "p3": _p3}
_BUILTIN_CACHE: dict = {}


def builtin_fan(name: str) -> Fan:
    key = name.lower().removeprefix("builtin:")
    if key not in _BUILTINS:
        raise DomainError(f"unknown builtin fan {name!r}; have "
                          f"{sorted(set(_BUILTINS))}")
    if key not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[key] = _BUILTINS[key]()
    return _BUILTIN_CACHE[key]


def blowup_lab():
    """The blow-up of P^2 with the named divisors of the worked example:
    H = 2*line on the base (so pullback(H) - E is ample), E exceptional."""
    fan = builtin_fan("f1")
    pullback_h = divisor(0, 0, 2, 0)
    e = divisor(0, 0, 0, 1)
    return fan, pullback_h, e


# -- classification ----------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    ample: bool
    nef: bool
    big: bool
    pseudo_effective: bool
    effective: bool


def _check_length(fan: Fan, d: ToricDivisor):
    if len(d.coefficients) != len(fan.rays):
        raise DomainError(f"divisor {d} has {len(d.coefficients)} coefficients, "
                          f"but the fan has {len(fan.rays)} rays")


def classify_divisor(fan: Fan, d: ToricDivisor) -> Classification:
    _check_length(fan, d)
    nef = True
    ample = True
    coeffs = d.coefficients
    for cone in fan.max_cones:
        # the slack of ray j over the chart's support function: d_j - c_j . d_sigma
        for j, c in fan.walls(cone):
            slack = coeffs[j] - sum(ck * coeffs[i] for ck, i in zip(c, cone))
            if slack < 0:
                nef = ample = False
            elif slack == 0:
                ample = False
        if not nef:
            break
    cons = fan.polytope_constraints(d)
    n = fan.dim
    effective = Polytope(cons, n).feasible
    # big: the section polytope has positive inradius in the l_inf sense
    big_cons = [(tuple(a) + (-1,), b) for a, b in cons]
    big_res = solve_lp([0] * n + [-1], big_cons, n + 1)
    big = big_res.status == OPTIMAL and -big_res.value > 0
    if big_res.status == UNBOUNDED:
        raise ContractError("section polytope unbounded: fan is not complete")
    # pseudo-effective: P_{D + eps*A} nonempty for every eps > 0
    amp = fan.ample.coefficients if fan.ample is not None else (1,) * len(fan.rays)
    eps_cons = [(tuple(a) + (amp[i],), b)
                for i, (a, b) in enumerate(cons)]
    eps_res = solve_lp([0] * n + [1], eps_cons, n + 1)
    pseudo = eps_res.status == UNBOUNDED or (eps_res.status == OPTIMAL
                                             and eps_res.value <= 0)
    return Classification(ample, nef, big, pseudo, effective)


# -- lattice staircases of section polytopes ---------------------------------------

def _fm_first_range(cons, n):
    """Integer range [lo, hi] of the first coordinate over the rational
    polytope {w : c.w >= r} (integer data), via Fourier-Motzkin.  None when
    the projection is empty; ContractError when unbounded."""
    work = [(tuple(c), r) for c, r in cons]
    for var in range(n - 1, 0, -1):
        pos, neg, zero = [], [], []
        for c, r in work:
            (pos if c[var] > 0 else neg if c[var] < 0 else zero).append((c, r))
        combined = []
        for cp, rp in pos:
            for cn, rn in neg:
                f_p, f_n = -cn[var], cp[var]
                combined.append((tuple(f_p * a + f_n * b for a, b in zip(cp, cn)),
                                 f_p * rp + f_n * rn))
        work = zero + combined
    lo, hi = None, None
    for c, r in work:
        if c[0] > 0:
            b = -(-r // c[0])          # ceil
            lo = b if lo is None else max(lo, b)
        elif c[0] < 0:
            b = r // c[0]              # floor of r/c with c < 0
            hi = b if hi is None else min(hi, b)
        elif r > 0:
            return None
    if lo is None or hi is None:
        raise ContractError("section polytope unbounded during lattice scan")
    return lo, hi


def _slice(cons, w1):
    out = []
    for c, r in cons:
        rr = r - c[0] * w1
        tail = c[1:]
        if any(tail):
            out.append((tail, rr))
        elif rr > 0:
            return None
    return out


def _lattice_minimals(cons, n):
    """Minimal lattice points of the polytope {w >= 0} cut by integer
    constraints c.w >= r (componentwise order)."""
    cons = [(tuple(int(x) for x in c), int(r)) for c, r in cons]
    for j in range(n):
        cons.append((tuple(1 if k == j else 0 for k in range(n)), 0))
    return _lattice_minimals_rec(cons, n)


def _lattice_minimals_rec(cons, n):
    if n == 0:
        return frozenset() if any(r > 0 for _, r in cons) else frozenset([()])
    rng = _fm_first_range(cons, n)
    if rng is None:
        return frozenset()
    lo, hi = rng
    out = set()
    for w1 in range(max(0, lo), hi + 1):
        sliced = _slice(cons, w1)
        if sliced is None:
            continue
        for tail in _lattice_minimals_rec(sliced, n - 1):
            out.add((w1,) + tail)
    return min_antichain(out)


def _lattice_feasible(cons, n) -> bool:
    """Is there an integer point w >= 0 with c.w >= r for all constraints?"""
    cons = [(tuple(int(x) for x in c), int(r)) for c, r in cons]
    for j in range(n):
        cons.append((tuple(1 if k == j else 0 for k in range(n)), 0))
    return _lattice_feasible_rec(cons, n)


def _lattice_feasible_rec(cons, n) -> bool:
    if n == 0:
        return all(r <= 0 for _, r in cons)
    rng = _fm_first_range(cons, n)
    if rng is None:
        return False
    lo, hi = rng
    for w1 in range(max(0, lo), hi + 1):
        sliced = _slice(cons, w1)
        if sliced is not None and _lattice_feasible_rec(sliced, n - 1):
            return True
    return False


def _chart_system(fan: Fan, d: ToricDivisor, level: int, cone):
    """Integer constraints (coeff, rhs) in chart coordinates w, meaning
    coeff.w >= rhs, cutting the section polytope of |level*D| out of the
    orthant w >= 0 (the orthant rows themselves are left implicit).

    Chart exponents of a section u are w_i = <u, v_i> + level*d_i over the
    cone's rays; that change of coordinates is unimodular-affine, so
    lattice points map to lattice points.  Each wall (j, c_j) of the cone
    gives the row w_j = c_j . w - level*(c_j . d_sigma - d_j) >= 0."""
    _check_length(fan, d)
    if not d.is_integral_at(level):
        raise DomainError(f"{level}*D is not an integral divisor")
    ld = [int(level * c) for c in d.coefficients]
    return [(c, sum(ck * ld[i] for ck, i in zip(c, cone)) - ld[j])
            for j, c in fan.walls(cone)]


def chart_ideal(fan: Fan, d: ToricDivisor, level: int, cone, p: int = 2) -> Ideal:
    """The base-locus ideal of |level*D| restricted to the chart of `cone`,
    as a monomial ideal in F_p[x_i : i in cone]: the minimal lattice points
    of the chart-coordinate section system generate."""
    cone = tuple(sorted(cone))
    if cone not in fan.max_cones:
        raise DomainError("chart must be a maximal cone")
    gens = _lattice_minimals(_chart_system(fan, d, level, cone), fan.dim)
    amb = ring(p, *[f"x{i}" for i in cone])
    if not gens:
        return zero_ideal(amb)
    return monomial_ideal(amb, gens)


def _face_has_section(fan: Fan, d: ToricDivisor, level: int, cone,
                      positions) -> bool:
    """Is there a section of |level*D| not vanishing along the subvariety
    whose chart coordinates are `positions`?  Equivalently: a lattice point
    of the chart system with w_p = 0 at each of those positions."""
    cons = _chart_system(fan, d, level, cone)
    keep = [i for i in range(fan.dim) if i not in set(positions)]
    reduced = []
    for c, r in cons:
        reduced.append(([c[i] for i in keep], r))
    return _lattice_feasible(reduced, len(keep))


def base_locus_ord(fan: Fan, d: ToricDivisor, level: int, sub: InvariantSubvariety,
                   p: int = 2):
    """ord of the base-locus ideal of |level*D| along the subvariety; inf
    when the linear system is empty."""
    cone = fan.chart_for(sub)
    a = chart_ideal(fan, d, level, cone, p)
    if a.is_zero():
        return inf
    positions = tuple(cone.index(r) for r in sub.rays)
    return ord_along(a, CoordinateSubvariety(positions))


# -- exact asymptotic orders and sigma ----------------------------------------------

def asymptotic_ord_toric(fan: Fan, d: ToricDivisor, sub: InvariantSubvariety) -> Fraction:
    """ord_Z(||D||) as the exact LP minimum of sum_{i in Z} (<u, v_i> + d_i)
    over the rational section polytope."""
    _check_length(fan, d)
    fan.chart_for(sub)     # DomainError unless the rays of Z span a cone
    return _order_lp(fan, d, Polytope(fan.polytope_constraints(d), fan.dim), sub)


def _order_lp(fan: Fan, d: ToricDivisor, section: Polytope,
              sub: InvariantSubvariety) -> Fraction:
    """asymptotic_ord_toric on `section`, the already built P_D."""
    objective = [Fraction(0)] * fan.dim
    const = Fraction(0)
    for i in sub.rays:
        for k in range(fan.dim):
            objective[k] += fan.rays[i][k]
        const += d.coefficients[i]
    res = section.minimize(objective)
    if res.status == INFEASIBLE:
        raise DomainError("no pluri-sections: the section polytope is empty")
    if res.status != OPTIMAL:
        raise ContractError("order LP cannot be unbounded on a complete fan")
    return res.value + const


@dataclass(frozen=True)
class SigmaResult:
    value: object          # exact rational limit, or None if cap-reached
    samples: tuple         # ((eps, ord value), ...) evidence
    evidence: str


def sigma(fan: Fan, d: ToricDivisor, sub: InvariantSubvariety,
          ample: ToricDivisor = None, caps: Caps = DEFAULT_CAPS) -> SigmaResult:
    """sigma_Z(D) = lim of ord_Z(||D + eps*A||) for eps -> 0 along 1/2^k.

    The LP value is piecewise linear and convex in eps, so caps.window + 2
    consecutive collinear samples (four by default) pin the final linear
    piece and the limit at 0 is its exact extrapolation."""
    cls = classify_divisor(fan, d)
    fan.chart_for(sub)     # DomainError unless the rays of Z span a cone
    if not cls.pseudo_effective:
        raise DomainError("sigma is undefined: divisor is not pseudo-effective "
                          "(the non-nef locus is everything)")
    return _sigma_samples(fan, d, sub, _perturbation(fan, ample), caps, {})


def _perturbation(fan: Fan, ample) -> ToricDivisor:
    """The perturbation divisor A: the fan's own ample divisor by default,
    else `ample` once it passes the ample check."""
    if ample is None:
        return fan.ample
    if not classify_divisor(fan, ample).ample:
        raise DomainError("perturbation divisor must be ample")
    return ample


def _sigma_samples(fan: Fan, d: ToricDivisor, sub: InvariantSubvariety,
                   a: ToricDivisor, caps: Caps, sections: dict) -> SigmaResult:
    """The sigma schedule; `sections` maps eps to the section polytope of
    D + eps*A and is filled on demand, so callers that sample many
    subvarieties of one D share every phase 1."""
    samples = []

    def lines():
        # the line (slope, intercept) through each pair of consecutive samples
        eps = Fraction(1, 2)
        for k in range(caps.epsilon_depth):
            perturbed = d + a.scale(eps)
            if eps not in sections:
                sections[eps] = Polytope(fan.polytope_constraints(perturbed), fan.dim)
            val = _order_lp(fan, perturbed, sections[eps], sub)
            if samples and val < samples[-1][1]:
                raise ContractError("ord must not decrease as the ample part shrinks")
            samples.append((eps, val))
            if k:
                (e1, f1), (e2, f2) = samples[-2:]
                slope = (f2 - f1) / (e2 - e1)
                yield k, (slope, f2 - slope * e2)
            eps /= 2

    # the value is convex in eps, so slopes cannot increase as eps shrinks
    line, _, stable = stabilize(lines(), caps.window, lambda prev, cur: cur[0] <= prev[0])
    if not stable:
        return SigmaResult(None, tuple(samples), EVIDENCE_CAP)
    return SigmaResult(line[1], tuple(samples), EVIDENCE_WINDOW)


# -- stable base loci ----------------------------------------------------------------

@dataclass(frozen=True)
class StableBaseLocusReport:
    members: tuple          # invariant subvarieties in B(D)
    levels: tuple           # levels inspected
    certified: bool         # caps.window consecutive levels repeated the member set
    everything: bool        # no nonempty |mD| found up to the cap: B(D) = X


def stable_base_locus(fan: Fan, d: ToricDivisor,
                      caps: Caps = DEFAULT_CAPS) -> StableBaseLocusReport:
    """B(D) among invariant subvarieties: Z is a member when every section
    of |level*D| vanishes along Z, for level running over the divisibility
    chain until caps.window consecutive levels repeat the member set.

    Membership is a lattice-emptiness question on the face of the section
    polytope where the chart coordinates of Z vanish; no staircase is
    materialized."""
    subs = fan.invariant_subvarieties()
    r = d.denominator
    levels = []
    any_nonempty = False

    def loci():
        nonlocal any_nonempty
        level = r
        while level <= r * caps.m_cap:
            levels.append(level)
            if not _lattice_feasible(_chart_system(fan, d, level, fan.max_cones[0]),
                                     fan.dim):
                yield level, set(subs)   # empty linear system: everything is base locus
            else:
                any_nonempty = True
                current = set()
                for sub in subs:
                    cone = fan.chart_for(sub)
                    positions = tuple(cone.index(i) for i in sub.rays)
                    if not _face_has_section(fan, d, level, cone, positions):
                        current.add(sub)
                yield level, current
            level *= 2

    locus, _, stable = stabilize(loci(), caps.window, lambda prev, cur: cur <= prev)
    return StableBaseLocusReport(_sorted_subs(locus or ()), tuple(levels),
                                 stable, not any_nonempty)


def _sorted_subs(subs):
    return tuple(sorted(subs, key=lambda s: (s.codim, s.rays)))


# -- chart test ideals ----------------------------------------------------------------

def toric_sequence(fan: Fan, d: ToricDivisor, cone, p: int) -> GradedSequence:
    """The graded sequence m -> base-locus ideal of |mD| on the chart,
    zero at levels where mD is not integral."""
    cone = tuple(sorted(cone))
    amb = ring(p, *[f"x{i}" for i in cone])

    def rule(m: int) -> Ideal:
        if not d.is_integral_at(m):
            return zero_ideal(amb)
        return chart_ideal(fan, d, m, cone, p)

    return GradedSequence.from_rule(amb, rule, name=f"sections{cone}")


def tau_toric(fan: Fan, d: ToricDivisor, lam, cone, p: int = 2,
              caps: Caps = DEFAULT_CAPS) -> TestIdealResult:
    """tau(lam * ||D||) restricted to the chart of `cone`, over F_p."""
    lam = check_lambda(lam)
    cone = tuple(sorted(cone))
    if cone not in fan.max_cones:
        raise DomainError("chart must be a maximal cone")
    seq = fan.sequence(d, cone, p)
    return asymptotic_test_ideal(seq, lam, caps)


def tau_plus_toric(fan: Fan, d: ToricDivisor, lam, cone,
                   ample: ToricDivisor = None, p: int = 2,
                   caps: Caps = DEFAULT_CAPS) -> TestIdealResult:
    """tau_+(lam * ||D||): the minimal chart test ideal among small ample
    perturbations, computed along eps = 1/2^k until two consecutive agree."""
    lam = check_lambda(lam)
    if not classify_divisor(fan, d).pseudo_effective:
        raise DomainError("tau_+ needs a pseudo-effective divisor")
    return _tau_plus(fan, d, lam, cone, _perturbation(fan, ample), p, caps)


def _tau_plus(fan: Fan, d: ToricDivisor, lam, cone, a: ToricDivisor, p: int,
              caps: Caps) -> TestIdealResult:
    """tau_plus_toric for a pseudo-effective D and a checked ample A."""
    evidences = []

    def members():
        eps = Fraction(1, 2)
        for k in range(1, caps.epsilon_depth + 1):
            perturbed = d + a.scale(eps)
            # past the first eps, a perturbation with no nonzero term up to
            # m_cap ends the schedule; the first one raises in tau_toric
            if k > 1 and fan.sequence(perturbed, cone, p).first_nonzero(caps.m_cap) is None:
                return
            r = tau_toric(fan, perturbed, lam, cone, p, caps)
            evidences.append(r.evidence)
            yield k, r.ideal
            eps /= 2

    # stop at the first repeat (window 1): honouring caps.window here would
    # run one more asymptotic chain per call
    ideal, first_k, stable = stabilize(
        members(), 1, lambda prev, cur: ideal_contains(prev, cur, caps))
    return TestIdealResult(ideal, first_k, worst_evidence(
        EVIDENCE_WINDOW if stable else EVIDENCE_CAP, *evidences))


# -- the non-nef locus ----------------------------------------------------------------

@dataclass(frozen=True)
class MethodRecord:
    subvariety: InvariantSubvariety
    sigma_value: object
    lp_member: bool
    tau_member: bool
    base_locus_member: bool
    evidence: str


@dataclass(frozen=True)
class NonNefReport:
    divisor: ToricDivisor
    status: str                    # nef | pseudo-effective-not-nef | not-pseudo-effective
    positive_sigma: tuple          # maximal members only: ((subvariety, sigma), ...)
    members: tuple                 # every invariant subvariety in B_-(D)
    cross_checks: tuple            # per-subvariety MethodRecord
    certified: bool
    # B_- is reported as the finite union of the detected invariant
    # subvarieties; no claim of Zariski-closedness beyond that union.


def non_nef_locus(fan: Fan, d: ToricDivisor, p: int = 2,
                  caps: Caps = DEFAULT_CAPS, ample: ToricDivisor = None,
                  eps_grid=(Fraction(1, 8), Fraction(1, 16)),
                  tau_level_cap: int = 4) -> NonNefReport:
    """Compute B_-(D) three independent ways for every invariant
    subvariety and require agreement:

      1. the exact LP sigma invariant (positive iff member),
      2. vanishing of the chart test ideals tau(||mD||) (big case) or
         tau_+(m||D||) (pseudo-effective case) for some m <= tau_level_cap,
      3. membership in the stable base locus of D + eps*A on a shrinking
         eps grid.

    Disagreement raises: the three characterizations are theorems, so a
    mismatch is an implementation bug, not data."""
    a = _perturbation(fan, ample)
    cls = classify_divisor(fan, d)
    if not cls.pseudo_effective:
        return NonNefReport(d, "not-pseudo-effective", (), (), (), True)
    subs = fan.invariant_subvarieties()

    # method 2 once per chart: tau ideals at integer exponents
    charts = sorted({fan.chart_for(s) for s in subs})
    tau_by_chart = {}
    evidences = []
    for cone in charts:
        ideals = []
        for m in range(1, tau_level_cap + 1):
            if cls.big:
                r = tau_toric(fan, d, m, cone, p, caps)
            else:
                r = _tau_plus(fan, d, m, cone, a, p, caps)
            evidences.append(r.evidence)
            ideals.append(r.ideal)
        tau_by_chart[cone] = ideals

    # method 3 once per eps
    sbl_members = {}
    for eps in sorted(eps_grid, reverse=True):
        rep = stable_base_locus(fan, d + a.scale(eps), caps)
        if not rep.certified:
            evidences.append(EVIDENCE_CAP)
        sbl_members[eps] = set(rep.members)
    grid = sorted(eps_grid, reverse=True)
    for big_eps, small_eps in zip(grid, grid[1:]):
        if not sbl_members[big_eps] <= sbl_members[small_eps]:
            raise ContractError("perturbed base loci must grow as eps shrinks")
    finest = sbl_members[grid[-1]]

    # method 1: the order LPs of every subvariety share each P_{D + eps*A}
    sections = {}
    records = []
    members = []
    sigma_of = {}
    for sub in subs:
        sg = _sigma_samples(fan, d, sub, a, caps, sections)
        if sg.evidence == EVIDENCE_CAP:
            evidences.append(EVIDENCE_CAP)
        lp_member = sg.value is not None and sg.value > 0
        cone = fan.chart_for(sub)
        positions = tuple(cone.index(i) for i in sub.rays)
        z = CoordinateSubvariety(positions)
        tau_member = any(ord_along(t, z) >= 1 for t in tau_by_chart[cone])
        bl_member = sub in finest
        if not (lp_member == tau_member == bl_member):
            hint = ""
            if lp_member and bl_member and not tau_member:
                hint = (f" (no vanishing found among tau levels m <= "
                        f"{tau_level_cap}; a larger tau_level_cap may be needed "
                        f"before suspecting the implementation)")
            raise ContractError(
                f"non-nef membership methods disagree at {sub} for D={d}: "
                f"sigma>0 is {lp_member}, tau-vanishing is {tau_member}, "
                f"perturbed base locus is {bl_member}{hint}")
        records.append(MethodRecord(sub, sg.value, lp_member, tau_member,
                                    bl_member, sg.evidence))
        sigma_of[sub] = sg.value
        if lp_member:
            members.append(sub)

    status = "nef" if not members else "pseudo-effective-not-nef"
    if (status == "nef") != cls.nef:
        raise ContractError("empty non-nef locus must coincide with nefness")
    maximal = [s for s in members
               if not any(o is not s and set(o.rays) < set(s.rays) for o in members)]
    codim1 = [s for s in maximal if s.codim == 1]
    if len(codim1) > fan.picard_number:
        raise ContractError("codimension-one members exceed the Picard number")
    positive = tuple((s, sigma_of[s]) for s in _sorted_subs(maximal))
    certified = EVIDENCE_CAP not in evidences
    return NonNefReport(d, status, positive, _sorted_subs(members),
                        tuple(records), certified)
