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
from math import gcd, inf, lcm

from .asymptotic import CoordinateSubvariety, GradedSequence, asymptotic_test_ideal, ord_along
from .caps import DEFAULT_CAPS, Caps
from .errors import ContractError, DomainError, ResourceLimitError, require_int
from .field import PrimeField
from .frobenius import (EVIDENCE_CAP, EVIDENCE_CLOSED, EVIDENCE_WINDOW, TestIdealResult,
                        check_lambda, stabilize, worst_evidence)
from .ideal import Ideal, ideal_contains, monomial_ideal, zero_ideal
from .newton import _det, _orthogonal_normal, _primitive
from .poly import mono_divides, ring
from .simplex import INFEASIBLE, OPTIMAL, Polytope, solve_lp


#: Largest fan dimension accepted: `newton._det` expands cofactors, n! terms
#: per determinant, and `Fan.walls` takes n of them for every ray outside
#: every chart.  4 is the largest dimension the tests build.
_MAX_FAN_DIM = 4


class Fan:
    """Validated smooth complete projective fan of dimension at most
    `_MAX_FAN_DIM`.

    Each maximal cone is a chart; `walls(cone)` gives the coordinates of
    every other ray in the cone's basis, the one table from which the
    nef/ample test, the ample witness LP and the chart systems are read.

    Completeness rests on two checks that hold in every dimension.  The
    ample witness LP asks for d with l_sigma(v_j) < d_j for every chart
    sigma and every ray v_j outside it, where l_sigma is the linear
    function equal to d on the rays of sigma.  At a point x = sum a_i v_i
    of sigma (a_i >= 0) this gives l_tau(x) <= l_sigma(x) for every chart
    tau, with equality only when x lies on the face spanned by the rays
    sigma and tau share.  So two cones meet along a common face, and no
    point lies inside two cones.  `_check_complete` adds that every facet
    bounds exactly two cones, lying on opposite sides of it: the support
    then has no boundary, so it is all of R^n."""

    def __init__(self, rays, max_cones):
        self.rays = tuple(map(tuple, rays))
        self.dim = len(self.rays[0]) if self.rays else 0
        self.max_cones = tuple(map(tuple, max_cones))
        self._walls = {}
        self._charts = {}
        self._sequences = {}
        self._ample = None
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self):
        # first: every later check assumes integer entries
        if any(type(c) is not int for v in self.rays + self.max_cones for c in v):
            raise DomainError("fan rays and max_cones must hold integers only")
        self.max_cones = tuple(tuple(sorted(c)) for c in self.max_cones)
        n = self.dim
        if not 1 <= n <= _MAX_FAN_DIM:
            raise DomainError(f"fan dimension must be between 1 and {_MAX_FAN_DIM}, "
                              f"got {n}")
        if any(len(v) != n for v in self.rays):
            raise DomainError("ray length mismatch")
        if len(set(self.rays)) != len(self.rays):
            raise DomainError("duplicate rays")
        for v in self.rays:
            if _primitive(v) != v:
                raise DomainError(f"ray {v} is not a primitive integer vector")
        used = {i for c in self.max_cones for i in c}
        if used != set(range(len(self.rays))):
            raise DomainError("completeness failure: unused or unknown rays")
        for c in self.max_cones:
            if len(c) < n:
                raise DomainError(f"completeness failure: maximal cone {c} is not "
                                  f"full-dimensional")
            if len(c) > n:
                raise DomainError(f"smoothness failure: cone {c} is not simplicial")
            if abs(_det([self.rays[i] for i in c])) != 1:
                raise DomainError(f"smoothness failure: cone {c} has determinant != +-1")
        self._check_complete()
        self._ample = self._find_ample()
        subs = {t for cone in self.max_cones for k in range(1, n + 1)
                for t in combinations(cone, k)}
        self._subvarieties = tuple(InvariantSubvariety(t)
                                   for t in sorted(subs, key=lambda t: (len(t), t)))

    def _check_complete(self):
        n = self.dim
        facets = {}
        for ci, cone in enumerate(self.max_cones):
            for facet in combinations(cone, n - 1):
                facets.setdefault(facet, []).append(ci)
        for facet, owners in facets.items():
            if len(owners) != 2:
                raise DomainError(f"completeness failure: facet {facet} lies in "
                                  f"{len(owners)} maximal cones (want 2)")
            # the two remaining rays must sit strictly on opposite sides
            normal = _orthogonal_normal([self.rays[i] for i in facet], n)
            sides = []
            for ci in owners:
                (extra,) = [i for i in self.max_cones[ci] if i not in facet]
                s = sum(a * b for a, b in zip(normal, self.rays[extra]))
                if s == 0:
                    raise DomainError(f"completeness failure: cone {self.max_cones[ci]} "
                                      f"degenerate across facet {facet}")
                sides.append(s > 0)
            if sides[0] == sides[1]:
                raise DomainError(f"completeness failure: fan folds at facet {facet}")

    def _find_ample(self):
        """An integral ample divisor found by the strict-convexity LP; its
        existence is the projectivity check, and the check that no two
        cones overlap (see the class docstring)."""
        nrays = len(self.rays)
        cons = []
        for cone in self.max_cones:
            for j, c in self.walls(cone):
                # d_j - c_j . d_sigma >= 1 is linear in d
                row = [0] * nrays
                row[j] = 1
                for ck, i in zip(c, cone):
                    row[i] = -ck
                cons.append((row, 1))
        res = solve_lp([0] * nrays, cons, nrays)
        if res.status != OPTIMAL:
            raise DomainError("completeness or projectivity failure: the cones "
                              "overlap, or no strictly convex support function exists")
        d = ToricDivisor(ToricDivisor(res.point).numerators)
        if not _wall_test(self, d)[1]:
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
        """Every nonempty torus-invariant subvariety, smallest codim first;
        one tuple, built at validation."""
        return self._subvarieties

    def chart_for(self, sub):
        """(cone, positions): the first maximal cone containing the rays of
        `sub`, and the chart coordinates of `sub` in it.  Memoized per
        subvariety."""
        chart = self._charts.get(sub.rays)
        if chart is None:
            rays = set(sub.rays)
            cone = next((c for c in self.max_cones if rays <= set(c)), None)
            if cone is None:
                raise DomainError(f"{sub} does not span a cone of the fan")
            chart = self._charts[sub.rays] = cone, tuple(cone.index(i) for i in sub.rays)
        return chart

    def sequence(self, d: "ToricDivisor", cone, p: int) -> "GradedSequence":
        """The graded sequence m -> base-locus ideal of |mD| on the chart,
        zero at levels where mD is not integral.  Memoized by the divisor's
        value, so repeated tau evaluations on equal divisors, however each
        was built, share every computed term."""
        cone = tuple(sorted(cone))
        key = (d, cone, p)
        if key not in self._sequences:
            amb = ring(p, *[f"x{i}" for i in cone])
            r = d.denominator   # m*D is integral exactly when r divides m

            def rule(m: int) -> Ideal:
                if m % r:
                    return zero_ideal(amb)
                return chart_ideal(self, d, m, cone, p)

            self._sequences[key] = GradedSequence.from_rule(amb, rule, name=f"sections{cone}")
        return self._sequences[key]

    def polytope_constraints(self, divisor):
        """P_D as integer rows for the LP layer: <u, v_i> >= -d_i, each
        multiplied by the divisor's denominator r, so (r*v_i, -r*d_i)."""
        r = divisor.denominator
        return [(tuple(r * a for a in v), -c) for v, c in zip(self.rays, divisor.numerators)]

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, cones={len(self.max_cones)})"


@dataclass(frozen=True)
class ToricDivisor:
    """A torus-invariant Q-divisor sum_i d_i D_i, one coefficient per ray,
    stored as integer `numerators` over one positive `denominator` in
    lowest terms: d_i = numerators[i] / denominator, and the denominator is
    the least common denominator of the d_i.  Equal divisors therefore have
    equal fields, so the field equality and hash are the right ones.

    `ToricDivisor(coefficients)` takes ints (not bools) and Fractions; the
    optional denominator divides every coefficient by a positive int."""

    numerators: tuple
    denominator: int = 1

    def __post_init__(self):
        values = tuple(self.numerators)
        for c in values:
            if type(c) not in (int, Fraction):
                raise DomainError(f"divisor coefficients must be exact rationals, got {c!r}")
        den = lcm(*(c.denominator for c in values))
        nums = [c.numerator * (den // c.denominator) for c in values]
        den *= require_int(self.denominator, "divisor denominator")
        g = gcd(den, *nums)
        object.__setattr__(self, "numerators", tuple(v // g for v in nums))
        object.__setattr__(self, "denominator", den // g)

    @property
    def coefficients(self) -> tuple:
        return tuple(Fraction(v, self.denominator) for v in self.numerators)

    def scale(self, k) -> "ToricDivisor":
        if type(k) not in (int, Fraction):
            raise DomainError(f"divisor scale factor must be an exact rational, got {k!r}")
        return ToricDivisor(tuple(k.numerator * v for v in self.numerators),
                            k.denominator * self.denominator)

    def __add__(self, other) -> "ToricDivisor":
        if len(self.numerators) != len(other.numerators):
            raise DomainError(f"cannot add divisors of {len(self.numerators)} and "
                              f"{len(other.numerators)} coefficients")
        r, s = self.denominator, other.denominator
        return ToricDivisor(tuple(a * s + b * r for a, b in zip(self.numerators,
                                                                other.numerators)), r * s)

    def __repr__(self):
        from .parsing import format_rational
        return "(" + ",".join(format_rational(c) for c in self.coefficients) + ")"


@dataclass(frozen=True)
class InvariantSubvariety:
    rays: tuple

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(
            require_int(i, "ray index", least=0) for i in self.rays)))
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
    return Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def _p1xp1():
    return Fan([(1, 0), (-1, 0), (0, 1), (0, -1)],
               [(0, 2), (1, 2), (1, 3), (0, 3)])


def _f1():
    # blow-up of P^2 at the point of the cone spanned by rays 0 and 1;
    # ray 3 = (1,1) is the exceptional curve E
    return Fan([(1, 0), (0, 1), (-1, -1), (1, 1)],
               [(0, 3), (1, 3), (1, 2), (0, 2)])


def _f2():
    return Fan([(1, 0), (0, 1), (-1, 2), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (0, 3)])


def _p3():
    return Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
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
    if len(d.numerators) != len(fan.rays):
        raise DomainError(f"divisor {d} has {len(d.numerators)} coefficients, "
                          f"but the fan has {len(fan.rays)} rays")


def _wall_test(fan: Fan, d: ToricDivisor):
    """(nef, ample) from the walls: D is nef when the slack
    d_j - c_j . d_sigma of every wall of every chart is >= 0, ample when
    every slack is > 0.  No LP; the slacks are taken over the numerators,
    which leaves their signs as they are."""
    _check_length(fan, d)
    nums = d.numerators
    ample = True
    for cone in fan.max_cones:
        for j, c in fan.walls(cone):
            slack = nums[j] - sum(ck * nums[i] for ck, i in zip(c, cone))
            if slack < 0:
                return False, False
            if slack == 0:
                ample = False
    return True, ample


def classify_divisor(fan: Fan, d: ToricDivisor) -> Classification:
    """The walls decide nef and ample; one LP decides the rest.  That LP is
    the l_inf inradius t* = max over u of min_i (<u, v_i> + d_i) of the
    section polytope P_D: P_D is nonempty iff t* >= 0 and has interior iff
    t* > 0.  On a complete toric variety the effective cone is closed and
    polyhedral, so pseudo-effective is effective."""
    nef, ample = _wall_test(fan, d)
    n = fan.dim
    res = solve_lp([0] * n + [-1],
                   [(tuple(a) + (-1,), b) for a, b in fan.polytope_constraints(d)], n + 1)
    if res.status != OPTIMAL:
        raise ContractError("section polytope unbounded: fan is not complete")
    inradius = -res.value
    return Classification(ample, nef, inradius > 0, inradius >= 0, inradius >= 0)


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


def _lattice_minimals_rec(cons, n):
    """Minimal lattice points (componentwise order) of the bounded region
    {w >= 0 : c.w >= r} cut out by integer constraints (c, r).

    Slices are scanned by increasing w1, so a point (w1, t) is minimal
    exactly when t is minimal in its slice and no tail kept from an earlier
    slice divides t.  Once the zero tail appears, every later point is
    dominated by it and the scan stops."""
    if n == 0:
        return frozenset() if any(r > 0 for _, r in cons) else frozenset([()])
    rng = _fm_first_range(cons, n)
    if rng is None:
        return frozenset()
    lo, hi = rng
    zero = (0,) * (n - 1)
    kept = []                                 # tails of earlier slices
    out = []
    for w1 in range(max(0, lo), hi + 1):
        sliced = _slice(cons, w1)
        if sliced is None:
            continue
        fresh = [t for t in _lattice_minimals_rec(sliced, n - 1)
                 if not any(mono_divides(s, t) for s in kept)]
        kept += fresh
        out += [(w1,) + t for t in fresh]
        if zero in fresh:
            break
    return frozenset(out)


def _lattice_feasible_rec(cons, n) -> bool:
    """Is there an integer point w with c.w >= r for all constraints?"""
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
    orthant w >= 0; the orthant rows come last.

    Chart exponents of a section u are w_i = <u, v_i> + level*d_i over the
    cone's rays; that change of coordinates is unimodular-affine, so
    lattice points map to lattice points.  Each wall (j, c_j) of the cone
    gives the row w_j = c_j . w - level*(c_j . d_sigma - d_j) >= 0."""
    _check_length(fan, d)
    if level % d.denominator:
        raise DomainError(f"{level}*D is not an integral divisor")
    ld = [v * (level // d.denominator) for v in d.numerators]
    n = fan.dim
    return ([(c, sum(ck * ld[i] for ck, i in zip(c, cone)) - ld[j])
             for j, c in fan.walls(cone)]
            + [(tuple(int(k == j) for k in range(n)), 0) for j in range(n)])


def chart_ideal(fan: Fan, d: ToricDivisor, level: int, cone, p: int = 2) -> Ideal:
    """The base-locus ideal of |level*D| restricted to the chart of `cone`,
    as a monomial ideal in F_p[x_i : i in cone]: the minimal lattice points
    of the chart-coordinate section system generate."""
    require_int(level, "level")
    cone = tuple(sorted(cone))
    if cone not in fan.max_cones:
        raise DomainError("chart must be a maximal cone")
    gens = _lattice_minimals_rec(_chart_system(fan, d, level, cone), fan.dim)
    amb = ring(p, *[f"x{i}" for i in cone])
    if not gens:
        return zero_ideal(amb)
    return monomial_ideal(amb, gens)


def base_locus_ord(fan: Fan, d: ToricDivisor, level: int, sub: InvariantSubvariety,
                   p: int = 2):
    """ord of the base-locus ideal of |level*D| along the subvariety; inf
    when the linear system is empty."""
    cone, positions = fan.chart_for(sub)
    a = chart_ideal(fan, d, level, cone, p)
    if a.is_zero():
        return inf
    return ord_along(a, CoordinateSubvariety(positions))


# -- exact asymptotic orders and sigma ----------------------------------------------

def asymptotic_ord_toric(fan: Fan, d: ToricDivisor, sub: InvariantSubvariety) -> Fraction:
    """ord_Z(||D||) as the exact LP minimum of sum_{i in Z} (<u, v_i> + d_i)
    over the rational section polytope."""
    _check_length(fan, d)
    fan.chart_for(sub)     # DomainError unless the rays of Z span a cone
    return _order_lp(fan, Polytope(fan.polytope_constraints(d), fan.dim), d, sub)


def _order_lp(fan: Fan, section: Polytope, d: ToricDivisor,
              sub: InvariantSubvariety) -> Fraction:
    """ord_Z(||D||) on the section polytope P_D: the minimum of
    u -> sum_{i in Z} <u, v_i> plus the constant sum_{i in Z} d_i."""
    res = section.minimize([sum(fan.rays[i][k] for i in sub.rays) for k in range(fan.dim)])
    if res.status == INFEASIBLE:
        raise DomainError("no pluri-sections: the section polytope is empty")
    if res.status != OPTIMAL:
        raise ContractError("order LP cannot be unbounded on a complete fan")
    return res.value + Fraction(sum(d.numerators[i] for i in sub.rays), d.denominator)


@dataclass(frozen=True)
class SigmaResult:
    value: Fraction
    evidence: str


def sigma(fan: Fan, d: ToricDivisor, sub: InvariantSubvariety) -> SigmaResult:
    """sigma_Z(D) = lim ord_Z(||D + eps*A||) for eps -> 0, graded closed-form.

    On a complete toric variety the limit is the order LP on P_D itself:
    the LP value is a polyhedral convex function of the right-hand side,
    so it is continuous on its closed domain, and pseudo-effective is
    effective, so D is pseudo-effective exactly when P_D is nonempty.
    Neither A nor any cap enters; P_D is built once."""
    _check_length(fan, d)
    section = Polytope(fan.polytope_constraints(d), fan.dim)
    if not section.feasible:
        raise DomainError("sigma is undefined: divisor is not pseudo-effective "
                          "(the non-nef locus is everything)")
    fan.chart_for(sub)     # DomainError unless the rays of Z span a cone
    return SigmaResult(_order_lp(fan, section, d, sub), EVIDENCE_CLOSED)


def _perturbation(fan: Fan, ample) -> ToricDivisor:
    """The perturbation divisor A: the fan's own ample divisor by default,
    else `ample` once it passes the ample check."""
    if ample is None:
        return fan.ample
    if not _wall_test(fan, ample)[1]:
        raise DomainError("perturbation divisor must be ample")
    return ample


def _eps_schedule(depth: int):
    """eps = 1/2, 1/4, ..., 1/2^depth: the schedule of tau_+."""
    return (Fraction(1, 2 ** k) for k in range(1, depth + 1))


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
    polytope where the chart coordinates of Z vanish: a section of
    |level*D| misses Z when the chart system of Z's chart has a lattice
    point with those coordinates zero.  One chart system per chart and
    level serves every face in that chart; no staircase is materialized."""
    subs = fan.invariant_subvarieties()
    # per subvariety: its chart and the chart coordinates left free on its face
    faces = []
    for sub in subs:
        cone, positions = fan.chart_for(sub)
        faces.append((sub, cone, [i for i in range(fan.dim) if i not in positions]))
    r = d.denominator
    levels = []
    any_nonempty = False

    def loci():
        nonlocal any_nonempty
        level = r
        while level <= r * caps.m_cap:
            levels.append(level)
            systems = {cone: _chart_system(fan, d, level, cone) for cone in fan.max_cones}
            if not _lattice_feasible_rec(systems[fan.max_cones[0]], fan.dim):
                yield level, set(subs)   # empty linear system: everything is base locus
            else:
                any_nonempty = True
                current = set()
                for sub, cone, keep in faces:
                    # the orthant rows of the fixed coordinates become 0 >= 0
                    face = [([c[i] for i in keep], rhs) for c, rhs in systems[cone]]
                    if not _lattice_feasible_rec(face, len(keep)):
                        current.add(sub)
                yield level, current
            level *= 2

    locus, _, stable = stabilize(loci(), caps.window, lambda prev, cur: cur <= prev)
    return StableBaseLocusReport(_sorted_subs(locus or ()), tuple(levels),
                                 stable, not any_nonempty)


def _sorted_subs(subs):
    return tuple(sorted(subs, key=lambda s: (s.codim, s.rays)))


# -- chart test ideals ----------------------------------------------------------------

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
    return _tau_plus(fan, d, _perturbation(fan, ample), lam, cone, p, caps)


def _tau_plus(fan: Fan, d: ToricDivisor, a: ToricDivisor, lam, cone, p: int,
              caps: Caps) -> TestIdealResult:
    """tau_plus_toric for a pseudo-effective D and a checked ample A."""
    evidences = []

    def members():
        for k, eps in enumerate(_eps_schedule(caps.epsilon_depth), 1):
            perturbed = d + a.scale(eps)
            # past the first eps, a perturbation with no nonzero term up to
            # m_cap ends the schedule; the first one raises in tau_toric
            if k > 1 and fan.sequence(perturbed, cone, p).first_nonzero(caps.m_cap) is None:
                return
            r = tau_toric(fan, perturbed, lam, cone, p, caps)
            evidences.append(r.evidence)
            yield k, r.ideal

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
    sigma_value: Fraction
    lp_member: bool
    tau_member: bool
    base_locus_member: bool
    evidence: str                  # the weakest grade of the three memberships:
                                   # sigma (closed-form), tau or tau_+ on the
                                   # record's chart, and the stable-base-locus grid


@dataclass(frozen=True)
class NonNefReport:
    divisor: ToricDivisor
    status: str                    # nef | pseudo-effective-not-nef | not-pseudo-effective
    positive_sigma: tuple          # maximal members only: ((subvariety, sigma), ...)
    members: tuple                 # every invariant subvariety in B_-(D)
    cross_checks: tuple            # per-subvariety MethodRecord
    certified: bool                # no record graded cap-reached
    # B_- is reported as the finite union of the detected invariant
    # subvarieties; no claim of Zariski-closedness beyond that union.


def non_nef_locus(fan: Fan, d: ToricDivisor, p: int = 2,
                  caps: Caps = DEFAULT_CAPS, ample: ToricDivisor = None,
                  eps_grid=(Fraction(1, 8), Fraction(1, 16)),
                  tau_level_cap: int = 4) -> NonNefReport:
    """Compute B_-(D) three independent ways for every invariant
    subvariety and require agreement:

      1. the exact LP sigma invariant, the order LP on P_D (positive iff
         member),
      2. vanishing of the chart test ideal tau(tau_level_cap * ||D||) (big
         case) or tau_+(tau_level_cap * ||D||) (pseudo-effective case),
      3. membership in the stable base locus of D + eps*A on a shrinking
         eps grid.

    B_-(D) is the union over m of V(tau(m||D||)); the test ideals shrink as
    m grows, so its part for m <= tau_level_cap is V(tau(tau_level_cap||D||))
    alone, one evaluation per chart.  Each record is graded by its weakest
    method, and the report is certified when no record is cap-reached.

    Disagreement raises ContractError: the three characterizations are
    theorems, so a mismatch is an implementation bug, not data.  One
    disagreement is the cap's, not the code's: for big D the order estimate
    ord_Z tau(m||D||) > m*sigma_Z(D) - codim Z guarantees vanishing along Z
    only from m = ceil(codim Z / sigma_Z(D)) on, so when sigma and the base
    locus put Z in B_-(D), tau does not vanish and tau_level_cap is below
    that level, a ResourceLimitError names the level needed."""
    require_int(tau_level_cap, "tau_level_cap")
    grid = tuple(eps_grid)
    if not grid or any(type(e) not in (int, Fraction) or e <= 0 for e in grid):
        raise DomainError(f"eps_grid must be a nonempty sequence of positive ints or "
                          f"Fractions, got {grid!r}")
    grid = sorted(grid, reverse=True)
    PrimeField(p)  # validates p before D is classified
    a = _perturbation(fan, ample)
    cls = classify_divisor(fan, d)
    if not cls.pseudo_effective:
        return NonNefReport(d, "not-pseudo-effective", (), (), (), True)
    subs = fan.invariant_subvarieties()

    # method 2 once per chart, at the single level tau_level_cap
    charts = sorted({fan.chart_for(s)[0] for s in subs})
    tau_by_chart = {cone: (tau_toric(fan, d, tau_level_cap, cone, p, caps) if cls.big
                           else _tau_plus(fan, d, a, tau_level_cap, cone, p, caps))
                    for cone in charts}

    # method 3 once per eps
    sbl_members = {}
    sbl_evidence = EVIDENCE_WINDOW
    for eps in grid:
        rep = stable_base_locus(fan, d + a.scale(eps), caps)
        if not rep.certified:
            sbl_evidence = EVIDENCE_CAP
        sbl_members[eps] = set(rep.members)
    for big_eps, small_eps in zip(grid, grid[1:]):
        if not sbl_members[big_eps] <= sbl_members[small_eps]:
            raise ContractError("perturbed base loci must grow as eps shrinks")
    finest = sbl_members[grid[-1]]

    # method 1: the order LPs of every subvariety share one polytope P_D
    section = Polytope(fan.polytope_constraints(d), fan.dim)
    records = []
    members = []
    sigma_of = {}
    for sub in subs:
        value = _order_lp(fan, section, d, sub)
        lp_member = value > 0
        cone, positions = fan.chart_for(sub)
        tau = tau_by_chart[cone]
        tau_member = ord_along(tau.ideal, CoordinateSubvariety(positions)) >= 1
        bl_member = sub in finest
        if not lp_member == tau_member == bl_member:
            disagreement = (f"non-nef membership methods disagree at {sub} for D={d}: "
                            f"sigma>0 is {lp_member}, tau-vanishing is {tau_member}, "
                            f"perturbed base locus is {bl_member}")
            if lp_member and bl_member and not tau_member:
                if not cls.big:
                    disagreement += (
                        f" (tau_+ at the level tau_level_cap={tau_level_cap} does not "
                        f"vanish; it shrinks as the level grows, so a larger cap may "
                        f"be needed before suspecting the implementation)")
                elif tau_level_cap < (needed := _tau_level_needed(sub, value)):
                    raise ResourceLimitError(
                        f"{disagreement}; with sigma={value}, the order estimate "
                        f"makes tau vanish along {sub} from level {needed} = "
                        f"ceil(codim/sigma) on, above tau_level_cap={tau_level_cap}")
            raise ContractError(disagreement)
        records.append(MethodRecord(sub, value, lp_member, tau_member, bl_member,
                                    worst_evidence(EVIDENCE_CLOSED, tau.evidence,
                                                   sbl_evidence)))
        sigma_of[sub] = value
        if tau_member:
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
    certified = all(r.evidence != EVIDENCE_CAP for r in records)
    return NonNefReport(d, status, positive, _sorted_subs(members),
                        tuple(records), certified)


def _tau_level_needed(sub: InvariantSubvariety, sigma_value: Fraction) -> int:
    """ceil(codim Z / sigma_Z(D)) for big D and sigma_Z(D) > 0: the order
    estimate ord_Z tau(m||D||) > m*sigma_Z(D) - codim Z puts Z inside
    V(tau(m||D||)) from this level m on."""
    return -(-sub.codim // sigma_value)
