"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by the most direct method available
(multiset expansion, p-th roots one step at a time, vertex enumeration) so
that the production code paths are checked against something that shares
no code with them.
"""

from fractions import Fraction
from itertools import product
from math import floor
from operator import le

from nonnef.caps import DEFAULT_CAPS
from nonnef.frobenius import EVIDENCE_CAP, JumpReport, Plateau, test_ideal
from nonnef.ideal import Ideal, monomial_ideal, unit_ideal
from nonnef.newton import _candidate_normals
from nonnef.poly import Polynomial


def minimal_by_degree(vectors):
    """Minimal elements of a set of exponent vectors under componentwise
    <=: scanned in ascending total degree, a vector is kept unless some
    vector kept before it lies below it."""
    kept = []
    for m in sorted(set(vectors), key=sum):
        if not any(all(map(le, k, m)) for k in kept):
            kept.append(m)
    return frozenset(kept)


def _compositions(total, parts):
    """All tuples of `parts` naturals summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _power_sums(gens, n):
    """All exponent sums of n-fold multisets of the generators, enumerated
    by multiplicity vector."""
    gens = sorted(gens)
    nvars = len(gens[0])
    for counts in _compositions(n, len(gens)):
        total = [0] * nvars
        for c, v in zip(counts, gens):
            for i in range(nvars):
                total[i] += c * v[i]
        yield tuple(total)


def naive_monomial_power_root(gens, n, q):
    """Minimal generators of (a^n)^[1/q] for a monomial ideal, by expanding
    every n-fold multiset exponent sum and floor-dividing."""
    if n == 0:
        return frozenset([(0,) * len(next(iter(gens)))])
    return minimal_by_degree(tuple(c // q for c in s) for s in _power_sums(gens, n))


def naive_product_power_root(pairs, q):
    """Same as above for a product of monomial-ideal powers."""
    nvars = len(next(iter(pairs[0][0])))
    sums = {(0,) * nvars}
    for gens, n in pairs:
        layer = set(_power_sums(gens, n)) if n else {(0,) * nvars}
        sums = {tuple(a + b for a, b in zip(s, t)) for s in sums for t in layer}
    return minimal_by_degree(tuple(c // q for c in s) for s in sums)


def newton_tau_by_fractions(n, pairs_with_lambda):
    """Minimal generators of tau(prod_i a_i^{l_i}) for monomial ideals a_i
    given as tuples of exponent vectors: x^u is in it when
    <h, u> > sum_i l_i * min_{v in V_i} <h, v> - |h|_1 for every candidate
    normal h of `newton._candidate_normals`, the right-hand side summed in
    Fractions.  The lattice points are enumerated in a box: a minimal u has
    u_j <= ceil(b / h_j) for some inequality <h, u> >= b with h_j > 0, or
    u - e_j would satisfy them all too.  A feasible u is minimal when no
    u - e_j is feasible, the set being upward closed.  This checks the
    bound arithmetic and the staircase, not the choice of normals."""
    gens_tuple = tuple(tuple(sorted(g)) for g, _ in pairs_with_lambda)
    constraints = []
    for h, *_ in _candidate_normals(gens_tuple, n):
        rhs = -Fraction(sum(h))
        for gens, (_, lam) in zip(gens_tuple, pairs_with_lambda):
            rhs += Fraction(lam) * min(sum(a * b for a, b in zip(h, v)) for v in gens)
        constraints.append((h, floor(rhs) + 1))

    def feasible(u):
        return all(sum(a * b for a, b in zip(h, u)) >= bound for h, bound in constraints)

    box = [range(max([0] + [-(-bound // h[j]) for h, bound in constraints if h[j]]) + 1)
           for j in range(n)]
    return frozenset(u for u in product(*box) if feasible(u) and not any(
        u[j] and feasible(u[:j] + (u[j] - 1,) + u[j + 1:]) for j in range(n)))


def multiset_power(amb, gens, n) -> Ideal:
    """The ideal generated by one product per n-fold multiset of `gens`,
    built level by level: a product is extended only by generators at or
    after the last one it used."""
    level = [(Polynomial.one(amb), 0)]
    for _ in range(n):
        level = [(f * gens[j], j) for f, last in level for j in range(last, len(gens))]
    return Ideal(amb, [f for f, _ in level])


def jump_grid_by_fractions(lam_max, denom_bound):
    """The candidate jumping numbers n/d in (0, lam_max], d <= denom_bound,
    as a sorted list of distinct Fractions."""
    return sorted({Fraction(n, d) for d in range(1, denom_bound + 1)
                   for n in range(1, (lam_max * d).__floor__() + 1)})


def jumps_by_chain(a: Ideal, lam_max, denom_bound, caps=DEFAULT_CAPS) -> JumpReport:
    """The JumpReport of `f_jumping_numbers` computed by bisecting the
    Fraction grid with the Frobenius chain of `test_ideal` at every visited
    point, tau(0+) = (1) standing before the first; `certified` is False
    when any of those chains hit a cap."""
    lam_max = Fraction(lam_max)
    grid = jump_grid_by_fractions(lam_max, denom_bound)
    results = {-1: (unit_ideal(a.ring), False)}

    def tau(i):
        if i not in results:
            r = test_ideal(a, grid[i], caps)
            results[i] = (r.ideal, r.evidence == EVIDENCE_CAP)
        return results[i][0]

    jump_at = []

    def bisect(lo, hi):
        if hi - lo == 1:
            jump_at.append(hi)
            return
        mid = (lo + hi) // 2
        if tau(lo) != tau(mid):
            bisect(lo, mid)
        if tau(mid) != tau(hi):
            bisect(mid, hi)

    if grid and tau(-1) != tau(len(grid) - 1):
        bisect(-1, len(grid) - 1)
    jump_at.sort()
    jumps = tuple(grid[i] for i in jump_at)
    plateaus = tuple(Plateau(start, end, tau(i)) for i, start, end in
                     zip([-1] + jump_at, (Fraction(0),) + jumps, jumps + (lam_max,)))
    certified = not any(capped for _, capped in results.values())
    return JumpReport(lam_max, jumps, plateaus, certified)


def oneshot_q_root(a: Ideal, q: int) -> Ideal:
    """(a)^[1/q] computed in a single digit decomposition at level q.  This
    is the algorithm of `frobenius_root`, which takes the first member of a
    general test-ideal chain; the later members split only the low digits
    of the counts.  The test suite checks both against `iterated_p_root`
    instead."""
    gens = []
    for f in a.generators:
        buckets = {}
        for m, c in f.terms.items():
            res = tuple(e % q for e in m)
            flo = tuple(e // q for e in m)
            buckets.setdefault(res, {})[flo] = c
        for terms in buckets.values():
            g = Polynomial(f.ring, terms)
            if not g.is_zero():
                gens.append(g)
    return Ideal(a.ring, gens)


def iterated_p_root(a: Ideal, e: int) -> Ideal:
    """(a)^[1/p^e] by taking p-th roots e times: each step decomposes every
    generator f = sum_b g_b^p x^b over the exponents b < p and keeps the
    distinct coefficients g_b; a constant coefficient ends the walk at the
    unit ideal."""
    p = a.ring.field.p
    gens = list(a.generators)
    for _ in range(e):
        out = {}
        for f in gens:
            buckets = {}
            for m, c in f.terms.items():
                buckets.setdefault(tuple(w % p for w in m), {})[tuple(w // p for w in m)] = c
            for terms in buckets.values():
                g = Polynomial(f.ring, terms)
                out[g.key()] = g
        gens = list(out.values())
        if any(g.is_constant() for g in gens):
            return Ideal(a.ring, [Polynomial.one(a.ring)])
    return Ideal(a.ring, gens)


def naive_test_ideal_chain(a: Ideal, lam, e_values):
    """Direct iteration tau chain member at each e, all by expansion."""
    from fractions import Fraction

    from nonnef.frobenius import ceil_times
    lam = Fraction(lam)
    p = a.ring.field.p
    out = []
    for e in e_values:
        q = p ** e
        n = ceil_times(lam, q)
        out.append(monomial_ideal(a.ring, naive_monomial_power_root(a.monomials, n, q)))
    return out


def lp_min_by_vertices(objective, constraints, nvars):
    """Exact LP oracle: minimize objective . x subject to a_i . x >= b_i,
    by enumerating all candidate vertices (square subsystems).  Returns
    (value, point) or (None, None) when infeasible; assumes the feasible
    region is a polytope."""
    from fractions import Fraction
    from itertools import combinations

    def solve_square(rows):
        # Gaussian elimination over Fraction
        n = nvars
        mat = [list(map(Fraction, constraints[i][0])) + [Fraction(constraints[i][1])]
               for i in rows]
        piv_cols = []
        r = 0
        for c in range(n):
            piv = next((k for k in range(r, len(mat)) if mat[k][c] != 0), None)
            if piv is None:
                return None
            mat[r], mat[piv] = mat[piv], mat[r]
            mat[r] = [v / mat[r][c] for v in mat[r]]
            for k in range(len(mat)):
                if k != r and mat[k][c] != 0:
                    f = mat[k][c]
                    mat[k] = [v - f * w for v, w in zip(mat[k], mat[r])]
            piv_cols.append(c)
            r += 1
            if r == len(mat):
                break
        if r < len(mat):
            return None
        x = [Fraction(0)] * n
        for row, c in enumerate(piv_cols):
            x[c] = mat[row][n]
        return x

    best = None
    best_x = None
    for rows in combinations(range(len(constraints)), nvars):
        x = solve_square(rows)
        if x is None:
            continue
        if all(sum(a * v for a, v in zip(coeffs, x)) >= b for coeffs, b in constraints):
            val = sum(c * v for c, v in zip(objective, x))
            if best is None or val < best:
                best, best_x = val, x
    return best, best_x


def _section_rows(rays, coeffs):
    """P_D = {u : <u, v_i> >= -d_i} as rows for `lp_min_by_vertices`."""
    return [(tuple(v), -c) for v, c in zip(rays, coeffs)]


def effective_by_vertices(rays, coeffs):
    """D is effective iff its section polytope has a (rational) point."""
    n = len(rays[0])
    return lp_min_by_vertices([0] * n, _section_rows(rays, coeffs), n)[0] is not None


def big_by_vertices(rays, coeffs):
    """D is big iff P_D has interior: no <u, v_i> + d_i vanishes on all of
    P_D, that is every max over P_D of <u, v_i> + d_i is > 0."""
    n = len(rays[0])
    rows = _section_rows(rays, coeffs)
    for v, c in zip(rays, coeffs):
        low, _ = lp_min_by_vertices([-x for x in v], rows, n)
        if low is None or c - low <= 0:
            return False
    return True


def pseudo_effective_by_eps_lp(rays, coeffs, ample):
    """The definition: P_{D + eps*A} is nonempty for every eps > 0, i.e. the
    least eps with <u, v_i> + d_i + eps*a_i >= 0 solvable is <= 0.  That
    minimum is finite for ample A, so a vertex of the (u, eps) region
    attains it."""
    n = len(rays[0])
    rows = [(tuple(v) + (a,), -c) for v, c, a in zip(rays, coeffs, ample)]
    least, _ = lp_min_by_vertices([0] * n + [1], rows, n + 1)
    return least is not None and least <= 0


def pseudo_effective_threshold(rays, coeffs, ample):
    """The least s with B + s*A pseudo-effective, B the divisor of coeffs:
    the least s with <u, v_i> + b_i + s*a_i >= 0 solvable, by vertices.
    B + s*A is then pseudo-effective but not big."""
    n = len(rays[0])
    rows = [(tuple(v) + (a,), -c) for v, c, a in zip(rays, coeffs, ample)]
    return lp_min_by_vertices([0] * n + [1], rows, n + 1)[0]


def sigma_by_eps_chords(rays, coeffs, ample, sub_rays, window, depth):
    """sigma_Z(D) = lim ord_Z(||D + eps*A||) for eps -> 0 along 1/2^k,
    sampled by vertex enumeration and extrapolated by chords.

    ord_Z(||D + eps*A||) is the least sum over i in Z of
    <u, v_i> + d_i + eps*a_i over P_{D + eps*A}.  A chord is fitted through
    every pair of consecutive samples; once `window` consecutive chords
    repeat their predecessor, the value is the intercept at eps = 0 of the
    first chord of that run.  Returns (value, samples, evidence): value
    None and "cap-reached" when the `depth` samples run out first, else
    "window-stable"."""
    n = len(rays[0])
    objective = [sum(rays[i][k] for i in sub_rays) for k in range(n)]
    samples, chords = [], []
    for k in range(1, depth + 1):
        eps = Fraction(1, 2 ** k)
        shifted = [c + eps * a for c, a in zip(coeffs, ample)]
        low, _ = lp_min_by_vertices(objective, _section_rows(rays, shifted), n)
        samples.append((eps, low + sum(shifted[i] for i in sub_rays)))
        if k > 1:
            (e1, f1), (e2, f2) = samples[-2:]
            slope = (f2 - f1) / (e2 - e1)
            chords.append((slope, f2 - slope * e2))
            run = chords[-window - 1:]
            if len(run) == window + 1 and all(c == run[0] for c in run):
                return run[0][1], tuple(samples), "window-stable"
    return None, tuple(samples), "cap-reached"


def fraction_simplex(objective, constraints, n):
    """The two-phase simplex on a `Fraction` tableau, reduced costs
    recomputed before every pivot, Bland's rule in both phases; an
    independent copy of the production LP's rules without its integer
    arithmetic.  Returns (status, value, point, pivots), value and point
    None unless status is "optimal"."""
    pivots = 0

    def pivot(rows, rhs, basis, r, c):
        nonlocal pivots
        pivots += 1
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        rhs[r] = rhs[r] / piv
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        basis[r] = c

    def run(rows, rhs, basis, cost):
        ncols = len(cost)
        while True:
            reduced = list(cost)
            for i, b in enumerate(basis):
                for j in range(ncols):
                    reduced[j] -= cost[b] * rows[i][j]
            entering = next((j for j in range(ncols) if reduced[j] < 0), None)
            if entering is None:
                return "optimal"
            leaving, best = None, None
            for i in range(len(rows)):
                a = rows[i][entering]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best
                                                        and basis[i] < basis[leaving]):
                        best, leaving = ratio, i
            if leaving is None:
                return "unbounded"
            pivot(rows, rhs, basis, leaving, entering)

    cons = [([Fraction(c) for c in a], Fraction(b)) for a, b in constraints]
    m = len(cons)
    width = 2 * n + m
    rows, rhs = [], []
    for i, (a, b) in enumerate(cons):
        row = a[:n] + [-v for v in a[:n]] + [Fraction(0)] * m
        row[2 * n + i] = Fraction(-1)
        if b < 0:
            row, b = [-v for v in row], -b
        rows.append(row + [Fraction(int(k == i)) for k in range(m)])
        rhs.append(b)
    basis = list(range(width, width + m))
    run(rows, rhs, basis, [Fraction(0)] * width + [Fraction(1)] * m)
    if sum(rhs[i] for i in range(m) if basis[i] >= width) != 0:
        return "infeasible", None, None, pivots
    for i in range(m):
        if basis[i] >= width:
            c = next((j for j in range(width) if rows[i][j] != 0), None)
            if c is not None:
                pivot(rows, rhs, basis, i, c)
    keep = [i for i in range(m) if basis[i] < width]
    rows = [rows[i][:width] for i in keep]
    rhs = [rhs[i] for i in keep]
    basis = [basis[i] for i in keep]
    obj = [Fraction(c) for c in objective]
    if run(rows, rhs, basis, obj + [-c for c in obj] + [Fraction(0)] * m) == "unbounded":
        return "unbounded", None, None, pivots
    values = {b: rhs[i] for i, b in enumerate(basis)}
    x = tuple(values.get(j, Fraction(0)) - values.get(n + j, Fraction(0)) for j in range(n))
    return "optimal", sum(c * v for c, v in zip(obj, x)), x, pivots


def lattice_minimals_by_enumeration(cons, n):
    """Minimal lattice points (componentwise order) of {w >= 0 : c.w >= r}
    for integer rows (c, r): the bounding box from vertex enumeration,
    every integer point in it, and a plain pairwise comparison.  The
    region must be bounded."""
    from itertools import product
    from math import ceil, floor

    rows = list(cons) + [(tuple(int(k == j) for k in range(n)), 0) for j in range(n)]
    box = []
    for j in range(n):
        unit = [int(k == j) for k in range(n)]
        low, _ = lp_min_by_vertices(unit, rows, n)
        if low is None:
            return frozenset()
        high, _ = lp_min_by_vertices([-u for u in unit], rows, n)
        box.append(range(ceil(low), floor(-high) + 1))
    return minimal_elements([w for w in product(*box)
                             if all(sum(a * x for a, x in zip(c, w)) >= r for c, r in rows)])


def minimal_elements(points):
    """Minimal elements of a set of exponent vectors under componentwise
    <=, by comparing every pair."""
    points = set(points)
    return frozenset(m for m in points
                     if not any(q != m and all(a <= b for a, b in zip(q, m)) for q in points))
