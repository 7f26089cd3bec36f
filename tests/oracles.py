"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by the most direct method available
(multiset expansion, one-shot digit decomposition, vertex enumeration) so
that the production code paths are checked against something that shares
no code with them.
"""

from fractions import Fraction

from nonnef.ideal import Ideal, monomial_ideal
from nonnef.poly import Polynomial, min_antichain


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
    return min_antichain(tuple(c // q for c in s) for s in _power_sums(gens, n))


def naive_product_power_root(pairs, q):
    """Same as above for a product of monomial-ideal powers."""
    nvars = len(next(iter(pairs[0][0])))
    sums = {(0,) * nvars}
    for gens, n in pairs:
        layer = set(_power_sums(gens, n)) if n else {(0,) * nvars}
        sums = {tuple(a + b for a, b in zip(s, t)) for s in sums for t in layer}
    return min_antichain(tuple(c // q for c in s) for s in sums)


def jump_grid_by_fractions(lam_max, denom_bound):
    """The candidate jumping numbers n/d in (0, lam_max], d <= denom_bound,
    as a sorted list of distinct Fractions."""
    return sorted({Fraction(n, d) for d in range(1, denom_bound + 1)
                   for n in range(1, (lam_max * d).__floor__() + 1)})


def oneshot_q_root(a: Ideal, q: int) -> Ideal:
    """(a)^[1/q] computed in a single digit decomposition at level q
    (independent of the iterated p-step path in production code)."""
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
