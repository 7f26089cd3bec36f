"""Two-phase simplex with integer pivots and exact rational results.

Free variables are split into positive parts, inequalities get surplus
columns, and both phases pivot under Bland's rule (smallest eligible
index), which guarantees termination without any tolerance.

The tableau is fraction-free.  Each row is a list of integers whose
rational value is the row divided by its entry in the row's basic column,
a positive per-row denominator; a pivot combines rows by cross-
multiplication and then divides each changed row by the gcd of its
entries.  The ratio test compares by cross-multiplication, and the
reduced-cost row is carried as an integer row, a positive multiple of the
reduced costs, that every pivot updates like a tableau row.  The basis
determines the reduced costs, so their signs, and every Bland choice, are
those of a tableau over `Fraction`.  Constraints and objectives are ints
or `Fraction`s; `Fraction` appears only where they are scaled in over a
common denominator and where the value and point are read out.

Phase 1 depends only on the constraints.  A `Polytope` runs it once and
answers every later objective by phase 2 from a copy of its basis, so a
caller that asks many questions of one polytope (the order LPs of every
invariant subvariety on one section polytope) pays for phase 1 once; the
value and the point equal those of a fresh `solve_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ContractError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: object = None   # Fraction when optimal
    point: tuple = None    # optimizer in the original free variables


def _integers(values):
    """(scale * values, scale) for ints and Fractions, scale the least
    common denominator."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _reduce(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _eliminate(row, pivot_row, c):
    """A positive multiple of row minus the multiple of pivot_row (pivot
    entry pivot_row[c] > 0) that clears column c, divided by its gcd."""
    piv, f = pivot_row[c], row[c]
    return _reduce([piv * v - f * w for v, w in zip(row, pivot_row)])


def _pivot(rows, basis, r, c):
    """Make column c basic in row r.  Each row holds its right-hand side
    last; row i stands for rows[i] / rows[i][basis[i]]."""
    if rows[r][c] < 0:
        rows[r] = [-v for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            rows[i] = _eliminate(row, rows[r], c)
    basis[r] = c


def _reduced_costs(rows, basis, cost):
    """A positive integer multiple of cost - sum_i cost[basis[i]] * row_i,
    the rows read over their denominators."""
    dens = [row[b] for row, b in zip(rows, basis)]
    scale = lcm(*(den for den, b in zip(dens, basis) if cost[b] != 0))
    z = [scale * v for v in cost]
    for row, b, den in zip(rows, basis, dens):
        f = cost[b] * (scale // den)
        if f != 0:
            z = [v - f * w for v, w in zip(z, row)]
    return _reduce(z)


def _run_simplex(rows, basis, cost):
    """Minimize cost (integers) over the current basic feasible tableau
    (Bland's rule).  Returns OPTIMAL or UNBOUNDED; mutates the tableau in
    place."""
    z = _reduced_costs(rows, basis, cost)
    while True:
        entering = next((j for j, v in enumerate(z) if v < 0), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        for i, row in enumerate(rows):
            a = row[entering]
            # least ratio rhs / a over a > 0, by cross-multiplication; ties
            # go to the smaller basic index
            if a > 0 and (leaving is None
                          or (row[-1] * best_a, basis[i]) < (best_rhs * a, basis[leaving])):
                leaving, best_rhs, best_a = i, row[-1], a
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, basis, leaving, entering)
        z = _eliminate(z, rows[leaving], entering)


class Polytope:
    """The rational polyhedron {x in Q^n : a_i . x >= b_i for all i}, with
    phase 1 already run.

    constraints: iterable of (coefficient sequence, rhs).  Phase 1 depends
    only on the constraints, so it runs once here; every `minimize` call
    starts phase 2 from a copy of the resulting basis.
    """

    def __init__(self, constraints, n):
        self.n = n
        cons = [_integers([*a, b]) for a, b in constraints]
        m = len(cons)
        width = 2 * n + m          # x+ columns, x- columns, surplus columns

        # phase 1: artificial basis.  Row i is constraint i scaled by s_i > 0,
        # so its surplus entry is -s_i and its artificial entry, its
        # denominator, is s_i
        tableau = []
        for i, (ints, s) in enumerate(cons):
            sign = -1 if ints[-1] < 0 else 1
            a = [sign * v for v in ints[:n]]
            row = a + [-v for v in a] + [0] * (2 * m) + [sign * ints[-1]]
            row[2 * n + i] = -sign * s
            row[width + i] = s
            tableau.append(row)
        basis = list(range(width, width + m))
        cost1 = [0] * width + [1] * m
        if _run_simplex(tableau, basis, cost1) != OPTIMAL:
            raise ContractError("phase-1 objective cannot be unbounded")
        self.feasible = all(tableau[i][-1] == 0 for i in range(m) if basis[i] >= width)
        if not self.feasible:
            return
        # drive lingering artificials out of the basis
        for i in range(m):
            if basis[i] >= width:
                c = next((j for j in range(width) if tableau[i][j] != 0), None)
                if c is not None:
                    _pivot(tableau, basis, i, c)
        keep = [i for i in range(m) if basis[i] < width]
        self._rows = [tableau[i][:width] + tableau[i][-1:] for i in keep]
        self._basis = [basis[i] for i in keep]
        self._surplus = m

    def minimize(self, objective) -> LPResult:
        """Minimize objective . x by phase 2 under Bland's rule.  Exact
        throughout; the point returned attains the optimum."""
        if not self.feasible:
            return LPResult(INFEASIBLE)
        n = self.n
        objective = tuple(objective)
        rows = list(self._rows)    # pivots replace rows, never edit one
        basis = list(self._basis)
        cost, _ = _integers(objective)
        cost2 = cost + [-c for c in cost] + [0] * self._surplus
        if _run_simplex(rows, basis, cost2) == UNBOUNDED:
            return LPResult(UNBOUNDED)
        # x_j = x+_j - x-_j; the two columns are opposite, so at most one
        # of them is basic
        x = [Fraction(0)] * n
        for row, b in zip(rows, basis):
            if b < n:
                x[b] = Fraction(row[-1], row[b])
            elif b < 2 * n:
                x[b - n] = -Fraction(row[-1], row[b])
        return LPResult(OPTIMAL, sum(map(mul, objective, x), Fraction(0)), tuple(x))


def solve_lp(objective, constraints, n) -> LPResult:
    """Minimize objective . x over {x in Q^n : a_i . x >= b_i for all i}:
    one phase 1 and one phase 2.  Exact throughout; the point returned
    attains the optimum."""
    return Polytope(constraints, n).minimize(objective)
