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

A `Polytope` is the family P(t) = {x : a_i . x >= b_i + t*s_i}; each row
carries the columns b and s and, last, the live right-hand side
t.den*b + t.num*s, a positive multiple of b + t*s, which is the one
column the ratio test reads.  With every s_i = 0 it is one polyhedron.  Phase 1 depends only on the constraints at one t, so a
`Polytope` runs it once and answers every later objective by phase 2 from a
copy of its basis: a caller that asks many questions of one polytope pays
for phase 1 once.

Only the right-hand side moves with t (parametric right-hand-side
programming, Gass-Saaty 1955).  `walk` runs phase 2 once and, at each
later t, resets the live column and restores primal feasibility by the dual
simplex, again under Bland's rule; the reduced costs do not involve the
right-hand side and its ratio test keeps them >= 0, so the basis it
reaches is optimal at t.  On one basis the value is the line v0 + t*v1,
read once in integers from the columns b and s, and `walk` hands that
line back with each value, so a caller that samples many t (the sigma
schedule of `toric`) reads its lines off the walked basis instead of
refitting them through the values.  An LP's optimal value is unique, so
every walked value equals that of a fresh `solve_lp` at t; only the basis,
and so the point, may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ContractError, DomainError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: object = None   # Fraction when optimal
    point: tuple = None    # optimizer in the original free variables; None
                           # from `Polytope.walk`, which reads values only
    line: tuple = None     # (v0, v1) from `Polytope.walk`: the value is
                           # v0 + t*v1 on the basis it came from


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


def _dual_simplex(rows, basis, cost):
    """Restore primal feasibility of a tableau whose reduced costs for cost
    are all >= 0 (Bland's rule: the infeasible row of least basic index
    leaves; the column of least ratio z_j / -a_j over a_j < 0 enters, ties
    to the smaller index).  Returns OPTIMAL, or INFEASIBLE when the leaving
    row has no negative entry; mutates the tableau in place."""
    z = None
    while True:
        infeasible = [i for i, row in enumerate(rows) if row[-1] < 0]
        if not infeasible:
            return OPTIMAL
        if z is None:
            z = _reduced_costs(rows, basis, cost)
        r = min(infeasible, key=basis.__getitem__)
        entering = None
        for j, (a, zj) in enumerate(zip(rows[r], z)):
            # least zj / -a by cross-multiplication; -a and -best_a are > 0
            if a < 0 and (entering is None or zj * best_a > best_z * a):
                entering, best_z, best_a = j, zj, a
        if entering is None:
            return INFEASIBLE
        _pivot(rows, basis, r, entering)
        z = _eliminate(z, rows[r], entering)


class Polytope:
    """The rational polyhedron P(t) = {x in Q^n : a_i . x >= b_i + t*s_i for
    all i}, with phase 1 already run at one t.

    constraints: iterable of (a_i, b_i) or (a_i, b_i, s_i), a missing shift
    s_i being 0.  Phase 1 depends only on the constraints at t, so it runs
    once here; every `minimize` call starts phase 2 at t from a copy of the
    resulting basis, and every `walk` carries that basis on to other t.
    """

    def __init__(self, constraints, n, t=0):
        self.n = n
        self.t = Fraction(t)
        cons = [_integers([*a, b, *(shift or (0,))]) for a, b, *shift in constraints]
        m = len(cons)
        width = 2 * n + m          # x+ columns, x- columns, surplus columns

        # phase 1: artificial basis.  Row i is constraint i scaled by c_i > 0,
        # so its surplus entry is -c_i and its artificial entry, its
        # denominator, is c_i; it ends in the columns b, s and the live
        # right-hand side t.den*b + t.num*s
        tableau = []
        for i, (ints, c) in enumerate(cons):
            *a, b, s = ints
            live = self.t.denominator * b + self.t.numerator * s
            sign = -1 if live < 0 else 1
            row = [sign * v for v in a + [-v for v in a] + [0] * (2 * m) + [b, s, live]]
            row[2 * n + i] = -sign * c
            row[width + i] = c
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
        self._rows = [tableau[i][:width] + tableau[i][-3:] for i in keep]
        self._basis = [basis[i] for i in keep]
        self._surplus = m

    def _phase2(self, objective):
        """(rows, basis, cost, scale) after phase 2 for objective at the
        phase-1 t, cost being scale * objective on the split columns; cost
        is None when the objective is unbounded there."""
        rows = list(self._rows)    # pivots replace rows, never edit one
        basis = list(self._basis)
        cost, scale = _integers(objective)
        cost = cost + [-c for c in cost] + [0] * self._surplus
        if _run_simplex(rows, basis, cost) == UNBOUNDED:
            return rows, basis, None, scale
        return rows, basis, cost, scale

    def minimize(self, objective) -> LPResult:
        """Minimize objective . x over P(t) at the phase-1 t by phase 2 under
        Bland's rule.  Exact throughout; the point returned attains the
        optimum."""
        if not self.feasible:
            return LPResult(INFEASIBLE)
        objective = tuple(objective)
        rows, basis, cost, _ = self._phase2(objective)
        if cost is None:
            return LPResult(UNBOUNDED)
        # the live column holds t.den times the right-hand side at t
        x = _solution(rows, basis, self.n, -1, self.t.denominator)
        return LPResult(OPTIMAL, sum(map(mul, objective, x), Fraction(0)), tuple(x))

    def walk(self, objective, ts):
        """The minimum of objective . x over P(t) for each t of `ts` in turn,
        lazily, as an LPResult without a point; an optimal one carries the
        line (v0, v1) of its basis, and its value is v0 + t*v1.

        Phase 2 runs once, at the phase-1 t.  Each t then resets the live
        right-hand side, and the dual simplex restores primal feasibility:
        the reduced costs do not depend on t, so the basis stays optimal.
        On one basis the value is v0 + t*v1, read once from the columns b
        and s, and every t on that basis gets the same line object.  An
        LP's optimal value is unique, so each value equals that of a fresh
        `solve_lp` at t.  An objective unbounded at the phase-1 t is
        unbounded wherever P(t) is nonempty, and the walk goes on with the
        zero objective, which every basis leaves dual feasible, to tell
        where that is."""
        if not self.feasible:
            raise DomainError("a walk needs a polyhedron nonempty at its phase-1 t")
        rows, basis, cost, scale = self._phase2(tuple(objective))
        bounded = cost is not None
        if not bounded:
            cost = [0] * (2 * self.n + self._surplus)
        # rows of its own, so the live column can be reset in place; pivots
        # replace rows, so every later row is the walk's own as well
        rows = [row[:] for row in rows]
        read = None                # the basis of the last line read
        for t in map(Fraction, ts):
            for row in rows:
                row[-1] = t.denominator * row[-3] + t.numerator * row[-2]
            if _dual_simplex(rows, basis, cost) == INFEASIBLE:
                yield LPResult(INFEASIBLE)
            elif not bounded:
                yield LPResult(UNBOUNDED)
            else:
                if read != basis:
                    read = list(basis)
                    line = (_value(rows, basis, cost, scale, -3),
                            _value(rows, basis, cost, scale, -2))
                yield LPResult(OPTIMAL, line_at(*line, t), line=line)


def line_at(v0: Fraction, v1: Fraction, t: Fraction) -> Fraction:
    """v0 + t*v1, built as one Fraction over the common denominator."""
    return Fraction(v0.numerator * v1.denominator * t.denominator
                    + t.numerator * v1.numerator * v0.denominator,
                    v0.denominator * v1.denominator * t.denominator)


def _value(rows, basis, cost, scale, col) -> Fraction:
    """The cost of the basic solution for the right-hand side in column
    col, over scale: sum_i cost[basis[i]] * rows[i][col] / rows[i][basis[i]],
    summed in integers over the lcm of the row denominators."""
    terms = [(cost[b] * row[col], row[b]) for row, b in zip(rows, basis) if cost[b]]
    den = lcm(*(d for _, d in terms))
    return Fraction(sum(num * (den // d) for num, d in terms), scale * den)


def _solution(rows, basis, n, col, scale=1):
    """The basic solution in the original free variables for the right-hand
    side in column col, divided by scale: x_j = x+_j - x-_j, and the two
    columns are opposite, so at most one of them is basic."""
    x = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = Fraction(row[col], scale * row[b])
        elif b < 2 * n:
            x[b - n] = -Fraction(row[col], scale * row[b])
    return x


def solve_lp(objective, constraints, n) -> LPResult:
    """Minimize objective . x over {x in Q^n : a_i . x >= b_i for all i}:
    one phase 1 and one phase 2.  Exact throughout; the point returned
    attains the optimum."""
    return Polytope(constraints, n).minimize(objective)
