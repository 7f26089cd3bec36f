"""Two-phase simplex over exact rationals.

Free variables are split into positive parts, inequalities get surplus
columns, and both phases pivot under Bland's rule (smallest eligible
index), which guarantees termination without any tolerance.  Problem sizes
here are tiny (section polytopes of fans with at most a handful of rays),
so the tableau recomputes reduced costs on every pivot for simplicity.

Phase 1 depends only on the constraints.  A `Polytope` runs it once and
answers every later objective by phase 2 from a copy of its basis, so a
caller that asks many questions of one polytope (the order LPs of every
invariant subvariety on one section polytope) pays for phase 1 once; the
value and the point equal those of a fresh `solve_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: object = None   # Fraction when optimal
    point: tuple = None    # optimizer in the original free variables


def _pivot(rows, rhs, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    rhs[r] = rhs[r] / piv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
            rhs[i] = rhs[i] - f * rhs[r]
    basis[r] = c


def _run_simplex(rows, rhs, basis, cost):
    """Minimize cost over the current basic feasible tableau (Bland's rule).
    Returns OPTIMAL or UNBOUNDED; mutates the tableau in place."""
    ncols = len(cost)
    while True:
        reduced = list(cost)
        for i, b in enumerate(basis):
            cb = cost[b]
            if cb != 0:
                row = rows[i]
                for j in range(ncols):
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        entering = next((j for j in range(ncols) if reduced[j] < 0), None)
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(len(rows)):
            a = rows[i][entering]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, rhs, basis, leaving, entering)


class Polytope:
    """The rational polyhedron {x in Q^n : a_i . x >= b_i for all i}, with
    phase 1 already run.

    constraints: iterable of (coefficient sequence, rhs).  Phase 1 depends
    only on the constraints, so it runs once here; every `minimize` call
    starts phase 2 from a copy of the resulting basis.
    """

    def __init__(self, constraints, n):
        self.n = n
        cons = [([Fraction(c) for c in a], Fraction(b)) for a, b in constraints]
        m = len(cons)
        width = 2 * n + m          # x+ columns, x- columns, surplus columns
        rows, rhs = [], []
        for i, (a, b) in enumerate(cons):
            row = [Fraction(0)] * width
            for j in range(n):
                row[j] = a[j]
                row[n + j] = -a[j]
            row[2 * n + i] = Fraction(-1)
            if b < 0:
                row = [-v for v in row]
                b = -b
            rows.append(row)
            rhs.append(b)

        # phase 1: artificial basis
        for i in range(m):
            rows[i] = rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        basis = list(range(width, width + m))
        cost1 = [Fraction(0)] * width + [Fraction(1)] * m
        if _run_simplex(rows, rhs, basis, cost1) != OPTIMAL:
            raise ContractError("phase-1 objective cannot be unbounded")
        self.feasible = sum(rhs[i] for i in range(m) if basis[i] >= width) == 0
        if not self.feasible:
            return
        # drive lingering artificials out of the basis
        for i in range(m):
            if basis[i] >= width:
                c = next((j for j in range(width) if rows[i][j] != 0), None)
                if c is not None:
                    _pivot(rows, rhs, basis, i, c)
        keep = [i for i in range(m) if basis[i] < width]
        self._rows = [rows[i][:width] for i in keep]
        self._rhs = [rhs[i] for i in keep]
        self._basis = [basis[i] for i in keep]
        self._surplus = m

    def minimize(self, objective) -> LPResult:
        """Minimize objective . x by phase 2 under Bland's rule.  Exact
        throughout; the point returned attains the optimum."""
        if not self.feasible:
            return LPResult(INFEASIBLE)
        n = self.n
        objective = [Fraction(c) for c in objective]
        rows = [list(r) for r in self._rows]
        rhs = list(self._rhs)
        basis = list(self._basis)
        cost2 = objective + [-c for c in objective] + [Fraction(0)] * self._surplus
        if _run_simplex(rows, rhs, basis, cost2) == UNBOUNDED:
            return LPResult(UNBOUNDED)
        values = {b: rhs[i] for i, b in enumerate(basis)}
        x = tuple(values.get(j, Fraction(0)) - values.get(n + j, Fraction(0))
                  for j in range(n))
        return LPResult(OPTIMAL, sum(c * v for c, v in zip(objective, x)), x)


def solve_lp(objective, constraints, n) -> LPResult:
    """Minimize objective . x over {x in Q^n : a_i . x >= b_i for all i}:
    one phase 1 and one phase 2.  Exact throughout; the point returned
    attains the optimum."""
    return Polytope(constraints, n).minimize(objective)
