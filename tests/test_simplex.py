"""Exact simplex against an independent vertex-enumeration oracle and a
`Fraction` tableau."""

import random
from fractions import Fraction

import pytest

from nonnef import simplex
from nonnef.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, Polytope, solve_lp
from oracles import fraction_simplex, lp_min_by_vertices


def test_triangle_minimum():
    # feasible region: x >= 0, y >= 0, x + y >= 1; minimize x + 2y
    cons = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
    res = solve_lp((1, 2), cons, 2)
    assert res.status == OPTIMAL and res.value == 1 and res.point == (1, 0)


def test_infeasible():
    cons = [((1,), 1), ((-1,), 0)]  # x >= 1 and x <= 0
    assert solve_lp((1,), cons, 1).status == INFEASIBLE
    assert Polytope(cons, 1).feasible is False


def test_unbounded():
    cons = [((1,), 0)]
    assert solve_lp((-1,), cons, 1).status == UNBOUNDED


def test_maximize_mode():
    # maximize x + y by minimizing its negation
    cons = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)]  # simplex with x+y <= 2
    res = solve_lp((-1, -1), cons, 2)
    assert -res.value == 2


def test_exact_fractions():
    cons = [((3, 0), 1), ((0, 7), 2), ((-1, 0), -5), ((0, -1), -5)]
    res = solve_lp((1, 1), cons, 2)
    assert res.value == Fraction(1, 3) + Fraction(2, 7)


def test_free_variables_negative_optimum():
    cons = [((1, 0), -3), ((0, 1), -4), ((-1, 0), -10), ((0, -1), -10)]
    res = solve_lp((1, 1), cons, 2)
    assert res.value == -7 and res.point == (-3, -4)


def _random_bounded_lps(seed, count):
    """(constraints, n, rng) for `count` random LPs inside the box |x_j| <= 8."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([2, 3])
        cons = [tuple(([rng.randrange(-3, 4) for _ in range(n)], rng.randrange(-5, 6)))
                for _ in range(rng.randrange(n + 1, n + 5))]
        # boundedness: add box constraints
        for j in range(n):
            lo = [0] * n
            lo[j] = 1
            cons.append((lo, -8))
            hi = [0] * n
            hi[j] = -1
            cons.append((hi, -8))
        yield cons, n, rng


def _oracle_min(obj, cons, n):
    return lp_min_by_vertices(
        [Fraction(c) for c in obj],
        [([Fraction(c) for c in a], Fraction(b)) for a, b in cons], n)[0]


def test_random_bounded_lps_match_vertex_oracle():
    for cons, n, rng in _random_bounded_lps(97, 120):
        obj = [rng.randrange(-3, 4) for _ in range(n)]
        res = solve_lp(obj, cons, n)
        oracle_val = _oracle_min(obj, cons, n)
        if res.status == INFEASIBLE:
            assert oracle_val is None
        else:
            assert res.status == OPTIMAL
            assert res.value == oracle_val
            point_ok = all(sum(c * v for c, v in zip(a, res.point)) >= b for a, b in cons)
            assert point_ok


def test_one_polytope_answers_every_objective_like_solve_lp():
    feasible = 0
    for cons, n, rng in _random_bounded_lps(97, 120):
        poly = Polytope(cons, n)
        feasible += poly.feasible
        for _ in range(4):
            obj = [rng.randrange(-3, 4) for _ in range(n)]
            res = poly.minimize(obj)
            assert res == solve_lp(obj, cons, n)
            oracle_val = _oracle_min(obj, cons, n)
            if res.status == INFEASIBLE:
                assert oracle_val is None and not poly.feasible
            else:
                assert res.status == OPTIMAL and res.value == oracle_val
    assert 0 < feasible < 120


def test_integer_objectives_answer_like_fraction_objectives():
    # LPResult equality alone would take the int 0 for Fraction(0)
    optimal = 0
    for cons, n, rng in _random_bounded_lps(53, 60):
        poly = Polytope(cons, n)
        for obj in ([0] * n, [rng.randrange(-3, 4) for _ in range(n)]):
            res = poly.minimize(obj)
            want = poly.minimize([Fraction(c) for c in obj])
            assert (res.status, res.value, res.point) == (want.status, want.value, want.point)
            if res.status == OPTIMAL:
                optimal += 1
                for r in (res, want):
                    assert type(r.value) is Fraction
                    assert all(type(v) is Fraction for v in r.point)
    assert optimal > 40


def test_infeasible_polytope_answers_infeasible_for_every_objective():
    poly = Polytope([((1, 1), 3), ((-1, 0), 0), ((0, -1), -1)], 2)  # x <= 0, y <= 1
    assert not poly.feasible
    for obj in ((0, 0), (1, 0), (-1, 2), (3, -5)):
        assert poly.minimize(obj) == LPResult(INFEASIBLE)


def test_minimize_leaves_the_polytope_reusable():
    cons = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)]
    poly = Polytope(cons, 2)
    first = poly.minimize((-1, 0))
    assert poly.minimize((0, -1)).value == -2
    assert poly.minimize((-1, 0)) == first == LPResult(OPTIMAL, -2, (2, 0))
    assert solve_lp((-1, -1), cons, 2).value == -2


@pytest.fixture
def pivots(monkeypatch):
    """The number of `simplex._pivot` calls since the last reset."""
    count = [0]
    pivot = simplex._pivot

    def counting(*args):
        count[0] += 1
        pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting)
    return count


def _solve_counted(obj, cons, n, pivots):
    pivots[0] = 0
    res = solve_lp(obj, cons, n)
    return res.status, res.value, res.point, pivots[0]


@pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
def test_integer_tableau_pivots_like_the_fraction_tableau(pivots, fractional):
    rng = random.Random(2024 + fractional)

    def entry():
        v = rng.randrange(-4, 5)
        return Fraction(v, rng.randrange(1, 6)) if fractional else v

    statuses = set()
    for _ in range(400):
        n, m = rng.randrange(1, 5), rng.randrange(1, 8)
        cons = [([entry() for _ in range(n)], entry()) for _ in range(m)]
        obj = [entry() for _ in range(n)]
        want = fraction_simplex(obj, cons, n)
        assert _solve_counted(obj, cons, n, pivots) == want, (obj, cons)
        statuses.add(want[0])
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_large_entries_pivot_like_the_fraction_tableau(pivots):
    # entries near 10^12 with large common factors: every pivot row is
    # divided down by the gcd of its entries
    big = 10 ** 12
    cons = [((big, big + 6), 3 * big), ((big - 4, -big), -2 * big),
            ((-big - 2, big // 2), -5 * big), ((Fraction(big, 7), 3), 1),
            ((0, 1), 0), ((1, 0), 0)]
    for obj in ((1, 1), (-1, 2), (big + 1, -big), (-3, -1)):
        want = fraction_simplex(obj, cons, 2)
        assert want[0] == OPTIMAL
        assert _solve_counted(obj, cons, 2, pivots) == want
