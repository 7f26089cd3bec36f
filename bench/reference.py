"""A fixed unit of pure-Python exact arithmetic that clocks the host.

The machine the bounds were set on shares its cores with other work: the
same work took anywhere from 0.6 to 1.0 of its slowest time, shifting
within seconds and across minutes.  Every worker therefore times this
unit between items; it uses the same kinds of operations as the package
(Fraction elimination as in the simplex, dict-of-terms products mod p as
in Polynomial.__mul__, an antichain scan as in min_antichain) and imports
nothing from it, so a change to the package never changes the unit.  A
timing scaled by ``NOMINAL_S / (measured unit time)`` reads as it would on
a host that runs the unit in NOMINAL_S seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Seconds one unit is taken to last on the reference host (about its
#: median on the machine the bounds were set on).
NOMINAL_S = 0.05


def unit() -> int:
    out = 0
    for r in range(7):
        n = 7
        m = [[Fraction((i * 7 + j * 3 + r) % 11 - 5, (i + j) % 5 + 1) for j in range(n + 1)]
             for i in range(n)]
        for c in range(n):
            piv = next((k for k in range(c, n) if m[k][c] != 0), None)
            if piv is None:
                continue
            m[c], m[piv] = m[piv], m[c]
            m[c] = [v / m[c][c] for v in m[c]]
            for k in range(n):
                if k != c and m[k][c] != 0:
                    f = m[k][c]
                    m[k] = [a - f * b for a, b in zip(m[k], m[c])]
        f = {(i, j): (i * 3 + j + r) % 7 + 1 for i in range(12) for j in range(12 - i)}
        g = {(i, j): (i + 2 * j + r) % 5 + 1 for i in range(10) for j in range(10 - i)}
        h: dict = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                key = (m1[0] + m2[0], m1[1] + m2[1])
                h[key] = (h.get(key, 0) + c1 * c2) % 7
        vecs = sorted({(a % 9, (a * 5) % 11, (a * 7 + r) % 13) for a in range(600)},
                      key=lambda v: (sum(v), v))
        kept: list = []
        for v in vecs:
            if not any(all(x <= y for x, y in zip(k, v)) for k in kept):
                kept.append(v)
        out += len(h) + len(kept)
    return out


def timed_unit() -> float:
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start
