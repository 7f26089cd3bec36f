"""Fans of any dimension as raw (rays, max_cones) data, for `nonnef.toric.Fan`."""

from itertools import combinations, product

# unimodular cycles of 2-D cones that wind twice around the origin: every
# ray bounds two cones on opposite sides, v = f, and each is connected.
# Five rays is the least: each cone turns by less than pi.
TWO_FOLD_CYCLE = [(1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2), (2, 1), (1, 1),
                  (0, 1), (-1, -1)]
SHORT_TWO_FOLD_CYCLE = [(1, 0), (-2, 1), (1, -1), (-1, 2), (0, -1)]


def projective_space(n):
    rays = [tuple(int(i == k) for k in range(n)) for i in range(n)] + [(-1,) * n]
    return rays, list(combinations(range(n + 1), n))


def product_of_lines(n):
    """(P^1)^n: rays +-e_i, one chart per choice of signs."""
    rays = [tuple(s * (i == k) for k in range(n)) for i in range(n) for s in (1, -1)]
    return rays, [tuple(2 * i + b for i, b in enumerate(bits))
                  for bits in product((0, 1), repeat=n)]


def blow_up_point(rays, cones, cone):
    """The blow-up at the fixed point of a maximal cone: its star subdivision."""
    new = len(rays)
    ray = tuple(map(sum, zip(*(rays[i] for i in cone))))
    return (list(rays) + [ray],
            [c for c in cones if c != cone] + [tuple(j for j in cone if j != i) + (new,)
                                               for i in cone])


def cycle_times_lines(cycle, extra):
    """cycle x (P^1)^extra: covers R^(2 + extra) twice for a two-fold cycle."""
    k, n = len(cycle), 2 + extra
    rays = [v + (0,) * extra for v in cycle]
    rays += [tuple(s * (i == j) for j in range(n)) for i in range(2, n) for s in (1, -1)]
    return rays, [(i, (i + 1) % k) + tuple(k + 2 * j + b for j, b in enumerate(bits))
                  for i in range(k) for bits in product((0, 1), repeat=extra)]


def suspension(rays2, cones2):
    """The 3-D fan of cones over a 2-D fan's cones to the apexes +-e_3."""
    k = len(rays2)
    rays = [v + (0,) for v in rays2] + [(0, 0, 1), (0, 0, -1)]
    return rays, [c + (k + b,) for c in cones2 for b in (0, 1)]
