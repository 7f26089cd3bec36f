"""Buchberger's algorithm over F_p, graded reverse lexicographic order.

Plain Buchberger with the coprime-leading-term (product) criterion only;
deterministic pair selection so the reduced basis is reproducible.  An
S-pair budget guards against runaway inputs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import ResourceLimitError
from .poly import Polynomial, grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under multivariate division by `basis`."""
    return _divide(f, _reducers(basis))


def _reducers(basis):
    """(leading monomial, inverse of the leading coefficient, other terms)
    of every nonzero member of `basis`: what division by it reads."""
    out = []
    for g in basis:
        if not g.is_zero():
            lm = g.leading_monomial()
            out.append((lm, g.ring.field.inv(g.terms[lm]),
                        [(m, c) for m, c in g.terms.items() if m != lm]))
    return out


def _divide(f: Polynomial, reducers) -> Polynomial:
    """normal_form by reducers already built by `_reducers`."""
    p = f.ring.field.p
    remainder: dict = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, lcinv, tail in reducers:
            if mono_divides(lm, m):
                # the leading term cancels the popped term m exactly
                factor = (c * lcinv) % p
                shift = mono_div(m, lm)
                for gm, gc in tail:
                    t = mono_mul(gm, shift)
                    v = (work.get(t, 0) - factor * gc) % p
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
    return Polynomial._clean(f.ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    a = f.scale_monomial(mono_div(lcm, lf)).scale(f.ring.field.inv(f.leading_coeff()))
    b = g.scale_monomial(mono_div(lcm, lg)).scale(g.ring.field.inv(g.leading_coeff()))
    return a - b


def buchberger(generators, pair_cap: int):
    """Reduced Groebner basis of the ideal spanned by `generators`.

    Deterministic given the generator list: pairs are processed in order of
    (lcm degree, lcm, indices); the output is monic, autoreduced and sorted
    by leading monomial.
    """
    basis = [g.monic() for g in generators if not g.is_zero()]
    basis.sort(key=lambda h: grevlex_key(h.leading_monomial()))
    if not basis:
        return []

    leads = [h.leading_monomial() for h in basis]
    reducers = _reducers(basis)

    def pair(i, j):
        lcm = mono_lcm(leads[i], leads[j])
        return (sum(lcm), grevlex_key(lcm), i, j)

    pending = [pair(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapify(pending)
    processed = 0
    while pending:
        _, _, i, j = heappop(pending)
        processed += 1
        if processed > pair_cap:
            raise ResourceLimitError(f"Groebner pair budget exceeded ({pair_cap})")
        if mono_lcm(leads[i], leads[j]) == mono_mul(leads[i], leads[j]):
            continue  # product criterion: coprime leading terms
        rem = _divide(s_polynomial(basis[i], basis[j]), reducers)
        if not rem.is_zero():
            basis.append(rem.monic())
            leads.append(basis[-1].leading_monomial())
            reducers += _reducers(basis[-1:])
            k = len(basis) - 1
            for t in range(k):
                heappush(pending, pair(t, k))
    return _reduce_basis(basis)


def _reduce_basis(basis):
    # minimalize: drop g whenever another member's lead divides its lead
    ordered = sorted(basis, key=lambda h: grevlex_key(h.leading_monomial()))
    minimal = []
    for g in ordered:
        lm = g.leading_monomial()
        if not any(mono_divides(k.leading_monomial(), lm) for k in minimal):
            minimal.append(g)
    # tail-reduce each member against the rest
    reducers = _reducers(minimal)
    reduced = []
    for idx, g in enumerate(minimal):
        others = reducers[:idx] + reducers[idx + 1:]
        h = _divide(g, others).monic() if others else g
        if not h.is_zero():
            reduced.append(h)
    reduced.sort(key=lambda h: grevlex_key(h.leading_monomial()))
    return reduced
