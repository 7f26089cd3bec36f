"""Text formats: the ideal grammar, rationals, divisors.

Ideal grammar (also emitted by :func:`format_ideal`, round-trip exact):

    p=<prime>; vars=<comma-list>; gens=[<poly>{, <poly>}]

with polynomials in expanded form, '^' for powers and '*' optional between
factors.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError
from .ideal import Ideal
from .poly import VARIABLE_NAME, Polynomial, Ring, ring

_TOKEN = re.compile(rf"\s*(?:(\d+)|({VARIABLE_NAME.pattern})|(\^)|(\*)|(\+)|(-)|(.))")


def _tokenize_poly(text: str, offset: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        num, name, caret, star, plus, minus, junk = m.groups()
        if junk is not None:
            raise DomainError(f"syntax error at position {offset + m.start(7)}: "
                              f"unexpected character {junk!r}")
        if num is not None:
            tokens.append(("int", int(num), offset + m.start(1)))
        elif name is not None:
            tokens.append(("name", name, offset + m.start(2)))
        elif caret:
            tokens.append(("^", "^", offset + m.start(3)))
        elif star:
            tokens.append(("*", "*", offset + m.start(4)))
        elif plus:
            tokens.append(("+", "+", offset + m.start(5)))
        elif minus:
            tokens.append(("-", "-", offset + m.start(6)))
        pos = m.end()
    return tokens


def parse_poly(text: str, amb: Ring, offset: int = 0) -> Polynomial:
    """Parse one polynomial in expanded form."""
    tokens = _tokenize_poly(text, offset)
    if not tokens:
        raise DomainError(f"syntax error at position {offset}: empty polynomial")
    var_index = {name: i for i, name in enumerate(amb.variables)}
    result = Polynomial.zero(amb)
    i = 0
    sign = 1
    while i < len(tokens):
        # optional leading sign for this term
        while i < len(tokens) and tokens[i][0] in ("+", "-"):
            if tokens[i][0] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise DomainError("syntax error: dangling sign at end of polynomial")
        coeff = 1
        exps = [0] * amb.nvars
        saw_factor = False
        while i < len(tokens) and tokens[i][0] in ("int", "name", "*"):
            kind, val, pos = tokens[i]
            if kind == "*":
                i += 1
                continue
            saw_factor = True
            if kind == "int":
                coeff *= val
                i += 1
            else:
                if val not in var_index:
                    raise DomainError(f"syntax error at position {pos}: unknown variable {val!r}")
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        raise DomainError(f"syntax error at position {pos}: '^' needs an integer")
                    power = tokens[i][1]
                    i += 1
                exps[var_index[val]] += power
        if not saw_factor:
            raise DomainError(f"syntax error at position {tokens[i][2]}: expected a term")
        result = result + Polynomial.monomial(amb, tuple(exps), sign * coeff)
        sign = 1
    return result


_IDEAL_RX = re.compile(
    r"^\s*p\s*=\s*(\d+)\s*;\s*vars\s*=\s*([A-Za-z_0-9,\s]+?)\s*;\s*gens\s*=\s*\[(.*)\]\s*$",
    re.S)


def parse_ideal(text: str) -> Ideal:
    """Parse the ideal grammar; the monomial flag is auto-detected."""
    m = _IDEAL_RX.match(text)
    if not m:
        raise DomainError(f"syntax error at position 0: expected "
                          f"'p=<prime>; vars=...; gens=[...]', got {text[:40]!r}")
    p = int(m.group(1))
    names = tuple(v.strip() for v in m.group(2).split(",") if v.strip())
    amb = ring(p, *names)  # rejects non-prime p
    body = m.group(3)
    offset = m.start(3)
    gens = []
    if body.strip():
        depth_pos = offset
        for chunk in body.split(","):
            gens.append(parse_poly(chunk, amb, depth_pos))
            depth_pos += len(chunk) + 1
    return Ideal(amb, gens)


def format_ideal(a: Ideal) -> str:
    gens = ", ".join(repr(g) for g in a.generators)
    return f"p={a.ring.field.p}; vars={','.join(a.ring.variables)}; gens=[{gens}]"


# -- rationals -----------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """`a` or `a/b` with integers a, b (b nonzero); anything else is a
    DomainError that names the text."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational number: {text!r}") from None


def format_rational(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_divisor(text: str):
    """Comma-separated rational coefficients, one per ray."""
    return tuple(parse_rational(c) for c in text.split(","))
