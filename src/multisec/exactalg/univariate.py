"""Dense univariate polynomials over Q.

A polynomial is a list of Fraction coefficients, constant term first, with
no trailing zeros (the zero polynomial is the empty list).  These helpers
serve the gcd of binary forms (a monic gcd of their dehomogenizations).
"""

from __future__ import annotations

from fractions import Fraction


def trim(p: list[Fraction]) -> list[Fraction]:
    """Drop trailing zero coefficients in place and return p."""
    while p and p[-1] == 0:
        p.pop()
    return p


def quo_rem(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by a nonzero b."""
    a = trim(list(a))
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        da = len(a) - 1
        c = a[-1] / lead
        quot[da - db] = c
        for k in range(db + 1):
            a[da - db + k] -= c * b[k]
        trim(a)
    return trim(quot), a


def monic_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The monic gcd of a and b; the empty list when both are zero."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        _, r = quo_rem(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a
