"""Exact scalars: rationals, and the cyclotomic ring the norm multiplies in.

Rationals are plain ``fractions.Fraction`` values.  Fraction already keeps
the normal form the rest of the package relies on (gcd-reduced numerator
over a positive denominator, unbounded integers), so no wrapper type is
introduced.

`Cyclotomic` holds the conjugate factors of `construct.monomial_norm`, an
element of Q[z]/(Phi_d(z)) with Phi_d the d-th cyclotomic polynomial.  It
is stored as the canonical reduced representative with a common
denominator: a tuple of phi(d) = deg Phi_d integer numerators, constant
term first, over one positive integer denominator, with the gcd of all of
them equal to 1.  It only adds, multiplies, raises to powers n >= 0 and
casts a rational result back to Fraction; there is no inverse, division,
subtraction or equality.  A product is an integer convolution of the
numerators folded back below degree phi(d) by a cached table of
x^m mod Phi_d (0 <= m < d, since x^d = 1); Phi_d is monic, so the table is
integral.  Phi_d itself is computed by the recursive quotient

    Phi_d(x) = (x^d - 1) / prod(Phi_e(x) for e | d, e < d)

which is cheap at the conductors exercised here (2, 3, 4, 6) and correct
for every d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; division is exact for cyclotomic quotients
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for k in range(dd + 1):
            num[i - dd + k] -= c * den[k]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, constant term first, monic."""
    if d < 1:
        raise ValueError("conductor must be positive")
    if d == 1:
        return (-1, 1)
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(e)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(d: int) -> tuple[tuple[int, ...], ...]:
    # row m holds x^m mod Phi_d for 0 <= m < d; x^d = 1 covers the rest
    mod = cyclotomic_polynomial(d)
    row = [1] + [0] * (len(mod) - 2)
    rows = []
    for _ in range(d):
        rows.append(tuple(row))
        top = row[-1]
        row = [r - top * m for r, m in zip([0] + row[:-1], mod)]
    return tuple(rows)


def _mul_numerators(d: int, a, b) -> list[int]:
    # integer product of two numerator vectors modulo Phi_d
    phi = len(a)
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                prod[k] += x * y
    num = prod[:phi]
    powers = _power_rows(d)
    for m, c in enumerate(prod[phi:], phi):
        if c:
            for k, r in enumerate(powers[m % d]):
                num[k] += c * r
    return num


class Cyclotomic:
    """Immutable element of the cyclotomic ring of a fixed conductor.

    Adds and multiplies with Cyclotomic, int and Fraction operands;
    elements of different conductors do not mix (the norm never needs it).
    """

    __slots__ = ("conductor", "numerators", "denominator")

    def __init__(self, conductor: int, coeffs) -> None:
        # each int or Fraction coefficient of z^m, any m >= 0, becomes a
        # numerator over the lcm denominator and adds that multiple of the
        # table row of z^(m mod d), a unit row when m < phi(d)
        coeffs = tuple(coeffs)
        powers = _power_rows(conductor)
        den = lcm(*(c.denominator for c in coeffs))
        num = [0] * len(powers[0])
        for m, c in enumerate(coeffs):
            if c:
                n = c.numerator * (den // c.denominator)
                for k, r in enumerate(powers[m % conductor]):
                    num[k] += n * r
        g = gcd(den, *num)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "numerators", tuple(x // g for x in num))
        object.__setattr__(self, "denominator", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def _make(cls, conductor: int, num, den: int) -> "Cyclotomic":
        # den > 0; divides out the common gcd to reach the normal form
        g = gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
        obj = object.__new__(cls)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "numerators", tuple(num))
        object.__setattr__(obj, "denominator", den)
        return obj

    @classmethod
    def zeta(cls, conductor: int) -> "Cyclotomic":
        """A primitive root of unity of the given conductor."""
        return cls(conductor, [0, 1])

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(
                f"cyclotomic number with numerators {self.numerators} over "
                f"{self.denominator} (conductor {self.conductor}) is not rational")
        return Fraction(self.numerators[0], self.denominator)

    def _check_conductor(self, other: "Cyclotomic") -> None:
        if other.conductor != self.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}")

    def __add__(self, other):
        a, da = self.numerators, self.denominator
        if isinstance(other, Cyclotomic):
            self._check_conductor(other)
            b, db = other.numerators, other.denominator
            if da == db:
                return Cyclotomic._make(self.conductor, [x + y for x, y in zip(a, b)], da)
            return Cyclotomic._make(self.conductor,
                                    [x * db + y * da for x, y in zip(a, b)], da * db)
        if isinstance(other, (int, Fraction)):
            on, od = other.numerator, other.denominator
            num = [x * od for x in a]
            num[0] += on * da
            return Cyclotomic._make(self.conductor, num, da * od)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        a, da = self.numerators, self.denominator
        if isinstance(other, Cyclotomic):
            self._check_conductor(other)
            num = _mul_numerators(self.conductor, a, other.numerators)
            return Cyclotomic._make(self.conductor, num, da * other.denominator)
        if isinstance(other, (int, Fraction)):
            on = other.numerator
            return Cyclotomic._make(self.conductor, [x * on for x in a],
                                    da * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(f"negative power {n}: Cyclotomic has no inverse")
        result = Cyclotomic(self.conductor, [1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return any(self.numerators)


def as_fraction(x) -> Fraction:
    """Cast an exact scalar down to Fraction, failing if it is irrational."""
    if isinstance(x, Cyclotomic):
        return x.to_fraction()
    return Fraction(x)
