"""The integer-vector Cyclotomic against the tuple-of-Fraction reference.

`RefCyclotomic` is the earlier representation: a coefficient tuple over
Fraction, reduced modulo Phi_d by long division and inverted by an
extended gcd over Fraction.  It is the field Q(zeta_d) of the test oracles
(`gauss_jordan` over Q(zeta_6), the pencil oracle's fibers and
evaluations, and the norm oracle), which import it from here.  Every
operation left on `Cyclotomic` (the normal form, +, *, ** with n >= 0,
zeta, to_fraction and the conductor check) must give the element the
reference gives: the same coefficients as numerators over the denominator.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from multisec.exactalg import Cyclotomic, as_fraction, cyclotomic_polynomial


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a, b):
    a = _trim(list(a))
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        quot[shift] = c
        for k, bk in enumerate(b):
            a[shift + k] -= c * bk
        _trim(a)
    return _trim(quot), a


class RefCyclotomic:
    def __init__(self, conductor, coeffs):
        phi = len(cyclotomic_polynomial(conductor)) - 1
        vec = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(vec) > phi:
            mod = [Fraction(c) for c in cyclotomic_polynomial(conductor)]
            _, vec = _poly_divmod(vec, mod)
        self.conductor = conductor
        self.coeffs = tuple(vec + [Fraction(0)] * (phi - len(vec)))

    def __add__(self, other):
        if isinstance(other, RefCyclotomic):
            return RefCyclotomic(self.conductor,
                                 [a + b for a, b in zip(self.coeffs, other.coeffs)])
        return RefCyclotomic(self.conductor, (self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return RefCyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, RefCyclotomic):
            if self.is_rational():
                return other * self.coeffs[0]
            if not other.is_rational():
                return RefCyclotomic(self.conductor,
                                     _poly_mul(list(self.coeffs), list(other.coeffs)))
            other = other.coeffs[0]
        return RefCyclotomic(self.conductor, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = _trim(list(self.coeffs)), mod
        u0, u1 = [Fraction(1)], []
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qu = _poly_mul(q, u1)
            nu = u0 + [Fraction(0)] * max(0, len(qu) - len(u0))
            for i, c in enumerate(qu):
                nu[i] -= c
            u0, u1 = u1, _trim(nu)
        return RefCyclotomic(self.conductor, [c / r0[0] for c in u0])

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        result = RefCyclotomic(self.conductor, [1])
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, RefCyclotomic):
            return (self.conductor, self.coeffs) == (other.conductor, other.coeffs)
        return NotImplemented

    def is_rational(self):
        return not any(self.coeffs[1:])


def assert_same(x, ref):
    assert isinstance(x, Cyclotomic)
    assert x.conductor == ref.conductor
    assert x.denominator > 0
    assert gcd(x.denominator, *x.numerators) == 1
    assert tuple(Fraction(n, x.denominator) for n in x.numerators) == ref.coeffs


# conductors up to 12 reduce products of degree up to 46 by long division
# over Fraction, which a loaded machine can stretch past the default
# per-example deadline
slow = settings(deadline=None)
small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
rationals = st.one_of(st.integers(-6, 6), small)


@st.composite
def pairs(draw, count=2):
    # up to 2d coefficients, so the constructor folds z^m for m >= d as well
    d = draw(st.integers(1, 12))
    vectors = [draw(st.lists(small, max_size=2 * d)) for _ in range(count)]
    return d, vectors


@slow
@given(pairs())
def test_ring_operations_match_reference(case):
    d, (u, v) = case
    x, y = Cyclotomic(d, u), Cyclotomic(d, v)
    rx, ry = RefCyclotomic(d, u), RefCyclotomic(d, v)
    assert_same(Cyclotomic.zeta(d), RefCyclotomic(d, [0, 1]))
    assert_same(x, rx)
    assert_same(x + y, rx + ry)
    assert_same(x * y, rx * ry)
    assert bool(x) == bool(rx)


@slow
@given(pairs(count=1), st.integers(-3, 6))
def test_powers_match_reference(case, n):
    d, (u,) = case
    x, rx = Cyclotomic(d, u), RefCyclotomic(d, u)
    if n < 0:
        with pytest.raises(ValueError, match="negative power"):
            x ** n
    else:
        assert_same(x ** n, rx ** n)


@slow
@given(pairs(count=1), rationals)
def test_mixed_rational_operands_match_reference(case, q):
    d, (u,) = case
    x, rx = Cyclotomic(d, u), RefCyclotomic(d, u)
    assert_same(x + q, rx + q)
    assert_same(q + x, rx + q)
    assert_same(x * q, rx * q)
    assert_same(q * x, rx * q)


@given(st.integers(1, 12), st.integers(1, 12), rationals)
def test_rational_elements_equal_their_fraction(d, e, q):
    x = Cyclotomic(d, [q])
    assert x.is_rational()
    assert x.to_fraction() == q and as_fraction(x) == q
    assert Cyclotomic(e, [q]).to_fraction() == x.to_fraction()
    # z^d = 1 folds a rational multiple of z^d down to the rational itself
    assert (Cyclotomic.zeta(d) ** d * q).to_fraction() == q
    if d > 2:  # phi(d) > 1, so zeta is irrational
        with pytest.raises(ValueError, match="not rational"):
            (Cyclotomic.zeta(d) + q).to_fraction()


@pytest.mark.parametrize("d", [1, 2])
def test_degree_one_conductors(d):
    z = Cyclotomic.zeta(d)
    assert z.to_fraction() == (1 if d == 1 else -1)
    assert (z * z).to_fraction() == 1
    assert_same(z * Cyclotomic(d, [Fraction(2, 3)]),
                RefCyclotomic(d, [0, 1]) * RefCyclotomic(d, [Fraction(2, 3)]))
