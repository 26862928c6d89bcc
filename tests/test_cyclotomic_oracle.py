"""The integer-vector Cyclotomic against the tuple-of-Fraction reference.

`RefCyclotomic` is the earlier representation, kept here only as the
oracle: a coefficient tuple over Fraction, reduced modulo Phi_d by long
division, inverted by an extended gcd over Fraction and conjugated by
substituting x^k.  Every operation of `Cyclotomic` must give the element
the reference gives, with the same coefficients, printed forms and hash.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from multisec.exactalg import Cyclotomic, cyclotomic_polynomial


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
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > phi:
            mod = [Fraction(c) for c in cyclotomic_polynomial(conductor)]
            _, vec = _poly_divmod(vec, mod)
        self.conductor = conductor
        self.coeffs = tuple(vec + [Fraction(0)] * (phi - len(vec)))

    def _lift(self, other):
        if isinstance(other, RefCyclotomic):
            return other
        return RefCyclotomic(self.conductor, [other])

    def __add__(self, other):
        o = self._lift(other)
        return RefCyclotomic(self.conductor,
                             [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return RefCyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        return RefCyclotomic(self.conductor,
                             _poly_mul(list(self.coeffs), list(o.coeffs)))

    def inverse(self):
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

    def galois(self, k):
        # sum c_i x^(ik), reduced by x^d = 1 and then by long division
        spread = [Fraction(0)] * self.conductor
        for i, c in enumerate(self.coeffs):
            spread[i * k % self.conductor] += c
        return RefCyclotomic(self.conductor, spread)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = RefCyclotomic(self.conductor, [1])
        for _ in range(n):
            result = result * self
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {list(self.coeffs)!r})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            z = "" if i == 0 else (f"z{self.conductor}" if i == 1
                                   else f"z{self.conductor}^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(z)
            elif c == -1:
                parts.append(f"-{z}")
            else:
                parts.append(f"{c}*{z}")
        return " + ".join(parts) if parts else "0"

    def hash_value(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))


def assert_same(x, ref):
    assert isinstance(x, Cyclotomic)
    assert x.conductor == ref.conductor
    assert x.coeffs == ref.coeffs
    assert hash(x) == ref.hash_value()
    assert x.denominator > 0
    assert gcd(x.denominator, *x.numerators) == 1
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    assert x == Cyclotomic(ref.conductor, ref.coeffs)


# conductors up to 12 run extended gcds of degree up to 10 over Fraction,
# which a loaded machine can stretch past the default per-example deadline
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
    assert_same(x, rx)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(-x, -rx)
    assert_same(x * y, rx * ry)
    assert (x == y) == (rx.coeffs == ry.coeffs)
    if not ry.is_zero():
        assert_same(y.inverse(), ry.inverse())
        assert_same(x / y, rx * ry.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y


@slow
@given(pairs(count=1), st.integers(-3, 6))
def test_powers_match_reference(case, n):
    d, (u,) = case
    x, rx = Cyclotomic(d, u), RefCyclotomic(d, u)
    assume(n >= 0 or not rx.is_zero())
    assert_same(x ** n, rx ** n)


@slow
@given(pairs(count=1), rationals)
def test_mixed_rational_operands_match_reference(case, q):
    d, (u,) = case
    x, rx = Cyclotomic(d, u), RefCyclotomic(d, u)
    assert_same(x + q, rx + q)
    assert_same(q + x, rx + q)
    assert_same(x - q, rx - q)
    assert_same(q - x, -(rx - q))
    assert_same(x * q, rx * q)
    assert_same(q * x, rx * q)
    assert (x == q) == (rx.coeffs == RefCyclotomic(d, [q]).coeffs)
    if q != 0:
        assert_same(x / q, rx * RefCyclotomic(d, [Fraction(1) / Fraction(q)]))
    if not rx.is_zero():
        assert_same(q / x, rx.inverse() * q)


@given(st.integers(1, 12), st.integers(1, 12), rationals)
def test_rational_elements_equal_their_fraction(d, e, q):
    x = Cyclotomic.from_rational(d, q)
    assert x == q and x == Fraction(q)
    assert hash(x) == hash(Fraction(q))
    assert x == Cyclotomic.from_rational(e, q)
    assert x.to_fraction() == q


@pytest.mark.parametrize("d", [1, 2])
def test_degree_one_conductors(d):
    z = Cyclotomic.zeta(d)
    assert z == (1 if d == 1 else -1)
    assert z * z == 1
    assert_same(z * Cyclotomic(d, [Fraction(2, 3)]),
                RefCyclotomic(d, [0, 1]) * RefCyclotomic(d, [Fraction(2, 3)]))


# heights far past what the derivation produces: numerators and
# denominators up to 10^30, so products of conjugates reach hundreds of digits
tall = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@slow
@given(st.integers(1, 12), st.data())
def test_large_height_inverse_is_exact(d, data):
    phi = len(cyclotomic_polynomial(d)) - 1
    x = Cyclotomic(d, data.draw(st.lists(tall, min_size=1, max_size=phi)))
    assume(x)
    assert x * x.inverse() == 1
    assert x.inverse().inverse() == x


@given(st.sampled_from([1, 2]),
       st.builds(Fraction, st.integers(-10 ** 30, -1), st.integers(1, 10 ** 30)))
def test_negative_rational_inverse_has_positive_denominator(d, q):
    inverse = Cyclotomic.from_rational(d, q).inverse()
    assert inverse.denominator > 0
    assert gcd(inverse.denominator, *inverse.numerators) == 1
    assert inverse == 1 / q


@slow
@given(pairs(), st.data())
def test_galois_is_the_reference_automorphism(case, data):
    d, (u, v) = case
    k = data.draw(st.integers(-2 * d, 2 * d).filter(lambda k: gcd(k, d) == 1))
    x, y = Cyclotomic(d, u), Cyclotomic(d, v)
    assert_same(x.galois(k), RefCyclotomic(d, u).galois(k))
    assert x.galois(1) == x
    assert (x + y).galois(k) == x.galois(k) + y.galois(k)
    assert (x * y).galois(k) == x.galois(k) * y.galois(k)


def test_galois_conjugation_at_conductor_six():
    zeta = Cyclotomic.zeta(6)
    assert zeta.galois(-1) == zeta.galois(5) == zeta ** 5 == 1 - zeta
    assert (zeta + zeta.galois(-1)) == 1
    with pytest.raises(ValueError):
        zeta.galois(3)
