from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from multisec.exactalg import Cyclotomic, as_fraction, cyclotomic_polynomial


KNOWN_PHI = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 12: 4}

KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_rational_scalar_normal_form():
    # rationals are plain Fractions, whose normal form the kernel relies on
    from math import gcd

    x = Fraction(6, -4)
    assert x.denominator > 0
    assert gcd(x.numerator, x.denominator) == 1
    assert (x.numerator, x.denominator) == (-3, 2)


def test_cyclotomic_polynomials_known():
    for d, coeffs in KNOWN_CYCLOTOMIC.items():
        assert cyclotomic_polynomial(d) == coeffs


def test_cyclotomic_polynomial_degrees_match_phi():
    for d, phi in KNOWN_PHI.items():
        assert len(cyclotomic_polynomial(d)) - 1 == phi
    for d in range(1, 31):  # phi(d) counts the units mod d
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        assert len(cyclotomic_polynomial(d)) - 1 == phi


def test_zeta6_relations():
    z = Cyclotomic.zeta(6)
    assert z ** 2 == z - 1
    assert z ** 3 == -1
    assert z ** 6 == 1
    assert z ** 5 == z.inverse()


def test_zeta_small_conductors():
    assert Cyclotomic.zeta(1) == 1
    assert Cyclotomic.zeta(2) == -1
    z3 = Cyclotomic.zeta(3)
    assert z3 ** 2 + z3 + 1 == 0
    assert sum((z3 ** k for k in range(3)), Cyclotomic.zero(3)) == 0


def test_rational_detection_and_cast():
    z = Cyclotomic.zeta(6)
    a = z ** 3  # = -1
    assert a.is_rational() and a.to_fraction() == -1
    assert as_fraction(a) == Fraction(-1)
    with pytest.raises(ValueError):
        z.to_fraction()


def test_mixed_arithmetic_with_rationals():
    z = Cyclotomic.zeta(6)
    assert 1 + z - z == 1
    assert Fraction(1, 2) * z * 2 == z
    assert (z + 1) - z == Cyclotomic.one(6)
    assert 1 / z == z ** 5


def test_hash_consistent_with_rational_equality():
    a = Cyclotomic.from_rational(6, Fraction(3, 2))
    assert a == Fraction(3, 2)
    assert hash(a) == hash(Fraction(3, 2))


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(6) + Cyclotomic.zeta(3)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.lists(small_fractions, min_size=2, max_size=2),
       st.lists(small_fractions, min_size=2, max_size=2))
def test_field_axioms_conductor6(u, v):
    x = Cyclotomic(6, u)
    y = Cyclotomic(6, v)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y:
        assert (x / y) * y == x


@given(st.lists(small_fractions, min_size=2, max_size=2))
def test_inverse_is_two_sided(u):
    x = Cyclotomic(6, u)
    if x:
        assert x * x.inverse() == 1
        assert x.inverse() * x == 1
