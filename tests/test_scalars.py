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


def form(x):
    """The normal form: the numerators over the denominator."""
    return x.numerators, x.denominator


def test_rational_scalar_normal_form():
    # rationals are plain Fractions, whose normal form the kernel relies on
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
    assert form(z ** 2) == ((-1, 1), 1)  # z^2 = z - 1
    assert form(z ** 3) == ((-1, 0), 1)
    assert form(z ** 5) == ((1, -1), 1)  # z^5 = 1 - z, the inverse of z
    assert form(z ** 6) == ((1, 0), 1)
    assert form(z ** 0) == ((1, 0), 1)


def test_zeta_small_conductors():
    assert Cyclotomic.zeta(1).to_fraction() == 1
    assert Cyclotomic.zeta(2).to_fraction() == -1
    z3 = Cyclotomic.zeta(3)
    assert not z3 ** 2 + z3 + 1
    assert not sum((z3 ** k for k in range(3)), Cyclotomic(3, []))


def test_rational_detection_and_cast():
    z = Cyclotomic.zeta(6)
    a = z ** 3  # = -1
    assert a.is_rational() and a.to_fraction() == -1
    assert as_fraction(a) == Fraction(-1)
    with pytest.raises(ValueError, match=r"numerators \(0, 1\) over 1 .* not rational"):
        z.to_fraction()


def test_mixed_arithmetic_with_rationals():
    z = Cyclotomic.zeta(6)
    assert form(1 + z + Fraction(1, 2)) == ((3, 2), 2)
    assert form(Fraction(1, 2) * z * 2) == form(z)
    assert form(z * Fraction(-2, 3) + z * Fraction(2, 3)) == ((0, 0), 1)
    assert form(Fraction(2, 3) + 2 * Cyclotomic(6, [Fraction(-1, 3)])) == ((0, 0), 1)


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError, match="conductor mismatch"):
        Cyclotomic.zeta(6) + Cyclotomic.zeta(3)
    with pytest.raises(ValueError, match="conductor mismatch"):
        Cyclotomic.zeta(6) * Cyclotomic.zeta(3)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.lists(small_fractions, min_size=2, max_size=2),
       st.lists(small_fractions, min_size=2, max_size=2),
       st.lists(small_fractions, min_size=2, max_size=2))
def test_field_axioms_conductor6(u, v, w):
    x, y, z = (Cyclotomic(6, c) for c in (u, v, w))
    assert form(x + y) == form(y + x)
    assert form(x * y) == form(y * x)
    assert form((x * y) * z) == form(x * (y * z))
    assert form(x * (y + 1)) == form(x * y + x)
