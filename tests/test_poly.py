from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multisec.exactalg import SparseMultiPoly, parse_poly

from test_binary_form_oracle import apply_variable_permutation, binary_form_gcd
from test_cyclotomic_oracle import RefCyclotomic
from test_pencil_oracle import evaluate

VARS = ("x", "y")


def P(text):
    return parse_poly(text, VARS)


def test_zero_coefficients_dropped():
    p = SparseMultiPoly(VARS, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert list(p.terms) == [(0, 1)]
    assert SparseMultiPoly(VARS, [((1, 0), 1), ((1, 0), -1)]).is_zero()


def test_duplicate_exponents_accumulate():
    p = SparseMultiPoly(VARS, [((1, 1), 2), ((1, 1), 3)])
    assert p.terms == {(1, 1): Fraction(5)}


def test_exponent_validation():
    with pytest.raises(ValueError):
        SparseMultiPoly(VARS, {(1,): 1})
    with pytest.raises(ValueError):
        SparseMultiPoly(VARS, {(-1, 0): 1})


def test_homogeneity_and_degree():
    assert P("x^2 + x*y").is_homogeneous()
    assert not P("x^2 + y").is_homogeneous()
    assert P("x^2 + x*y").total_degree() == 2
    assert SparseMultiPoly.zero(VARS).total_degree() is None
    assert SparseMultiPoly.zero(VARS).is_homogeneous()


def test_canonical_str_graded_lex():
    p = P("x*y + x^2 + y^2 + x + 3")
    assert p.canonical_str() == "x^2 + x*y + y^2 + x + 3"
    assert P("2*x^5 - 1/3*x*y^4").canonical_str() == "2*x^5 - 1/3*x*y^4"
    assert SparseMultiPoly.zero(VARS).canonical_str() == "0"
    assert P("-x").canonical_str() == "-x"


def test_parse_rejects_unknown_variables():
    with pytest.raises(ValueError):
        parse_poly("z^2", VARS)


def test_evaluate():
    p = P("x^2*y + 2")
    assert evaluate(p, (Fraction(2), Fraction(3))) == 14
    z = RefCyclotomic(6, [0, 1])
    q = P("x^3")
    assert evaluate(q, (z, RefCyclotomic(6, [1]))) == -1


def test_scale_variable():
    p = P("x^2 + x*y + y^2")
    assert p.scale_variable(1, Fraction(-1)) == P("x^2 - x*y + y^2")


def test_divide_exponents():
    p = P("x^4 + x^2*y^2")
    q = p.divide_exponents(2, ("u", "v"))
    assert q == parse_poly("u^2 + u*v", ("u", "v"))
    with pytest.raises(ValueError):
        P("x^3").divide_exponents(2, ("u", "v"))


def test_apply_variable_permutation():
    p = P("x^3*y + 2*x")
    assert apply_variable_permutation(p, (1, 0)) == P("x*y^3 + 2*y")


def test_binary_form_gcd():
    assert binary_form_gcd([P("x^2"), P("x*y")]) == P("x")
    assert binary_form_gcd([P("x^2*y"), P("x*y^2")]) == P("x*y")
    assert binary_form_gcd([P("x^5"), P("y^5")]) == P("1")
    # (x+y)^2 and (x+y)*(x-y) share exactly x+y
    assert binary_form_gcd([P("x^2 + 2*x*y + y^2"), P("x^2 - y^2")]) == P("x + y")


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, small_fractions, max_size=4).map(
    lambda terms: SparseMultiPoly(VARS, terms))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_serialization_round_trip(p):
    assert parse_poly(p.canonical_str(), VARS) == p


@given(polys, polys)
def test_evaluation_is_ring_hom(a, b):
    point = (Fraction(2, 3), Fraction(-5, 7))
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
    assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
