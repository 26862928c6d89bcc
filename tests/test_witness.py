from math import comb, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from multisec.semigroup import NumericalSemigroup
from multisec.witness import (
    BadInput,
    choose_ab_and_certify,
    span_and_basepoint,
    witness_parameters,
)


def test_witness_parameters_smallest():
    report = witness_parameters(1, 1)
    assert (report.n, report.d) == (4, 3)


def test_witness_parameters_2_3():
    report = witness_parameters(2, 3)
    assert (report.n, report.d) == (24, 23)


def test_witness_parameters_bad_input():
    with pytest.raises(BadInput):
        witness_parameters(1, 0)
    with pytest.raises(BadInput):
        witness_parameters(0, 1)


def test_span_and_basepoint_examples():
    assert span_and_basepoint(1, 1) == (3, True)
    assert span_and_basepoint(2, 2) == (13, True)


def test_basepoint_everywhere_up_to_20():
    for a in range(1, 21):
        for b in range(1, 21):
            span, ok = span_and_basepoint(a, b)
            assert ok, (a, b)
            assert span == 4 * a * b - b - (a - 1) * (b - 1)


def test_choose_smallest_case():
    report = choose_ab_and_certify(1, 1, 2)
    assert (report.a, report.b) == (1, 1)
    assert report.no_section_ok is True


def test_choose_tie_breaks_to_smaller_a():
    report = choose_ab_and_certify(1, 1, 4)
    assert (report.a, report.b) == (1, 2)
    assert report.no_section_ok is True


def test_choose_large_e():
    report = choose_ab_and_certify(2, 3, 100)
    assert 4 * report.a * report.b == 104
    assert (report.a, report.b) == (2, 13)
    assert 4 * report.a * report.b > 101
    assert report.e == 100 and report.no_section_ok


def test_choose_is_minimal_by_exhaustion():
    # every admissible pair no dearer than (a', its least admissible b),
    # ordered by product and then by a: the first is the cheapest pair
    # with the least a
    for a_prime in range(1, 5):
        for b_prime in range(1, 5):
            for e in range(1, 201):
                report = choose_ab_and_certify(a_prime, b_prime, e)
                bound = a_prime * max(b_prime, (e + 1) // (4 * a_prime) + 1)
                best = min((a * b, a, b)
                           for a in range(a_prime, bound + 1)
                           for b in range(b_prime, bound // a + 1)
                           if 4 * a * b > e + 1)
                assert (report.a * report.b, report.a, report.b) == best


def full_scan(a_prime, b_prime, e):
    """The cheapest (a, b) by the O(sqrt(e)) scan alone, with no early return."""
    m = (e + 1) // 4 + 1
    best = (a_prime * max(b_prime, -(-m // a_prime)), a_prime)
    for f in range(min(a_prime, b_prime), isqrt(m - 1) + 2):
        partner = -(-m // f)
        if f >= a_prime:
            best = min(best, (f * max(b_prime, partner), f))
        if f >= b_prime:
            a = max(a_prime, partner)
            best = min(best, (a * f, a))
    product, a = best
    return a, product // a


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 10 ** 6))
@example(1, 1, 10 ** 9)  # the product m reaches max(m, a'b'): the starting pair
@example(2, 1, 10 ** 9)  # m odd: (2, (m + 1) / 2) is one above the bound, so a scan
@example(10 ** 12, 10 ** 12, 10 ** 12)
def test_choose_matches_the_full_scan(a_prime, b_prime, e):
    report = choose_ab_and_certify(a_prime, b_prime, e)
    assert (report.a, report.b) == full_scan(a_prime, b_prime, e)


def test_certificate_implication_sample():
    for a_prime in (1, 2, 3):
        for b_prime in (1, 2, 3):
            for e in (1, 5, 40, 100):
                report = choose_ab_and_certify(a_prime, b_prime, e)
                assert 4 * report.a * report.b > e + 1
                assert report.no_section_ok
                assert report.basepoint_ok


def test_product_monotone_in_e():
    previous = 0
    for e in range(1, 120):
        report = choose_ab_and_certify(1, 1, e)
        product = 4 * report.a * report.b
        assert product >= previous
        previous = product


def test_choose_bad_input():
    with pytest.raises(BadInput):
        choose_ab_and_certify(1, 1, 0)


def test_degree_floor_cross_check():
    # the divisibility bound applies through the strata i = 1, ..., d-1,
    # whose orbit sizes C(d, i) all sit at or above C(d, 1) = d
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        report = witness_parameters(a, b)
        d = report.d
        semi = NumericalSemigroup(tuple(comb(d, i) for i in range(1, d)))
        assert semi.min_positive() == d
        assert report.d == semi.min_positive()


def test_full_stratum_range_degenerates_for_witness_parameters():
    # with n = d + 1 the top stratum contributes C(d, d) = 1, which is why
    # the degree-floor cross-check above stops at i = d - 1
    from multisec.strata import hypersurface_pencil_model

    report = witness_parameters(1, 1)
    model = hypersurface_pencil_model(report.d, report.n)
    assert min(model.divisors()) == 1
