from math import comb, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from multisec.semigroup import NumericalSemigroup
from multisec.strata import check_hypersurface_pencil
from multisec.witness import (
    BadInput,
    check_witness,
    choose_ab_and_certify,
    span_and_basepoint,
)


def test_witness_parameters_smallest():
    results, ok = check_witness(1, 1)
    assert (results["n"], results["d"], results["min_degree_claim"]) == (4, 3, 3)
    assert ok and "e" not in results


def test_witness_parameters_2_3():
    results = check_witness(2, 3)[0]
    assert (results["n"], results["d"]) == (24, 23)


def test_witness_parameters_bad_input():
    for a, b, e in ((1, 0, None), (0, 1, None), (0, 1, 4)):
        with pytest.raises(BadInput):
            check_witness(a, b, e)


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
    assert choose_ab_and_certify(1, 1, 2) == (1, 1)
    assert check_witness(1, 1, 2)[0]["no_section_ok"] is True


def test_choose_tie_breaks_to_smaller_a():
    assert choose_ab_and_certify(1, 1, 4) == (1, 2)
    assert check_witness(1, 1, 4)[0]["no_section_ok"] is True


def test_choose_large_e():
    a, b = choose_ab_and_certify(2, 3, 100)
    assert 4 * a * b == 104
    assert (a, b) == (2, 13)
    assert 4 * a * b > 101
    results = check_witness(2, 3, 100)[0]
    assert (results["a"], results["b"]) == (2, 13)
    assert results["e"] == 100 and results["no_section_ok"]


def test_choose_is_minimal_by_exhaustion():
    # every admissible pair no dearer than (a', its least admissible b),
    # ordered by product and then by a: the first is the cheapest pair
    # with the least a
    for a_prime in range(1, 5):
        for b_prime in range(1, 5):
            for e in range(1, 201):
                a, b = choose_ab_and_certify(a_prime, b_prime, e)
                bound = a_prime * max(b_prime, (e + 1) // (4 * a_prime) + 1)
                best = min((x * y, x, y)
                           for x in range(a_prime, bound + 1)
                           for y in range(b_prime, bound // x + 1)
                           if 4 * x * y > e + 1)
                assert (a * b, a, b) == best


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
    assert choose_ab_and_certify(a_prime, b_prime, e) == full_scan(a_prime, b_prime, e)


def test_certificate_implication_sample():
    for a_prime in (1, 2, 3):
        for b_prime in (1, 2, 3):
            for e in (1, 5, 40, 100):
                results, ok = check_witness(a_prime, b_prime, e)
                assert 4 * results["a"] * results["b"] > e + 1
                assert results["no_section_ok"]
                assert results["basepoint_ok"] and ok


def test_product_monotone_in_e():
    previous = 0
    for e in range(1, 120):
        a, b = choose_ab_and_certify(1, 1, e)
        product = 4 * a * b
        assert product >= previous
        previous = product


def test_choose_bad_input():
    with pytest.raises(BadInput):
        choose_ab_and_certify(1, 1, 0)


def test_degree_floor_cross_check():
    # the divisibility bound applies through the strata i = 1, ..., d-1,
    # whose orbit sizes C(d, i) all sit at or above C(d, 1) = d
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        d = check_witness(a, b)[0]["d"]
        semi = NumericalSemigroup(tuple(comb(d, i) for i in range(1, d)))
        assert semi.min_positive() == d


def test_full_stratum_range_degenerates_for_witness_parameters():
    # with n = d + 1 the top stratum contributes C(d, d) = 1, which is why
    # the degree-floor cross-check above stops at i = d - 1
    results = check_witness(1, 1)[0]
    assert min(check_hypersurface_pencil(results["d"], results["n"])[0]["divisors"]) == 1
