import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multisec import construct
from multisec.construct import (
    CURVE_VARS,
    SOURCE_VARS,
    DegenerateFiber,
    MixedTermNonzero,
    NotDescendable,
    ProjectiveCurveMap,
    SampleZero,
    WeightedTorusAction,
    check_weighted_equivariance,
    corrected_j,
    corrected_jprime,
    dedupe_consecutive_entries,
    derive_jprime_and_compare,
    dual_weight_action,
    load_curve_fixture,
    monomial_norm,
    normalized_map_degree,
    paired_quadric_check,
    paired_quadric_descend,
    printed_j,
    printed_jprime_entries,
    projective_equal,
    pushforward_splitting_type,
    quadratic_pullback_table,
    standard_weight_action,
)
from multisec.exactalg import SparseMultiPoly, parse_poly

from test_binary_form_oracle import apply_variable_permutation, involution_conjugate
from test_cyclotomic_oracle import RefCyclotomic
from test_matrix import gauss_jordan
from test_pencil_oracle import (
    DEGENERATE_MAPS,
    MonomialCover,
    dual_point_on_fiber,
    eisenstein,
    evaluate_map,
    hyperplane_row,
    quintic_map,
)


def S(text):
    return parse_poly(text, SOURCE_VARS)


def curve_map(*entries):
    labels = construct.TARGET_LABELS[:len(entries)]
    return ProjectiveCurveMap(SOURCE_VARS, tuple(S(e) for e in entries), labels)


# -- fixtures ----------------------------------------------------------------

def test_fixture_provenance_notes_present():
    for name in ("j_printed", "j_corrected", "jprime_printed", "jprime_corrected"):
        assert load_curve_fixture(name).notes


def test_printed_jprime_has_seven_entries():
    entries = printed_jprime_entries()
    assert len(entries) == 7
    assert entries[3] == entries[4] == S("S0*S1^4")


def test_printed_jprime_deduplicates_to_corrected():
    assert dedupe_consecutive_entries(printed_jprime_entries()) == corrected_jprime().entries


def test_seven_entries_do_not_fit_six_labels():
    with pytest.raises(ValueError):
        ProjectiveCurveMap(SOURCE_VARS, printed_jprime_entries(),
                           construct.TARGET_LABELS)


def test_corrected_j_entries():
    assert [e.canonical_str() for e in corrected_j().entries] == [
        "S0^5", "S0^3*S1^2", "S0*S1^4", "S0^4*S1", "S0^2*S1^3", "S1^5"]


# -- equivariance -------------------------------------------------------------

def test_corrected_j_equivariant_offset_zero():
    report = check_weighted_equivariance(corrected_j(), standard_weight_action())
    assert report.ok and report.offset == 0


def test_printed_j_flagged_not_homogeneous():
    report = check_weighted_equivariance(printed_j(), standard_weight_action())
    assert report.status == "not-homogeneous"
    assert not report.ok
    degrees = [d["degree"] for d in report.entry_details]
    assert degrees == [5, 5, 4, 5, 5, 5]


def test_corrected_jprime_equivariant_offset_five():
    report = check_weighted_equivariance(corrected_jprime(), dual_weight_action())
    assert report.ok and report.offset == 5


def test_identity_pair_fails_zero_weights():
    m = curve_map("S0", "S1")
    report = check_weighted_equivariance(m, WeightedTorusAction(6, (0, 0)))
    assert not report.ok
    assert report.status == "weight-mismatch"


def test_equivariance_invariant_under_entry_scaling():
    j = corrected_j()
    scaled_entries = list(j.entries)
    scaled_entries[2] = scaled_entries[2] * Fraction(3, 7)
    scaled = ProjectiveCurveMap(SOURCE_VARS, tuple(scaled_entries), j.target_labels)
    a = check_weighted_equivariance(j, standard_weight_action())
    b = check_weighted_equivariance(scaled, standard_weight_action())
    assert (a.status, a.offset) == (b.status, b.offset)


def test_mixed_weight_entry_detected():
    m = curve_map("S0^5 + S1^5", "S0^4*S1")
    report = check_weighted_equivariance(m, WeightedTorusAction(6, (0, 1)))
    assert report.status == "weight-mismatch"


# -- involution ---------------------------------------------------------------

def test_involution_on_coordinates():
    m = curve_map("S0", "S1")
    assert [e.canonical_str() for e in involution_conjugate(m).entries] == ["S0", "-S1"]


def test_involution_sign_pattern_on_corrected_j():
    j = corrected_j()
    conj = involution_conjugate(j)
    # odd S1-degree sits exactly on the X- slots
    for i, (a, b) in enumerate(zip(j.entries, conj.entries)):
        expected = a * (-1 if i >= 3 else 1)
        assert b == expected


def test_involution_is_an_involution():
    j = corrected_j()
    assert involution_conjugate(involution_conjugate(j)) == j


def test_involution_signs_from_weights():
    assert standard_weight_action().involution_signs() == (1, 1, 1, -1, -1, -1)


# -- paired quadrics ----------------------------------------------------------

def test_paired_quadrics_descend_on_corrected_j():
    family = paired_quadric_descend(corrected_j())
    assert len(family.coefficients) == 12
    for q in family.coefficients.values():
        assert q.is_homogeneous() and q.total_degree() == 5
    # squared first entry S0^5 descends to T0^5
    assert family.coefficient("X+0", "X+0") == parse_poly("T0^5", CURVE_VARS)


def test_paired_quadrics_match_table_after_swap():
    family = paired_quadric_descend(corrected_j())
    table = quadratic_pullback_table(corrected_jprime())
    for (a, b), quintic in table.rows:
        sign = 1 if a.startswith("X+") else -1
        factor = 1 if a == b else 2
        swapped = apply_variable_permutation(quintic, (1, 0))
        assert family.coefficient(a, b) == (sign * factor) * swapped, (a, b)


def test_paired_quadric_check_sees_a_negated_minus_entry():
    # negating X-0 keeps j equivariant but flips the sign of the paired
    # coefficients X-0*X-1 and X-0*X-2 against the table's
    j = corrected_j()
    negated = ProjectiveCurveMap(SOURCE_VARS, j.entries[:3] + (j.entries[3] * -1,) + j.entries[4:],
                                 j.target_labels)
    assert check_weighted_equivariance(negated, standard_weight_action()).ok
    table = quadratic_pullback_table(corrected_jprime())
    assert paired_quadric_check(j, table) == {
        "coefficient_degree_5": True, "matches_table_after_swap": True}
    assert paired_quadric_check(negated, table) == {
        "coefficient_degree_5": True, "matches_table_after_swap": False}
    assert [(pair, q.canonical_str()) for pair, q in table.rows] == EXPECTED_TABLE


def test_non_equivariant_perturbation_raises_mixed_term():
    j = corrected_j()
    entries = list(j.entries)
    entries[5] = entries[5] + S("S0^5")
    broken = ProjectiveCurveMap(SOURCE_VARS, tuple(entries), j.target_labels)
    with pytest.raises(MixedTermNonzero):
        paired_quadric_descend(broken)


def test_paired_quadrics_require_degree_five():
    with pytest.raises(ValueError):
        paired_quadric_descend(printed_j())


# -- norms ---------------------------------------------------------------------

def T(text):
    return parse_poly(text, CURVE_VARS)


def test_norm_degree_three_of_linear_form():
    assert monomial_norm(T("T0 + T1"), 3) == parse_poly("U0 + U1", construct.BASE_VARS)


def test_norm_degree_two_of_linear_form():
    assert monomial_norm(T("T0 + T1"), 2) == parse_poly("-U0 + U1", construct.BASE_VARS)


def test_norm_of_monomial():
    # the product over the deck scalings multiplies T0^d by
    # zeta^(d(d-1)/2), which is -1 exactly when d is even
    for d in (1, 3):
        assert monomial_norm(T("T0"), d) == parse_poly("U0", construct.BASE_VARS)
    for d in (2, 4):
        assert monomial_norm(T("T0"), d) == parse_poly("-U0", construct.BASE_VARS)
    for d in (1, 2, 3, 4):
        assert monomial_norm(T("T1"), d) == parse_poly("U1", construct.BASE_VARS)


def test_norm_requires_homogeneous_input():
    with pytest.raises(ValueError):
        monomial_norm(T("T0 + 1"), 2)


def random_homogeneous(rng, degree):
    terms = {}
    for a in range(degree + 1):
        if rng.random() < 0.6:
            terms[(a, degree - a)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if not terms:
        terms[(degree, 0)] = Fraction(1)
    return SparseMultiPoly(CURVE_VARS, terms)


def test_norm_multiplicative_and_degree_preserving():
    rng = random.Random(4117)
    for _ in range(100):
        d = rng.randint(1, 4)
        p = random_homogeneous(rng, rng.randint(1, 4))
        q = random_homogeneous(rng, rng.randint(1, 4))
        np_, nq = monomial_norm(p, d), monomial_norm(q, d)
        npq = monomial_norm(p * q, d)
        assert npq == np_ * nq
        assert np_.total_degree() == p.total_degree()
        assert nq.total_degree() == q.total_degree()


def conjugate_product(p, d):
    """The terms of the norm as the product of p(zeta^k T0, T1) over k < d.

    Multiplies over Q(zeta_d) by `RefCyclotomic`, as coefficient lists
    indexed by the exponent of T0; every coefficient of the product must be
    rational and sit at an exponent divisible by d, and T^d becomes U.
    """
    if p.is_zero():
        return {}
    degree = p.total_degree()
    zero = RefCyclotomic(d, [])
    product = [RefCyclotomic(d, [1])]
    for k in range(d):
        out = [zero] * (len(product) + degree)
        for i, x in enumerate(product):
            if x:
                for (a, _), c in p.terms.items():
                    # c zeta^(ka), folded below phi(d) by the reference
                    out[i + a] = out[i + a] + x * RefCyclotomic(d, [0] * (k * a % d) + [c])
        product = out
    terms = {}
    for a, c in enumerate(product):
        if c:
            assert c.is_rational() and a % d == 0
            terms[(a // d, degree - a // d)] = c.coeffs[0]
    return terms


heights = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)))


@st.composite
def binary_forms(draw):
    degree = draw(st.integers(0, 8))
    coeffs = draw(st.lists(heights, min_size=degree + 1, max_size=degree + 1))
    return SparseMultiPoly(CURVE_VARS, {(a, degree - a): c for a, c in enumerate(coeffs)})


@settings(deadline=None)
@given(binary_forms(), st.integers(1, 8))
@example(SparseMultiPoly.zero(CURVE_VARS), 3)
def test_norm_is_the_product_of_conjugates(p, d):
    norm = monomial_norm(p, d)
    assert norm.variables == construct.BASE_VARS
    assert norm.terms == conjugate_product(p, d)
    if not p.is_zero():
        lifted = p + SparseMultiPoly(CURVE_VARS, {(p.total_degree() + 1, 0): 1})
        with pytest.raises(ValueError, match="homogeneous"):
            monomial_norm(lifted, d)


# -- dual points and the derived map -------------------------------------------

def test_dual_point_matches_partner_of_missing_fiber_point():
    j = corrected_j()
    jp = corrected_jprime()
    signs = standard_weight_action().involution_signs()
    fiber = MonomialCover(6).fiber(Fraction(3))
    for missing in range(6):
        points = [fiber[i] for i in range(6) if i != missing]
        dual = dual_point_on_fiber(j, points, dual_signs=signs)
        partner = (missing + 3) % 6
        assert projective_equal(eisenstein(dual), eisenstein(evaluate_map(jp, fiber[partner])))


def test_dual_point_repeated_point_degenerate():
    j = corrected_j()
    fiber = MonomialCover(6).fiber(Fraction(2))
    points = [fiber[0], fiber[0], fiber[1], fiber[2], fiber[4]]
    with pytest.raises(DegenerateFiber):
        dual_point_on_fiber(j, points)


@pytest.mark.parametrize("entries, pencil_dim", DEGENERATE_MAPS)
def test_derive_jprime_degenerate_maps(entries, pencil_dim):
    j = curve_map(*entries)
    signs = standard_weight_action().involution_signs()
    fiber = MonomialCover(6).fiber(Fraction(2))
    rows = [hyperplane_row(j, point, signs) for point in fiber]
    assert len(gauss_jordan([rows[i] for i in (1, 2, 4, 5)])[1]) == pencil_dim
    with pytest.raises(DegenerateFiber, match="fiber point 0 of sample 2"):
        derive_jprime_and_compare(j, corrected_jprime(), samples=(2, 3))
    with pytest.raises(DegenerateFiber):
        dual_point_on_fiber(j, [fiber[i] for i in (0, 1, 2, 4, 5)], dual_signs=signs)


def test_five_distinct_fiber_points_have_rank_five():
    # linearly general position on a degree-5 normal curve
    j = corrected_j()
    fiber = MonomialCover(6).fiber(Fraction(2))
    rank, basis = gauss_jordan([list(evaluate_map(j, fiber[i])) for i in range(5)])
    assert rank == 5
    assert len(basis) == 1


def test_symbolic_dual_of_corrected_j_is_12_jprime():
    expected = [{exps[0]: 12 * c for exps, c in e.terms.items()}
                for e in corrected_jprime().entries]
    assert construct._symbolic_dual(corrected_j()) == expected


@settings(deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9).filter(bool), min_size=6, max_size=6),
                min_size=6, max_size=6))
def test_symbolic_dual_of_a_quintic_spans_a_window_of_five(matrix):
    # each row at [s, 1] is sum_a s^a c_a, so by Cauchy-Binet each 5 x 5 minor
    # is a sum over five of the six exponents: D = s^10 Q with deg Q <= 5
    assert all(0 <= a <= 5 for f in construct._symbolic_dual(quintic_map(matrix)) for a in f)


def test_derive_jprime_matches_corrected_closed_form():
    comparison = derive_jprime_and_compare(corrected_j(), corrected_jprime(),
                                           samples=(1, 2))
    assert comparison.all_match
    assert len(comparison.checks) == 12


def test_derive_jprime_matches_deduplicated_printed_form():
    deduped = ProjectiveCurveMap(SOURCE_VARS,
                                 dedupe_consecutive_entries(printed_jprime_entries()),
                                 construct.TARGET_LABELS)
    comparison = derive_jprime_and_compare(corrected_j(), deduped, samples=(2,))
    assert comparison.all_match


def test_derive_jprime_detects_shuffled_candidate():
    jp = corrected_jprime()
    shuffled = ProjectiveCurveMap(
        SOURCE_VARS, jp.entries[1:] + jp.entries[:1], jp.target_labels)
    comparison = derive_jprime_and_compare(corrected_j(), shuffled, samples=(2,))
    assert not comparison.all_match
    assert comparison.mismatches()


def test_derive_jprime_rejects_zero_sample():
    with pytest.raises(SampleZero):
        derive_jprime_and_compare(corrected_j(), corrected_jprime(), samples=(0, 1))


def test_derive_jprime_rejects_duplicate_samples():
    with pytest.raises(ValueError):
        derive_jprime_and_compare(corrected_j(), corrected_jprime(), samples=(2, 2))


def test_projective_equal_basics():
    assert projective_equal(((1, 0), (2, 0)), ((2, 0), (4, 0)))
    assert not projective_equal(((1, 0), (2, 0)), ((2, 0), (5, 0)))
    assert not projective_equal(((0, 0), (0, 0)), ((0, 0), (1, 0)))
    assert projective_equal(((0, 0), (3, 0)), ((0, 0), (1, 0)))
    # zeta * (1, zeta) = (zeta, zeta - 1)
    assert projective_equal(((1, 0), (0, 1)), ((0, 1), (-1, 1)))
    assert not projective_equal(((1, 0), (0, 1)), ((0, 1), (1, -1)))


# -- the pullback table ---------------------------------------------------------

EXPECTED_TABLE = [
    (("X+0", "X+0"), "T1^5"),
    (("X+0", "X+1"), "T0*T1^4"),
    (("X+0", "X+2"), "T0^2*T1^3"),
    (("X+1", "X+1"), "T0^2*T1^3"),
    (("X+1", "X+2"), "T0^3*T1^2"),
    (("X+2", "X+2"), "T0^4*T1"),
    (("X-0", "X-0"), "T0*T1^4"),
    (("X-0", "X-1"), "T0^2*T1^3"),
    (("X-0", "X-2"), "T0^3*T1^2"),
    (("X-1", "X-1"), "T0^3*T1^2"),
    (("X-1", "X-2"), "T0^4*T1"),
    (("X-2", "X-2"), "T0^5"),
]


def test_pullback_table_rows_and_rank():
    table = quadratic_pullback_table(corrected_jprime())
    assert [(pair, q.canonical_str()) for pair, q in table.rows] == EXPECTED_TABLE
    assert table.rank == 6


def test_pullback_table_not_descendable():
    # adjacent entries of the same parity block with odd product exponents
    broken = curve_map("S0^5", "S0^4*S1", "S0^3*S1^2",
                       "S0^2*S1^3", "S0*S1^4", "S1^5")
    with pytest.raises(NotDescendable):
        quadratic_pullback_table(broken)


# -- degrees and splitting -------------------------------------------------------

def test_normalized_map_degree_of_fixtures():
    assert normalized_map_degree(corrected_j()) == 5
    assert normalized_map_degree(corrected_jprime()) == 5


def test_normalized_map_degree_removes_common_factor():
    assert normalized_map_degree(curve_map("S0^2", "S0*S1")) == 1


def test_pushforward_splitting_examples():
    assert pushforward_splitting_type(3, 5) == (1, 1, 1)
    assert pushforward_splitting_type(1, 5) == (5,)
    assert pushforward_splitting_type(2, 5) == (2, 2)


def test_pushforward_splitting_section_count():
    for d in range(1, 7):
        for m in range(0, 13):
            twists = pushforward_splitting_type(d, m)
            assert sum(t + 1 for t in twists) == m + 1, (d, m)
