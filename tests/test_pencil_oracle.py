"""The shared-pencil derivation against the per-point nullspace.

`derive_jprime_and_compare` solves one 4 x 6 nullspace per partner pair
of a fiber and picks each point's dual point from that pencil;
`dual_point_on_fiber` solves the full five-row system of one point.  The
report holds only match flags, so the oracle runs through the candidate:
for a map j with its entries rescaled by c, the dual map is the closed
form with its entries rescaled by 1/c.  Where that candidate matches both
the oracle's dual point and the report, the pencil's dual point equals
the oracle's.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from multisec.construct import (
    MonomialCover,
    ProjectiveCurveMap,
    corrected_j,
    corrected_jprime,
    derive_jprime_and_compare,
    dual_point_on_fiber,
    projective_equal,
    standard_weight_action,
)

nonzero = st.one_of(
    st.integers(-10 ** 4, 10 ** 4),
    st.builds(Fraction, st.integers(-999_999, 999_999), st.integers(1, 999_999)),
).filter(bool)
scales = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 50))


def rescaled(curve_map, factors):
    return ProjectiveCurveMap(curve_map.source_vars,
                              tuple(c * e for c, e in zip(factors, curve_map.entries)),
                              curve_map.target_labels)


# an exact elimination over Q(zeta_6) with six-digit entries can pass the
# default per-example deadline on a loaded machine
@settings(deadline=None)
@given(st.lists(nonzero, min_size=1, max_size=2, unique_by=Fraction),
       st.lists(scales, min_size=6, max_size=6), st.integers(1, 5))
def test_pencil_dual_points_match_per_point_nullspace(samples, factors, shift):
    j = rescaled(corrected_j(), factors)
    candidate = rescaled(corrected_jprime(), [1 / c for c in factors])
    rotated = ProjectiveCurveMap(candidate.source_vars,
                                 candidate.entries[shift:] + candidate.entries[:shift],
                                 candidate.target_labels)
    signs = standard_weight_action().involution_signs()
    points, duals = [], []
    for t in samples:
        fiber = MonomialCover(6).fiber(t)
        for k in range(6):
            selection = [k] + [i for i in range(6) if i not in (k, (k + 3) % 6)]
            points.append(fiber[k])
            duals.append(dual_point_on_fiber(j, [fiber[i] for i in selection], signs))
    order = [(Fraction(t), k) for t in samples for k in range(6)]

    report = derive_jprime_and_compare(j, candidate, samples)
    assert [(c.sample, c.fiber_index) for c in report.checks] == order
    assert all(projective_equal(dual, candidate.evaluate(point))
               for point, dual in zip(points, duals))
    assert report.all_match

    report = derive_jprime_and_compare(j, rotated, samples)
    assert [(c.sample, c.fiber_index) for c in report.checks] == order
    assert [c.matched for c in report.checks] == [
        projective_equal(dual, rotated.evaluate(point))
        for point, dual in zip(points, duals)]
