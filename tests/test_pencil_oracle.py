"""The symbolic derivation against the cyclotomic pencil path.

`derive_jprime_and_compare` builds the dual map once, as the signed 5 x 5
minors of the fiber rows over Z[s], and evaluates it and the candidate at
each fiber point s = zeta_6^k t from integer residue-class sums.
`pencil_oracle` below is the pencil path that came before it: it evaluates
both maps at the fiber points `MonomialCover(6).fiber(t)` over Q(zeta_6),
the reference field `RefCyclotomic` of `test_cyclotomic_oracle`,
solves one cyclotomic 4 x 6 nullspace per partner pair and compares by
all 15 cross products.  Both must agree check for check, and fail on a
degenerate map at the same fiber point with the same message.

`dual_point_on_fiber` is the per-point oracle: it evaluates the map at
five fiber points and solves the full five-row system.  Both oracles solve
by `gauss_jordan`, the naive elimination of `test_matrix`.  The report holds
only match flags, so that comparison runs through the candidate: for a
map j with its entries rescaled by c, the dual map is the closed form with
its entries rescaled by 1/c.  Where that candidate matches both the
per-point dual point and the report, the derivation's dual point equals
the per-point one.  `evaluate` and `evaluate_map` are the evaluation at a
point that the oracles use; the program itself evaluates only integer
polynomials, through residue-class sums.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multisec import construct
from multisec.construct import (
    QUINTIC_BASIS,
    SOURCE_VARS,
    TARGET_LABELS,
    DegenerateFiber,
    ProjectiveCurveMap,
    SampleZero,
    corrected_j,
    corrected_jprime,
    derive_jprime_and_compare,
    projective_equal,
    standard_weight_action,
)
from multisec.exactalg import Cyclotomic, SparseMultiPoly, exact_matrix_rank, parse_poly

from test_cyclotomic_oracle import RefCyclotomic
from test_matrix import gauss_jordan, low_rank_matrices


@dataclass(frozen=True)
class MonomialCover:
    """The self-cover of the line raising both coordinates to a power."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("cover degree must be >= 1")

    def fiber(self, t) -> list[tuple[RefCyclotomic, RefCyclotomic]]:
        """The points [zeta^k t, 1] over the image of [t, 1], t nonzero."""
        t = Fraction(t)
        if t == 0:
            raise SampleZero("fiber over the totally ramified point")
        zeta = RefCyclotomic(self.degree, [0, 1])
        base = RefCyclotomic(self.degree, [t])
        one = RefCyclotomic(self.degree, [1])
        return [(zeta ** k * base, one) for k in range(self.degree)]


def evaluate(poly: SparseMultiPoly, point):
    """The value of a polynomial at a point given as one scalar per variable."""
    if len(point) != len(poly.variables):
        raise ValueError("wrong number of values")
    powers = [[1] for _ in point]  # powers[i][e] is point[i] ** e
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        acc = coeff
        for v, e, vp in zip(point, exps, powers):
            while len(vp) <= e:
                vp.append(vp[-1] * v)
            if e:
                acc = acc * vp[e]
        total = acc + total
    return total


def evaluate_map(curve_map: ProjectiveCurveMap, point) -> tuple:
    return tuple(evaluate(e, point) for e in curve_map.entries)


def hyperplane_row(curve_map, point, signs) -> list:
    return [s * v for s, v in zip(signs, evaluate_map(curve_map, point))]


def dual_point_on_fiber(curve_map, fiber_points, dual_signs=None) -> tuple:
    """Intersection of the hyperplanes dual to the map at the given points.

    Each point contributes the row of entry values, optionally twisted by
    per-slot signs (the dual-pairing convention); the result is the unique
    ray in the right nullspace.  Raises DegenerateFiber when the rows do
    not have full rank, e.g. for a repeated point.
    """
    n = len(curve_map.entries)
    if len(fiber_points) != n - 1:
        raise ValueError(f"expected {n - 1} points, got {len(fiber_points)}")
    signs = tuple(dual_signs) if dual_signs is not None else (1,) * n
    if len(signs) != n:
        raise ValueError("one sign per entry required")
    basis = gauss_jordan([hyperplane_row(curve_map, point, signs) for point in fiber_points])[1]
    if len(basis) != 1:
        raise DegenerateFiber(
            f"hyperplane rows have rank {n - len(basis)}, need {n - 1}")
    return basis[0]


def eisenstein(vector) -> list:
    """Scalars of Q(zeta_6) as the pairs (a, b) = a + b zeta_6 of `projective_equal`."""
    return [tuple(x.coeffs) if isinstance(x, RefCyclotomic) else (x, 0) for x in vector]


def projective_equal_all_pairs(u, v) -> bool:
    u, v = tuple(u), tuple(v)
    if not any(u) or not any(v):
        return False
    return all(u[i] * v[k] == u[k] * v[i]
               for i in range(len(u)) for k in range(i + 1, len(u)))


def pencil_oracle(j, candidate, samples) -> list[tuple[Fraction, int, bool]]:
    """(sample, fiber_index, matched) from one cyclotomic pencil per pair."""
    signs = standard_weight_action().involution_signs()
    checks = []
    for t in map(Fraction, samples):
        fiber = MonomialCover(6).fiber(t)
        rows = [hyperplane_row(j, point, signs) for point in fiber]
        pencils = [gauss_jordan([row for i, row in enumerate(rows) if i % 3 != pair])[1]
                   for pair in range(3)]
        for k in range(6):
            u, w, *excess = pencils[k % 3]
            a = sum(x * y for x, y in zip(rows[k], w))
            b = sum(x * y for x, y in zip(rows[k], u))
            if excess or (not a and not b):
                raise DegenerateFiber(
                    f"hyperplane rows at fiber point {k} of sample {t} "
                    f"have rank below 5")
            dual = tuple(a * x - b * y for x, y in zip(u, w))
            checks.append((t, k, projective_equal_all_pairs(
                dual, evaluate_map(candidate, fiber[k]))))
    return checks


def outcome(derive, j, candidate, samples):
    try:
        return derive(j, candidate, samples)
    except DegenerateFiber as exc:
        return ("degenerate", str(exc))


def derived_checks(j, candidate, samples):
    report = derive_jprime_and_compare(j, candidate, samples)
    return [(c.sample, c.fiber_index, c.matched) for c in report.checks]


# maps whose shared rows fail at fiber point 0, with the dimension of pair
# 0's nullspace at t = 2
DEGENERATE_MAPS = [
    # every entry a multiple of one quintic: the rows have rank 1
    (("S0^5 + 2*S0^3*S1^2 - S1^5", "-2*S0^5 - 4*S0^3*S1^2 + 2*S1^5",
      "3*S0^5 + 6*S0^3*S1^2 - 3*S1^5", "1/2*S0^5 + S0^3*S1^2 - 1/2*S1^5",
      "-S0^5 - 2*S0^3*S1^2 + S1^5", "7/3*S0^5 + 14/3*S0^3*S1^2 - 7/3*S1^5"), 5),
    # four quintics: the shared rows leave a pencil, but the own row lies
    # in their span, so the dual point the pencil gives is zero
    (("S0^5", "S0^4*S1", "S0^3*S1^2", "S0^2*S1^3",
      "S0^5 + S0^4*S1", "S0^3*S1^2 - 3*S0^2*S1^3"), 2),
    # four quintics the shared points do not separate: the own row lies
    # outside the span of the shared rows, but those leave more than a pencil
    (("S1^5", "S0*S1^4", "S0^2*S1^3", "S0^4*S1",
      "S1^5 - S0*S1^4", "2*S0^2*S1^3 + S0^4*S1"), 3),
]


def curve_map(entries):
    return ProjectiveCurveMap(SOURCE_VARS, tuple(parse_poly(e, SOURCE_VARS) for e in entries),
                              TARGET_LABELS)


nonzero = st.one_of(
    st.integers(-10 ** 4, 10 ** 4),
    st.builds(Fraction, st.integers(-999_999, 999_999), st.integers(1, 999_999)),
).filter(bool)
tall = st.builds(Fraction, st.integers(-10 ** 100, 10 ** 100),
                 st.integers(1, 10 ** 100)).filter(bool)
scales = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 50))
edits = st.tuples(st.integers(0, 5), st.sampled_from(QUINTIC_BASIS), st.integers(-3, 3))


def rescaled(curve_map, factors):
    return ProjectiveCurveMap(curve_map.source_vars,
                              tuple(c * e for c, e in zip(factors, curve_map.entries)),
                              curve_map.target_labels)


def rotated(curve_map, shift):
    return ProjectiveCurveMap(curve_map.source_vars,
                              curve_map.entries[shift:] + curve_map.entries[:shift],
                              curve_map.target_labels)


def edited(curve_map, edit):
    """The map with one coefficient of one entry set to a new value."""
    if edit is None:
        return curve_map
    slot, exps, value = edit
    entries = list(curve_map.entries)
    terms = dict(entries[slot].terms)
    terms[exps] = Fraction(value)
    entries[slot] = SparseMultiPoly(SOURCE_VARS, terms)
    if all(e.is_zero() for e in entries):
        return curve_map
    return ProjectiveCurveMap(curve_map.source_vars, tuple(entries), curve_map.target_labels)


# an exact elimination over Q(zeta_6) with six-digit entries can pass the
# default per-example deadline on a loaded machine
@settings(deadline=None)
@given(st.lists(nonzero, min_size=1, max_size=2, unique_by=Fraction),
       st.lists(scales, min_size=6, max_size=6), st.integers(1, 5))
def test_pencil_dual_points_match_per_point_nullspace(samples, factors, shift):
    j = rescaled(corrected_j(), factors)
    candidate = rescaled(corrected_jprime(), [1 / c for c in factors])
    rotation = rotated(candidate, shift)
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
    assert all(projective_equal(eisenstein(dual), eisenstein(evaluate_map(candidate, point)))
               for point, dual in zip(points, duals))
    assert report.all_match

    report = derive_jprime_and_compare(j, rotation, samples)
    assert [(c.sample, c.fiber_index) for c in report.checks] == order
    assert [c.matched for c in report.checks] == [
        projective_equal(eisenstein(dual), eisenstein(evaluate_map(rotation, point)))
        for point, dual in zip(points, duals)]


def partly_edited(curve_map, edit, t):
    """Slot `slot` plus g * (S0^m - t^m S1^m) * S1^(5 - m), unchanged at the
    fiber points [zeta^k t, 1] with zeta^(km) = 1: k = 0; 0, 3; or 0, 2, 4."""
    slot, m, g = edit
    t = Fraction(t)
    bump = SparseMultiPoly(SOURCE_VARS, {(m, 5 - m): Fraction(g), (0, 5): -g * t ** m})
    entries = list(curve_map.entries)
    entries[slot] = entries[slot] + bump
    return ProjectiveCurveMap(curve_map.source_vars, tuple(entries), curve_map.target_labels)


partial_edits = st.tuples(st.integers(0, 5), st.integers(1, 3), st.integers(-3, 3).filter(bool))


@settings(deadline=None)
@given(st.lists(st.one_of(nonzero, tall), min_size=1, max_size=2, unique_by=Fraction),
       st.lists(scales, min_size=6, max_size=6), st.one_of(st.just(0), st.integers(1, 5)),
       st.one_of(st.none(), edits), st.one_of(st.none(), partial_edits),
       st.one_of(st.none(), edits))
@example([3], [Fraction(1)] * 6, 0, (4, (3, 2), 2), None, None)  # one slot rescaled
@example([-2], [Fraction(1)] * 6, 0, None, None, (0, (3, 2), 1))  # two residues in slot 0
@example([5, 7], [Fraction(1)] * 6, 0, None, (1, 3, 1), None)  # matches at 0, 2, 4 of t = 5
def test_derivation_matches_pencil_oracle_check_for_check(
        samples, factors, shift, candidate_edit, partial_edit, j_edit):
    j = edited(rescaled(corrected_j(), factors), j_edit)
    candidate = edited(rotated(rescaled(corrected_jprime(), [1 / c for c in factors]), shift),
                       candidate_edit)
    if partial_edit:
        candidate = partly_edited(candidate, partial_edit, samples[0])
    assert (outcome(derived_checks, j, candidate, samples)
            == outcome(pencil_oracle, j, candidate, samples))


@settings(deadline=None)
@given(st.sampled_from(DEGENERATE_MAPS),
       st.lists(st.one_of(nonzero, tall), min_size=1, max_size=3, unique_by=Fraction))
def test_degenerate_maps_fail_where_the_oracle_fails(case, samples):
    j = curve_map(case[0])
    expected = outcome(pencil_oracle, j, corrected_jprime(), samples)
    assert expected[0] == "degenerate"
    assert outcome(derived_checks, j, corrected_jprime(), samples) == expected


def transformed(curve_map, matrix, signs=(1,) * 6):
    """The map whose entry e is signs[e] * sum_c matrix[e][c] * signs[c] * entry c."""
    return ProjectiveCurveMap(curve_map.source_vars, tuple(
        sum((s * a * t * x for a, t, x in zip(row, signs, curve_map.entries)),
            SparseMultiPoly.zero(curve_map.source_vars))
        for s, row in zip(signs, matrix)), curve_map.target_labels)


def inverse_transpose(matrix):
    """The rows of (A^-1)^T: the nullspace of [A | -I] holds (A^-1 e_m, e_m)."""
    n = len(matrix)
    basis = gauss_jordan([row + [-int(i == k) for k in range(n)]
                          for i, row in enumerate(matrix)])[1]
    return [v[:n] for v in basis]


@settings(deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=6, max_size=6)
       .map(lambda rows: [[x + (i == k) * 5 for k, x in enumerate(row)]
                          for i, row in enumerate(rows)]),
       st.lists(st.one_of(nonzero, tall), min_size=1, max_size=2, unique_by=Fraction))
@example([[1, 1, 1, 1, 1, 1]] + [[int(i == k) for k in range(6)] for i in range(1, 6)], [2])
def test_derivation_follows_a_change_of_target_coordinates(matrix, samples):
    # the hyperplane rows of A j at a point are D A j there (D the involution
    # signs), so v annihilates them iff D A^T D v annihilates the rows of j:
    # the dual map of A j is D A^-T D j'.  Mixing the slots mixes the
    # residue classes, so no row is a monomial scaling of a fixed vector.
    if exact_matrix_rank(matrix) < 6:
        return
    signs = standard_weight_action().involution_signs()
    j = transformed(corrected_j(), matrix)
    candidate = transformed(corrected_jprime(), inverse_transpose(matrix), signs)
    report = derive_jprime_and_compare(j, candidate, samples)
    assert report.all_match
    assert derived_checks(j, candidate, samples) == pencil_oracle(j, candidate, samples)


vectors = st.lists(st.integers(-3, 3), min_size=1, max_size=7)


@st.composite
def vector_pairs(draw):
    u = draw(vectors)
    kind = draw(st.sampled_from(["free", "multiple", "one-slot"]))
    if kind == "free":
        return u, draw(st.lists(st.integers(-3, 3), min_size=len(u), max_size=len(u)))
    v = [draw(st.integers(-4, 4)) * x for x in u]
    if kind == "one-slot":
        v[draw(st.integers(0, len(u) - 1))] = draw(st.integers(-3, 3))
    return u, v


@given(vector_pairs(), st.booleans())
@example(([0, 1, 2], [0, 1, 3]), False)  # the first slot is zero in both
@example(([0, 0], [0, 0]), False)
def test_pivoted_projective_equal_matches_all_pairs(pair, cyclotomic):
    u, v = pair
    if cyclotomic:  # the same question over Q(zeta_6), scaled by 1 + zeta
        unit = RefCyclotomic(6, [1, 1])
        u, v = [unit * x for x in u], [unit * unit * x for x in v]
    assert projective_equal(eisenstein(u), eisenstein(v)) == projective_equal_all_pairs(u, v)
    assert projective_equal(eisenstein(v), eisenstein(u)) == projective_equal_all_pairs(v, u)


def test_projective_equal_rejects_length_mismatch():
    with pytest.raises(ValueError):
        projective_equal(eisenstein((1, 2)), eisenstein((1, 2, 3)))


def test_derivation_needs_rational_coefficients():
    j = corrected_j()
    zeta_entry = j.entries[0].map_coefficients(lambda c: c * Cyclotomic.zeta(6))
    twisted = ProjectiveCurveMap(j.source_vars, (zeta_entry,) + j.entries[1:],
                                 j.target_labels)
    with pytest.raises(ValueError, match="not rational"):
        derive_jprime_and_compare(twisted, corrected_jprime(), (2,))
    with pytest.raises(ValueError, match="not rational"):
        derive_jprime_and_compare(j, twisted, (2,))


def quintic_map(matrix):
    """The map whose entry e has coefficient matrix[e][a] on S0^a S1^(5 - a)."""
    return ProjectiveCurveMap(SOURCE_VARS, tuple(
        SparseMultiPoly(SOURCE_VARS, {(a, 5 - a): Fraction(c) for a, c in enumerate(row)})
        for row in matrix), TARGET_LABELS)


coefficient_matrices = st.one_of(
    st.lists(st.lists(st.integers(-6, 6), min_size=6, max_size=6), min_size=6, max_size=6),
    low_rank_matrices(st.integers(-6, 6), 6, 6, 5),
).filter(lambda matrix: any(map(any, matrix)))


@settings(deadline=None)
@given(st.one_of(coefficient_matrices.map(quintic_map),
                 st.sampled_from(DEGENERATE_MAPS).map(lambda case: curve_map(case[0])),
                 st.just(corrected_j())),
       nonzero)
def test_signed_minors_are_the_nullspace_ray(j, s):
    # the symbolic dual at s against the five hyperplane rows at [s, 1] and
    # at the fiber points other than its partner, over Q(zeta_6)
    dual = [sum((c * s ** a for a, c in f.items()), Fraction(0))
            for f in construct._symbolic_dual(j)]
    signs = standard_weight_action().involution_signs()
    fiber = MonomialCover(6).fiber(s)
    rows = [hyperplane_row(j, fiber[m], signs) for m in (0, 1, 2, 4, 5)]
    for row in rows:
        assert not sum((x * y for x, y in zip(row, dual)), Fraction(0))
    rank, basis = gauss_jordan(rows)
    assert (not any(dual)) == (rank < 5)
    if rank == 5:
        assert projective_equal_all_pairs(dual, basis[0])
