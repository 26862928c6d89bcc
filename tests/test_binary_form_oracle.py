"""The polynomial paths behind the pullback table, the paired quadrics and the map degree.

`quadratic_pullback_table`, `paired_quadric_descend`, `paired_quadric_check`
and `normalized_map_degree` compute on the integer view of a map: its
entries at [s, 1] as integer polynomials over one lcm denominator.  The
functions below are the paths that came before: `SparseMultiPoly`
products, the involution as the substitution S1 -> -S1, the variable swap
of the table's quintics, and the gcd of binary forms as a power of S1
times the monic gcd over Q of the dehomogenized forms.  Both must give
equal results, or raise the same exception with the same message, on
fixtures rescaled by rationals of height up to 10^30, on non-equivariant
maps, on maps with an odd exponent and on forms with planted common
factors.
"""

from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

from multisec.construct import (
    CURVE_VARS,
    QUINTIC_BASIS,
    SOURCE_VARS,
    TARGET_LABELS,
    MixedTermNonzero,
    NotDescendable,
    ProjectiveCurveMap,
    PullbackTable,
    QuadricFamily,
    corrected_j,
    corrected_jprime,
    normalized_map_degree,
    paired_quadric_check,
    paired_quadric_descend,
    quadratic_pullback_table,
)
from multisec.exactalg import SparseMultiPoly, as_fraction, exact_matrix_rank


# -- dense univariate polynomials over Q, constant term first --------------------

def trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def quo_rem(a, b):
    """Quotient and remainder of a by a nonzero b."""
    a = trim(list(a))
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        da = len(a) - 1
        c = a[-1] / lead
        quot[da - db] = c
        for k in range(db + 1):
            a[da - db + k] -= c * b[k]
        trim(a)
    return trim(quot), a


def monic_gcd(a, b):
    """The monic gcd of a and b; the empty list when both are zero."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        _, r = quo_rem(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def binary_form_gcd(forms):
    """Monic gcd of homogeneous forms in two variables.

    The gcd of binary forms splits as a power of the second variable (the
    common valuation) times the homogenization of the gcd of the
    dehomogenizations, which absorbs powers of the first variable as powers
    of the parameter.
    """
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise ValueError("gcd of all-zero forms")
    variables = forms[0].variables
    common_val = None
    gcd_coeffs = None
    for f in forms:
        if f.variables != variables or not f.is_homogeneous():
            raise ValueError("inputs must be homogeneous over the same pair")
        val = min(e[1] for e in f.terms)
        coeffs = [Fraction(0)] * (f.total_degree() - val + 1)
        for (a, _), c in f.terms.items():
            coeffs[a] += c
        common_val = val if common_val is None else min(common_val, val)
        gcd_coeffs = coeffs if gcd_coeffs is None else monic_gcd(gcd_coeffs, coeffs)
    deg = len(gcd_coeffs) - 1
    return SparseMultiPoly(variables, {(a, deg - a + common_val): c
                                       for a, c in enumerate(gcd_coeffs) if c != 0})


def apply_variable_permutation(p, perm):
    """p(x_perm[0], ..., x_perm[n-1]) over the same variables."""
    return SparseMultiPoly(p.variables, {tuple(e[i] for i in perm): c
                                         for e, c in p.terms.items()})


def involution_conjugate(curve_map):
    """Substitute S1 -> -S1, the lift of the base involution upstairs."""
    return ProjectiveCurveMap(
        curve_map.source_vars,
        tuple(e.scale_variable(1, Fraction(-1)) for e in curve_map.entries),
        curve_map.target_labels)


# -- the polynomial paths --------------------------------------------------------

def _require_quintic(curve_map):
    if len(curve_map.entries) != 6:
        raise ValueError("expected a six-entry map")
    if curve_map.common_degree() != 5:
        raise ValueError(f"expected degree-5 entries, got {curve_map.entry_degrees()}")


def _descend(pair, product):
    try:
        return product.divide_exponents(2, CURVE_VARS)
    except ValueError as exc:
        raise NotDescendable(f"{pair[0]}*{pair[1]}: {exc}") from exc


def ref_paired_quadric_descend(j):
    _require_quintic(j)
    conj = involution_conjugate(j)
    coefficients = {}
    for a in range(6):
        for b in range(a, 6):
            if a == b:
                coeff = j.entries[a] * conj.entries[a]
            else:
                coeff = j.entries[a] * conj.entries[b] + j.entries[b] * conj.entries[a]
            pair = (j.target_labels[a], j.target_labels[b])
            if (a < 3) != (b < 3):
                if not coeff.is_zero():
                    raise MixedTermNonzero(f"{pair[0]}*{pair[1]} -> {coeff.canonical_str()}")
                continue
            coefficients[pair] = _descend(pair, coeff)
    return QuadricFamily(CURVE_VARS, coefficients)


def ref_quadratic_pullback_table(jprime):
    _require_quintic(jprime)
    rows, matrix_rows = [], []
    for block in (0, 3):
        for a in range(block, block + 3):
            for b in range(a, block + 3):
                pair = (jprime.target_labels[a], jprime.target_labels[b])
                quintic = _descend(pair, jprime.entries[a] * jprime.entries[b])
                rows.append((pair, quintic))
                row = [as_fraction(quintic.terms.get(exps, Fraction(0)))
                       for exps in QUINTIC_BASIS]
                # times the lcm of its denominators: the same rank, over Z
                scale = lcm(*(x.denominator for x in row))
                matrix_rows.append([int(x * scale) for x in row])
    return PullbackTable(tuple(rows), exact_matrix_rank(matrix_rows))


def ref_paired_quadric_check(j, table):
    family = ref_paired_quadric_descend(j)
    return {
        "coefficient_degree_5": all(q.is_homogeneous() and q.total_degree() == 5
                                    for q in family.coefficients.values()),
        "matches_table_after_swap": all(
            family.coefficient(a, b)
            == ((1 if a.startswith("X+") else -1) * (1 if a == b else 2))
            * apply_variable_permutation(quintic, (1, 0))
            for (a, b), quintic in table.rows),
    }


def ref_normalized_map_degree(curve_map):
    nonzero = [e for e in curve_map.entries if not e.is_zero()]
    gcd_degree = binary_form_gcd(nonzero).total_degree()
    degrees = {e.total_degree() - gcd_degree for e in nonzero}
    if len(degrees) != 1:
        raise ValueError(f"entries do not share a degree after gcd removal: {degrees}")
    return degrees.pop()


def outcome(fn, *args):
    """("value", the result), or the exception's type and message."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return (type(exc), str(exc))


def assert_same(fn, ref, *args):
    got = outcome(fn, *args)
    assert got == outcome(ref, *args)
    return got


# -- strategies ------------------------------------------------------------------

tall = st.builds(lambda n, d, sign: Fraction(sign * n, d),
                 st.integers(1, 10 ** 30), st.integers(1, 10 ** 30), st.sampled_from((1, -1)))
nonzero = st.one_of(st.sampled_from((Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2))),
                    tall)
scales = st.lists(nonzero, min_size=6, max_size=6)


def rescaled(curve_map, factors):
    return ProjectiveCurveMap(curve_map.source_vars,
                              tuple(e * c for e, c in zip(curve_map.entries, factors)),
                              curve_map.target_labels)


def perturbed(curve_map, index, terms):
    """curve_map with the quintic sum c * S0^a * S1^(5 - a) over terms {a: c} added to one entry."""
    entries = list(curve_map.entries)
    entries[index] = entries[index] + SparseMultiPoly(
        SOURCE_VARS, {(a, 5 - a): c for a, c in terms.items()})
    return ProjectiveCurveMap(curve_map.source_vars, tuple(entries), curve_map.target_labels)


@st.composite
def perturbations(draw, parity_of):
    """(index, terms) whose terms hold an S0-degree a with a % 2 != parity_of(index)."""
    index = draw(st.integers(0, 5))
    terms = draw(st.dictionaries(st.integers(0, 5), nonzero, max_size=3))
    other_parity = draw(st.integers(0, 2)) * 2 + 1 - parity_of(index)
    terms.setdefault(other_parity, draw(nonzero))
    return index, terms


# -- the oracles -----------------------------------------------------------------

def _compare_all(j, jprime):
    """Every integer path against its polynomial path on j and jprime."""
    table = assert_same(quadratic_pullback_table, ref_quadratic_pullback_table, jprime)
    assert_same(paired_quadric_descend, ref_paired_quadric_descend, j)
    tables = [quadratic_pullback_table(corrected_jprime())]
    if table[0] == "value":
        tables.append(table[1])
    for t in tables:
        assert_same(paired_quadric_check, ref_paired_quadric_check, j, t)
    for m in (j, jprime):
        assert_same(normalized_map_degree, ref_normalized_map_degree, m)
    return table


@settings(deadline=None)
@given(scales, scales)
@example([Fraction(1)] * 6, [Fraction(1)] * 6)
def test_integer_paths_match_on_rescaled_fixtures(cj, cjp):
    j, jp = rescaled(corrected_j(), cj), rescaled(corrected_jprime(), cjp)
    table = _compare_all(j, jp)
    assert table[0] == "value" and table[1].rank == 6
    if cj == [Fraction(1)] * 6:
        assert paired_quadric_check(j, quadratic_pullback_table(corrected_jprime())) == {
            "coefficient_degree_5": True, "matches_table_after_swap": True}


@settings(deadline=None)
@given(scales, perturbations(lambda i: 1 if i < 3 else 0), st.booleans())
@example([Fraction(1)] * 6, (5, {1: Fraction(1)}), False)
def test_integer_paths_match_on_non_equivariant_maps(cj, perturbation, as_jprime):
    # corrected j has odd S0-degrees on X+ and even ones on X-; a term of
    # the other parity leaves a cross-block coefficient nonzero
    broken = perturbed(rescaled(corrected_j(), cj), *perturbation)
    assert outcome(ref_paired_quadric_descend, broken)[0] is MixedTermNonzero
    if as_jprime:
        _compare_all(corrected_j(), broken)
    else:
        _compare_all(broken, corrected_jprime())


@settings(deadline=None)
@given(scales, perturbations(lambda i: 0 if i < 3 else 1))
@example([Fraction(1)] * 6, (0, {1: Fraction(1)}))
def test_integer_paths_match_on_maps_with_an_odd_exponent(cjp, perturbation):
    # corrected j' has even S0-degrees on X+ and odd ones on X-; a term of
    # the other parity makes the square of its entry odd
    broken = perturbed(rescaled(corrected_jprime(), cjp), *perturbation)
    assert _compare_all(broken, broken)[0] is NotDescendable


small = st.integers(-3, 3)


@st.composite
def binary_form(draw, degree, coefficients=small):
    return SparseMultiPoly(SOURCE_VARS, {(a, degree - a): draw(coefficients)
                                         for a in range(degree + 1)})


@st.composite
def planted_maps(draw):
    """Entries h * g_i of degree 0-8 with a planted common factor h."""
    k = draw(st.integers(0, 4))
    h = draw(binary_form(k).filter(lambda f: not f.is_zero()))
    count = draw(st.integers(1, 6))
    same = draw(st.booleans())
    degree = draw(st.integers(0, 8 - k))
    cofactors = [draw(binary_form(degree if same else draw(st.integers(0, 8 - k))))
                 for _ in range(count)]
    if all(g.is_zero() for g in cofactors):
        cofactors[0] = SparseMultiPoly(SOURCE_VARS, {(degree, 0): 1})
    factors = draw(st.lists(nonzero, min_size=count, max_size=count))
    return ProjectiveCurveMap(SOURCE_VARS, tuple(h * g * c for g, c in zip(cofactors, factors)),
                              TARGET_LABELS[:count])


def _form(*terms):
    return SparseMultiPoly(SOURCE_VARS, dict(terms))


@settings(deadline=None)
@given(planted_maps())
@example(ProjectiveCurveMap(SOURCE_VARS, (_form(((2, 0), 1)), _form(((1, 1), 1))),
                            TARGET_LABELS[:2]))
@example(ProjectiveCurveMap(SOURCE_VARS, (_form(((2, 0), 1), ((1, 1), 2), ((0, 2), 1)),
                                          _form(((2, 0), 1), ((0, 2), -1)), _form()),
                            TARGET_LABELS[:3]))
@example(ProjectiveCurveMap(SOURCE_VARS, (_form(((0, 0), 3)), _form(((1, 0), 1))),
                            TARGET_LABELS[:2]))
def test_gcd_degree_matches_the_monic_gcd(curve_map):
    assert_same(normalized_map_degree, ref_normalized_map_degree, curve_map)


def test_paired_check_matches_on_doctored_tables():
    # a quintic with a term off degree 5 or over other variables matches nothing
    table = quadratic_pullback_table(corrected_jprime())
    (pair, quintic), *rest = table.rows
    off_degree = quintic + SparseMultiPoly(CURVE_VARS, {(4, 0): 1})
    renamed = SparseMultiPoly(("U0", "U1"), quintic.terms)
    for doctored in (off_degree, renamed):
        doctored_table = PullbackTable(((pair, doctored), *rest), table.rank)
        assert assert_same(paired_quadric_check, ref_paired_quadric_check,
                           corrected_j(), doctored_table) == ("value", {
                               "coefficient_degree_5": True, "matches_table_after_swap": False})
