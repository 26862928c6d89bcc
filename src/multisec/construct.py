"""Exact verification of the equivariant quintic curve construction.

The objects here live on the projective line with three coordinate charts
chained by monomial covers: [S0,S1] double-covers [T0,T1] via T = S^2,
which triple-covers [U0,U1] via U = T^3.  A sixth-root torus acts upstairs
by scaling S1 and on the six target coordinates X+0..X-2 with weights
(0,2,4,1,3,5); the order-2 element of that action is the involution whose
odd coordinates are the X- block.

Everything is verified by exact arithmetic: equivariance by degree
bookkeeping, the derived dual map by signed minors over Z[zeta_6] on
the fiber, the quadratic pullback table by polynomial expansion and an
exact rank computation, and the norm map by expanding the product over the
deck transformations.  `construction_checks` runs them on the fixtures and
returns the verify-construction suite in report order.

The canonical fixtures (the printed and the corrected six-entry vectors)
are stored as plain text in ``fixtures/curve_maps.txt`` together with
their provenance notes; the printed vectors are kept verbatim so that the
checkers can flag, rather than silently patch, their defects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations
from math import lcm
from typing import Sequence

from .exactalg import (
    Cyclotomic,
    SparseMultiPoly,
    as_fraction,
    binary_form_gcd,
    exact_matrix_rank,
    parse_poly,
)

SOURCE_VARS = ("S0", "S1")
CURVE_VARS = ("T0", "T1")
BASE_VARS = ("U0", "U1")
PLUS_LABELS = ("X+0", "X+1", "X+2")
MINUS_LABELS = ("X-0", "X-1", "X-2")
TARGET_LABELS = PLUS_LABELS + MINUS_LABELS


class MixedTermNonzero(ValueError):
    """A cross-block quadric coefficient survived: the map is not equivariant."""


class NotDescendable(ValueError):
    """An odd exponent blocks the substitution along the double cover."""


class DegenerateFiber(ValueError):
    """The hyperplane rows at a fiber point do not have full rank."""


class SampleZero(ValueError):
    """Sample parameter 0 sits under the totally ramified fiber."""


class InternalNonRational(ArithmeticError):
    """A deck-invariant product failed to be rational: an arithmetic bug."""


@dataclass(frozen=True)
class ProjectiveCurveMap:
    """A map from the line given by a vector of homogeneous forms."""

    source_vars: tuple[str, str]
    entries: tuple[SparseMultiPoly, ...]
    target_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "source_vars", tuple(self.source_vars))
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "target_labels", tuple(self.target_labels))
        if len(self.source_vars) != 2:
            raise ValueError("source must be a coordinate pair")
        if not self.entries:
            raise ValueError("at least one entry required")
        if len(self.entries) != len(self.target_labels):
            raise ValueError(
                f"{len(self.entries)} entries vs {len(self.target_labels)} labels")
        for e in self.entries:
            if e.variables != self.source_vars:
                raise ValueError("entry variables must match source_vars")
            if not e.is_homogeneous():
                raise ValueError(f"entry {e} is not homogeneous")
        if all(e.is_zero() for e in self.entries):
            raise ValueError("entries must not all be zero")

    def entry_degrees(self) -> tuple[int | None, ...]:
        return tuple(e.total_degree() for e in self.entries)

    def common_degree(self) -> int | None:
        """The shared homogeneous degree, or None if the entries disagree."""
        degrees = set(self.entry_degrees())
        if len(degrees) == 1 and None not in degrees:
            return degrees.pop()
        return None


@dataclass(frozen=True)
class WeightedTorusAction:
    """Roots of unity scaling S1 upstairs and the target slots by weights."""

    modulus: int
    target_weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "target_weights",
                           tuple(w % self.modulus for w in self.target_weights))

    def involution_signs(self) -> tuple[int, ...]:
        """Signs of the order-2 element: -1 exactly on odd-weight slots."""
        if self.modulus % 2:
            raise ValueError("no involution for odd modulus")
        return tuple(-1 if w % 2 else 1 for w in self.target_weights)


def standard_weight_action() -> WeightedTorusAction:
    """The sixth-root action on the six target coordinates."""
    return WeightedTorusAction(6, (0, 2, 4, 1, 3, 5))


def dual_weight_action() -> WeightedTorusAction:
    """The action on the dual coordinates: negated weights mod 6."""
    return WeightedTorusAction(6, tuple(-w for w in (0, 2, 4, 1, 3, 5)))


@dataclass(frozen=True)
class EquivarianceReport:
    status: str  # "ok" | "not-homogeneous" | "weight-mismatch"
    offset: int | None
    entry_details: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check_weighted_equivariance(curve_map: ProjectiveCurveMap,
                                action: WeightedTorusAction) -> EquivarianceReport:
    """Degree bookkeeping for equivariance under the weighted torus action.

    Succeeds iff there is one residue c mod the modulus such that every
    term of entry e has S1-degree congruent to weight(e) + c.  A vector
    whose entries do not share a homogeneous degree is reported (not
    raised) as "not-homogeneous", so printed fixtures can be diagnosed.
    """
    if len(curve_map.entries) != len(action.target_weights):
        raise ValueError("one weight per entry required")
    details = []
    for label, entry, weight in zip(curve_map.target_labels, curve_map.entries,
                                    action.target_weights):
        s1_degrees = {exps[1] % action.modulus for exps in entry.terms}
        details.append({
            "label": label,
            "degree": entry.total_degree(),
            "weight": weight,
            "s1_residues": sorted(s1_degrees),
        })
    degrees = {d["degree"] for d in details}
    if len(degrees) != 1 or None in degrees:
        return EquivarianceReport("not-homogeneous", None, tuple(details))
    offsets = set()
    for d in details:
        if len(d["s1_residues"]) != 1:
            return EquivarianceReport("weight-mismatch", None, tuple(details))
        offsets.add((d["s1_residues"][0] - d["weight"]) % action.modulus)
    if len(offsets) != 1:
        return EquivarianceReport("weight-mismatch", None, tuple(details))
    return EquivarianceReport("ok", offsets.pop(), tuple(details))


def involution_conjugate(curve_map: ProjectiveCurveMap) -> ProjectiveCurveMap:
    """Substitute S1 -> -S1, the lift of the base involution upstairs."""
    return ProjectiveCurveMap(
        curve_map.source_vars,
        tuple(e.scale_variable(1, Fraction(-1)) for e in curve_map.entries),
        curve_map.target_labels)


@dataclass(frozen=True)
class QuadricFamily:
    """Symmetric quadric coefficients over the curve coordinates."""

    base_vars: tuple[str, str]
    coefficients: dict[tuple[str, str], SparseMultiPoly]

    def coefficient(self, a: str, b: str) -> SparseMultiPoly:
        return self.coefficients[tuple(sorted((a, b)))]


def paired_quadric_descend(j: ProjectiveCurveMap) -> QuadricFamily:
    """Expand the product of a hyperplane form with its involution partner.

    With L(X) the linear form whose coefficients are the entries of j, the
    product L * (L after S1 -> -S1) is a quadric in the X's.  Equivariance
    forces every cross-block coefficient X+ * X- to vanish identically and
    leaves the surviving coefficients with even exponents only, so they
    descend along T = S^2 to forms of degree 5 on the middle curve.
    """
    if len(j.entries) != 6:
        raise ValueError("expected a six-entry map")
    if j.common_degree() != 5:
        raise ValueError(f"expected degree-5 entries, got {j.entry_degrees()}")
    conj = involution_conjugate(j)
    coefficients: dict[tuple[str, str], SparseMultiPoly] = {}
    for a in range(6):
        for b in range(a, 6):
            if a == b:
                coeff = j.entries[a] * conj.entries[a]
            else:
                coeff = (j.entries[a] * conj.entries[b]
                         + j.entries[b] * conj.entries[a])
            pair = (j.target_labels[a], j.target_labels[b])
            crosses_blocks = (a < 3) != (b < 3)
            if crosses_blocks:
                if not coeff.is_zero():
                    raise MixedTermNonzero(
                        f"{pair[0]}*{pair[1]} -> {coeff.canonical_str()}")
                continue
            try:
                descended = coeff.divide_exponents(2, CURVE_VARS)
            except ValueError as exc:
                raise NotDescendable(
                    f"{pair[0]}*{pair[1]}: {exc}") from exc
            coefficients[pair] = descended
    return QuadricFamily(CURVE_VARS, coefficients)


def monomial_norm(p: SparseMultiPoly, d: int,
                  target_vars: Sequence[str] = BASE_VARS) -> SparseMultiPoly:
    """Norm of a form along the degree-d monomial cover.

    Multiplies the d conjugates p(zeta^k T0, T1) over the cyclotomic field
    of conductor d; deck invariance makes every exponent a multiple of d
    and every coefficient rational, after which T^d is renamed to the base
    coordinates.  The output degree equals the input degree.
    """
    if d < 1:
        raise ValueError("cover degree must be >= 1")
    if not p.is_homogeneous():
        raise ValueError(f"norm input must be homogeneous: {p}")
    if p.is_zero():
        return SparseMultiPoly.zero(target_vars)
    zeta = Cyclotomic.zeta(d)
    product = SparseMultiPoly.constant(p.variables, Fraction(1))
    for k in range(d):
        product = product * p.scale_variable(0, zeta ** k)
    try:
        rational = product.map_coefficients(as_fraction)
    except ValueError as exc:
        raise InternalNonRational(str(exc)) from exc
    try:
        return rational.divide_exponents(d, target_vars)
    except ValueError as exc:
        raise InternalNonRational(str(exc)) from exc


def projective_equal(u: Sequence, v: Sequence) -> bool:
    """Equality in projective space over Q(zeta_6) by cross-multiplication.

    Entries are pairs (a, b) = a + b zeta_6 of integers or rationals.  With
    p the first nonzero slot of u, u and v are proportional iff
    u_i v_p = u_p v_i for every other slot i: were v_p zero, those
    equations would make v zero, and the zero vector is rejected first.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("length mismatch")
    if not any(map(any, u)) or not any(map(any, v)):
        return False
    p = next(i for i, x in enumerate(u) if any(x))
    up, vp = u[p], v[p]
    return all(_mul(u[i], vp) == _mul(up, v[i]) for i in range(len(u)) if i != p)


@dataclass(frozen=True)
class JPrimeCheck:
    sample: Fraction
    fiber_index: int
    matched: bool


@dataclass(frozen=True)
class JPrimeComparison:
    samples: tuple[Fraction, ...]
    checks: tuple[JPrimeCheck, ...]

    @property
    def all_match(self) -> bool:
        return all(c.matched for c in self.checks)

    def mismatches(self) -> list[JPrimeCheck]:
        return [c for c in self.checks if not c.matched]


DEFAULT_JPRIME_SAMPLES = (1, 2, 3, 5, 7)

# zeta_6^m in the basis {1, zeta_6} of Q(zeta_6), where zeta_6^2 = zeta_6 - 1
_ZETA6_POWERS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _residue_classes(curve_map: ProjectiveCurveMap) -> tuple[int, list]:
    """Each entry's terms as integer (a, c) lists by S0-degree a mod 6.

    The coefficients are scaled by the lcm of their denominators, and
    `as_fraction` raises ValueError on one outside Q.  The largest a comes
    first in the result.
    """
    terms = [[(exps[0], as_fraction(c)) for exps, c in e.terms.items()]
             for e in curve_map.entries]
    scale = lcm(*(c.denominator for entry in terms for _, c in entry))
    classes = [[[(a, c.numerator * (scale // c.denominator)) for a, c in entry if a % 6 == r]
                for r in range(6)] for entry in terms]
    return max(a for entry in terms for a, _ in entry), classes


def _fiber_values(top: int, classes: list, t: Fraction) -> list[list[tuple[int, int]]]:
    """The entries at [zeta_6^k t, 1], k = 0..5, as pairs (A, B) = A + B zeta_6.

    Each point's vector is scaled by q^top for t = p/q: the terms c S0^a of
    class r sum to the integer Q_r = sum c p^a q^(top - a), and the entry
    at point k is sum_r Q_r zeta^(kr).
    """
    p, q = t.numerator, t.denominator
    weights = [p ** a * q ** (top - a) for a in range(top + 1)]
    sums = [[(r, sum(c * weights[a] for a, c in terms))
             for r, terms in enumerate(entry) if terms] for entry in classes]
    return [[(sum(_ZETA6_POWERS[k * r % 6][0] * q_r for r, q_r in entry),
              sum(_ZETA6_POWERS[k * r % 6][1] * q_r for r, q_r in entry))
             for entry in sums] for k in range(6)]


def _mul(x, y) -> tuple:
    # (a + b zeta)(c + d zeta) with zeta^2 = zeta - 1
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c - bd, a * d + b * c + bd


def _dot(terms) -> tuple:
    """The sum of x * y over the pairs (x, y) of elements of Z[zeta_6]."""
    a = b = 0
    for (p, q), (r, s) in terms:
        qs = q * s
        a += p * r - qs
        b += p * s + q * r + qs
    return a, b


def _laplace_terms(i: int, j: int) -> list:
    # P[i, j] by Laplace along rows {0, 1}; the order of the columns of the
    # complementary minor of rows {2, 3} carries each term's sign
    cols = [c for c in range(6) if c not in (i, j)]
    terms = []
    for p, q in combinations(range(4), 2):
        c, d = (cols[x] for x in range(4) if x not in (p, q))
        terms.append(((cols[p], cols[q]), (c, d) if (p + q + 1 + i + j) % 2 == 0 else (d, c)))
    return terms


_PAIRS = tuple(combinations(range(6), 2))
_LAPLACE = {pair: _laplace_terms(*pair) for pair in _PAIRS}


def _wedge(x, y) -> dict:
    """The 2 x 2 minors x_i y_j - x_j y_i of two rows, keyed by (i, j) and (j, i)."""
    minors = {}
    for i, j in _PAIRS:
        (a, b), (c, d) = _mul(x[i], y[j]), _mul(x[j], y[i])
        minors[i, j], minors[j, i] = (a - c, b - d), (c - a, d - b)
    return minors


def _plucker(rows) -> dict:
    """The signed 4 x 4 minors of four rows, an antisymmetric table.

    P[i, j] is (-1)^(i + j) times the minor on the four columns other than
    i and j, and P[j, i] = -P[i, j].  These are the Plucker coordinates of
    the rows' span: another basis of the span scales them all by its
    determinant.
    """
    top, bottom = _wedge(rows[0], rows[1]), _wedge(rows[2], rows[3])
    table = {}
    for pair, terms in _LAPLACE.items():
        a, b = _dot((top[m], bottom[n]) for m, n in terms)
        table[pair], table[pair[::-1]] = (a, b), (-a, -b)
    return table


def _dual_point(row, table) -> list:
    """The signed 5 x 5 minors of `row` over the four rows behind `table`.

    Entry j is sum_i row_i P[i, j], the Laplace expansion along `row` of
    (-1)^j times the minor without column j.  The vector annihilates all
    five rows, and it is zero exactly when they have rank below 5.
    """
    return [_dot((row[i], table[i, j]) for i in range(6) if i != j) for j in range(6)]


def derive_jprime_and_compare(j: ProjectiveCurveMap,
                              candidate: ProjectiveCurveMap,
                              samples: Sequence = DEFAULT_JPRIME_SAMPLES) -> JPrimeComparison:
    """Derive the dual map point-by-point and compare with a closed form.

    For each sample t, the fiber of the composed degree-6 cover is the six
    points [zeta_6^k t, 1].  The component through a fiber point s is cut
    by five hyperplanes: the one attached to s itself plus the four
    attached to the points outside s's double-cover fiber (the partner
    s -> -s is the one left out).  Hyperplanes pair through the involution
    twist (minus on the odd-weight block); the resulting intersection
    point must equal the candidate at s up to a single scalar.

    That point is the vector of signed 5 x 5 minors of the five rows, in
    Z[zeta_6] as integer pairs A + B zeta_6, with no division.  Partners
    s, -s share their four other rows, so each pair (k, k + 3) has one
    table of signed 4 x 4 minors; a zero dual point raises DegenerateFiber.
    Checks come in sample, then fiber order.

    Both maps must have rational coefficients, so complex conjugation
    sigma (zeta -> zeta^-1) takes point k to point -k.  Rows 1, 2, 4, 5
    are then two conjugate pairs: writing r = A + zeta B, the rational
    rows A, B of points 1 and 2 span the same space, so pair 0's minors
    are integers.  Pair 2's rows are sigma of pair 1's, so its minors are
    sigma of pair 1's, up to one sign: A + B zeta -> (A + B) - B zeta.
    """
    if len(j.entries) != 6 or len(candidate.entries) != 6:
        raise ValueError("expected six-entry maps")
    samples = tuple(Fraction(t) for t in samples)
    if any(t == 0 for t in samples):
        raise SampleZero("samples must avoid the totally ramified fiber at 0")
    if len(set(samples)) != len(samples):
        raise ValueError("samples must be pairwise distinct")
    signs = standard_weight_action().involution_signs()
    j_classes, candidate_classes = _residue_classes(j), _residue_classes(candidate)
    checks = []
    for t in samples:
        rows = [[(s * x, s * y) for s, (x, y) in zip(signs, row)]
                for row in _fiber_values(*j_classes, t)]
        rational = [[(pair[i], 0) for pair in rows[k]] for k in (1, 2) for i in (0, 1)]
        pair1 = _plucker([rows[k] for k in (0, 2, 3, 5)])
        tables = (_plucker(rational), pair1,
                  {key: (a + b, -b) for key, (a, b) in pair1.items()})
        values = _fiber_values(*candidate_classes, t)
        for k in range(6):
            dual = _dual_point(rows[k], tables[k % 3])
            if not any(map(any, dual)):
                raise DegenerateFiber(
                    f"hyperplane rows at fiber point {k} of sample {t} "
                    f"have rank below 5")
            checks.append(JPrimeCheck(t, k, projective_equal(dual, values[k])))
    return JPrimeComparison(samples, tuple(checks))


QUINTIC_BASIS = ((5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5))


@dataclass(frozen=True)
class PullbackTable:
    """The 12 within-block quadric monomials and their quintic images."""

    rows: tuple[tuple[tuple[str, str], SparseMultiPoly], ...]
    rank: int


def quadratic_pullback_table(jprime: ProjectiveCurveMap) -> PullbackTable:
    """Images of the within-block quadric monomials under the dual map.

    The six squares and six within-block products of the entries descend
    along T = S^2 to quintics; the rank of the 12 x 6 coefficient matrix
    over the quintic monomial basis certifies surjectivity when it is 6.
    """
    if len(jprime.entries) != 6:
        raise ValueError("expected a six-entry map")
    if jprime.common_degree() != 5:
        raise ValueError(f"expected degree-5 entries, got {jprime.entry_degrees()}")
    rows = []
    matrix_rows = []
    for block in (0, 3):
        for a in range(block, block + 3):
            for b in range(a, block + 3):
                product = jprime.entries[a] * jprime.entries[b]
                try:
                    quintic = product.divide_exponents(2, CURVE_VARS)
                except ValueError as exc:
                    raise NotDescendable(
                        f"{jprime.target_labels[a]}*{jprime.target_labels[b]}: "
                        f"{exc}") from exc
                pair = (jprime.target_labels[a], jprime.target_labels[b])
                rows.append((pair, quintic))
                matrix_rows.append([
                    as_fraction(quintic.terms.get(exps, Fraction(0)))
                    for exps in QUINTIC_BASIS])
    rank = exact_matrix_rank(matrix_rows)
    return PullbackTable(tuple(rows), rank)


def paired_quadric_check(j: ProjectiveCurveMap, table: PullbackTable) -> dict:
    """Compare j's paired quadrics with the dual map's pullback table.

    Every descended coefficient must be a quintic, and the coefficient of
    each table monomial a*b must be the table's image with the curve
    coordinates swapped, times the block sign (+1 on X+, -1 on X-) and
    the factor 2 of an off-diagonal monomial.
    """
    family = paired_quadric_descend(j)
    return {
        "coefficient_degree_5": all(q.is_homogeneous() and q.total_degree() == 5
                                    for q in family.coefficients.values()),
        "matches_table_after_swap": all(
            family.coefficient(a, b)
            == ((1 if a.startswith("X+") else -1) * (1 if a == b else 2))
            * quintic.apply_variable_permutation((1, 0))
            for (a, b), quintic in table.rows),
    }


def normalized_map_degree(curve_map: ProjectiveCurveMap) -> int:
    """Common entry degree after removing the polynomial gcd of the entries."""
    nonzero = [e for e in curve_map.entries if not e.is_zero()]
    common = binary_form_gcd(nonzero)
    gcd_degree = common.total_degree()
    degrees = {e.total_degree() - gcd_degree for e in nonzero}
    if len(degrees) != 1:
        raise ValueError(
            f"entries do not share a degree after gcd removal: {degrees}")
    return degrees.pop()


def pushforward_splitting_type(d: int, m: int) -> tuple[int, ...]:
    """Twists of the pushforward of degree-m forms along the degree-d cover.

    Monomials T0^a T1^(m-a) split by a mod d; the residue-r class is a free
    summand of twist floor((m-r)/d).  The multiset is returned sorted; the
    total section count sum(twist + 1) equals m + 1.
    """
    if d < 1:
        raise ValueError("cover degree must be >= 1")
    if m < 0:
        raise ValueError("sheaf degree must be >= 0")
    return tuple(sorted((m - r) // d for r in range(min(d, m + 1))))


# -- fixtures ----------------------------------------------------------------

@dataclass(frozen=True)
class CurveMapFixture:
    name: str
    source_vars: tuple[str, str]
    labels: tuple[str, ...] | None
    entries: tuple[SparseMultiPoly, ...]
    notes: str


@lru_cache(maxsize=None)
def _fixture_blocks() -> dict[str, CurveMapFixture]:
    text = resources.files("multisec").joinpath("fixtures/curve_maps.txt").read_text()
    fixtures: dict[str, CurveMapFixture] = {}
    name = None
    vars_: tuple[str, str] | None = None
    labels: tuple[str, ...] | None = None
    notes: list[str] = []
    entries: list[str] = []

    def flush():
        if name is None:
            return
        parsed = tuple(parse_poly(e, vars_) for e in entries)
        fixtures[name] = CurveMapFixture(name, vars_, labels, parsed,
                                         " ".join(notes))

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "fixture":
            flush()
            name, vars_, labels, notes, entries = value, None, None, [], []
        elif key == "vars":
            vars_ = tuple(value.split())
        elif key == "labels":
            labels = tuple(value.split())
        elif key == "note":
            notes.append(value)
        elif key == "entry":
            entries.append(value)
        else:
            raise ValueError(f"unknown fixture line: {raw!r}")
    flush()
    return fixtures


def load_curve_fixture(name: str) -> CurveMapFixture:
    fixtures = _fixture_blocks()
    if name not in fixtures:
        raise KeyError(f"no fixture named {name!r}; have {sorted(fixtures)}")
    return fixtures[name]


def _fixture_map(name: str) -> ProjectiveCurveMap:
    fx = load_curve_fixture(name)
    if fx.labels is None:
        raise ValueError(f"fixture {name} has no target labels")
    return ProjectiveCurveMap(fx.source_vars, fx.entries, fx.labels)


def corrected_j() -> ProjectiveCurveMap:
    return _fixture_map("j_corrected")


def printed_j() -> ProjectiveCurveMap:
    return _fixture_map("j_printed")


def corrected_jprime() -> ProjectiveCurveMap:
    return _fixture_map("jprime_corrected")


def printed_jprime_entries() -> tuple[SparseMultiPoly, ...]:
    return load_curve_fixture("jprime_printed").entries


def dedupe_consecutive_entries(entries: Sequence[SparseMultiPoly]) -> tuple[SparseMultiPoly, ...]:
    """Drop immediately repeated entries (the printed duplication)."""
    out: list[SparseMultiPoly] = []
    for e in entries:
        if not out or out[-1] != e:
            out.append(e)
    return tuple(out)


# -- the verification suite ----------------------------------------------------

def construction_checks(samples: Sequence = DEFAULT_JPRIME_SAMPLES) -> list[tuple]:
    """The checks of the construction on the fixtures, in report order.

    Each entry is (name, informational, ok, detail).  An informational
    check diagnoses a printed fixture and does not enter a verdict; the
    construction holds when every other check is ok.  `samples` are the
    parameters of the dual-map derivation.
    """
    j, jp = corrected_j(), corrected_jprime()
    action = standard_weight_action()
    eq_j = check_weighted_equivariance(j, action)
    eq_printed = check_weighted_equivariance(printed_j(), action)
    eq_jp = check_weighted_equivariance(jp, dual_weight_action())
    printed_jp = printed_jprime_entries()
    deduped = dedupe_consecutive_entries(printed_jp)
    comparison = derive_jprime_and_compare(j, jp, samples)
    table = quadratic_pullback_table(jp)
    paired = paired_quadric_check(j, table)
    degrees = {"j": normalized_map_degree(j), "jprime": normalized_map_degree(jp)}
    t0_plus_t1 = SparseMultiPoly(CURVE_VARS, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    norms = {f"norm{d}": monomial_norm(t0_plus_t1, d).canonical_str() for d in (3, 2)}
    twists = pushforward_splitting_type(3, 5)
    return [
        ("equivariance_j_corrected", False, eq_j.ok and eq_j.offset == 0,
         {"status": eq_j.status, "offset": eq_j.offset}),
        ("equivariance_j_printed_flagged", True, eq_printed.status == "not-homogeneous",
         {"status": eq_printed.status,
          "entry_degrees": [d["degree"] for d in eq_printed.entry_details]}),
        ("equivariance_jprime_corrected", False, eq_jp.ok and eq_jp.offset == 5,
         {"status": eq_jp.status, "offset": eq_jp.offset}),
        ("printed_jprime_deduplicates_to_corrected", True, deduped == jp.entries,
         {"printed_entries": len(printed_jp), "deduplicated_entries": len(deduped)}),
        ("derived_jprime_matches_closed_form", False, comparison.all_match,
         {"samples": [str(t) for t in comparison.samples],
          "point_checks": len(comparison.checks),
          "mismatches": len(comparison.mismatches())}),
        ("pullback_table_rank", False, table.rank == 6,
         {"rank": table.rank,
          "rows": [{"monomial": f"{a}*{b}", "image": q.canonical_str()}
                   for (a, b), q in table.rows]}),
        ("paired_quadrics_descend", False, all(paired.values()), paired),
        ("normalized_degrees", False, degrees == {"j": 5, "jprime": 5}, degrees),
        ("norm_spot_checks", False, norms == {"norm3": "U0 + U1", "norm2": "-U0 + U1"},
         norms),
        ("pushforward_splitting", False, twists == (1, 1, 1), {"twists": list(twists)}),
    ]
