from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multisec.exactalg import (
    Cyclotomic,
    ExactMatrix,
    exact_matrix_nullspace,
    exact_matrix_rank,
)


def test_rank_identity():
    m = ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert exact_matrix_rank(m) == 3


def test_rank_all_ones():
    assert exact_matrix_rank(ExactMatrix([[1, 1], [1, 1]])) == 1


def test_nullspace_full_rank_is_empty():
    assert exact_matrix_nullspace(ExactMatrix([[1, 0], [0, 1]])) == []


def test_nullspace_symmetry_vector():
    basis = exact_matrix_nullspace(ExactMatrix([[1, -1]]))
    assert basis == [(Fraction(1), Fraction(1))]


def test_nullspace_echelon_normalized():
    # x + y + z = 0: free columns y, z each carry a 1
    basis = exact_matrix_nullspace(ExactMatrix([[1, 1, 1]]))
    assert basis == [(Fraction(-1), Fraction(1), Fraction(0)),
                     (Fraction(-1), Fraction(0), Fraction(1))]


def test_rank_over_cyclotomics():
    z = Cyclotomic.zeta(6)
    m = ExactMatrix([[z, z ** 2], [z ** 2, z ** 3]])
    # second row is z * first row
    assert exact_matrix_rank(m) == 1
    basis = exact_matrix_nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert z * v[0] + z ** 2 * v[1] == 0


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix([])


entries = st.integers(-6, 6)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_plus_nullity_is_cols(nr, nc, data):
    rows = data.draw(st.lists(
        st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    m = ExactMatrix(rows)
    assert exact_matrix_rank(m) + len(exact_matrix_nullspace(m)) == nc


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_vectors_annihilate(nr, nc, data):
    rows = data.draw(st.lists(
        st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    m = ExactMatrix(rows)
    for v in exact_matrix_nullspace(m):
        for row in m.entries:
            assert sum(a * b for a, b in zip(row, v)) == 0


def gauss_jordan(rows):
    """Rank and nullspace by naive Gauss-Jordan elimination, the oracle.

    Reduces to reduced row echelon form with a field division per pivot,
    then reads off one basis vector per free column, carrying a 1 there and
    0 in the other free columns, as exact_matrix_nullspace normalizes it.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -m[k][fc]
        basis.append(tuple(v))
    return len(pivots), basis


sparse_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4))
cyclotomics6 = st.builds(lambda a, b: Cyclotomic(6, [a, b]),
                         sparse_fractions, sparse_fractions)


@st.composite
def low_rank_matrices(draw, scalars, nr, nc, max_rank):
    """Rows spanning a space of dimension at most max_rank, in any order."""
    rank = draw(st.integers(0, min(max_rank, nr, nc)))
    basis = [draw(st.lists(scalars, min_size=nc, max_size=nc)) for _ in range(rank)]
    rows = list(basis)
    while len(rows) < nr:
        coeffs = [draw(scalars) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                     for j in range(nc)])
    return draw(st.permutations(rows))


def assert_matches_gauss_jordan(rows):
    m = ExactMatrix(rows)
    rank, basis = gauss_jordan(m.entries)
    assert exact_matrix_rank(m) == rank
    assert exact_matrix_nullspace(m) == basis


# exact elimination over Q(zeta_6) can take over a tenth of a second on a
# loaded machine, so the per-example deadline is off
@settings(deadline=None)
@given(st.one_of(st.lists(st.lists(cyclotomics6, min_size=6, max_size=6),
                          min_size=5, max_size=5),
                 low_rank_matrices(cyclotomics6, 5, 6, 5)))
def test_cyclotomic_5x6_matches_gauss_jordan(rows):
    assert_matches_gauss_jordan(rows)


@settings(deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_rational_low_rank_matches_gauss_jordan(nr, nc, data):
    rows = data.draw(low_rank_matrices(sparse_fractions, nr, nc, 5))
    assert_matches_gauss_jordan(rows)
