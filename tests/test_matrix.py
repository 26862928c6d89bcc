from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from multisec.exactalg import Cyclotomic, exact_matrix_rank


def test_rank_identity():
    assert exact_matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_all_ones():
    assert exact_matrix_rank([[1, 1], [1, 1]]) == 1


def test_nullspace_full_rank_is_empty():
    assert gauss_jordan([[1, 0], [0, 1]]) == (2, [])


def test_nullspace_symmetry_vector():
    assert gauss_jordan([[1, -1]])[1] == [(Fraction(1), Fraction(1))]


def test_nullspace_echelon_normalized():
    # x + y + z = 0: free columns y, z each carry a 1
    assert gauss_jordan([[1, 1, 1]])[1] == [(Fraction(-1), Fraction(1), Fraction(0)),
                                            (Fraction(-1), Fraction(0), Fraction(1))]


def test_rank_refuses_non_integer_entries():
    # the rank runs on Python ints only; rational and cyclotomic entries
    # are the caller's to clear
    zeta = Cyclotomic.zeta(6)
    for bad in (Fraction(1, 2), Fraction(2), zeta ** 3, 0.5):
        with pytest.raises(ValueError, match="ints"):
            exact_matrix_rank([[1, 2], [3, bad]])


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        exact_matrix_rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        exact_matrix_rank([])
    with pytest.raises(ValueError):
        exact_matrix_rank([[]])


entries = st.integers(-6, 6)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_plus_nullity_is_cols(nr, nc, data):
    rows = data.draw(st.lists(
        st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    assert exact_matrix_rank(rows) + len(gauss_jordan(rows)[1]) == nc


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_vectors_annihilate(nr, nc, data):
    rows = data.draw(st.lists(
        st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    for v in gauss_jordan(rows)[1]:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def gauss_jordan(rows):
    """Rank and nullspace by naive Gauss-Jordan elimination, the oracle.

    Reduces to reduced row echelon form with a field division per pivot,
    then reads off one basis vector per free column, carrying a 1 there and
    0 in the other free columns.  Entries are rationals or elements of one
    `RefCyclotomic` field; ints are read as Fractions.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
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


@settings(deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_rational_low_rank_matches_gauss_jordan(nr, nc, data):
    rows = data.draw(low_rank_matrices(sparse_fractions, nr, nc, 5))
    # each row times the lcm of its denominators: the same rank, over Z
    cleared = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]
    assert exact_matrix_rank(cleared) == gauss_jordan(rows)[0]
