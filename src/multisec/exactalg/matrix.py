"""Exact rank of an integer matrix, by fraction-free elimination.

Bareiss elimination (Math. Comp. 1968) runs on the integers: each update
divides by the previous pivot with `//`, and that division is exact
because every intermediate entry is a minor of the matrix.
"""

from __future__ import annotations

from typing import Sequence


def exact_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a matrix of ints; exact and deterministic.

    Raises ValueError on an empty or ragged matrix and on an entry that is
    not an int.
    """
    matrix = [list(row) for row in rows]
    if not matrix or not matrix[0]:
        raise ValueError("matrix must have at least one row and column")
    nr, nc = len(matrix), len(matrix[0])
    if any(len(r) != nc for r in matrix):
        raise ValueError("ragged rows")
    if not all(isinstance(x, int) for row in matrix for x in row):
        raise ValueError("matrix entries must be ints")
    rank, prev = 0, 1
    for c in range(nc):
        pivot = next((i for i in range(rank, nr) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        piv = top[c]
        # below the pivot, columns up to c are never read again, so only
        # the columns right of c are updated
        for row in matrix[rank + 1:]:
            f = row[c]
            for k in range(c + 1, nc):
                row[k] = (row[k] * piv - f * top[k]) // prev
        prev = piv
        rank += 1
        if rank == nr:
            break
    return rank
