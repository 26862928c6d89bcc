"""Exact rank of a rational matrix, by fraction-free elimination over Z.

Each row is scaled by the lcm of its denominators, which keeps the rank,
and Bareiss elimination (Math. Comp. 1968) then runs on integers: each
update divides by the previous pivot with `//`, and that division is exact
because every intermediate entry is a minor of the scaled matrix.  No
`Fraction` is built past the scaling.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .scalars import as_fraction


def exact_matrix_rank(rows: Sequence[Sequence[object]]) -> int:
    """Rank over Q of a matrix of rationals; exact and deterministic.

    Raises ValueError on an empty or ragged matrix and on an entry outside Q.
    """
    matrix = []
    for row in rows:
        row = [as_fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        matrix.append([x.numerator * (scale // x.denominator) for x in row])
    if not matrix or not matrix[0]:
        raise ValueError("matrix must have at least one row and column")
    nr, nc = len(matrix), len(matrix[0])
    if any(len(r) != nc for r in matrix):
        raise ValueError("ragged rows")
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
