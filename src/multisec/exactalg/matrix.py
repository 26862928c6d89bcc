"""Exact dense matrices: rank and right nullspace.

Elimination is fraction-free in the Bareiss style: each update divides by
the previous pivot, which is an exact division (the intermediate entries
are minors), so integer-valued rational matrices stay integral throughout.
The previous pivot is inverted once per pivot step and every update of
that step multiplies by the inverse, so a step costs one field inversion
however many entries it updates.  The scalars only need ring operations
plus inversion, which both Fraction and Cyclotomic provide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import scalar_is_zero


class ExactMatrix:
    """Immutable dense matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[object]]):
        rows = tuple(
            tuple(Fraction(x) if isinstance(x, int) else x for x in row)
            for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def _bareiss_echelon(m: ExactMatrix) -> tuple[list[list[object]], list[int]]:
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if not scalar_is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        piv = top[c]
        below = range(r + 1, nr)
        inv_prev = 1 / prev if below and prev != 1 else None
        # below the pivot, columns up to c are never read again, so only
        # the columns right of c are updated
        for i in below:
            row = rows[i]
            fi = row[c]
            for j in range(c + 1, nc):
                entry = row[j] * piv - fi * top[j]
                row[j] = entry if inv_prev is None else entry * inv_prev
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], pivot_cols


def exact_matrix_rank(m: ExactMatrix) -> int:
    """Rank over the fraction field; exact and deterministic."""
    return len(_bareiss_echelon(m)[1])


def exact_matrix_nullspace(m: ExactMatrix) -> list[tuple[object, ...]]:
    """Echelon-normalized basis of the right nullspace.

    Each basis vector carries a 1 in its free column and 0 in the other
    free columns; pivot entries are solved by exact back-substitution.
    """
    rows, pivot_cols = _bareiss_echelon(m)
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v: list[object] = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for k in range(len(pivot_cols) - 1, -1, -1):
            p = pivot_cols[k]
            acc = Fraction(0)
            for j in range(p + 1, m.cols):
                if not scalar_is_zero(v[j]):
                    acc = acc + rows[k][j] * v[j]
            v[p] = -acc / rows[k][p]
        basis.append(tuple(v))
    return basis
