"""Exact scalar, polynomial, and linear-algebra kernel."""

from .scalars import Cyclotomic, as_fraction, cyclotomic_polynomial
from .poly import SparseMultiPoly, parse_poly
from .matrix import exact_matrix_rank

__all__ = [
    "Cyclotomic",
    "SparseMultiPoly",
    "as_fraction",
    "cyclotomic_polynomial",
    "exact_matrix_rank",
    "parse_poly",
]
