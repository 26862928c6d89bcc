"""Exact scalar, polynomial, and linear-algebra kernel."""

from .scalars import Cyclotomic, as_fraction, cyclotomic_polynomial
from .poly import SparseMultiPoly, binary_form_gcd, parse_poly
from .matrix import exact_matrix_rank

__all__ = [
    "Cyclotomic",
    "SparseMultiPoly",
    "as_fraction",
    "binary_form_gcd",
    "cyclotomic_polynomial",
    "exact_matrix_rank",
    "parse_poly",
]
