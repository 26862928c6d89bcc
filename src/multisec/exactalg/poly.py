"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from exponent tuples (one entry per variable) to
nonzero coefficients.  Coefficients are Fraction, except in the
intermediate products of `construct.monomial_norm`, which hold elements of
a cyclotomic ring: those this module only adds, multiplies and tests for
zero (by truth value), so it never names their type.  Polynomials add to
polynomials only, and multiply by polynomials, ints and Fractions.  The
norm is the one caller in `src/` that multiplies polynomials: the pullback
table, the paired quadrics and the map degree in `construct` compute on
integer coefficient lists and build polynomials only for what they return.

Canonical text form: terms in descending graded-lexicographic order joined
by " + "/" - ", coefficient as "p" or "p/q", monomial factors "var^e"
joined by "*" (exponent 1 written bare).  Examples::

    S0^3*S1^2        2*T0^5 - 1/3*T0*T1^4        0

The parser accepts exactly this family of strings with rational
coefficients; it is used for the plain-text fixture files and accepted in
tests.  Only rational coefficients print.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


def _grlex_key(exps: Exponent):
    # descending graded-lex when used as an ascending sort key
    return (-sum(exps), tuple(-e for e in exps))


class SparseMultiPoly:
    """Immutable sparse polynomial over an ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Exponent, object] | Iterable[tuple[Exponent, object]] = ()):
        variables = tuple(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, object] = {}
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent {exps} does not match variables {variables}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if isinstance(coeff, int):
                coeff = Fraction(coeff)
            if exps in clean:
                coeff = clean[exps] + coeff
            if not coeff:
                clean.pop(exps, None)
            else:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparseMultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "SparseMultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Maximum term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def _check_same_variables(self, other: "SparseMultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparseMultiPoly):
            return NotImplemented
        self._check_same_variables(other)
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = merged.get(exps, 0) + c
        return SparseMultiPoly(self.variables, merged)

    def __mul__(self, other):
        if isinstance(other, SparseMultiPoly):
            self._check_same_variables(other)
            out: dict[Exponent, object] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    prod = c1 * c2
                    if e in out:
                        prod = out[e] + prod
                    if not prod:
                        out.pop(e, None)
                    else:
                        out[e] = prod
            return SparseMultiPoly(self.variables, out)
        if isinstance(other, (int, Fraction)):
            return SparseMultiPoly(self.variables,
                                   {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, SparseMultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    # -- substitution ----------------------------------------------------------

    def scale_variable(self, index: int, scalar) -> "SparseMultiPoly":
        """Substitute x_index -> scalar * x_index."""
        return SparseMultiPoly(
            self.variables,
            {e: c * scalar ** e[index] for e, c in self.terms.items()})

    def divide_exponents(self, divisor: int, new_variables: Sequence[str]) -> "SparseMultiPoly":
        """Substitute each x_i^divisor -> y_i; every exponent must divide."""
        out = {}
        for exps, c in self.terms.items():
            if any(e % divisor for e in exps):
                raise ValueError(
                    f"exponent vector {exps} not divisible by {divisor}")
            out[tuple(e // divisor for e in exps)] = c
        return SparseMultiPoly(new_variables, out)

    def map_coefficients(self, fn) -> "SparseMultiPoly":
        return SparseMultiPoly(self.variables,
                               {e: fn(c) for e, c in self.terms.items()})

    # -- canonical text form -------------------------------------------------

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps) if e)
            sign = "-" if coeff < 0 else "+"
            c = abs(coeff)
            cstr = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if not mono:
                body = cstr
            elif c == 1:
                body = mono
            else:
                body = f"{cstr}*{mono}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    __str__ = canonical_str

    def __repr__(self) -> str:
        return f"SparseMultiPoly({self.variables!r}, '{self.canonical_str()}')"


_TERM_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9+\-]*?)(?:\^(\d+))?$")


def parse_poly(text: str, variables: Sequence[str]) -> SparseMultiPoly:
    """Parse the canonical text form (rational coefficients only)."""
    variables = tuple(variables)
    text = text.strip()
    if text == "0":
        return SparseMultiPoly.zero(variables)
    # normalize to '+'-separated signed terms
    pieces = text.replace(" - ", " + -").split(" + ")
    var_index = {v: i for i, v in enumerate(variables)}
    terms: list[tuple[Exponent, Fraction]] = []
    for piece in pieces:
        piece = piece.strip()
        sign = Fraction(1)
        if piece.startswith("-"):
            sign = Fraction(-1)
            piece = piece[1:].strip()
        coeff = Fraction(1)
        exps = [0] * len(variables)
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {piece!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            m = _TERM_FACTOR.match(factor)
            if not m or m.group(1) not in var_index:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            exps[var_index[m.group(1)]] += int(m.group(2) or 1)
        terms.append((tuple(exps), sign * coeff))
    return SparseMultiPoly(variables, terms)
