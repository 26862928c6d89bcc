"""Parameter selection and inequality certificates for witness families.

All integer arithmetic: given block sizes a, b the family has n = 4ab and
d = n - 1; a divisor class spans a linear system of projective dimension
at most n - b - (a-1)(b-1), which always leaves a basepoint; and for a
degree-e comparison curve one picks the cheapest (a, b) with 4ab > e + 1,
which automatically certifies e < 4ab - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


class BadInput(ValueError):
    """Nonpositive parameter."""


@dataclass(frozen=True)
class WitnessReport:
    a: int
    b: int
    n: int
    d: int
    span_bound: int
    basepoint_ok: bool
    e: int | None = None
    no_section_ok: bool | None = None

    def __post_init__(self):
        if self.n != 4 * self.a * self.b or self.d != self.n - 1:
            raise ValueError("inconsistent witness parameters")

    def to_json_dict(self) -> dict:
        out = {
            "a": self.a,
            "b": self.b,
            "n": self.n,
            "d": self.d,
            "min_degree_claim": self.d,
            "span_bound": self.span_bound,
            "basepoint_ok": self.basepoint_ok,
        }
        if self.e is not None:
            out["e"] = self.e
            out["no_section_ok"] = self.no_section_ok
        return out


def _require_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise BadInput(f"{name} must be >= 1, got {value}")


def witness_parameters(a: int, b: int) -> WitnessReport:
    """n = 4ab and d = n - 1, with the claimed minimal degree d = 4ab - 1."""
    _require_positive(a=a, b=b)
    span, ok = span_and_basepoint(a, b)
    return WitnessReport(a=a, b=b, n=4 * a * b, d=4 * a * b - 1,
                         span_bound=span, basepoint_ok=ok)


def span_and_basepoint(a: int, b: int) -> tuple[int, bool]:
    """Span dimension bound n - b - (a-1)(b-1) and the basepoint criterion.

    The system is spanned by span_bound + 1 hypersurfaces of projective
    n-space, so it has a common point whenever span_bound + 1 <= n.
    """
    _require_positive(a=a, b=b)
    n = 4 * a * b
    span_bound = n - b - (a - 1) * (b - 1)
    return span_bound, span_bound + 1 <= n


def choose_ab_and_certify(a_prime: int, b_prime: int, e: int) -> WitnessReport:
    """Cheapest (a, b) with a >= a', b >= b', 4ab > e + 1; ties go to smaller a.

    4ab > e + 1 means ab >= m = (e + 1) // 4 + 1, so every admissible pair
    has ab >= max(m, a'b').  The starting pair (a', max(b', ceil(m / a')))
    is returned at once when it reaches that bound: a' is the least
    admissible a.  Otherwise, as lowering a factor above ceil(sqrt(m))
    keeps ab >= m, a cheapest pair is (a', b') or has a factor
    f <= ceil(sqrt(m)); the scan tries each such f as a and as b with its
    least admissible partner, O(sqrt(e)) steps.
    """
    _require_positive(a_prime=a_prime, b_prime=b_prime, e=e)
    m = (e + 1) // 4 + 1
    best = (a_prime * max(b_prime, -(-m // a_prime)), a_prime)
    if best[0] > max(m, a_prime * b_prime):
        for f in range(min(a_prime, b_prime), isqrt(m - 1) + 2):
            partner = -(-m // f)
            if f >= a_prime:
                best = min(best, (f * max(b_prime, partner), f))
            if f >= b_prime:
                a = max(a_prime, partner)
                best = min(best, (a * f, a))
    product, a = best
    b = product // a
    report = witness_parameters(a, b)
    return WitnessReport(a=a, b=b, n=report.n, d=report.d,
                         span_bound=report.span_bound,
                         basepoint_ok=report.basepoint_ok,
                         e=e, no_section_ok=e < 4 * a * b - 1)


def check_witness(a: int, b: int, e: int | None = None) -> tuple[dict, bool]:
    """The witness report and whether it certifies the family.

    Without e the report is for block sizes (a, b); with e it is for the
    cheapest pair at least (a, b) against a degree-e curve.  It certifies
    when the basepoint exists and, given e, e < 4ab - 1.
    """
    report = witness_parameters(a, b) if e is None else choose_ab_and_certify(a, b, e)
    return report.to_json_dict(), report.basepoint_ok and report.no_section_ok is not False
