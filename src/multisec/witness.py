"""Parameter selection and inequality certificates for witness families.

All integer arithmetic: given block sizes a, b the family has n = 4ab and
d = n - 1; a divisor class spans a linear system of projective dimension
at most n - b - (a-1)(b-1), which always leaves a basepoint; and for a
degree-e comparison curve one picks the cheapest (a, b) with 4ab > e + 1,
which automatically certifies e < 4ab - 1.
"""

from __future__ import annotations

from math import isqrt


class BadInput(ValueError):
    """Nonpositive parameter."""


def _require_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise BadInput(f"{name} must be >= 1, got {value}")


def span_and_basepoint(a: int, b: int) -> tuple[int, bool]:
    """Span dimension bound n - b - (a-1)(b-1) and the basepoint criterion.

    The system is spanned by span_bound + 1 hypersurfaces of projective
    n-space, so it has a common point whenever span_bound + 1 <= n.
    """
    _require_positive(a=a, b=b)
    n = 4 * a * b
    span_bound = n - b - (a - 1) * (b - 1)
    return span_bound, span_bound + 1 <= n


def choose_ab_and_certify(a_prime: int, b_prime: int, e: int) -> tuple[int, int]:
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
    return a, product // a


def check_witness(a: int, b: int, e: int | None = None) -> tuple[dict, bool]:
    """The witness report and whether it certifies the family.

    Without e the report is for block sizes (a, b); with e it is for the
    cheapest pair at least (a, b) against a degree-e curve.  The family
    has n = 4ab and claims minimal degree d = n - 1.  It certifies when
    the basepoint exists and, given e, e < 4ab - 1.
    """
    if e is not None:
        a, b = choose_ab_and_certify(a, b, e)
    span_bound, basepoint_ok = span_and_basepoint(a, b)
    n = 4 * a * b
    results = {"a": a, "b": b, "n": n, "d": n - 1, "min_degree_claim": n - 1,
               "span_bound": span_bound, "basepoint_ok": basepoint_ok}
    if e is None:
        return results, basepoint_ok
    results["e"] = e
    results["no_section_ok"] = e < n - 1
    return results, basepoint_ok and results["no_section_ok"]
