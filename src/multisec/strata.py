"""Degree divisibility and index bounds from degenerate-fiber strata.

Each stratum carries a transitive group action on its components; the
orbit size divides the degree of every multi-section passing through the
stratum, so the orbit sizes generate the semigroup of attainable degrees.
Together with explicitly realized degrees this pins the minimal degree
between the least generator and the least realized value, and the index
between the gcd of the generators and the gcd of the realized values.
The report keeps both bounds and marks a value exact only when they meet,
so it never claims more than the combinatorics gives.
"""

from __future__ import annotations

from math import comb, gcd

from . import perm
from .perm import NotTransitive
from .semigroup import NumericalSemigroup, sdn_generators


class NotDivisible(ValueError):
    """A cover divisor is not divisible by the degree of the cover."""


class EmptyModel(ValueError):
    """Bounds requested without divisors or without realized degrees."""


def stratum_divisor(action: perm.GroupAction) -> int:
    """The orbit size of a transitive stratum action: its number of points."""
    orbits = perm.orbit_decomposition(action)
    if len(orbits) != 1:
        raise NotTransitive(f"stratum action has {len(orbits)} orbits")
    return len(action.points)


def index_bounds(divisors: tuple[int, ...], realized: tuple[int, ...]) -> dict:
    """Minimal-degree and index bounds, each with "exact" when its bounds meet.

    Every realized degree must be a combination of the divisors.  The
    minimal degree lies between the least divisor and the least realized
    degree; the index is a multiple of the divisors' gcd and divides the
    realized degrees' gcd.
    """
    if not divisors or not realized:
        raise EmptyModel("bounds need at least one divisor and one realized degree")
    semi = NumericalSemigroup(divisors)
    for degree in realized:
        if not semi.contains(degree):
            raise ValueError(f"realized degree {degree} is not a combination "
                             f"of the divisors {divisors}")
    min_lower, min_upper = semi.min_positive(), min(realized)
    idx_lower, idx_upper = semi.gcd(), gcd(*realized)
    if min_lower > min_upper:
        raise ValueError("minimal-degree bounds out of order")
    if idx_upper % idx_lower:  # implied by membership; the report's own invariant
        raise ValueError("index bounds incompatible")
    min_degree = {"lower": min_lower, "upper": min_upper}
    if min_lower == min_upper:
        min_degree["exact"] = min_lower
    index = {"lower_divisor": idx_lower, "upper": idx_upper}
    if idx_lower == idx_upper:
        index["exact"] = idx_lower
    return {"divisors": list(divisors), "realized": list(realized),
            "min_degree": min_degree, "index": index}


def check_hypersurface_pencil(d: int, n: int) -> tuple[dict, bool]:
    """The degree-d hypersurface pencil twisted in degree n, and its verdict.

    Strata X^i for i = 1, ..., min(d, n) carry the induced action on
    i-element fiber subsets, certified transitive by
    `perm.subset_orbit_sizes`, whose orbit size, counted in a popcount
    table, must be C(d, i); the general line section realizes degree d.
    The pencil agrees with the semigroup when its divisors are the
    generators of `sdn_generators(d, n)` and its lower bounds on minimal
    degree and index are their minimum and gcd.
    """
    semi = sdn_generators(d, n)
    strata = []
    for i, divisor in enumerate(perm.subset_orbit_sizes(d, min(d, n)), start=1):
        if divisor != comb(d, i):
            raise AssertionError(f"orbit size {divisor} != C({d},{i}) = {comb(d, i)}")
        strata.append({"name": f"X^{i}", "divisor": divisor})
    divisors = tuple(s["divisor"] for s in strata)
    results = index_bounds(divisors, (d,))
    results["semigroup"] = semi.to_json_dict()
    results["strata"] = strata
    ok = (divisors == semi.generators
          and results["min_degree"]["lower"] == semi.min_positive()
          and results["index"]["lower_divisor"] == semi.gcd())
    return results, ok


def check_enriques_pencil() -> tuple[dict, bool]:
    """The quotient pencil's report and whether it is the index-1 pencil.

    The cube strata Y^3, Y^4, Y^5 of the double cover have the wreath
    group's orbit sizes as divisors; the quotient by the fiberwise
    involution halves each, and there the cube's vertices realize degree 4
    and its faces degree 3.  The index-1 pencil needs cover divisors
    {8, 12, 6}, quotient divisors {4, 6, 3}, exact minimal degree 3 and
    exact index 1.
    """
    cover = tuple(stratum_divisor(perm.cube_strata_action(w)) for w in (0, 1, 2))
    if any(div % 2 for div in cover):
        raise NotDivisible(f"cover divisors {cover} not all divisible by 2")
    provenance = ((4, "cube vertices"), (3, "cube faces"))
    results = index_bounds(tuple(div // 2 for div in cover),
                           tuple(degree for degree, _ in provenance))
    results["cover_divisors"] = list(cover)
    results["realized_provenance"] = [{"degree": degree, "provenance": source}
                                      for degree, source in provenance]
    ok = (cover == (8, 12, 6)
          and results["divisors"] == [4, 6, 3]
          and results["min_degree"].get("exact") == 3
          and results["index"].get("exact") == 1)
    return results, ok
