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

from dataclasses import InitVar, dataclass, field
from math import comb, gcd

from . import perm
from .semigroup import NumericalSemigroup, sdn_generators


class NotTransitive(ValueError):
    """A stratum action with more than one orbit cannot supply a divisor."""


class NotDivisible(ValueError):
    """Quotient factor does not divide every stratum divisor."""


class EmptyModel(ValueError):
    """Report requested for a model without strata or realized degrees."""


@dataclass(frozen=True)
class StratumClass:
    """A named stratum; its transitive action, init-only, gives the divisor."""

    name: str
    action: InitVar[perm.GroupAction]
    divisor: int = field(init=False)

    def __post_init__(self, action):
        dec = perm.orbit_decomposition(action)
        if not dec.transitive:
            raise NotTransitive(
                f"stratum {self.name}: action has {len(dec.orbits)} orbits")
        object.__setattr__(self, "divisor", len(action.points))


@dataclass(frozen=True)
class RealizedDegree:
    degree: int
    provenance: str


@dataclass(frozen=True)
class PencilModel:
    """Strata plus realized degrees, tracked through quotients by covers.

    Divisors are the stratum orbit sizes divided by the accumulated
    quotient factor; realized degrees are recorded at the quotient level.
    """

    strata: tuple[StratumClass, ...]
    realized_degrees: tuple[RealizedDegree, ...] = ()
    quotient_factor: int = 1

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        object.__setattr__(self, "realized_degrees", tuple(self.realized_degrees))
        for s in self.strata:
            if s.divisor % self.quotient_factor:
                raise NotDivisible(
                    f"stratum {s.name} divisor {s.divisor} not divisible "
                    f"by quotient factor {self.quotient_factor}")
        if self.realized_degrees and self.strata:
            semi = NumericalSemigroup(self.divisors())
            for r in self.realized_degrees:
                if not semi.contains(r.degree):
                    raise ValueError(
                        f"realized degree {r.degree} ({r.provenance}) is not "
                        f"a combination of the divisors {self.divisors()}")

    def divisors(self) -> tuple[int, ...]:
        return tuple(s.divisor // self.quotient_factor for s in self.strata)

    def realized(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.realized_degrees)

    def with_realized(self, degree: int, provenance: str) -> "PencilModel":
        return PencilModel(self.strata,
                           self.realized_degrees + (RealizedDegree(degree, provenance),),
                           self.quotient_factor)


def quotient_by_cover(model: PencilModel, k: int) -> PencilModel:
    """Divide every divisor by the degree of a fiberwise cover."""
    if k < 1:
        raise ValueError("cover degree must be positive")
    for div in model.divisors():
        if div % k:
            raise NotDivisible(f"divisor {div} not divisible by {k}")
    return PencilModel(model.strata, model.realized_degrees,
                       model.quotient_factor * k)


def hypersurface_pencil_model(d: int, n: int) -> PencilModel:
    """Degree-d hypersurface pencil twisted in degree n.

    Strata for i = 1, ..., min(d, n) carry the induced action on i-element
    fiber subsets; orbit sizes must reproduce the binomials C(d, i).  The
    general line section realizes degree d.
    """
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be >= 1, got d={d}, n={n}")
    strata = []
    for i in range(1, min(d, n) + 1):
        stratum = StratumClass(f"X^{i}", perm.induced_subset_action(d, i))
        if stratum.divisor != comb(d, i):
            raise AssertionError(
                f"orbit size {stratum.divisor} != C({d},{i}) = {comb(d, i)}")
        strata.append(stratum)
    model = PencilModel(tuple(strata))
    return model.with_realized(d, "general line section")


def k3_cover_pencil_model() -> PencilModel:
    """The double-cover level: cube strata with divisors 8, 12, 6."""
    strata = tuple(
        StratumClass(f"Y^{3 + w}", perm.cube_strata_action(w))
        for w in (0, 1, 2))
    return PencilModel(strata)


def enriques_pencil_model() -> PencilModel:
    """Quotient of the cover model by its fiberwise involution.

    Divisors become {4, 6, 3}; the cube's vertices realize degree 4 and
    its faces degree 3 at the quotient level.
    """
    model = quotient_by_cover(k3_cover_pencil_model(), 2)
    model = model.with_realized(4, "cube vertices")
    model = model.with_realized(3, "cube faces")
    return model


@dataclass(frozen=True)
class IndexReport:
    """Two-sided bounds for minimal degree and index, exact when they meet."""

    divisors: tuple[int, ...]
    realized: tuple[int, ...]
    min_degree_lower: int
    min_degree_upper: int
    index_divisor_lower: int
    index_upper: int
    exact_min: int | None
    exact_index: int | None

    def __post_init__(self):
        if self.min_degree_lower > self.min_degree_upper:
            raise ValueError("minimal-degree bounds out of order")
        if self.index_upper % self.index_divisor_lower:
            raise ValueError("index bounds incompatible")

    def to_json_dict(self) -> dict:
        min_degree = {"lower": self.min_degree_lower, "upper": self.min_degree_upper}
        if self.exact_min is not None:
            min_degree["exact"] = self.exact_min
        index = {"lower_divisor": self.index_divisor_lower, "upper": self.index_upper}
        if self.exact_index is not None:
            index["exact"] = self.exact_index
        return {
            "divisors": list(self.divisors),
            "realized": list(self.realized),
            "min_degree": min_degree,
            "index": index,
        }


def index_and_degree_report(model: PencilModel) -> IndexReport:
    """Assemble the divisibility and realization bounds for a model."""
    divisors = model.divisors()
    realized = model.realized()
    if not divisors or not realized:
        raise EmptyModel("model needs at least one stratum and one realized degree")
    min_lower = min(divisors)
    min_upper = min(realized)
    idx_lower = gcd(*divisors) if len(divisors) > 1 else divisors[0]
    idx_upper = gcd(*realized) if len(realized) > 1 else realized[0]
    return IndexReport(
        divisors=divisors,
        realized=realized,
        min_degree_lower=min_lower,
        min_degree_upper=min_upper,
        index_divisor_lower=idx_lower,
        index_upper=idx_upper,
        exact_min=min_lower if min_lower == min_upper else None,
        exact_index=idx_lower if idx_lower == idx_upper else None,
    )


def check_hypersurface_pencil(d: int, n: int) -> tuple[dict, bool]:
    """The hypersurface pencil's report and its agreement with the semigroup.

    It agrees when its divisors are the generators of `sdn_generators(d, n)`
    and its lower bounds on minimal degree and index are their minimum and
    gcd.
    """
    model = hypersurface_pencil_model(d, n)
    report = index_and_degree_report(model)
    semi = sdn_generators(d, n)
    results = report.to_json_dict()
    results["semigroup"] = semi.to_json_dict()
    results["strata"] = [{"name": s.name, "divisor": s.divisor} for s in model.strata]
    ok = (report.divisors == semi.generators
          and report.min_degree_lower == semi.min_positive()
          and report.index_divisor_lower == semi.gcd())
    return results, ok


def check_enriques_pencil() -> tuple[dict, bool]:
    """The quotient pencil's report and whether it is the index-1 pencil.

    That needs cover divisors {8, 12, 6}, quotient divisors {4, 6, 3},
    exact minimal degree 3 and exact index 1.
    """
    cover = k3_cover_pencil_model()
    model = enriques_pencil_model()
    report = index_and_degree_report(model)
    results = report.to_json_dict()
    results["cover_divisors"] = list(cover.divisors())
    results["realized_provenance"] = [
        {"degree": r.degree, "provenance": r.provenance} for r in model.realized_degrees]
    ok = (cover.divisors() == (8, 12, 6)
          and report.divisors == (4, 6, 3)
          and report.exact_min == 3
          and report.exact_index == 1)
    return results, ok
