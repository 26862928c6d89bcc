"""Numerical semigroups of attainable multi-section degrees.

A semigroup is given by positive generators.  Membership reduces by the
gcd first, which keeps the test correct for non-coprime generator sets like
{4, 6}, and then compares the query with the Apéry set of the least reduced
generator m: the least element of the semigroup in each residue class mod m.
The set is built by the round-robin algorithm of Böcker and Lipták ("A fast
and simple algorithm for the money changing problem", Algorithmica 48,
2007) in O(k·m) time and O(m) memory for k distinct generators, so the cost
of a query does not depend on its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd


def _apery_set(coins: list[int]) -> list[int]:
    """Least semigroup element in each residue class mod coins[0].

    `coins` are distinct, ascending and coprime.  Adding a coin c splits the
    classes mod m into gcd(m, c) cycles r -> r + c; each cycle is walked once
    from its least entry, so every entry is relaxed from a final predecessor.
    """
    m = coins[0]
    least: list = [None] * m  # None: no element in that class yet
    least[0] = 0
    for c in coins[1:]:
        cycles = gcd(m, c)
        for start in range(cycles):
            known = [v for v in least[start::cycles] if v is not None]
            if not known:
                continue
            value = min(known)
            for _ in range(m // cycles - 1):
                value += c
                r = value % m
                if least[r] is not None and least[r] < value:
                    value = least[r]
                least[r] = value
    return least


@dataclass(frozen=True)
class NumericalSemigroup:
    """Generators as reported (duplicates kept); computation deduplicates."""

    generators: tuple[int, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator required")
        if any(g < 1 for g in self.generators):
            raise ValueError(f"generators must be positive: {self.generators}")
        object.__setattr__(self, "generators", tuple(int(g) for g in self.generators))

    def gcd(self) -> int:
        return gcd(*self.generators)

    def min_positive(self) -> int:
        return min(self.generators)

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators), "min": self.min_positive(),
                "gcd": self.gcd()}

    def contains(self, x: int) -> bool:
        if x < 0:
            raise ValueError("membership is defined for nonnegative integers")
        g = self.gcd()
        if x % g:
            return False
        coins = sorted({c // g for c in self.generators})
        # the reduced coins are coprime, so every class mod coins[0] is reached
        x //= g
        return x >= _apery_set(coins)[x % coins[0]]


def sdn_generators(d: int, n: int) -> NumericalSemigroup:
    """The degree semigroup of a d-sheeted pencil twisted in degree n.

    Generators are the binomials C(d, i) for i = 1, ..., min(d, n).
    """
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be >= 1, got d={d}, n={n}")
    return NumericalSemigroup(tuple(comb(d, i) for i in range(1, min(d, n) + 1)))
