"""Finite permutation groups as generator rows, orbits, and subset orbits.

A group on {0, ..., k-1} is a tuple of generator rows: row g lists the
images g(0), ..., g(k-1).  An orbit is the breadth-first closure of a
point under the rows (Seress 2003, section 4.1, on permutation group
algorithms).  The cube-pattern action (star-patterns on three blocks)
stores, per generator, the induced row on its points.  The symmetric
group's subset strata walk no orbit: an O(d^2) certificate that its two
generators generate S_d makes each transitive, of the size of a popcount
class of d-bit masks.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence


class BadIndex(ValueError):
    """Parameter outside the supported range."""


class NotTransitive(ValueError):
    """A stratum action with more than one orbit cannot supply a divisor."""


def wreath_product_3_2() -> tuple[tuple[int, ...], ...]:
    """The wreath group of three blocks of two, order 48, as five rows.

    Point 2p + q is slot q in 0..1 of block p in 0..2.  The first three
    rows swap the two slots of one block; the last two move whole blocks,
    by the transposition of blocks 0 and 1 and by the 3-cycle p -> p + 1.
    """
    swaps = [tuple(x ^ 1 if x >> 1 == p else x for x in range(6)) for p in range(3)]
    moves = [tuple(2 * blocks[x >> 1] + (x & 1) for x in range(6))
             for blocks in ((1, 0, 2), (1, 2, 0))]
    return tuple(swaps + moves)


class GroupAction:
    """A group acting on points 0..n-1, named by `points`, as bijective rows."""

    def __init__(self, points: Sequence, rows: Sequence[Sequence[int]]):
        rows = tuple(rows)
        n = len(points)
        for row in rows:
            hit = bytearray(n)
            if len(row) == n and n and 0 <= min(row) <= max(row) < n:
                for im in row:
                    hit[im] = 1
            if len(row) != n or 0 in hit:
                raise ValueError(f"image row is not a bijection: {list(row)}")
        self.points = points
        self.rows = rows


def orbit_decomposition(action: GroupAction) -> tuple[tuple[int, ...], ...]:
    """Breadth-first closures under the rows, as sorted index tuples, by least point."""
    rows = action.rows
    seen = bytearray(len(action.points))
    orbits = []
    for start in range(len(seen)):
        if not seen[start]:
            seen[start] = 1
            orbit = [start]
            for x in orbit:  # grows as walked; a finite group's inverses are powers
                for row in rows:
                    y = row[x]
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


MAX_MASK_BITS = 24  # popcount table: 16 MiB at the bound
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _popcount_table(d: int) -> bytearray:
    """Byte k is the number of set bits of k, for k < 2^d, without binomials.

    Doubling: the masks with bit b set are those below 2^b plus one bit.
    """
    table = bytearray(1)
    for _ in range(d):
        table += table.translate(_PLUS_ONE)
    return table


def _generator_rows(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """S_d's generators as rows on 0..d-1: the swap (0 1) and the cycle x -> x + 1.

    For d = 1 the swap is the identity.
    """
    swap = (1, 0, *range(2, d)) if d > 1 else (0,)
    return swap, (*range(1, d), 0)


def subset_orbit_sizes(d: int, m: int) -> tuple[int, ...]:
    """Orbit sizes of S_d on the i-element subsets of d points, i = 1..m.

    The certificate: conjugating the swap by the cycle k times must give
    the adjacent transposition (k k+1), for k = 0..d-2, else the action
    is refused.  The adjacent transpositions generate S_d, and S_d takes
    any i-subset to {0..i-1} by adjacent swaps, so every stratum action
    is transitive; for d = 1 nothing is checked.  The certificate is
    sufficient but not necessary: (0 2) and the cycle generate S_d for
    odd d, yet fail it.  Each orbit is then the whole popcount-i class of
    d-bit masks, and its size is counted in the popcount table, without
    binomials.  O(d^2) for the certificate, O(m * 2^d) byte counts.
    """
    if not 1 <= m <= d <= MAX_MASK_BITS:
        raise BadIndex(f"subset size {m} out of range 1..{d}, or d above {MAX_MASK_BITS}")
    swap, cycle = _generator_rows(d)
    row = tuple(swap)
    for k in range(d - 1):
        if row != (*range(k), k + 1, k, *range(k + 2, d)):
            raise NotTransitive(f"conjugate {k} of the swap by the cycle of S_{d} "
                                f"is not ({k} {k + 1})")
        conjugate = [-1] * d  # cycle . row . cycle^-1; an unset -1 fails the next check
        for x in range(d):
            conjugate[cycle[x]] = cycle[row[x]]
        row = tuple(conjugate)
    table = _popcount_table(d)
    return tuple(table.count(i) for i in range(1, m + 1))


def cube_strata_action(wildcards: int) -> GroupAction:
    """The wreath group acting on three-slot patterns over {1, 2, *}.

    A pattern fixes one symbol q per block p, a * leaving the block free;
    as a set of wreath points it is {2p + q - 1 : pattern[p] = q}, so each
    wreath row moves it to the pattern of the image set.  Point counts are
    8, 12, 6 for 0, 1, 2 stars.
    """
    if wildcards not in (0, 1, 2):
        raise BadIndex(f"wildcards must be 0, 1, or 2, got {wildcards}")
    patterns = [pat for pat in product((1, 2, "*"), repeat=3)
                if pat.count("*") == wildcards]
    fixed = [[2 * p + q - 1 for p, q in enumerate(pat) if q != "*"] for pat in patterns]
    index = {frozenset(f): k for k, f in enumerate(fixed)}
    rows = [[index[frozenset(g[x] for x in f)] for f in fixed]
            for g in wreath_product_3_2()]
    return GroupAction(patterns, rows)
