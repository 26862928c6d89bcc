"""Finite permutation groups as generator rows, orbits, and subset orbits.

A group on {0, ..., k-1} is a tuple of generator rows: row g lists the
images g(0), ..., g(k-1).  Nothing here composes group elements, since an
orbit is the breadth-first closure of a point under the rows (Seress 2003,
section 4.1, on permutation group algorithms).  The cube-pattern action
(star-patterns on three blocks) stores, per generator, the induced row on
its points.  The symmetric group's action on fiber subsets stores no rows:
its orbits are walked on d-bit masks, each generator a bit operation.
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


MAX_MASK_BITS = 24  # label array and popcount table: 16 MiB each at the bound
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _popcount_table(d: int) -> bytearray:
    """Byte k is the number of set bits of k, for k < 2^d, without binomials.

    Doubling: the masks with bit b set are those below 2^b plus one bit.
    """
    table = bytearray(1)
    for _ in range(d):
        table += table.translate(_PLUS_ONE)
    return table


def subset_orbit_sizes(d: int, m: int) -> tuple[int, ...]:
    """Orbit sizes of S_d on the i-element subsets of d points, i = 1..m.

    A subset is a d-bit mask.  S_d is generated by the swap of points 0
    and 1, which exchanges bits 0 and 1, and the d-cycle x -> x + 1, which
    rotates left in d bits; for d = 1 the rotation alone is the identity.
    For each i the orbit of (1 << i) - 1 is walked breadth-first, each mask
    labelled i in one byte array over all 2^d masks, so no mask is listed
    or indexed in advance.  The generators are bijections of the masks, so
    the orbits are disjoint and one label array serves every i.  The
    labels must then equal the popcount table with the classes above m
    zeroed: every orbit member has popcount i, and every i-subset is in
    the orbit, so each action is transitive, with as many points as the
    table has masks of popcount i.
    """
    if not 1 <= m <= d <= MAX_MASK_BITS:
        raise BadIndex(f"subset size {m} out of range 1..{d}, or d above {MAX_MASK_BITS}")
    full, top = (1 << d) - 1, d - 1
    swap = 3 if d > 1 else 0  # bits 0 and 1; S_1 has no swap
    label = bytearray(1 << d)
    sizes = []
    for i in range(1, m + 1):
        start = (1 << i) - 1
        label[start] = i
        orbit = [start]
        for x in orbit:  # grows as walked; a finite group's inverses are powers
            y = x << 1 & full | x >> top
            if not label[y]:
                label[y] = i
                orbit.append(y)
            if (x ^ x >> 1) & 1:
                y = x ^ swap
                if not label[y]:
                    label[y] = i
                    orbit.append(y)
        sizes.append(len(orbit))
    if label != _popcount_table(d).translate(bytes(range(m + 1)).ljust(256, b"\0")):
        raise NotTransitive(f"subset orbits of S_{d} are not the popcount classes 1..{m}")
    return tuple(sizes)


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
