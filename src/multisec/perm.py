"""Finite permutation groups as generator rows, induced actions, orbits.

A group on {0, ..., k-1} is a tuple of generator rows: row g lists the
images g(0), ..., g(k-1).  Nothing here composes group elements, since an
orbit is the breadth-first closure of a point under the rows (Seress 2003,
section 4.1, on permutation group algorithms).  Actions on
combinatorial families (subsets of a fiber as bitmasks, star-patterns on
three blocks) store, per generator, the induced row on their points.
"""

from __future__ import annotations

from array import array
from itertools import product
from typing import Sequence


class BadIndex(ValueError):
    """Parameter outside the supported range."""


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


def induced_subset_action(d: int, i: int) -> GroupAction:
    """The symmetric group on d <= 64 points acting on its i-element subsets.

    Point k is the k-th i-subset in colex order, the d-bit mask points[k], as
    Gosper's hack lists them (Knuth, TAOCP 4A, 7.2.1.3).  S_d is generated by
    the swap of 0 and 1, which exchanges bits 0 and 1, and the d-cycle
    x -> x + 1, which rotates left in d bits; for d = 1 the rotation alone
    is the identity.
    """
    if not 1 <= i <= d <= 64:
        raise BadIndex(f"subset size {i} out of range 1..{d}, or d above 64")
    masks, m, full = array("Q"), (1 << i) - 1, (1 << d) - 1
    while m <= full:
        masks.append(m)
        low = m & -m
        m = (m + low) | ((m ^ (m + low)) >> 2) // low
    index = {m: k for k, m in enumerate(masks)}
    rotate = array("I", [index[m << 1 & full | m >> d - 1] for m in masks])
    if d == 1:
        return GroupAction(masks, [rotate])
    swap = array("I", [index[m ^ 3 if (m ^ m >> 1) & 1 else m] for m in masks])
    return GroupAction(masks, [swap, rotate])


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
