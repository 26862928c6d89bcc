"""Finite permutation groups, induced actions, and orbit decomposition.

Groups are given by generators on {0, ..., k-1}; full enumeration is a
capped breadth-first closure, since every group used here is tiny but the
API must fail loudly rather than hang.  Actions on combinatorial families
(subsets of a fiber as bitmasks, star-patterns on three blocks) store, per
generator, the induced index map on their points; orbits are breadth-first
closures over those maps.
"""

from __future__ import annotations

from array import array
from itertools import product
from typing import Sequence


class CapExceeded(RuntimeError):
    """Group closure grew past the requested cap."""


class BadIndex(ValueError):
    """Parameter outside the supported range."""


class Permutation:
    """A bijection of {0, ..., k-1}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a * b)(x) = a(b(x))
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[x] for x in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == im for i, im in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class PermGroup:
    """A permutation group given by generators; elements cached on demand."""

    def __init__(self, degree: int, generators: Sequence[Permutation]):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self._elements: tuple[Permutation, ...] | None = None

    def elements(self, cap: int = 10 ** 6) -> tuple[Permutation, ...]:
        """Breadth-first closure of the generators, in insertion order."""
        if self._elements is not None:
            return self._elements
        identity = Permutation.identity(self.degree)
        seen = {identity}
        order = [identity]
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        order.append(y)
                        nxt.append(y)
                        if len(order) > cap:
                            raise CapExceeded(
                                f"group closure exceeded cap {cap}")
            frontier = nxt
        self._elements = tuple(order)
        return self._elements

    def order(self, cap: int = 10 ** 6) -> int:
        return len(self.elements(cap))


def enumerate_group(group: PermGroup, cap: int = 10 ** 6) -> tuple[Permutation, ...]:
    return group.elements(cap)


def symmetric_group(d: int) -> PermGroup:
    """The symmetric group on d points, generated by a swap and a d-cycle."""
    if d < 1:
        raise BadIndex(f"symmetric group degree must be >= 1, got {d}")
    if d == 1:
        return PermGroup(1, [Permutation.identity(1)])
    swap = list(range(d))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % d for i in range(d)]
    return PermGroup(d, [Permutation(swap), Permutation(cycle)])


# The wreath group on three blocks of two: points (p, q) with p in {1,2,3}
# and q in {1,2}.  Generators are described semantically so that induced
# actions on other block-respecting structures reuse the same list.
WREATH_POINTS: tuple[tuple[int, int], ...] = tuple(
    (p, q) for p in (1, 2, 3) for q in (1, 2))

_BLOCK_SWAP = {1: 2, 2: 1}


def _wreath_semantic_generators():
    gens: list[tuple[str, object]] = [("swap", p) for p in (1, 2, 3)]
    gens.append(("blocks", {1: 2, 2: 1, 3: 3}))
    gens.append(("blocks", {1: 2, 2: 3, 3: 1}))
    return gens


def _apply_wreath_generator(gen, point: tuple[int, int]) -> tuple[int, int]:
    kind, data = gen
    p, q = point
    if kind == "swap":
        return (p, _BLOCK_SWAP[q]) if p == data else (p, q)
    return (data[p], q)


def wreath_product_3_2() -> PermGroup:
    """The full wreath group of three blocks of two, order 48, on 6 points."""
    index = {pt: i for i, pt in enumerate(WREATH_POINTS)}
    perms = []
    for gen in _wreath_semantic_generators():
        images = [index[_apply_wreath_generator(gen, pt)] for pt in WREATH_POINTS]
        perms.append(Permutation(images))
    return PermGroup(6, perms)


class GroupAction:
    """A group acting on points 0..n-1, named by `points`, one row per generator."""

    def __init__(self, group: PermGroup, points: Sequence,
                 generator_images: Sequence[Sequence[int]]):
        generator_images = tuple(generator_images)
        if len(generator_images) != len(group.generators):
            raise ValueError("one image row per generator required")
        n = len(points)
        for row in generator_images:
            hit = bytearray(n)
            if len(row) == n and n and 0 <= min(row) <= max(row) < n:
                for im in row:
                    hit[im] = 1
            if len(row) != n or 0 in hit:
                raise ValueError(f"image row is not a bijection: {list(row)}")
        self.group = group
        self.points = points
        self.generator_images = generator_images

    def __len__(self) -> int:
        return len(self.points)


class OrbitDecomposition:
    """Disjoint orbits of a GroupAction, by point index."""

    def __init__(self, action: GroupAction, orbits: Sequence[Sequence[int]]):
        self.action = action
        self.orbits = tuple(tuple(o) for o in orbits)

    @property
    def transitive(self) -> bool:
        return len(self.orbits) == 1

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


def orbit_decomposition(action: GroupAction) -> OrbitDecomposition:
    """Breadth-first closures under the generator rows, by least point, sorted."""
    rows = action.generator_images
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
            orbits.append(sorted(orbit))
    return OrbitDecomposition(action, orbits)


def induced_subset_action(d: int, i: int) -> GroupAction:
    """The symmetric group on d <= 64 points acting on its i-element subsets.

    Point k is the k-th i-subset in colex order, the d-bit mask points[k], as
    Gosper's hack lists them (Knuth, TAOCP 4A, 7.2.1.3).  The swap of 0 and 1
    exchanges bits 0 and 1; the d-cycle x -> x + 1 rotates left in d bits.
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
    if d == 1:  # the one generator of S_1, the identity, is a 1-bit rotation
        return GroupAction(symmetric_group(1), masks, [rotate])
    swap = array("I", [index[m ^ 3 if (m ^ m >> 1) & 1 else m] for m in masks])
    return GroupAction(symmetric_group(d), masks, [swap, rotate])


def cube_strata_action(wildcards: int) -> GroupAction:
    """The wreath group acting on three-slot patterns over {1, 2, *}.

    A pattern fixes one symbol per block, a * leaving the block free; the
    per-block swaps exchange 1 and 2 in their slot and the block symmetric
    group permutes slots.  Point counts are 8, 12, 6 for 0, 1, 2 stars.
    """
    if wildcards not in (0, 1, 2):
        raise BadIndex(f"wildcards must be 0, 1, or 2, got {wildcards}")
    group = wreath_product_3_2()
    patterns = [pat for pat in product((1, 2, "*"), repeat=3)
                if sum(1 for x in pat if x == "*") == wildcards]
    index = {pat: k for k, pat in enumerate(patterns)}
    rows = []
    for gen in _wreath_semantic_generators():
        kind, data = gen
        row = []
        for pat in patterns:
            out: list[object] = [None, None, None]
            for slot, symbol in enumerate(pat, start=1):
                if kind == "swap":
                    new_slot = slot
                    new_symbol = (_BLOCK_SWAP[symbol]
                                  if slot == data and symbol != "*" else symbol)
                else:
                    new_slot = data[slot]
                    new_symbol = symbol
                out[new_slot - 1] = new_symbol
            row.append(index[tuple(out)])
        rows.append(row)
    return GroupAction(group, patterns, rows)
