import tracemalloc
from array import array
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from multisec import cli, perm


# Oracles kept from the code the rows, the mask pass and the S_d
# certificate replaced: the tuple-based and the Gosper-listed subset
# actions, the mask-space orbit walk, the union-find orbits, the per-slot
# wreath rule on patterns, and the group-order oracle.

class CapExceeded(RuntimeError):
    """Group closure grew past the requested cap."""


def enumerate_group(rows, cap=10 ** 6):
    """Every element as its image tuple: breadth-first, identity first.

    The closure is capped, so a group too large to list fails loudly
    rather than hangs.
    """
    identity = tuple(range(len(rows[0])))
    seen = {identity}
    order = [identity]
    for x in order:  # grows as walked, one level after another
        for g in rows:
            y = tuple(x[i] for i in g)  # x after g
            if y not in seen:
                seen.add(y)
                order.append(y)
                if len(order) > cap:
                    raise CapExceeded(f"group closure exceeded cap {cap}")
    return tuple(order)


def symmetric_rows(d):
    """S_d as the rows of the swap of 0 and 1 and the d-cycle x -> x + 1."""
    cycle = tuple((x + 1) % d for x in range(d))
    if d == 1:
        return (cycle,)
    return (tuple([1, 0] + list(range(2, d))), cycle)


def tuple_subset_action(d, i):
    """S_d on i-subsets as sorted tuples in lex order, images sorted back."""
    subsets = list(combinations(range(d), i))
    index = {s: k for k, s in enumerate(subsets)}
    rows = [[index[tuple(sorted(g[x] for x in s))] for s in subsets]
            for g in symmetric_rows(d)]
    return subsets, rows


def induced_subset_action(d, i):
    """S_d on its i-subsets as d-bit masks in colex order, with image rows.

    Point k is the k-th i-subset as Gosper's hack lists them (Knuth, TAOCP
    4A, 7.2.1.3); the rows are the swap of bits 0 and 1 and the rotation
    left in d bits, the rotation alone for d = 1.
    """
    masks, m, full = array("Q"), (1 << i) - 1, (1 << d) - 1
    while m <= full:
        masks.append(m)
        low = m & -m
        m = (m + low) | ((m ^ (m + low)) >> 2) // low
    index = {m: k for k, m in enumerate(masks)}
    rotate = array("I", [index[m << 1 & full | m >> d - 1] for m in masks])
    if d == 1:
        return perm.GroupAction(masks, [rotate])
    swap = array("I", [index[m ^ 3 if (m ^ m >> 1) & 1 else m] for m in masks])
    return perm.GroupAction(masks, [swap, rotate])


def mask_walk_orbit_sizes(d, m):
    """Orbit sizes of S_d on i-subsets, i = 1..m, walked on one byte array.

    For each i the orbit of the mask (1 << i) - 1 under the swap of bits
    0 and 1 and the rotation left in d bits is walked breadth-first, each
    mask labelled i; the labels must equal `perm._popcount_table` with the
    classes above m zeroed, else the walk raises `perm.NotTransitive`.
    """
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
    if label != perm._popcount_table(d).translate(bytes(range(m + 1)).ljust(256, b"\0")):
        raise perm.NotTransitive(f"subset orbits of S_{d} are not the popcount classes 1..{m}")
    return tuple(sizes)


def union_find_orbits(action):
    """Orbits by union-find over the image rows, sorted, by least point."""
    n = len(action.points)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in action.rows:
        for i, im in enumerate(row):
            ri, rm = find(i), find(im)
            if ri != rm:
                parent[max(ri, rm)] = min(ri, rm)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[root]) for root in sorted(groups))


# The wreath generators described per slot: a swap of the symbols 1 and 2
# in one slot p, or a permutation of the slots (p -> blocks[p]), on
# patterns over {1, 2, *} with slots and symbols counted from 1.
SEMANTIC_WREATH = [("swap", p) for p in (1, 2, 3)] + [
    ("blocks", {1: 2, 2: 1, 3: 3}), ("blocks", {1: 2, 2: 3, 3: 1})]


def semantic_image(gen, pattern):
    kind, data = gen
    out = [None, None, None]
    for slot, symbol in enumerate(pattern, start=1):
        if kind == "swap":
            flip = slot == data and symbol != "*"
            out[slot - 1] = {1: 2, 2: 1}[symbol] if flip else symbol
        else:
            out[data[slot] - 1] = symbol
    return tuple(out)


def semantic_cube_action(wildcards):
    patterns = [pat for pat in product((1, 2, "*"), repeat=3)
                if sum(1 for x in pat if x == "*") == wildcards]
    index = {pat: k for k, pat in enumerate(patterns)}
    rows = [[index[semantic_image(gen, pat)] for pat in patterns]
            for gen in SEMANTIC_WREATH]
    return patterns, rows


def test_symmetric_group_orders():
    # the swap and the d-cycle generate all of S_d, element for element
    for d in range(1, 7):
        elements = enumerate_group(symmetric_rows(d))
        assert len(elements) == len(set(elements))
        assert set(elements) == set(permutations(range(d)))


def test_wreath_group_order_48():
    assert len(enumerate_group(perm.wreath_product_3_2())) == 48


def test_wreath_elements_preserve_blocks():
    # the group is exactly the block-preserving permutations of 6 points
    blocks = [{0, 1}, {2, 3}, {4, 5}]
    preserving = {g for g in permutations(range(6))
                  if all({g[i] for i in block} in blocks for block in blocks)}
    assert len(preserving) == 48
    assert set(enumerate_group(perm.wreath_product_3_2())) == preserving


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_group(symmetric_rows(10), cap=1000)


def test_enumerate_group_deterministic_order():
    g1 = enumerate_group(symmetric_rows(4))
    g2 = enumerate_group(symmetric_rows(4))
    assert g1 == g2
    assert g1[0] == (0, 1, 2, 3)


@pytest.mark.parametrize("wildcards", [0, 1, 2])
def test_cube_strata_rows_match_the_per_slot_rule(wildcards):
    action = perm.cube_strata_action(wildcards)
    patterns, rows = semantic_cube_action(wildcards)
    assert action.points == patterns
    assert [list(row) for row in action.rows] == rows


def sizes(orbits):
    return tuple(len(orbit) for orbit in orbits)


def test_induced_subset_action_point_counts():
    assert len(induced_subset_action(5, 2).points) == 10
    assert len(induced_subset_action(4, 4).points) == 1
    assert len(induced_subset_action(7, 3).points) == 35
    assert perm.subset_orbit_sizes(5, 2) == (5, 10)
    assert perm.subset_orbit_sizes(4, 4) == (4, 6, 4, 1)
    assert perm.subset_orbit_sizes(7, 3) == (7, 21, 35)


def test_induced_subset_action_transitive():
    assert sizes(perm.orbit_decomposition(induced_subset_action(7, 3))) == (35,)
    assert perm.subset_orbit_sizes(7, 3)[-1] == 35


def test_induced_subset_action_bad_index():
    for d, m in ((5, 0), (5, 6), (0, 0), (-1, 1)):
        with pytest.raises(perm.BadIndex):
            perm.subset_orbit_sizes(d, m)
    with pytest.raises(perm.BadIndex):  # the label array has 2^d bytes
        perm.subset_orbit_sizes(perm.MAX_MASK_BITS + 1, 1)


def test_mask_pass_refuses_large_d_before_allocating():
    # 2^64 or 2^(10^9) bytes would never be allocated; the bound comes first
    assert perm.MAX_MASK_BITS >= cli.MAX_D
    tracemalloc.start()
    try:
        for d in (perm.MAX_MASK_BITS + 1, 64, 10 ** 9):
            with pytest.raises(perm.BadIndex):
                perm.subset_orbit_sizes(d, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_full_subset_action_is_trivial():
    assert perm.orbit_decomposition(induced_subset_action(4, 4)) == ((0,),)
    assert perm.subset_orbit_sizes(1, 1) == (1,)


def test_cube_strata_point_counts():
    assert len(perm.cube_strata_action(0).points) == 8
    assert len(perm.cube_strata_action(1).points) == 12
    assert len(perm.cube_strata_action(2).points) == 6
    with pytest.raises(perm.BadIndex):
        perm.cube_strata_action(3)


@pytest.mark.parametrize("wildcards,size", [(0, 8), (1, 12), (2, 6)])
def test_cube_strata_transitive(wildcards, size):
    assert sizes(perm.orbit_decomposition(perm.cube_strata_action(wildcards))) == (size,)


def test_trivial_group_gives_singleton_orbits():
    action = perm.GroupAction(["a", "b", "c", "d"], [[0, 1, 2, 3]])
    assert perm.orbit_decomposition(action) == ((0,), (1,), (2,), (3,))


def test_orbits_partition_points():
    action = perm.cube_strata_action(1)
    flat = sorted(i for orbit in perm.orbit_decomposition(action) for i in orbit)
    assert flat == list(range(len(action.points)))


@given(st.permutations(list(range(5))))
def test_orbit_decomposition_independent_of_generator_order(order):
    base = perm.cube_strata_action(1)
    shuffled = perm.GroupAction(base.points, [base.rows[i] for i in order])
    expected = {frozenset(o) for o in perm.orbit_decomposition(base)}
    got = {frozenset(o) for o in perm.orbit_decomposition(shuffled)}
    assert got == expected


def test_orbit_sizes_match_binomials_small():
    for d in range(1, 7):
        assert perm.subset_orbit_sizes(d, d) == tuple(comb(d, i) for i in range(1, d + 1))


@settings(max_examples=60)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))))
def test_mask_pass_matches_the_subset_action_oracle(dm):
    d, m = dm
    oracle = tuple(sizes(perm.orbit_decomposition(induced_subset_action(d, i)))
                   for i in range(1, m + 1))
    assert oracle == tuple((comb(d, i),) for i in range(1, m + 1))
    assert perm.subset_orbit_sizes(d, m) == tuple(comb(d, i) for i in range(1, m + 1))


def test_popcount_table_counts_bits():
    table = perm._popcount_table(10)
    assert list(table) == [bin(k).count("1") for k in range(1 << 10)]
    assert perm._popcount_table(0) == bytearray(1)


@pytest.mark.parametrize("moved", [0b10011, 0b00011])
def test_mask_pass_refuses_an_orbit_off_its_popcount_class(monkeypatch, moved):
    # relabelling one mask in the table stands for an orbit that misses an
    # i-subset (0b10011 read as popcount 2: the orbit of 0b11 cannot reach
    # it) or for one that leaves its class (0b00011 read as popcount 3)
    real = perm._popcount_table

    def relabelled(d):
        table = real(d)
        table[moved] = 5 - table[moved]
        return table

    assert mask_walk_orbit_sizes(5, 3) == (5, 10, 10)
    monkeypatch.setattr(perm, "_popcount_table", relabelled)
    with pytest.raises(perm.NotTransitive):
        mask_walk_orbit_sizes(5, 3)


@settings(max_examples=60)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))))
def test_certified_sizes_match_the_mask_walk(dm):
    d, m = dm
    binomials = tuple(comb(d, i) for i in range(1, m + 1))
    assert perm.subset_orbit_sizes(d, m) == mask_walk_orbit_sizes(d, m) == binomials


def test_generator_rows_generate_the_symmetric_group():
    for d in range(2, 7):
        assert perm._generator_rows(d) == symmetric_rows(d)
    assert perm._generator_rows(1) == ((0,), (0,))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_certificate_is_sufficient_not_necessary(monkeypatch, d):
    # for odd d, (0 2) and the d-cycle still generate S_d, and the walk sees
    # every stratum transitive, but the conjugates are not adjacent swaps
    def rows(d):
        return (2, 1, 0, *range(3, d)), (*range(1, d), 0)

    assert len(enumerate_group(rows(d))) == factorial(d)
    monkeypatch.setattr(perm, "_generator_rows", rows)
    assert mask_walk_orbit_sizes(d, d) == tuple(comb(d, i) for i in range(1, d + 1))
    with pytest.raises(perm.NotTransitive, match=r"conjugate 0 .* is not \(0 1\)"):
        perm.subset_orbit_sizes(d, 1)


@pytest.mark.parametrize("cycle", [(1, 2, 0, 4, 3), (1, 2, 3, 0, 4), (1, 1, 3, 4, 0)])
def test_certificate_refuses_a_cycle_that_is_not_a_d_cycle(monkeypatch, cycle):
    # a 3-cycle times a swap stalls at (2 0) for k = 2, a 4-cycle at (3 0)
    # for k = 3, the last; a non-bijective "cycle" leaves an entry of the
    # conjugate unset at k = 1
    monkeypatch.setattr(perm, "_generator_rows", lambda d: ((1, 0, 2, 3, 4), cycle))
    with pytest.raises(perm.NotTransitive):
        perm.subset_orbit_sizes(5, 2)


def test_group_action_validates_bijections():
    with pytest.raises(ValueError):
        perm.GroupAction(["a", "b"], [[0, 0], [0, 1]])
    for row in ([1, 2, 3], [-1, 0, 1], [0, 1], [0, 1, 2, 0]):
        with pytest.raises(ValueError):
            perm.GroupAction("abc", [(1, 2, 0), row])


def test_subset_action_matches_tuple_oracle_image_by_image():
    # every d <= 10 and i <= d: the masks are the i-subsets in colex order,
    # and under mask <-> sorted tuple each generator row is the oracle's
    for d in range(1, 11):
        for i in range(1, d + 1):
            action = induced_subset_action(d, i)
            subsets, oracle_rows = tuple_subset_action(d, i)
            as_tuples = [tuple(b for b in range(d) if m >> b & 1)
                         for m in action.points]
            assert as_tuples == sorted(subsets, key=lambda s: s[::-1])
            oracle_index = {s: k for k, s in enumerate(subsets)}
            to_oracle = [oracle_index[s] for s in as_tuples]
            assert len(action.rows) == len(oracle_rows)
            for row, oracle_row in zip(action.rows, oracle_rows):
                assert [to_oracle[im] for im in row] == [
                    oracle_row[k] for k in to_oracle]


@st.composite
def random_actions(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    return perm.GroupAction(range(n), rows)


@settings(max_examples=300)
@given(random_actions())
def test_breadth_first_orbits_equal_union_find(action):
    # non-transitive actions included: one generator, or the identity
    assert perm.orbit_decomposition(action) == union_find_orbits(action)
