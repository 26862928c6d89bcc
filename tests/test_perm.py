from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from multisec import perm


# The tuple-based subset action and the union-find orbits that the bitmask
# action and the breadth-first orbits replaced, kept as oracles.

def tuple_subset_action(d, i):
    """S_d on i-subsets as sorted tuples in lex order, images sorted back."""
    group = perm.symmetric_group(d)
    subsets = list(combinations(range(d), i))
    index = {s: k for k, s in enumerate(subsets)}
    rows = [[index[tuple(sorted(g(x) for x in s))] for s in subsets]
            for g in group.generators]
    return subsets, rows


def union_find_orbits(action):
    """Orbits by union-find over the image rows, sorted, by least point."""
    n = len(action.points)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in action.generator_images:
        for i, im in enumerate(row):
            ri, rm = find(i), find(im)
            if ri != rm:
                parent[max(ri, rm)] = min(ri, rm)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[root]) for root in sorted(groups))


def test_permutation_composition_and_inverse():
    a = perm.Permutation((1, 0, 2))
    b = perm.Permutation((1, 2, 0))
    assert (a * b).images == tuple(a(b(i)) for i in range(3))
    assert (a * a.inverse()).is_identity()
    with pytest.raises(ValueError):
        perm.Permutation((0, 0, 1))


def test_symmetric_group_orders():
    assert perm.symmetric_group(1).order() == 1
    assert perm.symmetric_group(3).order() == 6
    assert perm.symmetric_group(4).order() == 24


def test_wreath_group_order_48():
    assert perm.wreath_product_3_2().order() == 48


def test_wreath_elements_preserve_blocks():
    group = perm.wreath_product_3_2()
    blocks = [{0, 1}, {2, 3}, {4, 5}]  # the three (p, *) pairs
    for g in group.elements():
        for block in blocks:
            image = {g(i) for i in block}
            assert image in blocks


def test_cap_exceeded():
    with pytest.raises(perm.CapExceeded):
        perm.symmetric_group(10).elements(cap=1000)


def test_enumerate_group_deterministic_order():
    g1 = perm.symmetric_group(4).elements()
    g2 = perm.symmetric_group(4).elements()
    assert g1 == g2
    assert g1[0].is_identity()


def test_induced_subset_action_point_counts():
    assert len(perm.induced_subset_action(5, 2)) == 10
    assert len(perm.induced_subset_action(4, 4)) == 1
    assert len(perm.induced_subset_action(7, 3)) == 35


def test_induced_subset_action_transitive():
    dec = perm.orbit_decomposition(perm.induced_subset_action(7, 3))
    assert dec.transitive
    assert dec.sizes() == (35,)


def test_induced_subset_action_bad_index():
    with pytest.raises(perm.BadIndex):
        perm.induced_subset_action(5, 0)
    with pytest.raises(perm.BadIndex):
        perm.induced_subset_action(5, 6)
    with pytest.raises(perm.BadIndex):  # masks are 64-bit
        perm.induced_subset_action(65, 1)


def test_full_subset_action_is_trivial():
    dec = perm.orbit_decomposition(perm.induced_subset_action(4, 4))
    assert dec.transitive and dec.sizes() == (1,)


def test_cube_strata_point_counts():
    assert len(perm.cube_strata_action(0)) == 8
    assert len(perm.cube_strata_action(1)) == 12
    assert len(perm.cube_strata_action(2)) == 6
    with pytest.raises(perm.BadIndex):
        perm.cube_strata_action(3)


@pytest.mark.parametrize("wildcards,size", [(0, 8), (1, 12), (2, 6)])
def test_cube_strata_transitive(wildcards, size):
    dec = perm.orbit_decomposition(perm.cube_strata_action(wildcards))
    assert dec.transitive
    assert dec.sizes() == (size,)


def test_trivial_group_gives_singleton_orbits():
    group = perm.PermGroup(1, [perm.Permutation.identity(1)])
    action = perm.GroupAction(group, ["a", "b", "c", "d"], [[0, 1, 2, 3]])
    dec = perm.orbit_decomposition(action)
    assert dec.sizes() == (1, 1, 1, 1)
    assert not dec.transitive


def test_orbits_partition_points():
    action = perm.cube_strata_action(1)
    dec = perm.orbit_decomposition(action)
    flat = sorted(i for orbit in dec.orbits for i in orbit)
    assert flat == list(range(len(action.points)))


@given(st.permutations(list(range(5))))
def test_orbit_decomposition_independent_of_generator_order(order):
    base = perm.cube_strata_action(1)
    gens = [base.group.generators[i] for i in order]
    rows = [base.generator_images[i] for i in order]
    shuffled = perm.GroupAction(perm.PermGroup(6, gens), base.points, rows)
    expected = {frozenset(o) for o in perm.orbit_decomposition(base).orbits}
    got = {frozenset(o) for o in perm.orbit_decomposition(shuffled).orbits}
    assert got == expected


def test_orbit_sizes_match_binomials_small():
    for d in range(1, 7):
        for i in range(1, d + 1):
            dec = perm.orbit_decomposition(perm.induced_subset_action(d, i))
            assert dec.transitive
            assert dec.sizes() == (comb(d, i),)


def test_group_action_validates_bijections():
    group = perm.symmetric_group(2)
    with pytest.raises(ValueError):
        perm.GroupAction(group, ["a", "b"], [[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        perm.GroupAction(group, ["a", "b"], [[0, 1]])  # one row per generator
    cycle = perm.PermGroup(3, [perm.Permutation((1, 2, 0))])
    for row in ([1, 2, 3], [-1, 0, 1], [0, 1], [0, 1, 2, 0]):
        with pytest.raises(ValueError):
            perm.GroupAction(cycle, "abc", [row])


def test_subset_action_matches_tuple_oracle_image_by_image():
    # every d <= 10 and i <= d: the masks are the i-subsets in colex order,
    # and under mask <-> sorted tuple each generator row is the oracle's
    for d in range(1, 11):
        for i in range(1, d + 1):
            action = perm.induced_subset_action(d, i)
            subsets, oracle_rows = tuple_subset_action(d, i)
            as_tuples = [tuple(b for b in range(d) if m >> b & 1)
                         for m in action.points]
            assert as_tuples == sorted(subsets, key=lambda s: s[::-1])
            oracle_index = {s: k for k, s in enumerate(subsets)}
            to_oracle = [oracle_index[s] for s in as_tuples]
            assert len(action.generator_images) == len(oracle_rows)
            for row, oracle_row in zip(action.generator_images, oracle_rows):
                assert [to_oracle[im] for im in row] == [
                    oracle_row[k] for k in to_oracle]


@st.composite
def random_actions(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    group = perm.PermGroup(n, [perm.Permutation(r) for r in rows])
    return perm.GroupAction(group, range(n), rows)


@settings(max_examples=300)
@given(random_actions())
def test_breadth_first_orbits_equal_union_find(action):
    # non-transitive actions included: one generator, or the identity
    assert perm.orbit_decomposition(action).orbits == union_find_orbits(action)
