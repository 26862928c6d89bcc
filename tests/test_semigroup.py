from functools import reduce
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import example, given, strategies as st

from multisec.semigroup import NumericalSemigroup, sdn_generators


def naive_members(generators, limit):
    """Independent oracle: breadth-first closure of sums up to the limit."""
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                v = m + g
                if v <= limit and v not in members:
                    members.add(v)
                    nxt.append(v)
        frontier = nxt
    return members


def dp_members(generators, limit):
    """The coin-problem dynamic program that `contains` used to run.

    One boolean per unit of limit // gcd: entry x says whether x is a sum of
    the generators.  Slow but plainly right, so it stays as the oracle of
    the Apery-set membership test.
    """
    g = gcd(*generators)
    coins = sorted({c // g for c in generators})
    reachable = [False] * (limit // g + 1)
    reachable[0] = True
    for v in range(1, len(reachable)):
        for c in coins:
            if c > v:
                break
            if reachable[v - c]:
                reachable[v] = True
                break
    return [x % g == 0 and reachable[x // g] for x in range(limit + 1)]


def test_sdn_generator_examples():
    assert sdn_generators(5, 2).generators == (5, 10)
    assert sdn_generators(4, 6).generators == (4, 6, 4, 1)
    assert sdn_generators(1, 1).generators == (1,)


def test_membership_examples():
    s = NumericalSemigroup((5, 10))
    assert not s.contains(7)
    assert s.contains(15)
    assert s.contains(0)
    assert not s.contains(12)


def test_membership_rejects_negative():
    with pytest.raises(ValueError):
        NumericalSemigroup((2,)).contains(-1)


def test_min_and_gcd_examples():
    for generators, want in (((5, 10), (5, 5)), ((4, 6), (4, 2)), ((3, 4), (3, 1)),
                             ((7,), (7, 7))):
        s = NumericalSemigroup(generators)
        assert (s.min_positive(), s.gcd()) == want


def test_generator_validation():
    with pytest.raises(ValueError):
        NumericalSemigroup(())
    with pytest.raises(ValueError):
        NumericalSemigroup((0, 3))


def test_oracle_equivalence_sample():
    for d, n in [(5, 2), (4, 2), (7, 3), (3, 5), (8, 8)]:
        s = sdn_generators(d, n)
        members = naive_members(set(s.generators), 200)
        for x in range(201):
            assert s.contains(x) == (x in members), (d, n, x)


def test_every_member_divisible_by_gcd():
    for d in range(1, 9):
        for n in range(1, 9):
            s = sdn_generators(d, n)
            g = s.gcd()
            for x in naive_members(set(s.generators), 200):
                assert x % g == 0


def test_min_of_sdn_is_d_when_d_exceeds_n():
    # C(d,1) = d is the least generator whenever the range stops below d
    for d in range(2, 9):
        for n in range(1, d):
            assert sdn_generators(d, n).min_positive() == d


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.integers(1, 12), st.integers(0, 60))
def test_membership_monotone_under_adding_generators(gens, extra, x):
    base = NumericalSemigroup(tuple(gens))
    larger = NumericalSemigroup(tuple(gens) + (extra,))
    if base.contains(x):
        assert larger.contains(x)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(0, 80))
def test_membership_matches_naive(gens, x):
    s = NumericalSemigroup(tuple(gens))
    assert s.contains(x) == (x in naive_members(set(gens), x))


def test_gcd_and_min_consistency():
    for d in range(1, 9):
        for n in range(1, 9):
            s = sdn_generators(d, n)
            m = min(d, n)
            assert s.generators == tuple(comb(d, i) for i in range(1, m + 1))
            assert s.gcd() == reduce(gcd, s.generators)


# 1-5 generators in 1..60 sharing a factor k: k = 1 gives mostly coprime
# sets, k > 1 sets that the gcd reduction must handle; duplicates are common
generator_lists = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.integers(1, 60 // k).map(lambda v: k * v),
                       min_size=1, max_size=5))


@given(generator_lists, st.integers(0, 3000))
@example([4, 7, 10], 17)  # 10 walks two cycles mod 4; 17 needs the least start
def test_membership_matches_dynamic_program(gens, x):
    assert NumericalSemigroup(tuple(gens)).contains(x) == dp_members(gens, x)[x]


def test_membership_matches_dynamic_program_on_small_triples():
    for gens in combinations_with_replacement(range(1, 17), 3):
        s = NumericalSemigroup(gens)
        members = dp_members(gens, 200)
        for x in range(201):
            assert s.contains(x) == members[x], (gens, x)


def test_sdn_membership_matches_dynamic_program_exhaustively():
    for d in range(1, 15):
        for n in range(1, d + 1):
            s = sdn_generators(d, n)
            members = dp_members(s.generators, 2000)
            for x in range(2001):
                assert s.contains(x) == members[x], (d, n, x)


@given(generator_lists, st.integers(0, 10 ** 30))
def test_membership_is_periodic_past_the_least_generator(gens, x):
    # adding the least generator keeps membership, at any size of query
    s = NumericalSemigroup(tuple(gens))
    if s.contains(x):
        assert s.contains(x + min(gens))
