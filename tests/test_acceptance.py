"""Acceptance suite: one test per criterion, exact values, timed.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
with ``-rA``); the asserted tolerances are exact equalities and the stated
wall-clock bounds.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

from multisec import construct, perm, semigroup, strata
from multisec.exactalg import SparseMultiPoly
from multisec.witness import check_witness, span_and_basepoint

from test_perm import enumerate_group
from test_semigroup import naive_members


def _criterion(num: int, description: str, ok: bool, elapsed: float, bound: float):
    status = "PASS" if (ok and elapsed < bound) else "FAIL"
    print(f"{status} criterion {num:2d}: {description} "
          f"[{elapsed:.3f}s < {bound:g}s]")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < bound, f"criterion {num} took {elapsed:.3f}s (bound {bound}s)"


def test_criterion_01_wreath_engine():
    start = time.perf_counter()
    ok = len(enumerate_group(perm.wreath_product_3_2())) == 48
    for wildcards, size in ((0, 8), (1, 12), (2, 6)):
        orbits = perm.orbit_decomposition(perm.cube_strata_action(wildcards))
        ok = ok and len(orbits) == 1 and len(orbits[0]) == size
    _criterion(1, "wreath order 48; cube strata transitive of sizes 8/12/6",
               ok, time.perf_counter() - start, 1.0)


def test_criterion_02_enriques_report():
    start = time.perf_counter()
    results = strata.check_enriques_pencil()[0]
    ok = (results["divisors"] == [4, 6, 3]
          and sorted(results["realized"]) == [3, 4]
          and results["min_degree"].get("exact") == 3
          and results["index"].get("exact") == 1)
    _criterion(2, "divisors {4,6,3}, realized {3,4}, exact_min=3, exact_index=1",
               ok, time.perf_counter() - start, 1.0)


def test_criterion_03_orbits_match_binomials():
    start = time.perf_counter()
    ok = True
    for d in range(2, 9):
        for n in range(1, 9):
            m = min(d, n)  # each stratum transitive, or NotTransitive is raised
            ok = ok and perm.subset_orbit_sizes(d, m) == tuple(
                comb(d, i) for i in range(1, m + 1))
    _criterion(3, "subset-orbit sizes equal C(d,i) for 2<=d<=8, n<=8",
               ok, time.perf_counter() - start, 10.0)


def test_criterion_04_semigroup_oracle():
    start = time.perf_counter()
    ok = True
    for d in range(1, 9):
        for n in range(1, 9):
            s = semigroup.sdn_generators(d, n)
            members = naive_members(set(s.generators), 200)
            for x in range(201):
                ok = ok and (s.contains(x) == (x in members))
    for (d, n), (want_min, want_gcd) in {(5, 2): (5, 5), (4, 2): (4, 2),
                                         (7, 3): (7, 7)}.items():
        s = semigroup.sdn_generators(d, n)
        ok = ok and (s.min_positive(), s.gcd()) == (want_min, want_gcd)
    _criterion(4, "membership agrees with naive enumeration to 200; min/gcd exact",
               ok, time.perf_counter() - start, 5.0)


def test_criterion_05_pullback_table():
    start = time.perf_counter()
    table = construct.quadratic_pullback_table(construct.corrected_jprime())
    from test_construct import EXPECTED_TABLE

    rows = [(pair, q.canonical_str()) for pair, q in table.rows]
    ok = rows == EXPECTED_TABLE and table.rank == 6
    ok = ok and rows[0] == (("X+0", "X+0"), "T1^5")
    ok = ok and rows[-1] == (("X-2", "X-2"), "T0^5")
    _criterion(5, "all 12 table rows reproduced exactly; rank 6",
               ok, time.perf_counter() - start, 1.0)


def test_criterion_06_jprime_oracle():
    start = time.perf_counter()
    comparison = construct.derive_jprime_and_compare(
        construct.corrected_j(), construct.corrected_jprime(),
        samples=(1, 2, 3, 5, 7))
    ok = (comparison.all_match and len(comparison.checks) == 30
          and construct.normalized_map_degree(construct.corrected_jprime()) == 5)
    _criterion(6, "dual-point oracle matches closed form at all 30 checks; degree 5",
               ok, time.perf_counter() - start, 5.0)


def test_criterion_07_equivariance_diagnostics():
    start = time.perf_counter()
    action = construct.standard_weight_action()
    ok = action.target_weights == (0, 2, 4, 1, 3, 5)
    report_j = construct.check_weighted_equivariance(construct.corrected_j(), action)
    ok = ok and report_j.ok and report_j.offset == 0
    report_printed = construct.check_weighted_equivariance(construct.printed_j(), action)
    ok = ok and report_printed.status == "not-homogeneous"
    report_jp = construct.check_weighted_equivariance(
        construct.corrected_jprime(), construct.dual_weight_action())
    ok = ok and report_jp.ok
    _criterion(7, "corrected j/j' pass equivariance; printed j flagged",
               ok, time.perf_counter() - start, 1.0)


def test_criterion_08_norm_properties():
    start = time.perf_counter()
    rng = random.Random(90210)

    def random_form(degree):
        terms = {}
        for a in range(degree + 1):
            if rng.random() < 0.6:
                terms[(a, degree - a)] = Fraction(rng.randint(-4, 4),
                                                  rng.randint(1, 3))
        if not terms:
            terms[(degree, 0)] = Fraction(1)
        return SparseMultiPoly(construct.CURVE_VARS, terms)

    ok = True
    for _ in range(100):
        d = rng.randint(1, 4)
        p = random_form(rng.randint(1, 4))
        q = random_form(rng.randint(1, 4))
        np_, nq = construct.monomial_norm(p, d), construct.monomial_norm(q, d)
        ok = ok and construct.monomial_norm(p * q, d) == np_ * nq
        ok = ok and np_.total_degree() == p.total_degree()
    linear = SparseMultiPoly(construct.CURVE_VARS,
                             {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    ok = ok and construct.monomial_norm(linear, 3).canonical_str() == "U0 + U1"
    _criterion(8, "norm multiplicative and degree-preserving on 100 random pairs",
               ok, time.perf_counter() - start, 5.0)


def test_criterion_09_splitting_type():
    start = time.perf_counter()
    ok = construct.pushforward_splitting_type(3, 5) == (1, 1, 1)
    for d in range(1, 7):
        for m in range(0, 13):
            twists = construct.pushforward_splitting_type(d, m)
            ok = ok and sum(t + 1 for t in twists) == m + 1
    _criterion(9, "splitting (3,5) -> {1,1,1}; section count conserved",
               ok, time.perf_counter() - start, 1.0)


def test_criterion_10_witness_arithmetic():
    start = time.perf_counter()
    ok = True
    for a_prime in range(1, 4):
        for b_prime in range(1, 4):
            for e in range(1, 101):
                report = check_witness(a_prime, b_prime, e)[0]
                ok = ok and 4 * report["a"] * report["b"] > e + 1
                ok = ok and e < 4 * report["a"] * report["b"] - 1
                ok = ok and report["no_section_ok"]
    for a in range(1, 21):
        for b in range(1, 21):
            ok = ok and span_and_basepoint(a, b)[1]
    _criterion(10, "4ab > e+1 and e < 4ab-1 certified; basepoints for a,b <= 20",
               ok, time.perf_counter() - start, 1.0)


def test_criterion_11_cli_determinism():
    start = time.perf_counter()
    commands = [
        ("enriques", "--json"),
        ("hypersurface", "--d", "5", "--n", "2", "--json"),
        ("semigroup", "--d", "5", "--n", "2", "--query", "7", "--json"),
        ("verify-construction", "--json"),
        ("witness", "--a", "1", "--b", "1", "--e", "4", "--json"),
    ]
    ok = True
    for args in commands:
        runs = [subprocess.run([sys.executable, "-m", "multisec", *args],
                               capture_output=True, text=True) for _ in range(2)]
        ok = ok and runs[0].returncode == runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout
        json.loads(runs[0].stdout)  # well-formed JSON
    _criterion(11, "every subcommand emits byte-identical JSON across runs",
               ok, time.perf_counter() - start, 5.0)
