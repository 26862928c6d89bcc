import pytest

from multisec import perm, strata
from multisec.semigroup import NumericalSemigroup
from multisec.strata import (
    EmptyModel,
    NotDivisible,
    NotTransitive,
    check_enriques_pencil,
    check_hypersurface_pencil,
    index_bounds,
    stratum_divisor,
)


def hypersurface(d, n):
    return check_hypersurface_pencil(d, n)[0]


def test_hypersurface_divisors_5_2():
    results = hypersurface(5, 2)
    assert results["divisors"] == [5, 10]
    assert results["realized"] == [5]
    assert results["strata"] == [{"name": "X^1", "divisor": 5},
                                 {"name": "X^2", "divisor": 10}]


def test_hypersurface_divisors_3_5():
    assert hypersurface(3, 5)["divisors"] == [3, 3, 1]


def test_hypersurface_divisors_7_3():
    assert hypersurface(7, 3)["divisors"] == [7, 21, 35]


def test_k3_cover_divisors():
    assert [stratum_divisor(perm.cube_strata_action(w)) for w in (0, 1, 2)] == [8, 12, 6]
    assert check_enriques_pencil()[0]["cover_divisors"] == [8, 12, 6]


def test_quotient_by_cover():
    results = check_enriques_pencil()[0]
    assert results["divisors"] == [div // 2 for div in results["cover_divisors"]]


def test_quotient_single_divisor():
    # the Y^5 stratum alone: six face patterns, three after the involution
    assert stratum_divisor(perm.cube_strata_action(2)) == 6
    assert check_enriques_pencil()[0]["divisors"][2] == 3


def test_quotient_not_divisible(monkeypatch):
    # a cover stratum of odd orbit size has no quotient by the involution
    monkeypatch.setattr(strata.perm, "cube_strata_action",
                        lambda wildcards: perm.GroupAction("abc", [(1, 2, 0)]))
    with pytest.raises(NotDivisible):
        check_enriques_pencil()


def test_enriques_model():
    results = check_enriques_pencil()[0]
    assert results["divisors"] == [4, 6, 3]
    assert sorted(results["realized"]) == [3, 4]
    provenance = {r["degree"]: r["provenance"] for r in results["realized_provenance"]}
    assert provenance == {4: "cube vertices", 3: "cube faces"}


def test_enriques_report_exact_values():
    results, ok = check_enriques_pencil()
    assert ok
    assert results["min_degree"] == {"lower": 3, "upper": 3, "exact": 3}
    assert results["index"] == {"lower_divisor": 1, "upper": 1, "exact": 1}


def test_hypersurface_report_5_2():
    results, ok = check_hypersurface_pencil(5, 2)
    assert ok
    assert results["min_degree"]["exact"] == 5
    assert results["index"]["lower_divisor"] == 5


def test_hypersurface_report_4_2():
    results = hypersurface(4, 2)
    assert results["min_degree"] == {"lower": 4, "upper": 4, "exact": 4}
    assert results["index"] == {"lower_divisor": 2, "upper": 4}


def test_exact_min_is_d_when_d_exceeds_n():
    for d, n in [(3, 2), (5, 2), (5, 4), (7, 3), (8, 1), (6, 5)]:
        assert hypersurface(d, n)["min_degree"]["exact"] == d, (d, n)


def test_realized_must_lie_in_divisor_semigroup():
    with pytest.raises(ValueError, match="realized degree 7"):
        index_bounds((5, 10), (7,))
    with pytest.raises(ValueError, match="out of order"):
        index_bounds((5, 10), (0,))  # 0 is in every semigroup, below its least divisor


def test_realized_semigroup_membership_holds_for_builtins():
    for results in (hypersurface(5, 2), check_enriques_pencil()[0], hypersurface(3, 5)):
        semi = NumericalSemigroup(tuple(results["divisors"]))
        for r in results["realized"]:
            assert semi.contains(r)


def test_index_lower_divides_semigroup_members():
    from test_semigroup import naive_members

    for results in (hypersurface(4, 2), check_enriques_pencil()[0]):
        for x in naive_members(set(results["divisors"]), 200):
            assert x % results["index"]["lower_divisor"] == 0


def test_report_invariant_under_reordering():
    a = index_bounds((4, 6, 3), (4, 3))
    b = index_bounds((3, 6, 4), (3, 4))
    assert sorted(a.pop("divisors")) == sorted(b.pop("divisors"))
    assert sorted(a.pop("realized")) == sorted(b.pop("realized"))
    assert a == b


def test_non_transitive_stratum_is_hard_error():
    action = perm.GroupAction(["a", "b"], [[0, 1]])
    with pytest.raises(NotTransitive):
        stratum_divisor(action)


def test_hypersurface_stratum_must_be_transitive(monkeypatch):
    # the popcount table reads one 2-subset as a 3-subset: the orbit of 0b11
    # then covers a mask the table keeps out of its class
    real = perm._popcount_table

    def relabelled(d):
        table = real(d)
        table[0b11] = 3
        return table

    monkeypatch.setattr(perm, "_popcount_table", relabelled)
    with pytest.raises(NotTransitive):
        check_hypersurface_pencil(5, 2)


def test_hypersurface_orbit_size_must_be_binomial(monkeypatch):
    # the closed form cross-checks whatever the orbit pass returns
    monkeypatch.setattr(strata.perm, "subset_orbit_sizes", lambda d, m: (5, 9))
    with pytest.raises(AssertionError, match=r"orbit size 9 != C\(5,2\) = 10"):
        check_hypersurface_pencil(5, 2)


def test_empty_model_report_raises():
    with pytest.raises(EmptyModel):
        index_bounds((8, 12, 6), ())
    with pytest.raises(EmptyModel):
        index_bounds((), (3,))


def test_report_json_shape():
    payload = check_enriques_pencil()[0]
    assert payload["divisors"] == [4, 6, 3]
    assert payload["min_degree"] == {"lower": 3, "upper": 3, "exact": 3}
    assert payload["index"] == {"lower_divisor": 1, "upper": 1, "exact": 1}
    assert "exact" not in hypersurface(4, 2)["index"]
