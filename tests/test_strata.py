import pytest

from multisec import perm
from multisec.semigroup import NumericalSemigroup
from multisec.strata import (
    EmptyModel,
    NotDivisible,
    NotTransitive,
    PencilModel,
    RealizedDegree,
    StratumClass,
    enriques_pencil_model,
    hypersurface_pencil_model,
    index_and_degree_report,
    k3_cover_pencil_model,
    quotient_by_cover,
)


def test_hypersurface_divisors_5_2():
    model = hypersurface_pencil_model(5, 2)
    assert model.divisors() == (5, 10)
    assert model.realized() == (5,)


def test_hypersurface_divisors_3_5():
    assert hypersurface_pencil_model(3, 5).divisors() == (3, 3, 1)


def test_hypersurface_divisors_7_3():
    assert hypersurface_pencil_model(7, 3).divisors() == (7, 21, 35)


def test_k3_cover_divisors():
    model = k3_cover_pencil_model()
    assert model.divisors() == (8, 12, 6)
    assert [s.name for s in model.strata] == ["Y^3", "Y^4", "Y^5"]


def test_quotient_by_cover():
    assert quotient_by_cover(k3_cover_pencil_model(), 2).divisors() == (4, 6, 3)


def test_quotient_single_divisor():
    stratum = StratumClass("Y^5", perm.cube_strata_action(2))
    model = PencilModel((stratum,))
    assert quotient_by_cover(model, 3).divisors() == (2,)


def test_quotient_not_divisible():
    with pytest.raises(NotDivisible):
        quotient_by_cover(k3_cover_pencil_model(), 4)


def test_enriques_model():
    model = enriques_pencil_model()
    assert model.divisors() == (4, 6, 3)
    assert sorted(model.realized()) == [3, 4]
    provenance = {r.degree: r.provenance for r in model.realized_degrees}
    assert provenance == {4: "cube vertices", 3: "cube faces"}


def test_enriques_report_exact_values():
    report = index_and_degree_report(enriques_pencil_model())
    assert report.exact_min == 3
    assert report.exact_index == 1
    assert report.min_degree_lower == 3 and report.min_degree_upper == 3
    assert report.index_divisor_lower == 1 and report.index_upper == 1


def test_hypersurface_report_5_2():
    report = index_and_degree_report(hypersurface_pencil_model(5, 2))
    assert report.exact_min == 5
    assert report.index_divisor_lower == 5


def test_hypersurface_report_4_2():
    report = index_and_degree_report(hypersurface_pencil_model(4, 2))
    assert report.min_degree_lower == 4 and report.min_degree_upper == 4
    assert report.exact_min == 4
    assert report.index_divisor_lower == 2
    assert report.index_upper == 4
    assert report.exact_index is None


def test_exact_min_is_d_when_d_exceeds_n():
    for d, n in [(3, 2), (5, 2), (5, 4), (7, 3), (8, 1), (6, 5)]:
        report = index_and_degree_report(hypersurface_pencil_model(d, n))
        assert report.exact_min == d, (d, n)


def test_realized_must_lie_in_divisor_semigroup():
    strata = hypersurface_pencil_model(5, 2).strata
    with pytest.raises(ValueError):
        PencilModel(strata, (RealizedDegree(7, "bogus"),))


def test_realized_semigroup_membership_holds_for_builtins():
    for model in (hypersurface_pencil_model(5, 2), enriques_pencil_model(),
                  hypersurface_pencil_model(3, 5)):
        semi = NumericalSemigroup(model.divisors())
        for r in model.realized():
            assert semi.contains(r)


def test_index_lower_divides_semigroup_members():
    from test_semigroup import naive_members

    for model in (hypersurface_pencil_model(4, 2), enriques_pencil_model()):
        report = index_and_degree_report(model)
        for x in naive_members(set(model.divisors()), 200):
            assert x % report.index_divisor_lower == 0


def test_report_invariant_under_reordering():
    model = enriques_pencil_model()
    reordered = PencilModel(tuple(reversed(model.strata)),
                            tuple(reversed(model.realized_degrees)),
                            model.quotient_factor)
    a = index_and_degree_report(model)
    b = index_and_degree_report(reordered)
    assert sorted(a.divisors) == sorted(b.divisors)
    assert sorted(a.realized) == sorted(b.realized)
    assert (a.min_degree_lower, a.min_degree_upper, a.exact_min) == \
        (b.min_degree_lower, b.min_degree_upper, b.exact_min)
    assert (a.index_divisor_lower, a.index_upper, a.exact_index) == \
        (b.index_divisor_lower, b.index_upper, b.exact_index)


def test_non_transitive_stratum_is_hard_error():
    action = perm.GroupAction(["a", "b"], [[0, 1]])
    with pytest.raises(NotTransitive):
        StratumClass("bad", action)


def test_empty_model_report_raises():
    with pytest.raises(EmptyModel):
        index_and_degree_report(PencilModel(k3_cover_pencil_model().strata))


def test_report_json_shape():
    payload = index_and_degree_report(enriques_pencil_model()).to_json_dict()
    assert payload["divisors"] == [4, 6, 3]
    assert payload["min_degree"] == {"lower": 3, "upper": 3, "exact": 3}
    assert payload["index"] == {"lower_divisor": 1, "upper": 1, "exact": 1}
    no_exact = index_and_degree_report(hypersurface_pencil_model(4, 2)).to_json_dict()
    assert "exact" not in no_exact["index"]
