from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from oracles import alpha
from starshape.invariants import custom_report, verify_theorem
from starshape.scheme import build_star


def F(a, b=1):
    return Fraction(a, b)


def test_alpha_examples():
    star23 = build_star(2, 3)
    assert alpha(star23.scheme(1)) == 2
    assert alpha(star23.scheme(2)) == 3
    assert alpha(build_star(2, 4).scheme(2)) == 4


def test_alpha_matches_first_axis_pure_power(star_gin):
    for n, s, m in [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 4, 2)]:
        res = star_gin(n, s, m)
        assert alpha(build_star(n, s).scheme(m)) == res.t_vector()[0] == res.alpha()


def alpha_ratios(report):
    return [F(r.alpha(), r.m) for r in report.results]


def test_waldschmidt_estimate_star23(gin_cache):
    report = custom_report(build_star(2, 3).scheme(1), 2, cache=gin_cache)
    assert alpha_ratios(report) == [F(2), F(3, 2)]
    assert report.waldschmidt_min == F(3, 2)  # equals s/n


def test_waldschmidt_star_equality_at_multiples_of_n(gin_cache):
    for n, s, m_max in [(2, 3, 4), (2, 4, 4)]:
        report = custom_report(build_star(n, s).scheme(1), m_max, cache=gin_cache)
        target = F(s, n)
        assert report.waldschmidt_min == target
        for m, r in enumerate(alpha_ratios(report), start=1):
            assert r >= target
            if m % n == 0:
                assert r == target


def test_waldschmidt_conic_is_two(gin_cache, conic_scheme):
    report = custom_report(conic_scheme, 3, cache=gin_cache)
    assert alpha_ratios(report) == [F(2), F(2), F(2)]
    assert report.waldschmidt_min == 2


def test_regularity_examples(star_gin, conic_gin):
    assert star_gin(2, 3, 1).regularity() == 2
    assert star_gin(2, 3, 2).regularity() == 4
    # The bundled conic scheme: quotient Hilbert function 1,3,5,6 forces the
    # artinian slices 1,2,2,1, so x2^4 is a minimal generator and the top
    # generator degree is 4.
    assert conic_gin(1).regularity() == 4


def test_asreg_estimate_values(star_gin, gin_cache, conic_scheme):
    def reg_ratios(report):
        return [F(r.regularity(), r.m) for r in report.results]

    star = custom_report(build_star(2, 3).scheme(1), 3, cache=gin_cache)
    assert reg_ratios(star) == [F(2), F(2), F(2)]
    assert star.asreg_estimate == 2  # s - n + 1
    assert star_gin(3, 4, 1).regularity() == 2  # x3^2 generator
    conic = custom_report(conic_scheme, 3, cache=gin_cache)
    assert reg_ratios(conic) == [F(4), F(7, 2), F(10, 3)]
    assert conic.asreg_estimate == F(10, 3)  # decreasing toward 3


def test_alpha_subadditive(star_gin):
    values = {m: star_gin(2, 3, m).alpha() for m in range(1, 7)}
    for k in range(1, 6):
        for l in range(1, 7 - k):
            assert values[k + l] <= values[k] + values[l]


def test_verify_theorem_star23(gin_cache):
    report = verify_theorem(2, 3, 2, cache=gin_cache)
    assert report.all_pass()
    assert [r.t_vector() for r in report.results] == [[2, 2], [3, 4]]
    assert report.results[1].t_vector()[0] == 3  # t1(2) = s
    assert report.results[0].t_vector()[1] == 2  # t2(1) = s - 1
    assert report.waldschmidt_min == F(3, 2)
    assert report.asreg_estimate == 2


def test_verify_theorem_star24(gin_cache):
    report = verify_theorem(2, 4, 2, cache=gin_cache)
    assert report.all_pass()
    assert report.results[1].t_vector()[0] == 4
    assert report.results[0].t_vector()[1] == 3
    assert [r.colength for r in report.results] == [6, 18]


def test_verify_theorem_star34(gin_cache):
    report = verify_theorem(3, 4, 3, cache=gin_cache)
    assert report.all_pass()
    ts = [r.t_vector() for r in report.results]
    assert ts[2][0] == 4 and ts[1][1] == 3 and ts[0][2] == 2
    assert "V5" not in report.verdicts  # area check is n=2 only


def test_verify_theorem_rows_internal_identities(gin_cache):
    report = verify_theorem(2, 4, 3, cache=gin_cache)
    for r in report.results:
        assert r.alpha() == r.t_vector()[0]
        assert r.regularity() == r.t_vector()[-1]


def test_verify_theorem_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_theorem(2, 1, 2)
    with pytest.raises(ValueError):
        verify_theorem(2, 4, 1)  # m_max < n


@pytest.mark.parametrize(
    "m_max, expect, message",
    [(0, None, "m_max must be at least 1"), (2, [F(2)], "wrong length")],
)
def test_custom_report_rejects_bad_arguments(conic_scheme, m_max, expect, message):
    with pytest.raises(ValueError, match=message):
        custom_report(conic_scheme, m_max, expect_intercepts=expect)


def test_custom_report_conic(gin_cache, conic_scheme):
    plain = custom_report(conic_scheme, 3, cache=gin_cache)
    assert plain.verdicts == {}
    assert [r.alpha() for r in plain.results] == [2, 4, 6]
    assert [r.t_vector()[1] for r in plain.results] == [4, 7, 10]
    for r in plain.results:
        assert F(r.t_vector()[1], r.m) >= 3
        assert F(r.t_vector()[1], r.m) <= 3 + F(2, r.m)

    good = custom_report(
        conic_scheme, 3, expect_intercepts=[F(2), F(3)], cache=gin_cache
    )
    assert good.all_pass() and set(good.verdicts) == {"V2", "V3", "VLIM"}

    bad = custom_report(
        conic_scheme, 3, expect_intercepts=[F(2), F(2)], cache=gin_cache
    )
    assert bad.verdicts["V2"] and bad.verdicts["V3"]
    assert not bad.verdicts["VLIM"]  # detects the undershooting shape


def test_report_is_frozen(gin_cache):
    report = custom_report(build_star(2, 3).scheme(1), 1, cache=gin_cache)
    with pytest.raises(FrozenInstanceError):
        report.s = 3


def test_custom_report_requires_reduced_base(conic_scheme):
    with pytest.raises(ValueError):
        custom_report(conic_scheme.with_multiplicity(2), 2)


def test_report_json_schema(gin_cache):
    report = verify_theorem(2, 3, 2, cache=gin_cache)
    doc = report.to_json_dict()
    assert doc["n"] == 2 and doc["s"] == 3
    assert doc["rows"][0] == {
        "m": 1,
        "alpha": 2,
        "t": [2, 2],
        "reg": 2,
        "colength": 3,
    }
    assert doc["waldschmidt_min"] == "3/2"
    assert doc["asreg_estimate"] == "2"
    assert set(doc["verdicts"]) == {"V1", "V2", "V3", "V4", "V5"}
    assert doc["areas"] == ["2", "3/2"]
    assert doc["expected_vertices"] == ["3/2", "2"]


def test_star_reports_record_last_axis_equality(gin_cache):
    # Observed across every computed star: t_n(m) = m (s - n + 1) exactly;
    # the report flags any strict overshoot instead of asserting equality.
    for n, s, m_max in [(2, 3, 4), (2, 4, 3), (3, 4, 3)]:
        report = verify_theorem(n, s, m_max, cache=gin_cache)
        assert report.reg_above_line == []
        for r in report.results:
            assert r.t_vector()[-1] == r.m * (s - n + 1)
        assert "reg_above_line" in report.to_json_dict()


def test_dimension_four_star_single_power(gin_cache):
    # 5 general points of P^4: the degree-2 slice fills the first four
    # variables completely, forcing the generators.
    report = verify_theorem(4, 5, 4, cache=gin_cache)
    assert report.all_pass()
    assert report.results[0].t_vector() == [2, 2, 2, 2]
    assert report.results[0].colength == 5
    assert report.waldschmidt_min == Fraction(5, 4)
