import json
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    conditions_matrix,
    hf_symbolic,
    naive_condition_rows,
    naive_rank_and_kernel,
    symbolic_basis,
    transform_scheme,
)
from starshape.errors import SchemeFormatError
from starshape.gin import cache_key
from starshape.linalg import random_invertible_matrix
from starshape.monomial import monomials_of_degree
from starshape.rng import SeededRng
from starshape.scheme import (
    FatPointScheme,
    _condition_rows,
    _kernel_vector,
    build_star,
    load_points,
    normalize_point,
)


def diff_eval(alpha, beta, point):
    """Oracle: repeated formal single-variable differentiation of the
    monomial x^alpha, evaluated at the point.  Independent of the
    condition-matrix builder."""
    coeff = Fraction(1)
    exps = list(alpha)
    for var, times in enumerate(beta):
        for _ in range(times):
            if exps[var] == 0:
                return Fraction(0)
            coeff *= exps[var]
            exps[var] -= 1
    value = coeff
    for e, c in zip(exps, point):
        value *= Fraction(c) ** e
    return value


def oracle_matrix(sch, d):
    k = sch.dim + 1
    mons = monomials_of_degree(k, d)
    betas = monomials_of_degree(k, sch.multiplicity - 1)
    rows = []
    for p in sch.points:
        for beta in betas:
            rows.append([diff_eval(alpha, beta, p) for alpha in mons])
    return rows


def point(*coords):
    return tuple(Fraction(c) for c in coords)


def test_normalize_point_sets_last_nonzero_to_one():
    assert normalize_point(point(2, 4, 8)) == point(Fraction(1, 4), Fraction(1, 2), 1)
    assert normalize_point(point(3, 0)) == point(1, 0)
    with pytest.raises(SchemeFormatError):
        normalize_point(point(0, 0, 0))


def test_conditions_matrix_simple_evaluation_row():
    sch = FatPointScheme(2, (point(0, 0, 1),), 1)
    assert conditions_matrix(sch, 1) == [[0, 0, 1]]


def test_conditions_matrix_double_point_first_partials():
    sch = FatPointScheme(2, (point(0, 0, 1),), 2)
    m = conditions_matrix(sch, 1)
    assert (len(m), len(m[0])) == (3, 3)
    assert naive_rank_and_kernel(m, 3) == (3, [])  # no line is double at a point


def test_conditions_matrix_double_point_on_conics():
    sch = FatPointScheme(2, (point(1, 1, 1),), 2)
    m = conditions_matrix(sch, 2)
    assert (len(m), len(m[0])) == (3, 6)
    rank, kernel = naive_rank_and_kernel(m, 6)
    assert rank == 3 and len(kernel) == 3


def test_nullspace_of_coordinate_double_point():
    # Conics singular at (0:0:1): exactly x1^2, x1 x2, x2^2.
    sch = FatPointScheme(2, (point(0, 0, 1),), 2)
    m = conditions_matrix(sch, 2)
    basis = symbolic_basis(sch, 2)
    assert len(basis) == 3
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    # The kernel is spanned by the three monomials of x1, x2 alone.
    mons = monomials_of_degree(3, 2)
    assert {mons[j] for v in basis for j, x in enumerate(v) if x} == {
        (2, 0, 0), (1, 1, 0), (0, 2, 0)
    }


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    st.integers(1, 3),
    st.integers(0, 4),
)
def test_conditions_matrix_matches_differentiation_oracle(raw_pts, m, d):
    pts = tuple(point(*p) for p in raw_pts)
    try:
        sch = FatPointScheme(2, pts, m)
    except SchemeFormatError:
        return  # duplicates after normalization
    assert conditions_matrix(sch, d) == oracle_matrix(sch, d)


coordinates_st = st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def condition_row_inputs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    d = draw(st.integers(0, 5))
    point = st.tuples(*[coordinates_st] * (n + 1))
    points = draw(st.lists(point, min_size=1, max_size=3))
    mons = monomials_of_degree(n + 1, d)
    kept = sorted(draw(st.sets(st.integers(0, len(mons) - 1))))
    return points, n + 1, m, [mons[j] for j in kept], d


@settings(max_examples=150, deadline=None)
@given(condition_row_inputs())
def test_condition_rows_match_the_entrywise_formula(args):
    points, _, m, mons, _ = args
    assert _condition_rows(points, m, mons) == naive_condition_rows(*args)


@st.composite
def hyperplane_systems(draw):
    # n rows in n + 1 unknowns; entries in [-2, 2] make dependent rows common.
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1)
    return draw(st.lists(row, min_size=n, max_size=n)), n + 1


@settings(max_examples=200)
@given(hyperplane_systems())
def test_kernel_vector_is_none_exactly_when_rows_are_dependent(system):
    rows, ncols = system
    vec = _kernel_vector(rows, ncols)
    rank = naive_rank_and_kernel(rows, ncols)[0]
    assert (vec is None) == (rank < ncols - 1)
    if vec is not None:
        assert any(vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


def test_build_star_point_counts():
    assert len(build_star(2, 2).points) == 1
    assert len(build_star(2, 4).points) == 6
    assert len(build_star(3, 5).points) == 10


def test_build_star_validity_invariants():
    for mode, seed in (("vandermonde", 0), ("seeded", 11)):
        star = build_star(2, 4, mode=mode, seed=seed)
        assert len(set(star.points)) == comb(4, 2)
        for subset in combinations(range(4), 2):
            rows = [list(star.hyperplanes[j]) for j in subset]
            assert naive_rank_and_kernel(rows, 3)[0] == 2
        # every point lies on exactly the hyperplanes that cut it out
        for p in star.points:
            on = sum(
                1
                for h in star.hyperplanes
                if sum(Fraction(c) * x for c, x in zip(h, p)) == 0
            )
            assert on == 2


def test_build_star_is_deterministic():
    a = build_star(2, 5, mode="seeded", seed=99)
    b = build_star(2, 5, mode="seeded", seed=99)
    assert a == b
    assert build_star(3, 4) == build_star(3, 4)


def test_build_star_rejects_bad_input():
    with pytest.raises(ValueError):
        build_star(2, 1)
    with pytest.raises(ValueError):
        build_star(2, 3, mode="nonsense")


def test_hf_symbolic_star23_examples():
    star = build_star(2, 3)
    assert hf_symbolic(star.scheme(1), 1) == 0  # no line through 3 general points
    assert hf_symbolic(star.scheme(2), 3) == 1  # only the triple product
    assert hf_symbolic(star.scheme(1), 2) == 3


def test_hf_symbolic_zero_below_multiplicity():
    sch = build_star(2, 3).scheme(4)
    assert [hf_symbolic(sch, d) for d in range(4)] == [0, 0, 0, 0]


def expand_product(hyperplanes):
    """Oracle: coefficient vector of prod h_j in descending revlex order."""
    poly = {(0, 0, 0): Fraction(1)}
    for h in hyperplanes:
        nxt = {}
        for exps, c in poly.items():
            for var, coef in enumerate(h):
                if coef == 0:
                    continue
                key = tuple(e + int(i == var) for i, e in enumerate(exps))
                nxt[key] = nxt.get(key, Fraction(0)) + c * coef
        poly = nxt
    mons = monomials_of_degree(3, len(hyperplanes))
    return [poly.get(u, Fraction(0)) for u in mons]


def test_symbolic_basis_is_the_hyperplane_product():
    star = build_star(2, 3)
    basis = symbolic_basis(star.scheme(2), 3)
    assert len(basis) == 1
    v = basis[0]
    w = expand_product(star.hyperplanes)
    j = next(i for i, x in enumerate(w) if x != 0)
    ratio = v[j] / w[j]
    assert ratio != 0
    assert all(x == ratio * y for x, y in zip(v, w))


def test_symbolic_basis_empty_cases():
    star = build_star(2, 3)
    assert symbolic_basis(star.scheme(1), 1) == []
    # more independent conditions than monomials (no 3 of these collinear)
    many = FatPointScheme(
        2, tuple(point(t * t, t, 1) for t in range(1, 6)), 1
    )
    assert symbolic_basis(many, 1) == []


def test_hf_stabilizes_at_fat_point_degree():
    for n, s, m in [(2, 3, 2), (2, 4, 1), (3, 4, 2)]:
        sch = build_star(n, s).scheme(m)
        expected = sch.fat_point_degree()
        quotient = []
        d = 0
        while len(quotient) < 2 or quotient[-1] != quotient[-2]:
            quotient.append(comb(d + n, n) - hf_symbolic(sch, d))
            d += 1
        assert quotient[-1] == expected
        positives = [hf_symbolic(sch, e) for e in range(d)]
        started = [h for h in positives if h > 0]
        assert started == sorted(started)  # nondecreasing once positive


def test_hf_linear_general_position():
    for npts in (1, 2, 3, 4, 5):
        pts = tuple(point(t * t, t, 1) for t in range(npts))
        sch = FatPointScheme(2, pts, 1)
        assert hf_symbolic(sch, 1) == max(0, 3 - npts)


def test_simple_points_independent_in_high_degree():
    pts = tuple(point(t * t, t, 1) for t in range(1, 5))
    sch = FatPointScheme(2, pts, 1)
    d = len(pts) - 1
    rows = conditions_matrix(sch, d)
    assert naive_rank_and_kernel(rows, len(rows[0]))[0] == len(pts)


def test_transform_preserves_hf():
    star = build_star(2, 3)
    sch = star.scheme(2)
    g = random_invertible_matrix(SeededRng(3), 3, 50)
    moved = transform_scheme(sch, g)
    for d in range(5):
        assert hf_symbolic(moved, d) == hf_symbolic(sch, d)


def test_load_points_conic_and_errors(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "dim": 2,
                "multiplicity": 1,
                "points": [[str(t * t), str(t), "1"] for t in range(1, 7)],
            }
        )
    )
    sch = load_points(good)
    assert sch.dim == 2 and len(sch.points) == 6 and sch.multiplicity == 1
    assert sch.hyperplanes is None

    dup = tmp_path / "dup.json"
    dup.write_text(
        json.dumps({"dim": 2, "points": [["1", "1", "1"], ["2", "2", "2"]]})
    )
    with pytest.raises(SchemeFormatError, match="coincide"):
        load_points(dup)

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dim": 2, "points": []}))
    with pytest.raises(SchemeFormatError, match="empty"):
        load_points(empty)

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemeFormatError, match="JSON"):
        load_points(broken)

    wrongdim = tmp_path / "wrongdim.json"
    wrongdim.write_text(json.dumps({"dim": 3, "points": [["1", "2", "1"]]}))
    with pytest.raises(SchemeFormatError, match="coordinates"):
        load_points(wrongdim)

    fractional = tmp_path / "frac.json"
    fractional.write_text(
        json.dumps({"dim": 1, "points": [["1/2", "1"], ["3", "1"]]})
    )
    sch = load_points(fractional)
    assert sch.points[0] == (Fraction(1, 2), Fraction(1))

    for name, doc, message in (
        ("list", [["1", "1", "1"]], "top level must be an object"),
        ("no-points", {"dim": 2}, "missing key 'points'"),
        ("points-dict", {"dim": 2, "points": {"0": ["1", "1", "1"]}}, "points must be a list"),
        ("point-str", {"dim": 2, "points": ["1 1 1"]}, "point 0 must be a list"),
        ("coord-x", {"dim": 2, "points": [["1", "x", "1"]]}, "point 0, coordinate 1"),
        ("coord-zero-den", {"dim": 2, "points": [["1/0", "1", "1"]]},
         "point 0, coordinate 0: zero denominator in '1/0'"),
        ("dim-0", {"dim": 0, "points": [["1"]]}, "ambient dimension must be at least 1"),
    ):
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemeFormatError, match=message) as info:
            load_points(bad)
        assert "Fraction(" not in str(info.value)


ORIGIN = (Fraction(0), Fraction(0), Fraction(1))


@pytest.mark.parametrize(
    "dim, points, multiplicity, message",
    [
        (0, (ORIGIN,), 1, "dimension must be at least 1"),
        (2, (ORIGIN,), 0, "multiplicity must be at least 1"),
        (2, (), 1, "empty point list"),
        (2, ((Fraction(1), Fraction(1)),), 1, "expected 3 coordinates"),
        (2, (ORIGIN, (0, 0, 2)), 1, "coincide"),
    ],
)
def test_fat_point_scheme_rejects_bad_arguments(dim, points, multiplicity, message):
    with pytest.raises(SchemeFormatError, match=message):
        FatPointScheme(dim, points, multiplicity)


def test_star_schemes_carry_their_hyperplanes_outside_equality():
    # The hyperplanes ride along as a proof hint: equality, hashing and
    # the cache key see only the points and the multiplicity.
    star = build_star(2, 4)
    sch = star.scheme(3)
    bare = FatPointScheme(2, star.points, 3)
    assert sch.hyperplanes == star.hyperplanes and bare.hyperplanes is None
    assert sch.with_multiplicity(5).hyperplanes == star.hyperplanes
    assert sch == bare and hash(sch) == hash(bare)
    assert cache_key(sch, 0) == cache_key(bare, 0)
    with pytest.raises(SchemeFormatError, match="hyperplanes need 3 coefficients"):
        FatPointScheme(2, star.points, 3, ((1, 2),))
