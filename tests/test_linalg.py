from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshape.linalg import (
    MODULUS,
    RatMatrix,
    certified_free_columns,
    clear_denominators,
    echelon_int,
    format_rational,
    free_columns_mod_p,
    nullspace,
    parse_rational,
    pivot_columns,
    random_invertible_matrix,
    rank,
    rref_with_column_order,
)
from starshape.rng import SeededRng


def naive_rref(rows, order):
    """Independent oracle: textbook Gaussian elimination on Fractions,
    no integer clearing, no gcd games."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in order:
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, m


fractions_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(fractions_st, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return rows


def test_rref_identity_natural_order():
    m = RatMatrix.identity(2)
    pivots, reduced = rref_with_column_order(m, [0, 1])
    assert pivots == [0, 1]
    assert reduced.row_list() == m.row_list()


def test_rref_single_nonzero_column():
    m = RatMatrix.from_rows([[0, 1], [0, 0]])
    pivots, reduced = rref_with_column_order(m, [0, 1])
    assert pivots == [1]
    assert reduced.row_list() == [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]


def test_rref_scan_order_drives_pivot_choice():
    m = RatMatrix.from_rows([[2, 3]])
    pivots, reduced = rref_with_column_order(m, [1, 0])
    assert pivots == [1]
    assert reduced.row_list() == [[Fraction(2, 3), Fraction(1)]]


def test_rref_rejects_non_permutation_order():
    m = RatMatrix.identity(2)
    with pytest.raises(ValueError):
        rref_with_column_order(m, [0, 0])


@settings(max_examples=150)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_rref_matches_naive_oracle(rows, rnd):
    order = list(range(len(rows[0])))
    rnd.shuffle(order)
    mat = RatMatrix.from_rows(rows)
    pivots, reduced = rref_with_column_order(mat, order)
    oracle_pivots, oracle_m = naive_rref(rows, order)
    assert pivots == oracle_pivots
    assert reduced.row_list() == oracle_m


@settings(max_examples=100)
@given(small_matrices())
def test_rank_nullity_exact(rows):
    mat = RatMatrix.from_rows(rows)
    basis = nullspace(mat)
    assert rank(mat) + len(basis) == mat.cols
    for v in basis:
        assert all(x == 0 for x in mat.matvec(v))


@settings(max_examples=60)
@given(small_matrices())
def test_rref_pivot_columns_carry_identity(rows):
    mat = RatMatrix.from_rows(rows)
    pivots, reduced = rref_with_column_order(mat, range(mat.cols))
    for i, c in enumerate(pivots):
        column = [reduced.at(r, c) for r in range(mat.rows)]
        expected = [Fraction(int(r == i)) for r in range(mat.rows)]
        assert column == expected


@settings(max_examples=60)
@given(small_matrices())
def test_transform_reproduces_input(rows):
    mat = RatMatrix.from_rows(rows)
    pivots, reduced, transform = rref_with_column_order(
        mat, range(mat.cols), want_transform=True
    )
    assert transform.matmul(mat).row_list() == reduced.row_list()
    assert rank(transform) == mat.rows  # invertible row operations


def test_nullspace_examples():
    one = RatMatrix.from_rows([[1, 1]])
    basis = nullspace(one)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0
    assert nullspace(RatMatrix.identity(2)) == []


def test_pivot_columns_is_echelon_prefix_of_rref():
    m = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivot_columns(m, [0, 1, 2]) == rref_with_column_order(m, [0, 1, 2])[0]
    assert rank(m) == 2


@given(st.fractions(max_denominator=1000))
def test_rational_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.lists(fractions_st, min_size=1, max_size=6))
def test_clear_denominators_is_primitive_and_parallel(row):
    ints = clear_denominators(row)
    from math import gcd

    g = 0
    for v in ints:
        g = gcd(g, v)
    assert g in (0, 1)
    # parallel: cross ratios match on the first nonzero coordinate
    j = next((i for i, v in enumerate(row) if v != 0), None)
    if j is not None:
        scale = Fraction(ints[j]) / row[j]
        assert all(Fraction(v) == scale * x for v, x in zip(ints, row))


def test_random_invertible_matrix_contract():
    g1 = random_invertible_matrix(SeededRng(5), 3, 1000)
    g2 = random_invertible_matrix(SeededRng(5), 3, 1000)
    assert g1.row_list() == g2.row_list()
    assert rank(g1) == 3
    assert all(
        -1000 <= x <= 1000 and x.denominator == 1 for x in g1.entries
    )
    tiny = random_invertible_matrix(SeededRng(5), 1, 10)
    assert tiny.at(0, 0) != 0
    with pytest.raises(ValueError):
        random_invertible_matrix(SeededRng(5), 2, 1)


def exact_free_columns(rows, ncols):
    """Non-pivot columns of echelon_int's last-column-first scan over Q."""
    pivots, _ = echelon_int([list(r) for r in rows], range(ncols - 1, -1, -1), ncols)
    return [j for j in range(ncols) if j not in pivots]


@st.composite
def int_matrices(draw, entries):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=200)
@given(int_matrices(st.integers(-9, 9)))
def test_mod_p_profile_matches_exact_on_small_entries(matrix):
    # Hadamard: every minor is below (9 * 6**0.5)**6 < 2**27 < MODULUS in
    # absolute value, so p divides no entry and no nonzero minor, and the
    # two profiles must agree.
    rows, ncols = matrix
    assert free_columns_mod_p(rows, ncols) == exact_free_columns(rows, ncols)


near_multiples_of_p = st.integers(-2, 2).flatmap(
    lambda k: st.integers(k * MODULUS - 2, k * MODULUS + 2)
)


@settings(max_examples=200)
@given(int_matrices(near_multiples_of_p))
def test_mod_p_rank_never_exceeds_exact_rank(matrix):
    rows, ncols = matrix
    before = [list(r) for r in rows]
    free_p = free_columns_mod_p(rows, ncols)
    assert rows == before  # input rows are left untouched
    assert len(free_p) >= len(exact_free_columns(rows, ncols))


@st.composite
def low_rank_matrices(draw):
    # U (rows x k) times V (k x cols), entries in [-2, 2], k <= 3: entries
    # stay within 12, so by Hadamard every minor is below (12 * 6**0.5)**6
    # < MODULUS and the profile mod p is the exact one.
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    small = st.integers(-2, 2)
    u = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    v = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] if k else [0] * ncols
            for row in u], ncols


@settings(max_examples=200)
@given(int_matrices(st.integers(-9, 9)) | low_rank_matrices())
def test_certificate_proves_the_exact_profile(matrix):
    rows, ncols = matrix
    free = exact_free_columns(rows, ncols)
    assert certified_free_columns(rows, ncols) == (free, ncols - len(free))


@settings(max_examples=200)
@given(int_matrices(near_multiples_of_p))
def test_certificate_is_exact_or_refused(matrix):
    # Here p divides many entries and minors: the mod-p profile is often
    # wrong, and then the certificate must fail rather than confirm it.
    rows, ncols = matrix
    free = exact_free_columns(rows, ncols)
    assert certified_free_columns(rows, ncols) in (None, (free, ncols - len(free)))
