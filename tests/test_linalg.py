from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    echelon_int,
    exact_free_columns,
    leibniz_determinant,
    naive_rank_and_kernel,
    naive_rref,
)
from starshape import linalg
from starshape.gin import compute_gin
from starshape.linalg import (
    MODULUS,
    _pack,
    _slot_bytes,
    _unpack,
    certified_free_columns,
    clear_denominators,
    determinant,
    format_rational,
    free_columns_mod_p,
    parse_rational,
    random_invertible_matrix,
)
from starshape.rng import SeededRng
from starshape.scheme import FatPointScheme, build_star


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
    assert echelon_int([[1, 0], [0, 1]], [0, 1], 2) == ([0, 1], [[1, 0], [0, 1]])


def test_rref_single_nonzero_column():
    assert echelon_int([[0, 1], [0, 0]], [0, 1], 2) == ([1], [[0, 1]])


def test_rref_scan_order_drives_pivot_choice():
    assert echelon_int([[2, 3]], [1, 0], 2)[0] == [1]
    assert echelon_int([[2, 3]], [0, 1], 2)[0] == [0]


def test_pivot_columns_is_echelon_prefix_of_rref():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    pivots, ech = echelon_int(rows, [0, 1, 2], 3)
    assert pivots == naive_rref(rows, [0, 1, 2])[0] == [0, 1]
    assert len(ech) == 2


@settings(max_examples=150)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_rref_matches_naive_oracle(rows, rnd):
    # The fraction-free oracle's pivot profile along a random scan order,
    # on the rows scaled to integers, is the naive Fraction elimination's.
    order = list(range(len(rows[0])))
    rnd.shuffle(order)
    ints = [clear_denominators(r) for r in rows]
    before = [list(r) for r in ints]
    pivots, ech = echelon_int(ints, order, len(order))
    assert ints == before  # input rows are left untouched
    assert pivots == naive_rref(rows, order)[0]
    assert len(ech) == len(pivots)


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
    assert g1 == g2
    assert naive_rank_and_kernel(g1, 3)[0] == 3
    assert all(type(x) is int and -1000 <= x <= 1000 for row in g1 for x in row)
    tiny = random_invertible_matrix(SeededRng(5), 1, 10)
    assert tiny[0][0] != 0
    with pytest.raises(ValueError):
        random_invertible_matrix(SeededRng(5), 2, 1)


@st.composite
def int_matrices(draw, entries):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=200)
@given(int_matrices(st.integers(-8, 8)))
def test_mod_p_profile_matches_exact_on_small_entries(matrix):
    # Hadamard: every minor is below (8 * 6**0.5)**6 < 2**26 - 5 = MODULUS
    # in absolute value, so p divides no entry and no nonzero minor, and
    # the two profiles must agree.
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
    # stay within 12 and only minors up to 3 x 3 are nonzero, so by
    # Hadamard every minor is below (12 * 3**0.5)**3 < MODULUS and the
    # profile mod p is the exact one.
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    k = draw(st.integers(0, 3))
    small = st.integers(-2, 2)
    u = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    v = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] if k else [0] * ncols
            for row in u], ncols


@settings(max_examples=200)
@given(int_matrices(st.integers(-8, 8)) | low_rank_matrices())
def test_certificate_proves_the_exact_profile(matrix):
    rows, ncols = matrix
    assert certified_free_columns(rows, ncols) == exact_free_columns(rows, ncols)


@pytest.mark.parametrize(
    "rows, ncols",
    [
        # Scanned from the last column, columns 3 and 2 take both rows as
        # pivots (the multiples of p are zeros mod p), so 1 and 0 are free.
        ([[MODULUS + 1, 2, 3, MODULUS], [4, 5 * MODULUS, 0, 1]], 4),
        # A multiple of p in a free column changes nothing.
        ([[MODULUS, 1, 2]], 3),
        ([], 3),
    ],
)
def test_full_row_rank_with_free_columns_last_needs_no_lift(lift_calls, rows, ncols):
    # No non-pivot row and no free column between pivots: the dual
    # certificate needs zero vectors.
    assert certified_free_columns(rows, ncols) == exact_free_columns(rows, ncols)
    assert lift_calls == []


@st.composite
def planted_profiles(draw, kind):
    # A matrix whose last-column-first profile is known: the pivot columns
    # P are drawn so that every free column lies below min(P) ("leading"),
    # above it ("interleaved") or some of each ("mixed").  The r basis rows
    # E have E[k][P[k]] = +-1 and zeros below it in scan order, and each
    # free column is a combination of the pivot columns after it.  A = U E
    # with U of full column rank (the identity plus up to three more rows,
    # shuffled), so A has E's profile and rows - r spare rows.  Entries
    # stay within 9 and the rank within 3, so by Hadamard every nonzero
    # minor is below (9 * 3**0.5)**3 < MODULUS and the profile mod p is the
    # exact one.
    ncols = draw(st.integers(2, 6))
    r = draw(st.integers(1, min(3, ncols - 1)))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=r, max_size=r)), reverse=True)
    free = [c for c in range(ncols) if c not in pivots]
    below = sum(f < pivots[-1] for f in free)
    assume({"leading": below == len(free), "interleaved": below == 0,
            "mixed": 0 < below < len(free)}[kind])
    unit = st.integers(-1, 1)
    basis = [[0] * ncols for _ in range(r)]
    for k, c in enumerate(pivots):
        basis[k][c] = draw(st.sampled_from([-1, 1]))
        for j in range(k):
            basis[j][c] = draw(unit)
    for f in free:
        for k, c in enumerate(pivots):
            if c > f:
                a = draw(unit)
                for j in range(r):
                    basis[j][f] += a * basis[j][c]
    extra = draw(st.integers(0, 6 - r))
    mix = [[int(i == j) for j in range(r)] for i in range(r)]
    mix += draw(st.lists(st.lists(unit, min_size=r, max_size=r), min_size=extra, max_size=extra))
    mix = draw(st.permutations(mix))
    rows = [[sum(u * b[c] for u, b in zip(urow, basis)) for c in range(ncols)] for urow in mix]
    return rows, ncols, free


@pytest.mark.parametrize("kind", ["leading", "interleaved", "mixed"])
@settings(max_examples=100)
@given(data=st.data())
def test_dual_and_column_certificates_prove_planted_profiles(kind, data):
    rows, ncols, free = data.draw(planted_profiles(kind))
    assert exact_free_columns(rows, ncols) == free
    assert certified_free_columns(rows, ncols) == free


@settings(max_examples=200)
@given(planted_profiles("mixed") | planted_profiles("leading"),
       st.lists(st.integers(-1, 1), min_size=36, max_size=36))
def test_planted_profile_shifted_by_multiples_of_p_is_exact_or_refused(planted, shifts):
    # Adding multiples of p leaves the profile mod p as planted (its spare
    # rows and leading free columns), while over Q the rank usually grows:
    # the dual certificates must then fail, not confirm it.
    rows, ncols, free = planted
    shift = iter(shifts)
    rows = [[v + next(shift) * MODULUS for v in row] for row in rows]
    assert free_columns_mod_p(rows, ncols) == free
    assert certified_free_columns(rows, ncols) in (None, exact_free_columns(rows, ncols))


@pytest.mark.parametrize(
    "solutions",
    [
        # In the left kernel, but zero at its own row.
        [(0, [0]), (0, [0])],
        # On the pivot column 2 both vanish, but not on columns 1 and 0.
        [(1, [0]), (1, [0])],
    ],
    ids=["own-row", "all-columns"],
)
def test_tampered_dual_certificate_is_refused(monkeypatch, lift_calls, solutions):
    # Rows 1 and 2 are 0 mod p: rank 1 mod p, with columns 1 and 0 free
    # below the pivot 2.  Two non-pivot rows for two free columns: the rule
    # takes the dual certificates.  Over Q the rank is 2 and column 1 is a
    # pivot, so any confirmation would be wrong.
    rows = [[0, 0, 1], [MODULUS, MODULUS, 0], [MODULUS, MODULUS, 0]]
    monkeypatch.setattr(linalg, "_dixon_solve", lambda square, rhs, inv_cols: solutions)
    assert free_columns_mod_p(rows, 3) == [0, 1]
    assert certified_free_columns(rows, 3) is None
    assert lift_calls == [("rows", [1, 2])]
    assert exact_free_columns(rows, 3) == [0]


def test_twenty_free_columns_of_star_3_5_take_ten_dual_vectors(proofs):
    # star(3,5) m=3, given by its points alone, has length 100.  Its
    # generator degree with 20 free columns has rank 90: 10 dual vectors
    # instead of 20 column lifts.  The degree with one free column keeps
    # its column lift (10 > 1).  The last generator degree is D+1 and no
    # moved point lies on x_4 = 0, so it is not proved at all.
    compute_gin(FatPointScheme(3, build_star(3, 5).points, 3), seed=0)
    assert proofs == [(100, 56, 1, [("columns", 1)]), (100, 110, 20, [("rows", 10)])]


def test_star_3_5_with_its_hyperplanes_lifts_nothing(proofs):
    # The same power as a star: products of its five planes prove the rank
    # of both proved degrees, whose free columns all lie below every pivot,
    # so no degree lifts a vector.
    compute_gin(build_star(3, 5).with_multiplicity(3), seed=0)
    assert proofs == [(100, 56, 1, []), (100, 110, 20, [])]


def test_rank_bound_decides_whether_dual_vectors_are_lifted(lift_calls):
    # Scanned from the last column, column 1 takes row 0 as its pivot, row
    # 1 is spare and column 0 is free below the pivot: rank 1 mod p.  A
    # bound of 1 on the rank over Q proves it with no vector; a bound of 2
    # proves nothing, so the dual certificate of row 1 is lifted as
    # without one; a bound of 0 contradicts the rank mod p.
    rows = [[1, 2], [2, 4]]
    assert certified_free_columns(rows, 2, lambda: 1) == [0]
    assert lift_calls == []
    assert certified_free_columns(rows, 2, lambda: 2) == [0]
    assert lift_calls == [("rows", [1])]
    assert certified_free_columns(rows, 2, lambda: 0) is None
    assert lift_calls == [("rows", [1])]


@settings(max_examples=200)
@given(int_matrices(near_multiples_of_p), st.integers(0, 1))
def test_certificate_with_a_rank_bound_is_exact_or_refused(matrix, shift):
    # The exact rank over Q is the least true bound: with it, or with one
    # above it, the answer is the exact profile or a refusal, never another.
    # (A bound below the rank over Q is a false premise, not a proof.)
    rows, ncols = matrix
    exact = exact_free_columns(rows, ncols)
    got = certified_free_columns(rows, ncols, lambda: ncols - len(exact) + shift)
    assert got in (None, exact)


@settings(max_examples=200)
@given(int_matrices(near_multiples_of_p))
def test_certificate_is_exact_or_refused(matrix):
    # Here p divides many entries and minors: the mod-p profile is often
    # wrong, and then the certificate must fail rather than confirm it.
    rows, ncols = matrix
    assert certified_free_columns(rows, ncols) in (None, exact_free_columns(rows, ncols))


@settings(max_examples=200)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9) | near_multiples_of_p, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_determinant_matches_leibniz(rows):
    before = [list(r) for r in rows]
    assert determinant(rows) == leibniz_determinant(rows)
    assert rows == before  # input rows are left untouched


def test_determinant_is_exact_over_q_not_mod_p():
    # Singular mod p, invertible over Q: a draw like this must be kept.
    assert determinant([[MODULUS, 0], [0, 1]]) == MODULUS
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 4], [1, 2]]) == 0


def byte_loop_pack(vals, nb):
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in vals), "little")


@pytest.mark.parametrize("nb", [8, 9])
@pytest.mark.parametrize(
    "vals",
    [[], [0], [MODULUS - 1], [2**64 - 1], [0, MODULUS - 1, 2**64 - 1, 1, 0], list(range(300))],
    ids=["count-0", "zero", "p-1", "word-max", "mixed", "300-slots"],
)
def test_pack_and_unpack_agree_with_the_byte_loop(nb, vals):
    # Slot j is bytes [j*nb, (j+1)*nb) of the integer, little-endian, on
    # the 64-bit word path (nb = 8) and the byte loop alike.
    packed = _pack(vals, nb)
    assert packed == byte_loop_pack(vals, nb)
    assert _unpack(packed, nb, len(vals)) == vals
    assert _unpack(packed >> 8 * nb, nb, max(len(vals) - 1, 0)) == vals[1:]


def test_slot_bytes_hold_every_update():
    # A slot starts below p and takes up to u updates below (p - 1)**2; one
    # 64-bit word holds that up to 2,047 updates, the largest matrix here
    # has 561 columns.
    for u in range(4097):
        nb = _slot_bytes(u)
        assert (MODULUS - 1) ** 2 * u + MODULUS < 256**nb
        assert (nb <= 8) == (u < 2048)


@pytest.mark.parametrize("spare_row", [False, True], ids=["full-row-rank", "spare-row"])
def test_wide_profile_takes_the_byte_loop_and_matches_exact(spare_row):
    # Over 2,047 columns a slot needs 9 bytes, so the profile packs byte by
    # byte; with a spare row the proof also takes a dual certificate.
    ncols = 2100
    assert _slot_bytes(ncols) == 9
    rows = [[(i + 2) * j % 11 - 5 for j in range(ncols)] for i in range(2)]
    rows.append([a + b for a, b in zip(*rows)] if spare_row else [j % 7 for j in range(ncols)])
    rows[0][-1] = rows[1][-1] = rows[2][-1] = 0  # the last column is free
    exact = exact_free_columns(rows, ncols)
    assert free_columns_mod_p(rows, ncols) == exact
    assert certified_free_columns(rows, ncols) == exact


def test_mixed_degree_inverts_its_square_system_once(monkeypatch, lift_calls):
    # Columns 3 and 1 are pivots; column 2 = 2 * column 3 is free between
    # them, column 0 = column 3 + 3 * column 1 is free below them, and row
    # 2 = row 0 + row 1 is spare.  One spare row plus one interleaved
    # column is no more than the two free columns, so the degree takes a
    # dual and a column certificate: both solve with B = rows[0, 1][3, 1]
    # or its transpose, which is inverted once.
    rows = [[4, 1, 2, 1], [3, 1, 0, 0], [7, 2, 2, 1]]
    inverses = []
    invert = linalg._inverse_columns_mod_p

    def spy(mat):
        inverses.append(mat)
        return invert(mat)

    monkeypatch.setattr(linalg, "_inverse_columns_mod_p", spy)
    assert certified_free_columns(rows, 4) == exact_free_columns(rows, 4) == [0, 2]
    assert lift_calls == [("columns", [2]), ("rows", [2])]
    assert inverses == [[[1, 1], [0, 1]]]


def test_lifting_that_never_reconstructs_gives_no_certificate(monkeypatch):
    # Column 0 is free below the pivot 1, and row 1 is a non-pivot row: the
    # rule takes one dual certificate.  With every reconstruction failing,
    # _dixon_solve runs to its step cap and returns None, so nothing is
    # proved.
    rows = [[1, 2], [2, 4]]
    assert certified_free_columns(rows, 2) == [0]
    tries, solved = [], []
    solve = linalg._dixon_solve

    def never(xs, modulus, bound):
        tries.append(modulus)

    def spy(square, rhs, inv_cols):
        solved.append(solve(square, rhs, inv_cols))
        return solved[-1]

    monkeypatch.setattr(linalg, "_reconstruct", never)
    monkeypatch.setattr(linalg, "_dixon_solve", spy)
    assert certified_free_columns(rows, 2) is None
    assert solved == [None] and len(tries) > 1
