import json
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coordinate_change_for,
    exact_free_columns,
    gin_degree,
    hf_symbolic,
    two_step_gin_degree,
)
from starshape import gin, linalg, monomial
from starshape.errors import GenericityError, StarshapeError
from starshape.gin import (
    GIN_BOUND,
    FileGinCache,
    GinCache,
    GinResult,
    cache_key,
    compute_gin,
    result_from_json,
    result_to_json,
)
from starshape.invariants import gin_seed, seeded_star
from starshape.linalg import (
    MODULUS,
    certified_free_columns,
    free_columns_mod_p,
    random_invertible_matrix,
)
from starshape.monomial import MonomialIdeal, monomials_of_degree
from starshape.rng import SeededRng
from starshape.scheme import FatPointScheme, build_star


def same_math(a: GinResult, b: GinResult) -> bool:
    return (
        a.n == b.n
        and a.m == b.m
        and a.min_generators == b.min_generators
        and a.artinian == b.artinian
        and a.hf_table == b.hf_table
        and a.stop_degree == b.stop_degree
        and a.colength == b.colength
    )


def test_golden_star23_m1(star_gin):
    res = star_gin(2, 3, 1)
    assert res.min_generators.generators == ((2, 0, 0), (1, 1, 0), (0, 2, 0))
    assert res.artinian.generators == ((2, 0), (1, 1), (0, 2))
    assert res.stop_degree == 2
    assert res.colength == 3
    assert [q for _, _, q in res.hf_table] == [1, 3, 3]


def test_golden_star23_m2(star_gin):
    res = star_gin(2, 3, 2)
    assert res.artinian.generators == ((3, 0), (2, 2), (1, 3), (0, 4))
    assert res.stop_degree == 4
    assert res.colength == 9
    assert [q for _, _, q in res.hf_table] == [1, 3, 6, 9, 9]
    assert res.t_vector() == [3, 4]
    assert res.alpha() == 3
    assert res.regularity() == 4


def test_single_point_powers_of_maximal_ideal(monkeypatch):
    # One point has length C(n+m-1, n), the number of degree-(m-1)
    # monomials: the search starts and stops at d = m-1, where the square
    # conditions have full rank and no free column, so the candidate is
    # every degree-m monomial in x_1..x_n.
    profiles = []
    mod_p = gin.free_columns_mod_p

    def spy(rows, ncols):
        profiles.append((ncols, mod_p(rows, ncols)))
        return profiles[-1][1]

    monkeypatch.setattr(gin, "free_columns_mod_p", spy)
    for n, m in product(range(1, 5), range(1, 5)):
        profiles.clear()
        res = compute_gin(build_star(n, n).with_multiplicity(m), seed=5)
        expected = MonomialIdeal(
            n + 1, [u + (0,) for u in monomials_of_degree(n, m)]
        )
        assert res.min_generators == expected
        assert res.stop_degree == m
        assert res.colength == comb(n + m - 1, n)
        assert profiles == [(comb(n + m - 1, n), [])] * 2


def test_gin_degree_examples(star_gin):
    star = build_star(2, 3)
    g = coordinate_change_for(star_gin(2, 3, 2))
    assert gin_degree(star.with_multiplicity(2), 3, g) == {(3, 0, 0)}
    assert gin_degree(star.with_multiplicity(2), 2, g) == set()
    g1 = coordinate_change_for(star_gin(2, 3, 1))
    assert gin_degree(star, 2, g1) == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}


def test_gin_degree_matches_two_step_description():
    g = random_invertible_matrix(SeededRng(21), 3, 100)
    star = build_star(2, 3)
    for m, dmax in [(1, 3), (2, 5)]:
        sch = star.with_multiplicity(m)
        for d in range(dmax + 1):
            assert gin_degree(sch, d, g) == two_step_gin_degree(sch, d, g)


def test_engine_slices_match_one_shot_gin_degree(star_gin):
    res = star_gin(2, 3, 2)
    g = coordinate_change_for(res)
    sch = build_star(2, 3).with_multiplicity(2)
    for d in range(res.stop_degree + 1):
        slice_d = {
            u
            for u in monomials_of_degree(3, d)
            if res.min_generators.contains(u)
        }
        assert slice_d == gin_degree(sch, d, g)


def test_no_generators_after_stop_degree(star_gin):
    for n, s, m in [(2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 4, 1)]:
        res = star_gin(n, s, m)
        sch = build_star(n, s).with_multiplicity(m)
        g = coordinate_change_for(res)
        beyond = gin_degree(sch, res.stop_degree + 1, g)
        assert all(res.min_generators.contains(u) for u in beyond)


def test_structural_invariants(star_gin):
    for n, s, m in [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 4, 2)]:
        res = star_gin(n, s, m)
        assert res.min_generators.is_borel_fixed()
        assert all(g[-1] == 0 for g in res.min_generators.generators)
        assert res.colength == comb(s, n) * comb(n + m - 1, n)
        for d, dim_d, q in res.hf_table:
            assert res.min_generators.hilbert_function(d) == q
            assert dim_d == hf_symbolic(build_star(n, s).with_multiplicity(m), d)
            assert dim_d + q == comb(d + n, n)


def test_artinian_hf_is_first_difference_reaching_zero_at_stop(star_gin):
    for n, s, m in [(2, 3, 2), (2, 4, 1), (3, 4, 2)]:
        res = star_gin(n, s, m)
        quotient = [q for _, _, q in res.hf_table]
        for d in range(res.stop_degree + 1):
            prev = quotient[d - 1] if d >= 1 else 0
            assert res.artinian.hilbert_function(d) == quotient[d] - prev
        assert res.artinian.hilbert_function(res.stop_degree) == 0


def segment_ideal_from_dims(dims):
    """Oracle for two variables: a Borel-fixed ideal with no third-variable
    generators has degree-d slice equal to the revlex top segment of size
    dim I_d - dim I_{d-1}, so the whole ideal is forced by the (coordinate
    change independent) rank data alone."""
    monomials = []
    prev = 0
    for d, dim_d in enumerate(dims):
        delta = dim_d - prev
        monomials += [(a, d - a) for a in range(d + 1 - delta, d + 1)]
        prev = dim_d
    return MonomialIdeal(2, monomials)


def test_two_variable_gins_forced_by_rank_data(star_gin, conic_gin):
    results = [star_gin(2, s, m) for s, mmax in ((3, 3), (4, 2), (5, 2)) for m in range(1, mmax + 1)]
    results += [conic_gin(m) for m in (1, 2)]
    for res in results:
        dims = [dim_d for _, dim_d, _ in res.hf_table]
        assert res.artinian == segment_ideal_from_dims(dims)


def test_star34_generators_forced_by_cardinality(star_gin):
    # 4 general points of P^3: dim I_2 = 6 fills the whole degree-2 slice
    # of the first three variables, so the generators are forced.
    res = star_gin(3, 4, 1)
    assert res.artinian == MonomialIdeal(3, list(monomials_of_degree(3, 2)))


def test_pivot_count_equals_hf(star_gin):
    res = star_gin(2, 3, 2)
    sch = build_star(2, 3).with_multiplicity(2)
    g = coordinate_change_for(res)
    for d in range(res.stop_degree + 1):
        assert len(gin_degree(sch, d, g)) == hf_symbolic(sch, d)


def test_seed_independence():
    sch = build_star(2, 3).with_multiplicity(2)
    a = compute_gin(sch, seed=101)
    b = compute_gin(sch, seed=202)
    assert a.seeds_used != b.seeds_used
    assert same_math(a, b)


def test_mode_independence():
    for n, s, m in [(2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 4, 1)]:
        vand = compute_gin(build_star(n, s).with_multiplicity(m), seed=3)
        seeded = compute_gin(
            build_star(n, s, mode="seeded", seed=17).with_multiplicity(m), seed=3
        )
        assert same_math(vand, seeded)


def test_determinism_bit_identical():
    sch = build_star(2, 4).with_multiplicity(2)
    a = compute_gin(sch, seed=9)
    b = compute_gin(sch, seed=9)
    assert a == b
    assert result_to_json(a) == result_to_json(b)


def test_json_roundtrip(star_gin):
    res = star_gin(2, 3, 2)
    doc = result_to_json(res)
    back = result_from_json(doc)
    assert back == res
    assert doc["colength"] == "9"
    assert doc["generators"] == [[3, 0], [2, 2], [1, 3], [0, 4]]


def test_memory_cache_hits(monkeypatch):
    # The store keeps the document's bytes, so a hit passes the same gate
    # as a file hit and is an equal result, not the stored object.
    sch = build_star(2, 3)
    cache = GinCache()
    a = compute_gin(sch, seed=1, cache=cache)
    assert cache.get(cache_key(sch, 1)) == gin._document(a)

    def no_recompute(*args):
        raise AssertionError("a hit must not recompute")

    monkeypatch.setattr(gin, "_run_pair", no_recompute)
    assert compute_gin(sch, seed=1, cache=cache) == a


def test_file_cache_roundtrip(tmp_path):
    sch = build_star(2, 3).with_multiplicity(2)
    cache = FileGinCache(str(tmp_path))
    a = compute_gin(sch, seed=1, cache=cache)
    fresh = FileGinCache(str(tmp_path))
    b = compute_gin(sch, seed=1, cache=fresh)
    assert same_math(a, b) and a == b
    assert FileGinCache(str(tmp_path)).get(cache_key(sch, 1)) == gin._document(a)
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert not list(tmp_path.glob("*.tmp"))


def test_cache_key_distinguishes_inputs():
    s1 = build_star(2, 3)
    s2 = build_star(2, 3).with_multiplicity(2)
    assert cache_key(s1, 1) != cache_key(s2, 1)
    assert cache_key(s1, 1) != cache_key(s1, 2)


def test_cache_keys_and_star_points_are_pinned():
    # Changing the star points, their canonical form or the key payload
    # would orphan every existing cache file.
    assert build_star(2, 3).points == (
        (2, -3, 1), (3, -4, 1), (6, -5, 1)
    )
    # Points at infinity: the kernel's free column is not the last one.
    assert build_star(2, 3, mode="seeded", seed=12, bound=3).points == (
        (Fraction(2, 3), 1, 0), (-3, -3, 1), (1, 0, 0)
    )
    assert cache_key(build_star(2, 3).with_multiplicity(2), 0) == (
        "6b34482fcf76549d77e586a9d9a09f8bfac7a2375b689e2aaf1785b7928eab31"
    )
    assert cache_key(build_star(3, 5), 0) == (
        "fe982b31ec74c1b0b52c65a2e4b1ff41f466825dc3ea89af45e9f8221fd67413"
    )
    stars = {
        "4ef9db280669ba832ac3e2a281915e8bac464df98e1abbf68edbb3337555c213": build_star(1, 1),
        "40a11cfb195d757f468b49dedd69f0040a3528cf4502c6a62df0a7fe85455e67": build_star(2, 5),
        "f15811e0ee955173275b7e4e0cc93e21db82df2c6ecb5ad7ea78e3defdecea2c": build_star(3, 4),
        "8f6996e34d49a8b92d842c218d7de410799ff38095e59be6be5fcb15430c40c6": build_star(4, 5),
        "3f956cf4d69385325fb6ed25f0a21aaadf287f96f349d41346994092c3d36a91":
            seeded_star(2, 4, "seeded", 0, 1000),
        "6de3501a45e5e36f85ec55012822969360369643969b9acd5449d0302586da95":
            build_star(3, 4, mode="seeded", seed=11, bound=50),
    }
    for digest, star in stars.items():
        assert cache_key(star, 0) == digest


def test_close_points_still_compute_exactly():
    # Nearly coincident points are fine for exact arithmetic.
    pts = (
        (1, 1, 1),
        (1000001, 1000000, 1000000),
    )
    sch = FatPointScheme(2, tuple(tuple(map(int, p)) for p in pts), 1)
    res = compute_gin(sch, seed=4)
    assert res.colength == 2


def test_unsaturated_input_is_rejected_loudly(monkeypatch):
    # A scheme argument is always saturated by construction here, so the
    # genericity machinery should never report a last-variable generator;
    # this guards the retry loop's failure path instead: every draw fails,
    # and the error lists each of the GIN_DRAWS failures.
    def fails(*args):
        raise GenericityError("draw refused")

    monkeypatch.setattr(gin, "_run_pair", fails)
    with pytest.raises(GenericityError, match="after 3 attempts") as info:
        compute_gin(build_star(2, 3), seed=1)
    assert str(info.value).count("draw refused") == gin.GIN_DRAWS == 3


def test_zero_kernel_mod_p_is_settled_without_q_elimination(lift_calls):
    # A zero kernel mod p needs no certificate.
    assert certified_free_columns([[1, 0], [3, 1]], 2) == []
    assert lift_calls == []


def test_seed1_falls_back_to_q_when_p_kills_a_pivot(lift_calls):
    # Column 0's only nonzero entry is p: a pivot over Q, none mod p.  No
    # certificate proves the profile mod p, so the proof fails (and
    # compute_gin would redraw) rather than answer [0, 1].  With one
    # non-pivot row the dual certificate of row 0 fails (row 0 is not in
    # the span of row 1); with three, the rule lifts the two free columns
    # instead, and column 0's certificate fails.
    rows = [[MODULUS, 0, 0], [0, 1, 1]]
    assert free_columns_mod_p(rows, 3) == [0, 1]
    assert certified_free_columns(rows, 3) is None
    assert exact_free_columns(rows, 3) == [1]
    more = rows + [[0, 2, 2], [0, 3, 3]]
    assert free_columns_mod_p(more, 3) == [0, 1]
    assert certified_free_columns(more, 3) is None
    assert exact_free_columns(more, 3) == [1]
    assert lift_calls == [("rows", [0]), ("columns", [0, 1])]


def test_deciding_minor_divisible_by_p_takes_the_q_fallback(lift_calls):
    # Columns 2 and 1 are independent over Q, but their minor is p: mod p,
    # column 1 is free and column 0 a pivot, the other way round over Q.
    # The lifted kernel vector of column 1 is (-p, 1, -1), which leans on
    # the pivot scanned after it, so the support check refuses it.
    # Full row rank mod p alone does not skip the lift: the free column
    # lies between the pivots 2 and 0, so it needs a column certificate.
    # The same rows fail the same way again, so only a new coordinate
    # change, hence new rows, can be proved.
    rows = [[1, MODULUS + 1, 1], [0, 1, 1]]
    assert free_columns_mod_p(rows, 3) == [1]
    assert certified_free_columns(rows, 3) is None
    assert certified_free_columns(rows, 3) is None
    assert exact_free_columns(rows, 3) == [0]
    assert lift_calls == [("columns", [1]), ("columns", [1])]


@pytest.mark.parametrize(
    "solution",
    [
        # The true lift: in the kernel, but it uses the pivot 0, scanned
        # after column 1.
        (1, [0, -MODULUS]),
        # Supported on the column alone, but not in the kernel.
        (1, [0, 0]),
    ],
    ids=["support", "all-rows"],
)
def test_tampered_lift_is_refused_and_q_decides(monkeypatch, lift_calls, solution):
    # Row 1 is 1 and 0 mod p on columns 0 and 1: mod p column 1 is free
    # between the pivots 2 and 0, so it needs a column certificate.  Over
    # Q column 1 is a pivot and column 0 is free.
    rows = [[0, 0, 1], [1, MODULUS, 0]]
    monkeypatch.setattr(linalg, "_dixon_solve", lambda square, rhs, inv_cols: [solution])
    assert free_columns_mod_p(rows, 3) == [1]
    assert certified_free_columns(rows, 3) is None
    assert lift_calls == [("columns", [1])]
    assert exact_free_columns(rows, 3) == [0]


def test_last_generator_degree_of_a_star_power_needs_no_lift(proofs):
    # star(2,4) m=3, given by its points alone, has generators in degrees 7
    # and 9.  Degree 7 is 36 x 36 of rank 32 mod p with its 4 free columns
    # below every pivot, so 4 dual vectors prove it.  In degree 9 the
    # conditions have full row rank mod p and the free columns are the last
    # ones scanned: zero vectors.
    res = compute_gin(FatPointScheme(2, build_star(2, 4).points, 3), seed=2)
    assert sorted({sum(g) for g in res.min_generators.generators}) == [7, 9]
    assert proofs == [(36, 36, 4, [("rows", 4)]), (36, 40, 4, [])]


def test_star_power_with_its_hyperplanes_needs_no_lift(proofs):
    # The same power as a star: products of its four lines prove the rank
    # of degree 7, so neither degree lifts a vector.
    res = compute_gin(build_star(2, 4).with_multiplicity(3), seed=2)
    assert sorted({sum(g) for g in res.min_generators.generators}) == [7, 9]
    assert proofs == [(36, 36, 4, []), (36, 40, 4, [])]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", ["vandermonde", "seeded"])
@pytest.mark.parametrize("n, s, m", [(2, 4, 4), (3, 5, 3), (4, 5, 3)])
def test_hyperplanes_prove_the_same_result_without_lifts(lift_calls, n, s, m, mode, seed):
    # A star's hyperplanes only replace lifted certificates: the same
    # document, seed pair included, comes out with and without them.
    star = build_star(n, s, mode, seed=seed)
    with_planes = compute_gin(star.with_multiplicity(m), seed=seed)
    assert lift_calls == []
    points_only = compute_gin(FatPointScheme(n, star.points, m), seed=seed)
    assert lift_calls
    assert result_to_json(with_planes) == result_to_json(points_only)


def test_benchmark_star_powers_run_no_dixon_solve(monkeypatch):
    # The powers of the star2-deep workload: products prove every degree
    # that lifted dual certificates, and none has an interleaved column.
    calls = []
    solve = linalg._dixon_solve

    def spy(square, rhs, inv_cols):
        calls.append(len(rhs))
        return solve(square, rhs, inv_cols)

    monkeypatch.setattr(linalg, "_dixon_solve", spy)
    for n, s, m_max in [(2, 4, 6), (2, 5, 4)]:
        for m in range(1, m_max + 1):
            compute_gin(build_star(n, s).with_multiplicity(m), seed=gin_seed(0))
    assert calls == []


def test_hyperplane_moved_off_its_points_falls_back(proofs):
    # A product with the moved line no longer vanishes at the points of
    # the old one, and the exact incidence check sees it: the products
    # fall short in degree 7, which lifts its dual vectors as without
    # hyperplanes, and the result stays.
    star = build_star(2, 4)
    sch = star.with_multiplicity(3)
    h = star.hyperplanes[0]
    moved = (h[0] + 1,) + h[1:]
    on_h = [p for p in sch.int_points if not sum(map(mul, h, p))]
    assert len(on_h) == 3 and all(sum(map(mul, moved, p)) for p in on_h)
    res = compute_gin(replace(sch, hyperplanes=(moved,) + star.hyperplanes[1:]), seed=2)
    assert proofs == [(36, 36, 4, [("rows", 4)]), (36, 40, 4, [])]
    assert result_to_json(res) == result_to_json(compute_gin(sch, seed=2))


def test_star_missing_a_hyperplane_falls_back(proofs):
    star = build_star(2, 4)
    sch = star.with_multiplicity(3)
    res = compute_gin(replace(sch, hyperplanes=star.hyperplanes[1:]), seed=2)
    assert proofs == [(36, 36, 4, [("rows", 4)]), (36, 40, 4, [])]
    assert result_to_json(res) == result_to_json(compute_gin(sch, seed=2))


def test_product_bound_below_the_rank_mod_p_is_refused(monkeypatch):
    # Products of rank above what they are evaluated for would bound the
    # rank over Q below the rank mod p: a contradiction, so every draw is
    # refused, and none is accepted.
    monkeypatch.setattr(gin._StarProducts, "rank", lambda self, e, count: count + 1)
    with pytest.raises(GenericityError) as info:
        compute_gin(build_star(2, 4).with_multiplicity(3), seed=2)
    assert str(info.value).count("fail the proof over Q") == 3


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(n, s, m) for n in (2, 3) for s in range(n, n + 4) for m in (1, 2, 3)
                        if comb(s, n) * comb(n + m - 1, n) <= 100]),
       st.sampled_from(["vandermonde", "seeded"]), st.integers(0, 2**16),
       st.integers(3, 6), st.data())
def test_product_rank_bounds_the_symbolic_power_from_below(star, mode, seed, bound, data):
    # The proof rests on rank(e, count) <= dim I_e, with I_e taken in the
    # scheme's own coordinates.  Stars of length above 100 (star(3,6)
    # m=3) and seeded coefficients beyond [-6, 6] are left out: their
    # exact elimination takes seconds per degree.
    n, s, m = star
    sch = build_star(n, s, mode, seed=seed, bound=bound).with_multiplicity(m)
    e = data.draw(st.integers(m - 1, m * (s - n + 1) + 1))
    products = gin._StarProducts(sch, SeededRng(seed).derive(1))
    assert products.rank(e, monomial.dimension_of_degree(n + 1, e)) <= hf_symbolic(sch, e)


@pytest.mark.parametrize("mode", ["vandermonde", "seeded"])
@pytest.mark.parametrize("n, s, m", [(2, 4, 3), (3, 5, 2)])
def test_product_rank_is_the_dimension_of_the_symbolic_power(n, s, m, mode):
    # With as many points as monomials the products' rank meets dim I_e in
    # every degree, so their span is all of I_e there.
    sch = build_star(n, s, mode, seed=3).with_multiplicity(m)
    products = gin._StarProducts(sch, SeededRng(2).derive(1))
    degrees = range(m - 1, m * (s - n + 1) + 2)
    ranks = [products.rank(e, monomial.dimension_of_degree(n + 1, e)) for e in degrees]
    assert ranks == [hf_symbolic(sch, e) for e in degrees] and ranks[-1] > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda s: st.tuples(
    st.just(s), st.integers(1, 4),
    st.lists(st.sets(st.integers(0, s - 1), min_size=1).map(sorted), min_size=1, max_size=6))))
def test_minimal_exponents_match_a_brute_force_search(case):
    # Every a in [0, m]^s that meets each constraint and drops below one
    # when any positive entry falls by 1.
    s, m, through = case
    feasible = {a for a in product(range(m + 1), repeat=s)
                if all(sum(a[i] for i in t) >= m for t in through)}
    minimal = {a for a in feasible
               if not any(a[i] and a[:i] + (a[i] - 1,) + a[i + 1:] in feasible
                          for i in range(s))}
    found = gin._minimal_exponents(through, s, m)
    assert set(found) == minimal and len(found) == len(minimal)
    assert [sum(a) for a in found] == sorted(sum(a) for a in found)


def test_generator_degrees_are_certified_without_q_elimination():
    # Every degree of the certified result, not only the proved ones, is
    # the slice an exact elimination over Q finds.
    sch = build_star(2, 4).with_multiplicity(3)
    res = compute_gin(sch, seed=2)
    g = coordinate_change_for(res)
    for d in range(res.stop_degree + 1):
        slice_d = {u for u in monomials_of_degree(3, d) if res.min_generators.contains(u)}
        assert slice_d == gin_degree(sch, d, g)


def test_proofs_run_only_in_the_generator_degrees(monkeypatch):
    # star(2,4) m=3 has length 36 and generators in degrees 7 and 9.  The
    # search starts at 7, the least degree with 36 monomials, and the rank
    # reaches 36 at D = 8; the witness profiles 8, and only 7 and 9 are
    # proved.
    rows_at, proved_at = [], []
    rows_of, settle = gin._condition_rows, gin.certified_free_columns

    def rows_spy(points, m, mons):
        rows_at.append(sum(mons[0]))
        return rows_of(points, m, mons)

    def settle_spy(*args):
        proved_at.append(rows_at[-1])
        return settle(*args)

    monkeypatch.setattr(gin, "_condition_rows", rows_spy)
    monkeypatch.setattr(gin, "certified_free_columns", settle_spy)
    sch = build_star(2, 4).with_multiplicity(3)
    res = compute_gin(sch, seed=2)
    assert sorted({sum(g) for g in res.min_generators.generators}) == [7, 9]
    assert rows_at == [7, 8, 8, 7, 9]
    assert proved_at == [7, 9]
    assert min(rows_at) >= sch.multiplicity - 1


def test_failed_certificate_redraws(monkeypatch):
    # A certificate that fails is a failed draw: compute_gin moves on to
    # the next seed pair and proves the same ideal there.
    sch = build_star(2, 4).with_multiplicity(3)
    clean = compute_gin(sch, seed=2)
    certify, calls = gin.certified_free_columns, []

    def fails_once(rows, ncols, rank_bound):
        calls.append(ncols)
        return None if len(calls) == 1 else certify(rows, ncols, rank_bound)

    monkeypatch.setattr(gin, "certified_free_columns", fails_once)
    res = compute_gin(sch, seed=2)
    assert res.seeds_used == gin._seed_pairs(2)[1] != clean.seeds_used
    assert res.min_generators == clean.min_generators


def test_certificate_failing_every_draw_is_reported(monkeypatch):
    monkeypatch.setattr(gin, "certified_free_columns", lambda rows, ncols, rank_bound: None)
    with pytest.raises(GenericityError) as info:
        compute_gin(build_star(2, 4).with_multiplicity(3), seed=2)
    assert str(info.value).count("fail the proof over Q") == 3


def test_candidate_missing_a_generator_fails_the_proof(monkeypatch):
    # star(2,3) m=2 reaches its length 9 at D = 3, where the one free
    # column is x1^3, column 0.  Both profiles make it a pivot and free
    # x1^2 x2 instead, as a prime dividing a deciding minor could: the rank
    # and the witness agree, but the candidate lacks the generator x1^3,
    # and the proof over Q in degree 3 refuses it.
    sch = build_star(2, 3).with_multiplicity(2)
    clean = compute_gin(sch, seed=1)
    mod_p = gin.free_columns_mod_p

    def moved_generator(rows, ncols):
        free = mod_p(rows, ncols)
        return [1] if free == [0] else free

    monkeypatch.setattr(gin, "free_columns_mod_p", moved_generator)
    g1, g2 = coordinate_change_for(clean, 0), coordinate_change_for(clean, 1)
    with pytest.raises(GenericityError, match="degree-3 generators fail the proof"):
        gin._run_pair(sch, g1, g2, clean.seeds_used)
    with pytest.raises(GenericityError, match="after 3 attempts"):
        compute_gin(sch, seed=1)


def test_witness_mismatch_raises_and_compute_gin_redraws(monkeypatch):
    sch = build_star(2, 3).with_multiplicity(2)
    clean = compute_gin(sch, seed=1)
    mod_p, run_pair = gin.free_columns_mod_p, gin._run_pair
    profiles, pairs = [], []

    def phantom_witness_column(rows, ncols):
        # star(2,3) m=2 finds D = 3 at once, so every pair profiles twice:
        # the g1 search, then the g2 witness.  Until a second pair is
        # drawn, the witness gains a phantom free column.
        profiles.append(ncols)
        free = mod_p(rows, ncols)
        witness = len(profiles) % 2 == 0
        return free + [ncols] if witness and len(pairs) <= 1 else free

    def counting_run_pair(*args):
        pairs.append(args[3])
        return run_pair(*args)

    monkeypatch.setattr(gin, "free_columns_mod_p", phantom_witness_column)
    g1, g2 = coordinate_change_for(clean, 0), coordinate_change_for(clean, 1)
    with pytest.raises(GenericityError, match="disagree in degree 3"):
        gin._run_pair(sch, g1, g2, clean.seeds_used)
    monkeypatch.setattr(gin, "_run_pair", counting_run_pair)
    res = compute_gin(sch, seed=1)
    assert len(pairs) == 2 and pairs[0] == clean.seeds_used
    assert res.seeds_used == pairs[1] != clean.seeds_used
    assert same_math(res, clean)
    assert profiles == [10] * 6


GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens" / "gin.json"


CHEAP_POWERS = [(n, s, m) for n, s, m_max in [(2, 4, 4), (2, 5, 3), (3, 4, 3), (3, 5, 3)]
                for m in range(1, m_max + 1)]


def test_cheap_powers_match_the_benchmark_goldens(star_gin):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    for n, s, m in CHEAP_POWERS:
        doc = result_to_json(star_gin(n, s, m))
        del doc["seeds_used"]
        assert doc == goldens[f"star-{n}-{s}-{m}"], (n, s, m)


# The first seed pair that seeds 0 and 1 draw.  Every cheap power is found
# with it, so a redraw, or any change to what a draw decides, moves one.
FIRST_PAIRS = {
    0: (16294208416658607535, 7960286522194355700),
    1: (10451216379200822465, 13757245211066428519),
}


@pytest.mark.parametrize("seed", sorted(FIRST_PAIRS), ids=lambda seed: f"seed{seed}")
@pytest.mark.parametrize("n, s, m", CHEAP_POWERS,
                         ids=[f"star-{n}-{s}-{m}" for n, s, m in CHEAP_POWERS])
def test_cheap_powers_keep_their_seed_pairs(gin_cache, n, s, m, seed):
    res = compute_gin(build_star(n, s).with_multiplicity(m), seed=seed, cache=gin_cache)
    assert res.seeds_used == FIRST_PAIRS[seed]


SMALL_SCHEMES = [
    build_star(2, 3).with_multiplicity(2),
    build_star(2, 4).with_multiplicity(2),
    build_star(3, 4),
    FatPointScheme(2, tuple((Fraction(t * t), Fraction(t), Fraction(1)) for t in range(1, 7)), 2),
]


def generators_or_none(sch, g1, g2):
    try:
        return gin._run_pair(sch, g1, g2, (0, 0)).min_generators
    except GenericityError:
        return None


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_SCHEMES), st.integers(0, 2**32),
       st.sampled_from([2, GIN_BOUND]), st.integers(2, 9), st.data())
def test_scaling_a_row_of_g1_or_a_point_changes_nothing(sch, seed, bound, c, data):
    # Scaling a variable or a point's representative is the torus action,
    # which fixes every revlex initial ideal, and c is a unit mod p, so no
    # profile mod p moves either: the answer, or the refusal, stays.
    rng = SeededRng(seed)
    g1 = random_invertible_matrix(rng, sch.dim + 1, bound)
    g2 = random_invertible_matrix(rng, sch.dim + 1, bound)
    want = generators_or_none(sch, g1, g2)
    i = data.draw(st.integers(0, sch.dim))
    scaled_g1 = [[c * x for x in row] if j == i else row for j, row in enumerate(g1)]
    assert generators_or_none(sch, scaled_g1, g2) == want
    # _run_pair reads the points as int_points; a multiple of a point's
    # representative is the same projective point.
    j = data.draw(st.integers(0, len(sch.points) - 1))
    moved = replace(sch)
    vars(moved)["int_points"] = tuple(
        tuple(c * x for x in p) if t == j else p for t, p in enumerate(sch.int_points)
    )
    assert generators_or_none(moved, g1, g2) == want


def edit_document(text, **fields):
    doc = json.loads(text)
    doc.update(fields)
    return json.dumps(doc, sort_keys=True)


def consistent_forgery(text):
    # Every field agrees with the forged generators; only _validate (the
    # ideal is not Borel-fixed) can tell.
    res = result_from_json(json.loads(text))
    forged = replace(res, min_generators=MonomialIdeal(3, [(3, 0, 0), (0, 3, 0)]))
    return json.dumps(result_to_json(forged), sort_keys=True)


DAMAGES = {
    "truncated": lambda text: text[: len(text) // 2],
    "empty": lambda text: "",
    "not-json": lambda text: "\xff\xfe not json",
    "missing-keys": lambda text: json.dumps({"schema": "starshape.gin/1"}),
    "wrong-schema": lambda text: text.replace("starshape.gin/1", "starshape.gin/0"),
    "not-object": lambda text: json.dumps([1, 2, 3]),
    "bad-generator": lambda text: text.replace('"generators_full": [', '"generators_full": [7, '),
    "other-m": lambda text: text.replace('"m": 2', '"m": 3'),
    "other-bound": lambda text: text.replace('"bound": 1000', '"bound": 999'),
    "wrong-colength": lambda text: text.replace('"colength": "9"', '"colength": "8"'),
    "last-variable": lambda text: text.replace('"generators_full": [', '"generators_full": [[0, 0, 9], '),
    "short-hf-row": lambda text: text.replace('"hf_table": [[0, 0, 1]', '"hf_table": [[0]'),
    "hf-row-index": lambda text: text.replace("[2, 0, 6]", "[5, 0, 6]"),
    "q-above-dimension": lambda text: text.replace("[1, 0, 3]", "[1, 0, 4]"),
    "q-early-plateau": lambda text: text.replace("[2, 0, 6]", "[2, 0, 3]"),
    "q-no-plateau": lambda text: text.replace(", [4, 6, 9]", ""),
    "q-late-plateau": lambda text: text.replace("[4, 6, 9]", "[4, 6, 9], [5, 12, 9]"),
    "q-not-int": lambda text: text.replace("[1, 0, 3]", "[1, 0, 3.0]"),
    "q-within-shape": lambda text: text.replace("[2, 0, 6]", "[2, 0, 5]"),
    "consistent-forgery": consistent_forgery,
    "foreign-seeds": lambda text: edit_document(text, seeds_used=["1", "2"]),
    "no-pure-power": lambda text: edit_document(text, generators_full=[[2, 0, 0], [1, 1, 0]]),
}


@pytest.mark.parametrize("case", DAMAGES)
def test_broken_cache_file_is_a_miss_and_gets_rewritten(tmp_path, case):
    sch = build_star(2, 3).with_multiplicity(2)
    good = compute_gin(sch, seed=1, cache=FileGinCache(str(tmp_path)))
    (path,) = tmp_path.glob("*.json")
    intact = path.read_bytes()
    damaged = DAMAGES[case](intact.decode("utf-8"))
    assert damaged.encode("utf-8") != intact
    path.write_text(damaged, encoding="utf-8")
    assert gin._served(path.read_bytes(), sch, gin._seed_pairs(1)) is None
    res = compute_gin(sch, seed=1, cache=FileGinCache(str(tmp_path)))
    assert res == good
    assert path.read_bytes() == intact
    assert not list(tmp_path.glob("*.tmp"))


def test_cache_read_is_bounded_by_the_request(tmp_path, monkeypatch):
    # star(2,3) m=2 has length 9, so no answer has a generator of degree
    # above 9.  A canonical document for (x^100, y^100) is a miss before
    # its Hilbert function, whose cost grows with the pure powers, is
    # derived.
    sch = build_star(2, 3).with_multiplicity(2)
    good = compute_gin(sch, seed=1)
    forged = replace(good, min_generators=MonomialIdeal(3, [(100, 0, 0), (0, 100, 0)]))
    path = tmp_path / f"{cache_key(sch, 1)}.json"
    path.write_text(json.dumps(result_to_json(forged), sort_keys=True), encoding="utf-8")
    derived = []
    hilbert_values = MonomialIdeal.hilbert_values

    def spy(ideal):
        derived.append(ideal)
        return hilbert_values(ideal)

    monkeypatch.setattr(MonomialIdeal, "hilbert_values", spy)
    assert gin._served(path.read_bytes(), sch, gin._seed_pairs(1)) is None
    assert derived == []
    assert compute_gin(sch, seed=1, cache=FileGinCache(str(tmp_path))) == good
    assert json.loads(path.read_text(encoding="utf-8")) == result_to_json(good)


def test_cache_read_bounds_the_generator_count(tmp_path, monkeypatch):
    # star(2,3) m=2 has length 9 in 2 variables, so an answer has at most
    # 2 * 9 = 18 minimal generators.  The 55 degree-9 monomials pass the
    # degree bound, but the document is a miss before minimalize, quadratic
    # in their number, runs.
    sch = build_star(2, 3).with_multiplicity(2)
    good = compute_gin(sch, seed=1)
    gens = [list(u) for u in monomials_of_degree(3, 9)]
    assert max(map(sum, gens)) <= sch.fat_point_degree() < len(gens) / 2
    path = tmp_path / f"{cache_key(sch, 1)}.json"
    path.write_text(edit_document(json.dumps(result_to_json(good)), generators_full=gens))
    calls = []
    real = monomial.minimalize

    def spy(generators):
        calls.append(generators)
        return real(generators)

    monkeypatch.setattr(monomial, "minimalize", spy)
    assert gin._served(path.read_bytes(), sch, gin._seed_pairs(1)) is None
    assert calls == []
    assert compute_gin(sch, seed=1, cache=FileGinCache(str(tmp_path))) == good
    assert path.read_bytes() == gin._document(good)


def test_cache_entry_that_cannot_be_read_or_written(tmp_path):
    # A directory at the entry's path: reading it is a miss, and writing
    # over it, when the recomputed result is stored, is an error that names
    # the entry and leaves no temporary file.
    sch = build_star(2, 3).with_multiplicity(2)
    key = cache_key(sch, 1)
    (tmp_path / f"{key}.json").mkdir()
    cache = FileGinCache(str(tmp_path))
    assert cache.get(key) is None
    with pytest.raises(StarshapeError, match=f"cannot write cache entry .*{key}.json"):
        compute_gin(sch, seed=1, cache=cache)
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


def test_search_that_never_reaches_the_length_is_reported(monkeypatch):
    # Every column free mod p: the rank stays 0, below the length, in every
    # degree up to the cap, under every seed pair.
    monkeypatch.setattr(gin, "free_columns_mod_p", lambda rows, ncols: list(range(ncols)))
    with pytest.raises(GenericityError) as info:
        compute_gin(build_star(2, 3), seed=2)
    assert str(info.value).count("failed to stabilize by degree 10") == 3


def test_validate_refuses_another_power(star_gin):
    # star(2,3) m=2 has colength 9; the m=3 scheme has length 18.
    with pytest.raises(GenericityError, match="colength 9 != expected 18"):
        gin._validate(star_gin(2, 3, 2), build_star(2, 3).with_multiplicity(3))


def test_t_vector_needs_every_pure_power():
    res = GinResult(2, 1, MonomialIdeal(3, [(1, 0, 0)]), (0, 0))
    with pytest.raises(GenericityError, match="missing pure power on axis 2"):
        res.t_vector()
