"""Acceptance suite: one test (or named sub-test) per criterion, each
printing an ACCEPTANCE line.

Four assertions encode stated expected values that the exact computation
refutes; each is cross-checked here by an independent oracle, and each is
left failing deliberately with the computed value in the assertion message
(see test_c5_area_value_m2_as_stated, test_c5_areas_nonincreasing_as_stated,
test_c6_eq1_cross_check_as_stated, test_c7_conic_regularity_as_stated).
Green twins assert the oracle-verified truths next to them.
"""

import time
from fractions import Fraction
from math import comb

from oracles import (
    EQ,
    LE,
    brute_force_feasible,
    conditions_matrix,
    exact_free_columns,
    naive_condition_rows,
    naive_rank_and_kernel,
    naive_rref,
    prove_free_columns,
)
from starshape.cli import main as cli_main
from starshape.gin import compute_gin, result_to_json
from starshape.monomial import monomials_of_degree
from starshape.scheme import build_star
from starshape.shape import (
    AxisSimplex,
    avoids_interior,
    axis_intercept,
    contains,
    q_area_2d,
    scaled,
    shape_of,
)

STAR_CASES = [
    (2, 3, 6),
    (2, 4, 6),
    (2, 5, 6),
    (3, 4, 3),
    (3, 5, 3),
]


def F(a, b=1):
    return Fraction(a, b)


# --- criterion 1: golden initial ideals -----------------------------------


def test_c1_golden_gins(star_gin):
    t0 = time.monotonic()
    m1 = star_gin(2, 3, 1)
    m2 = star_gin(2, 3, 2)
    assert m1.artinian.generators == ((2, 0), (1, 1), (0, 2))
    assert m1.colength == 3
    assert m2.artinian.generators == ((3, 0), (2, 2), (1, 3), (0, 4))
    assert m2.colength == 9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE C1: PASS - golden initial ideals exact ({elapsed:.2f}s)")


# --- criterion 2: vertex hits ----------------------------------------------


def test_c2_vertex_hits(star_gin):
    t0 = time.monotonic()
    for s in (3, 4, 5):
        assert star_gin(2, s, 2).t_vector()[0] == s
        assert star_gin(2, s, 1).t_vector()[1] == s - 1
    for s in (4, 5):
        assert star_gin(3, s, 3).t_vector()[0] == s
        assert star_gin(3, s, 2).t_vector()[1] == s - 1
        assert star_gin(3, s, 1).t_vector()[2] == s - 2
    elapsed = time.monotonic() - t0
    assert elapsed < 150.0
    print(f"ACCEPTANCE C2: PASS - vertex hits exact on every axis ({elapsed:.1f}s)")


# --- criterion 3: axis bounds and interior avoidance ------------------------


def test_c3_axis_bounds_and_interior(star_gin):
    for n, s, m_max in STAR_CASES:
        simplex = AxisSimplex.star(n, s)
        for m in range(1, m_max + 1):
            res = star_gin(n, s, m)
            sh = scaled(shape_of(res), m)
            for i in range(1, n + 1):
                assert F(res.t_vector()[i - 1], m) >= simplex.intercepts[i - 1]
            assert avoids_interior(sh, simplex)
    print("ACCEPTANCE C3: PASS - scaled shapes never enter the simplex interior")


# --- criterion 4: colength identity -----------------------------------------


def test_c4_colength_identity(star_gin):
    for n, s, m_max in STAR_CASES:
        for m in range(1, m_max + 1):
            assert star_gin(n, s, m).colength == comb(s, n) * comb(n + m - 1, n)
    print("ACCEPTANCE C4: PASS - colength identity exact in every computed case")


# --- criterion 5: area trend (n = 2) ----------------------------------------


def areas_star23(star_gin):
    return [q_area_2d(scaled(shape_of(star_gin(2, 3, m)), m)) for m in range(1, 7)]


def test_c5_areas_start_bound_and_limit(star_gin):
    areas = areas_star23(star_gin)
    assert areas[0] == 2
    assert all(a >= F(3, 2) for a in areas)
    assert abs(areas[5] - F(3, 2)) <= F(3, 2) * Fraction(15, 100)
    print(
        "ACCEPTANCE C5 (start/bound/limit): PASS - areas "
        + ", ".join(str(a) for a in areas)
    )


def test_c5_area_value_m2_as_stated(star_gin):
    areas = areas_star23(star_gin)
    print(f"ACCEPTANCE C5 (m=2 value as stated): FAIL - computed {areas[1]}")
    assert areas[1] == F(7, 4), (
        f"stated 7/4, computed exactly {areas[1]}: the generator (2,2) equals "
        "(2,4/3)+(0,2/3), so the convex chain is the chord (0,4)-(3,0) and the "
        "unscaled area is 6, not 7 (confirmed by the clipping oracle in "
        "test_shape.py)"
    )


def test_c5_areas_nonincreasing_as_stated(star_gin):
    areas = areas_star23(star_gin)
    print(f"ACCEPTANCE C5 (monotone as stated): FAIL - computed {areas}")
    assert all(a >= b for a, b in zip(areas, areas[1:])), (
        f"stated nonincreasing, computed {[str(a) for a in areas]}: the area "
        "equals the simplex area 3/2 exactly at m = 2, 4, 6 and bumps above "
        "it at odd m, so the sequence oscillates"
    )


# --- criterion 6: multiplicity cross-check (n = 2) ---------------------------


def _c6_pair(star_gin, s, m):
    area = q_area_2d(scaled(shape_of(star_gin(2, s, m)), m))
    x = 2 * area
    y = F(2 * star_gin(2, s, m).colength, m * m)
    return x, y


def test_c6_eq1_cross_check_as_stated(star_gin):
    diffs = {}
    for s in (3, 4):
        x, y = _c6_pair(star_gin, s, 6)
        diffs[s] = abs(x - y) / max(x, y)
    print(f"ACCEPTANCE C6 (10% at m=6 as stated): FAIL - computed {diffs}")
    for s, rel in diffs.items():
        assert rel <= Fraction(10, 100), (
            f"stated <= 10% at m=6 for s={s}; computed exactly {rel} (= 1/7): "
            "2*area equals binom(s,2) exactly at m=6 while 2*colength/m^2 = "
            "binom(s,2)*(m+1)/m, so the relative gap is 1/(m+1) = 14.29%"
        )


def test_c6_both_quantities_tend_to_binom(star_gin):
    for s in (3, 4):
        target = comb(s, 2)
        for m in (2, 4, 6):
            x, y = _c6_pair(star_gin, s, m)
            assert x == target  # exact at multiples of n
            assert y == target * F(m + 1, m)
        rel = lambda m: abs(_c6_pair(star_gin, s, m)[0] - _c6_pair(star_gin, s, m)[1]) / target
        assert rel(2) > rel(4) > rel(6)
    print("ACCEPTANCE C6 (trend): PASS - both quantities tend to binom(s,2)")


# --- criterion 7: conic scenario ---------------------------------------------


def test_c7_conic_alpha_and_t2(conic_gin):
    for m in range(1, 5):
        res = conic_gin(m)
        assert res.alpha() == 2 * m
        ratio = F(res.t_vector()[1], m)
        assert F(3) <= ratio <= 3 + F(2, m)
    print("ACCEPTANCE C7 (alpha, t2 interval): PASS - alpha=2m, t2=3m+1 for m<=4")


def test_c7_conic_pipeline_with_expected_vertices(tmp_path):
    rc = cli_main(
        ["custom", "--points", "conic", "--m-max", "3",
         "--expect-vertices", "2,3", "--cache", str(tmp_path / "c")]
    )
    assert rc == 0
    rc_bad = cli_main(
        ["custom", "--points", "conic", "--m-max", "3",
         "--expect-vertices", "2,2", "--cache", str(tmp_path / "c")]
    )
    assert rc_bad == 1
    print(
        "ACCEPTANCE C7 (pipeline): PASS - expected vertices 2,3 verified; "
        "the limiting shape does not certify a star configuration"
    )


def test_c7_conic_regularity_as_stated(conic_gin):
    reg = conic_gin(1).regularity()
    print(f"ACCEPTANCE C7 (reg as stated): FAIL - computed {reg}")
    assert reg == 3, (
        f"stated 3, computed exactly {reg}: the quotient Hilbert function "
        "1,3,5,6 forces artinian slices 1,2,2,1, hence x2^4 is a minimal "
        "generator; reg(I^(m)) = 3m+1 with limit 3 (the asymptotic value), "
        "but the m=1 value is 4"
    )


def test_c7_conic_regularity_oracle_truth(conic_gin):
    res = conic_gin(1)
    assert res.regularity() == 4
    assert (0, 4) in res.artinian.generators
    assert [q for _, _, q in res.hf_table] == [1, 3, 5, 6, 6]
    artinian_hf = [res.artinian.hilbert_function(d) for d in range(5)]
    assert artinian_hf == [1, 2, 2, 1, 0]
    print("ACCEPTANCE C7 (reg, computed truth): PASS - reg(gin(I)) = 4, forced by HF")


# --- criterion 8: structural property suite ----------------------------------


def test_c8_structural_suite(star_gin, conic_gin, gin_cache):
    all_results = [
        star_gin(n, s, m)
        for n, s, m_max in STAR_CASES
        for m in range(1, m_max + 1)
    ] + [conic_gin(m) for m in range(1, 5)]
    for res in all_results:
        assert res.min_generators.is_borel_fixed()
        assert all(g[-1] == 0 for g in res.min_generators.generators)
        for d, dim_d, q in res.hf_table:
            assert res.min_generators.hilbert_function(d) == q
            assert dim_d + q == comb(d + res.n, res.n)

    # Double-seed and mode independence (recomputed, not cached).
    sch = build_star(2, 3).with_multiplicity(2)
    a = compute_gin(sch, seed=111)
    b = compute_gin(sch, seed=222)
    assert result_to_json(a)["generators"] == result_to_json(b)["generators"]
    for n, s, m in [(2, 3, 1), (2, 3, 2), (3, 4, 1)]:
        vand = compute_gin(build_star(n, s).with_multiplicity(m), seed=5)
        seeded = compute_gin(build_star(n, s, mode="seeded", seed=23).with_multiplicity(m), seed=5)
        assert vand.min_generators == seeded.min_generators
        assert vand.hf_table == seeded.hf_table

    # Initial-degree subadditivity over all computed pairs.
    for n, s, m_max in STAR_CASES:
        alphas = {m: star_gin(n, s, m).alpha() for m in range(1, m_max + 1)}
        for k in range(1, m_max):
            for l in range(1, m_max + 1 - k):
                assert alphas[k + l] <= alphas[k] + alphas[l]
    print("ACCEPTANCE C8: PASS - Borel, last-variable-free, HF agreement, "
          "seed/mode independence, subadditivity")


# --- criterion 9: oracle equivalence ------------------------------------------


def test_c9_rank_and_nullspace_against_naive_oracle(conic_scheme):
    # The pipeline's proved profile of every condition matrix (mod-p profile
    # plus certificate), and the fraction-free oracle's, against naive
    # Fraction elimination; the naive kernel dimension against the computed
    # hf_table.
    checked = 0
    schemes = [
        build_star(n, s).with_multiplicity(m)
        for n, s, m in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (2, 4, 1),
                        (2, 5, 1), (3, 3, 1), (3, 4, 1), (3, 5, 1)]
    ] + [conic_scheme]
    for sch in schemes:
        n, m = sch.dim, sch.multiplicity
        nrows = len(sch.points) * comb(m - 1 + n, n)
        if nrows > 12:
            continue
        res = compute_gin(sch, seed=1)
        for d in range(res.stop_degree + 2):
            rows = conditions_matrix(sch, d)
            ncols = len(rows[0])
            oracle_rank, oracle_kernel = naive_rank_and_kernel(rows, ncols)
            for v in oracle_kernel:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
            scan, _ = naive_rref(rows, range(ncols - 1, -1, -1))
            oracle_free = [j for j in range(ncols) if j not in scan]
            int_rows = naive_condition_rows(sch.int_points, n + 1, m, monomials_of_degree(n + 1, d), d)
            assert len(oracle_free) == ncols - oracle_rank
            assert prove_free_columns(int_rows, ncols) == oracle_free
            assert exact_free_columns(int_rows, ncols) == oracle_free
            if d >= m:
                dim_d = res.hf_table[d][1] if d <= res.stop_degree else ncols - res.colength
                assert len(oracle_kernel) == dim_d
            checked += 1
    assert checked >= 40
    print(f"ACCEPTANCE C9 (linear algebra): PASS - {checked} condition matrices "
          "match the naive fraction oracle")


def test_c9_membership_against_vertex_enumeration(star_gin):
    cases = [
        scaled(shape_of(star_gin(2, 3, 1)), 1),
        scaled(shape_of(star_gin(2, 3, 2)), 2),
        shape_of(star_gin(3, 4, 1)),
    ]
    queries = 0
    for sh in cases:
        n = sh.num_vars
        tops = [axis_intercept(sh, i) + 1 for i in range(1, n + 1)]
        grid = [F(2 * k, 2) / 2 for k in range(0, 7)]  # 0, 1/2, ..., 3
        if n == 2:
            points = [(x * tops[0] / 3, y * tops[1] / 3) for x in grid for y in grid]
        else:
            g3 = grid[::2]
            points = [
                (x * tops[0] / 3, y * tops[1] / 3, z * tops[2] / 3)
                for x in g3
                for y in g3
                for z in g3
            ]
        for q in points:
            k = len(sh.points)
            rows = [[g[i] for g in sh.points] for i in range(n)]
            rows.append([Fraction(1)] * k)
            rels = [LE] * n + [EQ]
            rhs = list(q) + [Fraction(1)]
            expected = brute_force_feasible(rows, rels, rhs, k)
            got = contains(sh, q)
            assert got == expected, f"membership mismatch at {q}"
            queries += 1
    assert queries >= 100
    print(f"ACCEPTANCE C9 (membership): PASS - {queries} point queries match "
          "vertex enumeration")
